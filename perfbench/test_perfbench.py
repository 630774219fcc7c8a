"""Tests of the benchmark itself: the gate bites, the tracer accounts for
the time, the plans are seeded and covered by the reference.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
import workloads
from spans import Tracer, aggregate, top_level_total
from worker import run_pass

run.check_source()

CHEAP = [("classify", "n1:1"), ("classify", "n1:1", "--json"),
         ("classify", "n1", "--grid", "1..4", "--strict-symmetry", "--json"),
         ("verify", "m3:6:3", "--verbatim-tables"),
         ("verify", "m4:6:2", "--json", "--verbatim-tables"),
         ("annihilator", "m3:6:3"),
         ("verify", "@broken:c=4"), ("table", "@member:c=4", "--json"),
         ("annihilator", "@s2")]


@pytest.fixture(scope="module")
def reference():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return workloads.write_inputs(workloads.file_inputs(CHEAP),
                                  tmp_path_factory.mktemp("inputs"))


@pytest.fixture(scope="module")
def traced(paths):
    tracer = Tracer()
    return run_pass(CHEAP, paths, tracer), tracer


def test_reference_covers_every_command(reference):
    for name in workloads.WORKLOADS:
        missing = {workloads.key(c) for c in workloads.every_command(name)}
        missing -= set(reference["commands"])
        assert not missing


def test_plans_are_seeded():
    for name in workloads.WORKLOADS:
        first = workloads.plan(name, 7)
        assert first == workloads.plan(name, 7)
        assert set(first) <= workloads.every_command(name)
        assert any(workloads.plan(name, s) != first for s in range(8))


def test_gate_passes_the_recorded_answers(paths, reference):
    result = run_pass(CHEAP, paths)
    digests = {n: run.file_digest(p) for n, p in paths.items()}
    attempted, failed, messages = run.gate_failures([result], reference,
                                                    digests)
    assert (attempted, failed, messages) == (len(CHEAP), 0, [])


def test_gate_detects_a_wrong_reference_entry(paths, reference):
    result = run_pass(CHEAP, paths)
    wrong = json.loads(json.dumps(reference))
    key = workloads.key(CHEAP[0])
    wrong["commands"][key] = wrong["commands"][workloads.key(CHEAP[1])]
    attempted, failed, messages = run.gate_failures([result], wrong, {})
    assert failed / attempted > 0
    assert messages == [f"{key}: answer differs (exit 0)"]


def test_theory_checks_need_no_reference():
    assert gate.theory_problems(("classify", "n1:2"), 0,
                                "dimension 1; representatives: P1\n")
    assert gate.theory_problems(("verify", "m3:6:3", "--verbatim-tables"), 1,
                                "73 violation(s); showing first 10:\n")
    assert gate.theory_problems(("verify", "m3:6:3"), 1, "")
    assert gate.theory_problems(("verify", "@broken:c=1"), 0, "OK\n")
    assert not gate.theory_problems(("classify", "n1:2"), 0,
                                    "dimension 0; [L1,L1]=0\n")


def test_digest_ignores_rank_and_new_fields():
    cmd = ("classify", "n1:1", "--json")
    answer = {"dimension": 1, "rank": 9, "names": ["S1", "S2"]}
    changed = dict(answer, rank=3, stats={"rows": 1})
    assert gate.digest(cmd, 0, json.dumps(answer)) == \
        gate.digest(cmd, 0, json.dumps(changed))
    assert gate.digest(cmd, 0, json.dumps(answer)) != \
        gate.digest(cmd, 0, json.dumps(dict(answer, dimension=2)))


def test_traced_answers_match_the_reference(traced, reference):
    result, _ = traced
    assert run.gate_failures([result], reference, {})[1] == 0


def test_self_times_add_up_to_the_top_level_spans(traced):
    result, _ = traced
    spans = result["spans"]
    top = [s for s in spans if s[1] < 0]
    assert [s[0] for s in top] == ["cli.main"] * len(CHEAP)
    total_self = sum(v["self_s"] for v in aggregate(spans).values())
    assert total_self == pytest.approx(top_level_total(spans), abs=1e-9)
    for name, parent, start, end in spans:
        if parent >= 0:
            assert spans[parent][2] <= start <= end <= spans[parent][3]


def test_top_level_spans_match_the_pass_time(traced):
    result, _ = traced
    total = top_level_total(result["spans"])
    assert total <= result["pass_s"]
    # what is left is the loop's own work: capturing stdout, the clock
    assert result["pass_s"] - total < 0.002 * len(CHEAP)


def test_spans_cover_the_layers(traced):
    result, _ = traced
    agg = aggregate(result["spans"])
    for name in ("catalog.resolve", "catalog.assemble",
                 "algebra.check_bimodule_axioms", "algebra.check_leibniz",
                 "algebra.check_leibniz_super", "algebra.right_annihilator",
                 "algebra.SuperAlgebra.from_json",
                 "algebra.SuperAlgebra.to_json",
                 "classify.annihilator_prefilter",
                 "classify.generate_constraints", "classify.solve",
                 "classify.classify", "linalg.RowSpace.add"):
        assert agg[name]["calls"] > 0, name
    # n1:1 in text, in JSON and in the strict grid
    assert result["counts"]["classify.kernel_dim"] == 3


def test_tracer_restores_the_package(traced):
    classify_module = importlib.import_module("sl2super.classify")
    cli_module = importlib.import_module("sl2super.cli")
    algebra = importlib.import_module("sl2super.algebra")
    assert not hasattr(classify_module.generate_constraints, "__wrapped__")
    assert cli_module.classify is classify_module.classify
    assert not hasattr(algebra.check_leibniz_super, "__wrapped__")
    assert "from_json" in vars(algebra.SuperAlgebra)
    assert not hasattr(algebra.SuperAlgebra.from_json, "__wrapped__")


def test_run_fails_without_the_package_source(tmp_path):
    root = run.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_a_short_run_keeps_the_result_contract(trace, section):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-tables",
         "--seed", "3", "--seconds", "2", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        declared
