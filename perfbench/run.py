"""Benchmark of the sl2super command line, end to end and layer by layer.

    python3 perfbench/run.py --workload classify-large --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workloads are described in ``perfbench/README.md``.

A run writes the JSON input files, then runs passes over the seeded
command list until ``--seconds``, counted from the start, is spent, each
pass in a fresh single-threaded worker process, one at a time.  With
``--trace 0`` every pass is untraced, fresh interpreters are timed between
passes for the set-up time, and the end-to-end metrics are reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics of the traced passes are reported.  Every answer is
compared with ``reference.json``.  The last line of stdout is the result as
one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from spans import aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: Fresh interpreters timed per run for ``setup_s``, spread over the run;
#: the median is reported.
SETUP_SAMPLES = 15
#: A worker still running after this many seconds is killed and the run
#: fails, so that a run ends within its time limit.
WORKER_TIMEOUT = 150
SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); "
              "import sl2super.cli; sl2super.cli.build_parser()")

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "item_p50_s": "s",
                    "item_tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "catalog.resolve.calls": "count",
    "catalog.resolve.self_s": "s",
    "catalog.assemble.calls": "count",
    "catalog.assemble.self_s": "s",
    "algebra.check_bimodule_axioms.calls": "count",
    "algebra.check_bimodule_axioms.self_s": "s",
    "algebra.check_leibniz_super.calls": "count",
    "algebra.check_leibniz_super.self_s": "s",
    "algebra.check_leibniz.calls": "count",
    "algebra.SuperAlgebra.from_json.self_s": "s",
    "algebra.SuperAlgebra.to_json.self_s": "s",
    "algebra.right_annihilator.self_s": "s",
    "algebra.violations": "count",
    "classify.annihilator_prefilter.self_s": "s",
    "classify.filtered": "count",
    "classify.generate_constraints.calls": "count",
    "classify.generate_constraints.self_s": "s",
    "classify.unknowns": "count",
    "classify.rows": "count",
    "classify.rank_per_row": "ratio",
    "classify.solve.self_s": "s",
    "classify.kernel_dim": "count",
    "classify.classify.self_s": "s",
    "linalg.RowSpace.add.calls": "count",
    "linalg.RowSpace.add.self_s": "s",
    "linalg.RowSpace.add.accepted_ratio": "ratio",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def check_source() -> None:
    if not (SRC / "sl2super" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import sl2super
    if Path(sl2super.__file__).resolve().parent != SRC / "sl2super":
        raise BenchError(f"imported sl2super from {sl2super.__file__}, "
                         f"not from {SRC}")


def time_setup(samples: int) -> list[float]:
    """Wall times of ``samples`` fresh interpreters that each import the
    package and build the CLI parser."""
    argv = [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))]
    times = []
    for _ in range(samples):
        start = perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, timeout=60)
        times.append(perf_counter() - start)
    return times


def run_worker(commands, paths, trace: bool, workdir: Path, index: int
               ) -> dict:
    plan_path = workdir / f"plan-{index}.json"
    result_path = workdir / f"result-{index}.json"
    plan_path.write_text(json.dumps({
        "src": str(SRC), "trace": trace, "paths": paths,
        "commands": [list(c) for c in commands]}), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path),
                    str(result_path)], check=True, cwd=ROOT,
                   timeout=WORKER_TIMEOUT)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_passes(commands, paths, trace: bool, start: float, seconds: float,
               workdir: Path) -> tuple[list[dict], list[dict], list[float]]:
    """Passes until ``seconds`` after ``start``: untraced ones, or with
    ``trace`` untraced and traced ones alternating.  At least one of each
    kind runs; another pass starts only when the last one would still fit.

    Without ``trace`` the ``SETUP_SAMPLES`` set-up samples are spread over
    the run in proportion to the time spent, so that they see the machine
    in the same states as the passes do.  Returns the untraced and traced
    pass results and the set-up times.
    """
    kinds = (False, True) if trace else (False,)
    done: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    setup_times: list[float] = []

    def sample_setup(due: int) -> None:
        if not trace:
            setup_times.extend(time_setup(due - len(setup_times)))

    index = 0
    while True:
        share = (perf_counter() - start) / seconds
        sample_setup(min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * share)))
        kind = kinds[index % len(kinds)]
        begun = perf_counter()
        done[kind].append(run_worker(commands, paths, kind, workdir, index))
        wall = perf_counter() - begun
        index += 1
        if all(done.values()) and perf_counter() + wall > start + seconds:
            break
    sample_setup(SETUP_SAMPLES)
    return done[False], done.get(True, []), setup_times


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest order statistic with at least ten samples above it, and
    its description.  Below 21 samples that statistic is not above the
    median, and the maximum is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"max of {n}"
    k = n - 11
    return ordered[k], f"p{100 * (k + 1) / n:.0f} of {n}"


def file_digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def gate_failures(passes, reference: dict, input_digests: dict
                  ) -> tuple[int, int, list[str]]:
    """(attempted, failed, first messages) over every command of every pass
    plus the generated inputs."""
    attempted = failed = 0
    messages: list[str] = []
    for name, got in input_digests.items():
        if reference["inputs"].get(name) != got:
            failed += 1
            messages.append(f"input {name}: file differs from the reference")
    for result in passes:
        for item in result["items"]:
            attempted += 1
            wrong = list(item["problems"])
            want = reference["commands"].get(item["key"])
            if want is None:
                wrong.append("no reference answer")
            elif item["digest"] != want:
                wrong.append(f"answer differs (exit {item['code']})")
            if wrong:
                failed += 1
                messages.append(f"{item['key']}: {'; '.join(wrong)}")
    return attempted, failed, messages


def end_to_end(untraced, setup_times) -> dict[str, float]:
    items = [it["seconds"] for r in untraced for it in r["items"]]
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(r["pass_s"] for r in untraced),
        "item_p50_s": statistics.median(items),
        "item_tail_s": tail(items)[0],
        "peak_rss_mb": max(r["peak_rss_kb"] for r in untraced) / 1024,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    agg = aggregate(result["spans"])
    counts = result["counts"]
    out = {}
    for name in PER_LAYER_UNITS:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            out[name] = agg.get(span, {}).get(field, 0)
        else:
            out[name] = counts.get(name, 0)
    out["classify.rank_per_row"] = _ratio(counts.get("classify.rank", 0),
                                          out["classify.rows"])
    out["linalg.RowSpace.add.accepted_ratio"] = _ratio(
        counts.get("linalg.RowSpace.add.accepted", 0),
        out["linalg.RowSpace.add.calls"])
    out["cli.stdout_bytes"] = result["stdout_bytes"]
    return out


def per_layer(untraced, traced) -> dict[str, float]:
    """Medians over the traced passes; the tracing overhead is the median
    traced pass minus the median untraced pass."""
    passes = [layer_metrics(r) for r in traced]
    out = {name: statistics.median(m[name] for m in passes)
           for name in PER_LAYER_UNITS}
    out["trace.overhead_s"] = (statistics.median(r["pass_s"] for r in traced)
                               - statistics.median(r["pass_s"]
                                                   for r in untraced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_source()
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except (BenchError, ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    commands = workloads.plan(args.workload, args.seed)
    trace = bool(args.trace)
    start = perf_counter()
    if not trace:
        time_setup(1)  # untimed: compiles the bytecode
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
        workdir = Path(tmp)
        paths = workloads.write_inputs(workloads.file_inputs(commands),
                                       workdir)
        input_digests = {name: file_digest(p) for name, p in paths.items()}
        untraced, traced, setup_times = run_passes(
            commands, paths, trace, start, args.seconds, workdir)
    attempted, failed, messages = gate_failures(untraced + traced, reference,
                                                input_digests)
    if trace:
        metrics, units = per_layer(untraced, traced), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(untraced, setup_times), END_TO_END_UNITS

    items = [it["seconds"] for r in untraced for it in r["items"]]
    print(f"python {platform.python_version()} "
          f"({platform.python_implementation()}), workload {args.workload}, "
          f"seed {args.seed}, {len(commands)} commands per pass, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print(f"item_tail_s is the {tail(items)[1]} untraced command times; "
          f"failed_frac {failed / max(attempted, 1):.4f} "
          f"({failed} of {attempted})")
    for message in messages[:20]:
        print(f"  wrong: {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
