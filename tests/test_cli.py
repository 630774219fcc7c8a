"""Command line interface: output lines, exit codes, JSON modes."""

import importlib
import io
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2super import algebra, cli
from sl2super.catalog import superalgebra_s2
from sl2super.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_sl2(capsys):
    code, out, err = run(capsys, "table", "sl2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 6
    assert "[e,f] = h" in lines
    assert "[h,e] = -2e" in lines
    assert "[f,h] = -2f" in lines


def test_table_s2_contains_odd_products(capsys):
    code, out, _ = run(capsys, "table", "s2")
    assert code == 0
    assert "[x_0,x_0] = 2e" in out.splitlines()
    assert "[x_1,x_0] = h" in out.splitlines()


def test_table_of_module_skeleton_has_no_odd_products(capsys):
    code, out, _ = run(capsys, "table", "n1:0")
    assert code == 0
    for line in out.splitlines():
        assert not line.startswith("[x_")


def test_table_json_is_byte_identical_to_library_serialization(capsys):
    code, out, _ = run(capsys, "table", "s2", "--json")
    assert code == 0
    assert out == superalgebra_s2().to_json()
    assert out == (GOLDEN / "s2.json").read_text()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("identifier", ["sl2", "s1", "s2", "n1:4", "m1:3",
                                        "m3:6:3"])
def test_verify_catalog_entries_pass(capsys, identifier):
    code, out, _ = run(capsys, "verify", identifier)
    assert code == 0
    assert out.strip() == "OK"


def test_verify_verbatim_chain_fails_with_examples(capsys):
    code, out, _ = run(capsys, "verify", "m3:4:2", "--verbatim-tables")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "45 violation(s); showing first 10:"
    assert len(lines) == 11
    assert all(line.startswith("  bimodule-") for line in lines[1:])


def test_verify_json_reports_status(capsys):
    code, out, _ = run(capsys, "verify", "m4:4:2", "--verbatim-tables",
                       "--json")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert len(data["violations"]) == 10
    assert set(data["violations"][0]) == {"identity", "labels", "residual"}

    code, out, _ = run(capsys, "verify", "s2", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("identifier,total", [("m3:6:3", 74),
                                              ("m4:6:2", 34)])
def test_verify_json_reports_the_total_beside_the_sample(capsys, identifier,
                                                         total):
    code, out, _ = run(capsys, "verify", identifier, "--verbatim-tables",
                       "--json")
    assert code == 1
    data = json.loads(out)
    assert data["total"] == total
    assert len(data["violations"]) == 10

    code, out, _ = run(capsys, "verify", identifier, "--json")
    assert code == 0
    assert json.loads(out)["total"] == 0


def test_verify_file_round_trip(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(superalgebra_s2().to_json())
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.strip() == "OK"


def test_verify_rejects_broken_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"brackets\": []}")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "error:" in err


def _s2_json_with(edit):
    data = superalgebra_s2().to_json_dict()
    edit(data)
    return data


@pytest.mark.parametrize("data", [
    {"basis": 5},
    _s2_json_with(lambda d: d.update(brackets=3)),
    _s2_json_with(lambda d: d["brackets"][0]["result"][0].update(coeff="1/0")),
    _s2_json_with(lambda d: d["basis"].__setitem__(0, "e")),
    _s2_json_with(lambda d: d["brackets"][0]["result"][0].pop("label")),
    *(_s2_json_with(lambda d, c=coeff: d["brackets"][0]["result"][0].update(
        coeff=c)) for coeff in ("1.5", "1e400", 1.5, 2, "+1", " 1", "1/-2",
                                "1_000", "")),
    # it used to load as the label str(label), "['a']", "None" or "0"
    *({"basis": [{"label": label, "parity": "even"}], "brackets": []}
      for label in (["a"], None, 0)),
], ids=["basis-not-a-list", "brackets-not-a-list", "zero-denominator",
        "basis-entry-not-an-object", "result-term-without-label",
        "decimal-string", "exponent-string", "json-float", "json-integer",
        "plus-sign", "leading-space", "negative-denominator", "underscore",
        "empty-string", "label-a-list", "label-null", "label-a-number"])
def test_verify_malformed_file_is_a_usage_error(tmp_path, capsys, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_rejects_unknown_id(capsys):
    code, out, err = run(capsys, "verify", "q5:3")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# annihilator
# ---------------------------------------------------------------------------


def test_annihilator_module_flags(capsys):
    code, out, _ = run(capsys, "annihilator", "m1:3")
    assert code == 0
    assert out.splitlines() == ["y_0", "y_1"]

    code, out, _ = run(capsys, "annihilator", "n1:2")
    assert out.strip() == "none"


def test_annihilator_algebra_basis(capsys):
    code, out, _ = run(capsys, "annihilator", "sl2")
    assert code == 0
    assert out.strip() == "none"

    code, out, _ = run(capsys, "annihilator", "m2:2", "--json")
    data = json.loads(out)
    assert data["flagged"] == ["x_0", "x_1", "x_2"]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_family_case_text(capsys):
    code, out, _ = run(capsys, "classify", "n1:1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dimension 1; representatives: S1, S2"
    assert "representative S1:" in lines
    assert "representative S2:" in lines
    assert "  [x_0,x_0] = 2e" in lines
    assert lines[-1] == "family: S1,S2"


def test_classify_rigid_case_text(capsys):
    code, out, _ = run(capsys, "classify", "n1:3")
    assert code == 0
    assert out.strip() == "dimension 0; [L1,L1]=0"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "n1:1", "--json")
    data = json.loads(out)
    assert data["dimension"] == 1
    assert data["names"] == ["S1", "S2"]
    assert data["vectors"] == [{"a_0_0": "2", "b_1_1": "2", "c_0_1": "1"}]


def count_lazy_builds(monkeypatch):
    """Counts of the calls to ``assemble`` (from the CLI or ``classify``)
    and of the ``Fraction`` action sides built from an integer form."""
    counts = Counter()
    # the package exports the function classify under the module's name
    classify_module = importlib.import_module("sl2super.classify")
    for module, name in ((cli, "assemble"), (classify_module, "assemble"),
                         (algebra, "_fraction_columns")):
        def counted(*args, _name=name, _real=getattr(module, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("argv", [
    ("classify", "n1:24"), ("classify", "m1:24"), ("classify", "m3:16:3"),
    ("classify", "m1", "--grid", "2..6"),
    ("classify", "m3", "--grid", "4:2,6:3")])
def test_a_text_classify_of_dimension_0_reads_only_integers(monkeypatch,
                                                            capsys, argv):
    # it prints the summary line, which needs neither the zero table nor a
    # Fraction column
    counts = count_lazy_builds(monkeypatch)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert all(line.endswith("dimension 0; [L1,L1]=0")
               for line in out.splitlines())
    assert counts == Counter()


def test_the_zero_table_is_assembled_when_it_is_printed(monkeypatch, capsys):
    counts = count_lazy_builds(monkeypatch)
    code, out, _ = run(capsys, "classify", "n1:1")
    assert code == 0
    assert out.splitlines()[0] == "dimension 1; representatives: S1, S2"
    # the solved table in classify, then the zero table for the names, both
    # laid out from the integer form without a Fraction view
    assert counts["assemble"] == 2 and counts["_fraction_columns"] == 0
    code, out, _ = run(capsys, "classify", "n1:1", "--json")
    assert code == 0
    assert json.loads(out)["representatives"] == [
        json.loads((GOLDEN / f"{name}.json").read_text())
        for name in ("s1", "s2")]


def test_classify_strict_flag(capsys):
    code, out, _ = run(capsys, "classify", "n1:1", "--strict-symmetry",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["strict"] is True and data["symmetry_emerged"] is True


def test_classify_grid_ranges(capsys):
    code, out, _ = run(capsys, "classify", "n1", "--grid", "2..4")
    assert code == 0
    assert out.splitlines() == [
        "n1:2: dimension 0; [L1,L1]=0",
        "n1:3: dimension 0; [L1,L1]=0",
        "n1:4: dimension 0; [L1,L1]=0",
    ]


def test_classify_grid_pairs(capsys):
    code, out, _ = run(capsys, "classify", "m3", "--grid", "4:2,6:3")
    assert code == 0
    assert out.splitlines() == [
        "m3:4:2: dimension 0; [L1,L1]=0",
        "m3:6:3: dimension 0; [L1,L1]=0",
    ]


@pytest.mark.parametrize("family,grid,ids", [
    ("n1", "2..3,3", ["n1:2", "n1:3"]),
    ("n1", "3,2..3,2", ["n1:3", "n1:2"]),
    ("m3", "6:3,4:2,6:3", ["m3:6:3", "m3:4:2"])])
def test_a_repeated_grid_id_is_classified_once(capsys, family, grid, ids):
    # the text lines and the JSON keys name the same ids, in the order each
    # was first named
    code, out, _ = run(capsys, "classify", family, "--grid", grid)
    assert code == 0
    assert out.splitlines() == [f"{i}: dimension 0; [L1,L1]=0" for i in ids]
    code, out, _ = run(capsys, "classify", family, "--grid", grid, "--json")
    assert code == 0
    assert list(json.loads(out)) == ids


@pytest.mark.parametrize("grid,message", [
    ("1..2,5..3", "grid range '5..3' is reversed; write it as 3..5"),
    ("3..1", "grid range '3..1' is reversed; write it as 1..3"),
    ("2..-1", "grid range '2..-1' is reversed; write it as -1..2")],
    ids=["after-a-range", "alone", "negative-end"])
def test_a_reversed_grid_range_is_a_usage_error(capsys, grid, message):
    # not an empty range to drop: the other ranges are not classified alone
    code, out, err = run(capsys, "classify", "n1", "--grid", grid)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_classify_grid_rejects_mismatched_shapes(capsys):
    code, _, err = run(capsys, "classify", "m3", "--grid", "2..4")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "classify", "n1", "--grid", "4:2")
    assert code == 2
    code, _, err = run(capsys, "classify", "s2", "--grid", "1..2")
    assert code == 2


@pytest.mark.parametrize("args,message", [
    (("table", "n1:3_0"), "non-integer parameter in id 'n1:3_0'"),
    (("table", "n1:+3"), "non-integer parameter in id 'n1:+3'"),
    (("classify", "n1", "--grid", "1_0..1_1"), "bad grid range '1_0..1_1'"),
    (("classify", "n1", "--grid", "+1..2"), "bad grid range '+1..2'"),
    (("classify", "n1", "--grid", "\u0661..2"),
     "bad grid range '\u0661..2'"),
    (("classify", "n1", "--grid", "3_0"),
     "non-integer parameter in id 'n1:3_0'"),
    (("classify", "m3", "--grid", "\u0666:\u0662"),
     "non-integer parameter in id 'm3:\u0666:\u0662'"),
], ids=["id-underscore", "id-plus", "range-underscore", "range-plus",
        "range-arabic-indic", "single-underscore", "pair-arabic-indic"])
def test_non_decimal_parameters_are_usage_errors(capsys, args, message):
    # a parameter is an optional minus sign and ASCII digits; int() alone
    # would read 3_0 as 30, +3 as 3 and the Arabic-Indic digits as 6 and 2
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("args,message", [
    (("classify", "n1:999999999999"),
     "n1:999999999999 would have module dimension 1000000000000, over the "
     "limit of 2048"),
    (("verify", "m1:1025"),
     "m1:1025 would have module dimension 2050, over the limit of 2048"),
    (("table", "m3:1000:3", "--verbatim-tables"),
     "m3:1000:3 would have module dimension 2997, over the limit of 2048"),
    (("classify", "n1", "--grid", "1..1000000000"),
     "grid range '1..1000000000' goes past the module dimension limit of "
     "2048"),
    (("classify", "m1", "--grid", "2,3,1000..1025"),
     "grid range '1000..1025' goes past the module dimension limit of 2048"),
    (("classify", "n2", "--grid=-99999999999..2"),
     "grid range '-99999999999..2' goes past the module dimension limit of "
     "2048"),
    (("classify", "m3:-5:999999999999"),
     "summand dimensions must stay positive: need n >= 1999999999996"),
], ids=["id", "verify", "verbatim-chain", "range", "range-past-the-limit",
        "negative-range", "chain-length"])
def test_oversized_ids_are_usage_errors(capsys, args, message):
    # refused before anything of that size is built or listed
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_classify_rejects_plain_superalgebra(capsys):
    code, _, err = run(capsys, "classify", "s2")
    assert code == 2
    assert "not a bimodule id" in err


def test_classify_verbatim_module_exits_one(capsys):
    code, _, err = run(capsys, "classify", "m3:4:2", "--verbatim-tables")
    assert code == 1
    assert "violation:" in err


# ---------------------------------------------------------------------------
# errata
# ---------------------------------------------------------------------------


def test_errata_text_format(capsys):
    code, out, _ = run(capsys, "errata")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("[")) == 11
    assert any(line == "[m2]" for line in lines)
    idx = lines.index("[m2]")
    assert lines[idx + 1].startswith("  printed:  ")
    assert lines[idx + 2].startswith("  repaired: ")
    assert lines[idx + 3].startswith("  reason:   ")


def test_errata_family_filter(capsys):
    code, out, _ = run(capsys, "errata", "m4")
    assert code == 0
    headers = [line for line in out.splitlines() if line.startswith("[")]
    assert headers == ["[m4]"] * 4


def test_errata_json(capsys):
    code, out, _ = run(capsys, "errata", "m3", "--json")
    data = json.loads(out)
    assert len(data) == 6
    assert all(e["family"] == "m3" for e in data)


def test_errata_unknown_family_is_empty(capsys):
    code, out, _ = run(capsys, "errata", "n1")
    assert code == 0 and out == ""


@pytest.mark.parametrize("family", ["zz", "m5", "s2", "m3:6:3", ""])
@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_errata_of_a_name_that_is_no_family_is_a_usage_error(capsys, family,
                                                              flags):
    code, out, err = run(capsys, "errata", family, *flags)
    assert code == 2 and out == ""
    assert err == (f"error: unknown family {family!r}; errata takes one of "
                   "n1/n2/m1/m2/m3/m4\n")


# ---------------------------------------------------------------------------
# one axiom evaluation per command
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [("classify", "m1:6"), ("verify", "m3:6:3")])
def test_one_command_evaluates_the_axioms_once(monkeypatch, capsys, argv):
    # the catalog validates the spec, and classify or verify reuse its report
    evaluated = []
    evaluate = algebra._bimodule_axiom_report

    def counted(spec):
        evaluated.append(spec)
        return evaluate(spec)

    monkeypatch.setattr(algebra, "_bimodule_axiom_report", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(evaluated) == 1


# ---------------------------------------------------------------------------
# exit-code fuzz
# ---------------------------------------------------------------------------


@st.composite
def _param(draw) -> str:
    # an integer in -2..8 nine times in ten, so no example builds a large
    # module, and a non-integer otherwise
    if draw(st.integers(0, 9)):
        return str(draw(st.integers(-2, 8)))
    return draw(st.sampled_from(["x", "1.5", "", "-"]))


_PARAM = _param()
_ARITY = {"sl2": 0, "s1": 0, "s2": 0, "n1": 1, "n2": 1, "m1": 1, "m2": 1,
          "m3": 2, "m4": 2, "q9": 1}
# the chain families, the only ones with as-printed tables, come up most
_FAMILY = st.sampled_from(["m3", "m4"] * 4 + sorted(_ARITY))
_GRID = st.lists(st.one_of(_PARAM,
                           st.builds("{}..{}".format, _PARAM, _PARAM),
                           st.builds("{}:{}".format, _PARAM, _PARAM)),
                 max_size=3).map(",".join)


@st.composite
def catalog_id(draw) -> str:
    name = draw(_FAMILY)
    # the family's own number of parameters four times in five
    arity = (_ARITY[name] if draw(st.integers(0, 4))
             else draw(st.integers(0, 3)))
    return ":".join([name, *draw(st.lists(_PARAM, min_size=arity,
                                          max_size=arity))])


@st.composite
def cli_argv(draw) -> list[str]:
    command = draw(st.sampled_from(["table", "verify", "annihilator",
                                    "classify", "errata", "bogus"]))
    argv = [command]
    grid = command == "classify" and draw(st.booleans())
    if draw(st.integers(0, 9)):  # the id is left out one time in ten
        argv.append(draw(_FAMILY if grid else catalog_id()))
    flags = ["--json", "--verbatim-tables"]
    if command == "classify":
        flags.append("--strict-symmetry")
    argv += [flag for flag in flags if draw(st.booleans())]
    if grid:
        argv += ["--grid", draw(_GRID)]
    return argv


@given(cli_argv())
@settings(max_examples=200, deadline=None)
def test_cli_exit_codes_stay_documented(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2)


# ---------------------------------------------------------------------------
# process-level smoke test
# ---------------------------------------------------------------------------


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "sl2super", "verify", "s2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "OK"


def test_usage_error_exit_code_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "sl2super", "table", "bogus:9"],
        capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["table", "n1:1"], ["classify", "m1:96", "--json"],
    ["verify", "m3:6:3", "--verbatim-tables"]],
    ids=["table", "classify-json", "verify-violation"])
def test_a_reader_that_closes_early_gets_exit_141_and_no_traceback(argv):
    # the read end of the pipe is closed before the command writes: exit
    # 128 + SIGPIPE with nothing on stderr, not the 1 of a violation
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "sl2super", *argv],
                              stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")
