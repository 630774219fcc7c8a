"""Constraint generation, solving, and the classification pipeline."""

import ast
import copy
import importlib
import json
import pathlib
from collections import Counter
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_rowspace import RowSpace as ReferenceRowSpace
from test_algebra import reference_leibniz
from sl2super.algebra import (BasisVector, BimoduleSpec, Parity, SuperAlgebra,
                              _leibniz_residuals, _split_extension,
                              check_bimodule_axioms, check_leibniz,
                              check_leibniz_super)
from sl2super.catalog import (
    OddBracketTable,
    assemble,
    bimodule_m1,
    bimodule_m2,
    bimodule_m3,
    bimodule_m4,
    module_n1,
    module_n2,
    resolve,
    sl2,
    superalgebra_s1,
    superalgebra_s2,
)
from sl2super.classify import (
    Classification,
    ConstraintRow,
    ConstraintSystem,
    InvalidStructure,
    UnknownId,
    annihilator_prefilter,
    classify,
    generate_constraints,
    solve,
    weight_compatible_unknowns,
)
from sl2super.cli import main
from sl2super.linalg import Matrix, RowSpace, parse_scalar
from sl2super.oracles import (
    alternating_coefficient_rows,
    residual_matrix,
    symmetric_ladder_hand_system,
    verify_rescaling_isomorphism,
)


def named(space, vec):
    return space.nonzero_named(vec)


def off(flagged, mod, symmetric=True):
    """The ``keep_unknowns`` of the system with the products at the
    ``flagged`` odd positions zero: every unknown of ``mod``, over unordered
    pairs unless not ``symmetric``, whose pair avoids those positions."""
    nm = mod.module_dim
    return frozenset(UnknownId(k, i, j) for k in range(mod.even.dim)
                     for i in range(nm) for j in range(nm)
                     if (i <= j or not symmetric) and not {i, j} & flagged)


# ---------------------------------------------------------------------------
# unknown bookkeeping
# ---------------------------------------------------------------------------


def test_unknown_naming_and_order():
    u = UnknownId(0, 0, 1)
    assert u.name == "a_0_1"
    assert UnknownId(2, 3, 4).name == "c_3_4"
    assert UnknownId(4, 0, 0).name == "u4_0_0"
    # kind-major ordering
    assert UnknownId(0, 9, 9) < UnknownId(1, 0, 0)


def test_system_shape_for_smallest_family_case():
    cs = generate_constraints(sl2(), module_n1(1))
    assert cs.unknown_names() == (
        "a_0_0", "a_0_1", "a_1_1", "b_0_0", "b_0_1", "b_1_1",
        "c_0_0", "c_0_1", "c_1_1")
    assert len(cs.rows) == 12  # after dedupe of proportional rows


def test_provenance_of_first_rows():
    cs = generate_constraints(sl2(), module_n1(1))
    pos = {u.name: p for p, u in enumerate(cs.unknowns)}
    first = [r for r in cs.rows if r.triple == ("e", "x_0", "x_0")]
    by_comp = {r.component: r.as_dict() for r in first}
    # [e, U(x_0,x_0)] has e-component 2c_00 and h-component b_00
    assert set(by_comp) == {"e", "h"}
    assert by_comp["e"] == {pos["c_0_0"]: Fraction(2)}
    assert by_comp["h"] == {pos["b_0_0"]: Fraction(1)}


def test_duplicate_rows_keep_first_provenance():
    cs = generate_constraints(sl2(), module_n1(1))
    seen = set()
    for row in cs.rows:
        lead = min(row.as_dict())
        scale = row.as_dict()[lead]
        key = tuple(sorted((p, v / scale) for p, v in row.as_dict().items()))
        assert key not in seen  # dedupe really removed proportional rows
        seen.add(key)


def test_unknowns_off_a_position_shrink_the_system():
    mod = module_n1(1)
    cs = generate_constraints(sl2(), mod, keep_unknowns=off({1}, mod))
    assert cs.unknown_names() == ("a_0_0", "b_0_0", "c_0_0")


def test_generate_rejects_broken_module():
    with pytest.raises(InvalidStructure) as exc:
        generate_constraints(sl2(), bimodule_m3(4, 2, verbatim=True))
    assert exc.value.report is not None and not exc.value.report.ok


@pytest.mark.parametrize("entry", [generate_constraints, classify,
                                   residual_matrix])
def test_module_over_another_even_algebra_is_rejected(entry):
    # the rescaled basis 2e, f, h has the same labels but another table
    other = sl2().rescaled([2, 1, 1])
    assert other != sl2()
    with pytest.raises(InvalidStructure, match="different even algebra"):
        entry(other, module_n1(1))


def non_leibniz_module():
    """A 1-dimensional module with zero actions over an even algebra that
    fails the Leibniz identity, [p,p] = q and [q,p] = p."""
    even = SuperAlgebra([BasisVector(0, "p", Parity.EVEN),
                         BasisVector(1, "q", Parity.EVEN)],
                        {(0, 0): {1: 1}, (1, 0): {0: 1}})
    return even, BimoduleSpec(even, ("m",), ([{}], [{}]), ([{}], [{}]))


@pytest.mark.parametrize("entry", [generate_constraints, classify,
                                   residual_matrix])
def test_an_even_part_that_is_not_leibniz_is_rejected(entry):
    even, mod = non_leibniz_module()
    assert not check_leibniz(even).ok
    with pytest.raises(InvalidStructure, match="even part fails") as exc:
        entry(even, mod)
    assert exc.value.report == check_leibniz(even)


@pytest.mark.parametrize("identifier", ["n1:1", "n1:24", "m1:24", "m3:16:3"])
def test_classify_checks_the_even_part_once(monkeypatch, capsys, identifier):
    # the catalog's validation and classify's preconditions share one
    # Leibniz report of the spec's even part, in the library and the CLI
    calls = []
    original = check_leibniz

    def counted(A):
        calls.append(A)
        return original(A)

    for name in ("algebra", "catalog", "classify", "cli"):
        module = importlib.import_module(f"sl2super.{name}")
        if getattr(module, "check_leibniz", None) is original:
            monkeypatch.setattr(module, "check_leibniz", counted)
    spec = resolve(identifier)
    classify(sl2(), spec)
    classify(sl2(), spec, strict=True)
    check_bimodule_axioms(spec)
    assert len(calls) == 1
    calls.clear()
    assert main(["classify", identifier]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("even,build,match", [
    (sl2(), lambda: bimodule_m3(6, 3, verbatim=True), "bimodule axioms"),
    (sl2().rescaled([2, 1, 1]), lambda: module_n1(2), "different even algebra"),
], ids=["verbatim-m3:6:3", "over-rescaled-sl2"])
def test_classify_validates_before_it_prefilters(monkeypatch, even, build,
                                                 match):
    module = importlib.import_module("sl2super.classify")
    # classify reads the weight buckets through the private helper behind
    # weight_compatible_unknowns, so that it names no flagged unknown
    ran = []
    for name in ("annihilator_prefilter", "_weight_compatible"):
        def counted(*args, _name=name, _run=getattr(module, name)):
            ran.append(_name)
            return _run(*args)
        monkeypatch.setattr(module, name, counted)
    with pytest.raises(InvalidStructure, match=match):
        classify(even, build())
    assert ran == []
    classify(sl2(), module_n1(2))  # the wrappers do count a valid module
    assert ran == ["annihilator_prefilter", "_weight_compatible"]


@pytest.mark.parametrize("identifier", ["n1:3", "n2:2", "m1:4", "m2:4",
                                        "m3:8:3", "m4:6:3"])
def test_no_consumer_changes_the_cached_columns(monkeypatch, identifier):
    # every consumer reads the one integer form of the spec, built once per
    # spec object when it is constructed (before the catalog validates it),
    # and none of them builds the Fraction columns
    module = importlib.import_module("sl2super.algebra")
    built = []

    def counted(*args, _build=module._integer_actions):
        built.append(_build(*args))
        return built[-1]

    def consume():
        check_bimodule_axioms(spec)
        classify(sl2(), spec)
        classify(sl2(), spec, strict=True)
        generate_constraints(sl2(), spec)
        annihilator_prefilter(sl2(), spec)
        weight_compatible_unknowns(sl2(), spec)

    monkeypatch.setattr(module, "_integer_actions", counted)
    spec = resolve(identifier)
    form = spec._integer_form
    assert built == [form] and built[0] is form
    form_snapshot = copy.deepcopy(form)
    consume()
    assert "right" not in vars(spec) and "left" not in vars(spec)
    cached = (spec.right, spec.left)
    snapshot = [[[dict(col) for col in action] for action in side]
                for side in cached]
    consume()
    assert spec.right is cached[0] and spec.left is cached[1]
    assert [[[dict(col) for col in action] for action in side]
            for side in cached] == snapshot
    assert spec._integer_form is form and form == form_snapshot
    assert len(built) == 1


# ---------------------------------------------------------------------------
# the one-parameter family over the 2-dimensional module
# ---------------------------------------------------------------------------


def test_family_case_solution_space():
    cs = generate_constraints(sl2(), module_n1(1))
    sol = solve(cs)
    assert sol.rank == 8
    assert sol.dimension == 1
    assert named(sol, sol.vectors[0]) == {
        "a_0_0": Fraction(2), "b_1_1": Fraction(2), "c_0_1": Fraction(1)}
    # canonical convention: the free column carries coefficient 1
    free = sol.free_columns()
    assert len(free) == 1
    assert sol.unknowns[free[0]].name == "c_0_1"


def test_classify_family_case_names_and_reps():
    cl = classify(sl2(), module_n1(1))
    assert cl.dimension == 1
    assert cl.names == ("S1", "S2")
    assert cl.representatives[0] == superalgebra_s1()
    assert cl.representatives[1] == superalgebra_s2()
    assert cl.summary_line() == "dimension 1; representatives: S1, S2"
    assert cl.verdict_line() == "family: S1,S2"
    assert cl.filtered == frozenset()


def test_classify_rigid_case_lines():
    cl = classify(sl2(), module_n1(2))
    assert cl.dimension == 0
    assert cl.summary_line() == "dimension 0; [L1,L1]=0"
    assert cl.verdict_line() == "[L1,L1]=0"
    assert cl.names == ("zero",)


@pytest.mark.parametrize("n", [0, 2, 3, 4, 5])
def test_higher_ladders_admit_only_zero_products(n):
    assert classify(sl2(), module_n1(n)).dimension == 0


def test_zero_left_action_forces_zero_products():
    for n in range(0, 5):
        cl = classify(sl2(), module_n2(n))
        assert cl.dimension == 0


# ---------------------------------------------------------------------------
# independent residual matrix route
# ---------------------------------------------------------------------------


def test_residual_matrix_shape_and_integrality():
    labels, mat = residual_matrix(sl2(), module_n1(1))
    assert (mat.nrows, mat.ncols) == (220, 9)
    assert len(labels) == 220
    assert all(v.denominator == 1 for row in mat.rows() for v in row)
    # every (triple, component) label is enumerated, violations or not
    assert labels[0][0] == ("e", "x_0", "x_0")


def test_residual_matrix_agrees_with_generator():
    for n in (1, 2, 3):
        cs = generate_constraints(sl2(), module_n1(n))
        _, mat = residual_matrix(sl2(), module_n1(n))
        assert tuple(mat.nullspace()) == solve(cs).vectors


ORACLE_GRID = (
    [f"n1:{n}" for n in range(0, 5)] + [f"n2:{n}" for n in range(0, 4)]
    + [f"{fam}:{n}" for fam in ("m1", "m2") for n in (2, 3)]
    + ["m3:4:2", "m4:4:2", "zero:1", "zero:2", "zero:3", "conjugated-n1:2",
       "rescaled-n1:3"])


def test_the_rescaled_module_has_rational_actions():
    # so that the oracle grid sums rows over a common denominator D > 1
    mod = rescaled(module_n1(3))
    assert {cf.denominator for action in mod.right + mod.left
            for col in action for cf in col.values()} > {1}
    assert classify(sl2(), mod).dimension == 0


@pytest.mark.parametrize("identifier", ORACLE_GRID)
def test_generated_rows_are_the_distinct_residual_rows(identifier):
    # row by row, in order and with first provenance, the generator equals
    # the evaluated residuals restricted to its unknowns, in every mode
    mod = grid_module(identifier)
    labels, mat = residual_matrix(sl2(), mod)
    nm = mod.module_dim
    columns = [UnknownId(k, i, j) for k in range(3) for i in range(nm)
               for j in range(i, nm)]
    residual_rows = [(tuple((columns[c], v) for c, v in enumerate(row) if v),
                      triple, comp)
                     for (triple, comp), row in zip(labels, mat.rows())]
    for cs in (generate_constraints(sl2(), mod),
               generate_constraints(
                   sl2(), mod,
                   keep_unknowns=off(annihilator_prefilter(sl2(), mod), mod)),
               generate_constraints(
                   sl2(), mod,
                   keep_unknowns=weight_compatible_unknowns(sl2(), mod))):
        assert [(r.coeffs, r.triple, r.component) for r in cs.rows] == (
            distinct_rows(residual_rows, cs.unknowns))


@pytest.mark.parametrize("identifier", ORACLE_GRID)
def test_ordered_rows_are_the_distinct_residual_rows(identifier):
    # symmetric=False: one column per ordered unknown, evaluated by the
    # checker on a table whose only odd product is [x_i, x_j] = e_kind
    mod = grid_module(identifier)
    cs = generate_constraints(sl2(), mod, symmetric=False)
    base = assemble(sl2(), mod).to_json_dict()
    index = {b["label"]: p for p, b in enumerate(base["basis"])}
    entries = {}
    for u in cs.unknowns:
        data = {**base, "brackets": base["brackets"] + [{
            "left": mod.odd_labels[u.i], "right": mod.odd_labels[u.j],
            "result": [{"coeff": "1", "label": sl2().label(u.kind)}]}]}
        for v in check_leibniz_super(SuperAlgebra.from_json_dict(data)):
            for comp, val in v.residual.items():
                key = (tuple(index[lab] for lab in v.labels), index[comp])
                entries.setdefault(key, []).append((u, val))
    labels = {p: lab for lab, p in index.items()}
    residual_rows = [(entries[key], tuple(labels[p] for p in key[0]),
                      labels[key[1]]) for key in sorted(entries)]
    assert [(r.coeffs, r.triple, r.component) for r in cs.rows] == (
        distinct_rows(residual_rows, cs.unknowns))


def test_residual_matrix_rejects_broken_module():
    with pytest.raises(InvalidStructure):
        residual_matrix(sl2(), bimodule_m4(4, 2, verbatim=True))


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=25, deadline=None)
def test_residual_matrix_is_the_linearization(p, q, r):
    # residuals of an arbitrary symmetric table equal the matrix action on
    # its coordinate vector: the superidentity is linear in the products.
    # The matrix reads ``check_leibniz_super``, so the table's residuals
    # come from the dense evaluation of the definition instead
    labels, mat = residual_matrix(sl2(), module_n1(1))
    coeffs = {"a_0_0": p, "b_0_1": q, "c_1_1": r}
    full = [Fraction(coeffs.get(u.name, 0))
            for u in generate_constraints(sl2(), module_n1(1)).unknowns]
    predicted = [sum((a * b for a, b in zip(row, full)), Fraction(0))
                 for row in mat.rows()]
    table = OddBracketTable.build({
        (0, 0): {0: p}, (0, 1): {1: q}, (1, 1): {2: r}})
    alg = assemble(sl2(), module_n1(1), table)
    actual = {(triple, comp): val for _, triple, residual
              in reference_leibniz(alg, "leibniz-super", graded=True)
              for comp, val in residual}
    for (triple, comp), value in zip(labels, predicted):
        assert actual.get((triple, comp), Fraction(0)) == value


# ---------------------------------------------------------------------------
# hand-written system as an oracle for the generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_hand_system_matches_generated_system(n):
    hand = symmetric_ladder_hand_system(n)
    gen = generate_constraints(sl2(), module_n1(n))
    assert hand.unknowns == gen.unknowns
    sh, sg = solve(hand), solve(gen)
    assert sh.rank == sg.rank
    assert sh.vectors == sg.vectors
    # mutual row-space containment: the systems are equivalent, not merely
    # equal in kernel dimension
    rs_gen = RowSpace(len(gen.unknowns))
    for row in gen.rows:
        rs_gen.add(row.as_dict())
    for row in hand.rows:
        assert rs_gen.contains(row.as_dict())
    rs_hand = RowSpace(len(hand.unknowns))
    for row in hand.rows:
        rs_hand.add(row.as_dict())
    for row in gen.rows:
        assert rs_hand.contains(row.as_dict())


WEAK_SURVIVORS = {
    3: {"a_0_2": Fraction(-2), "a_1_1": Fraction(2), "b_1_3": Fraction(-6),
        "b_2_2": Fraction(8), "c_0_3": Fraction(-3), "c_1_2": Fraction(1)},
    5: {"a_0_4": Fraction(2), "a_1_3": Fraction(-2), "a_2_2": Fraction(2),
        "b_1_5": Fraction(10), "b_2_4": Fraction(-16),
        "b_3_3": Fraction(18), "c_0_5": Fraction(5), "c_1_4": Fraction(-3),
        "c_2_3": Fraction(1)},
}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_quadratic_rows_alone_leave_odd_n_gap(n):
    # without the rows coming from all-odd triples the hand system has a
    # one-dimensional kernel at odd n; those rows close it
    weak = solve(symmetric_ladder_hand_system(n, include_cubic_rows=False))
    full = solve(symmetric_ladder_hand_system(n))
    assert full.dimension == 0
    if n % 2 == 0:
        assert weak.dimension == 0
    else:
        assert weak.dimension == 1
        assert named(weak, weak.vectors[0]) == WEAK_SURVIVORS[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_alternating_sign_rows_are_consequences(n):
    gen = generate_constraints(sl2(), module_n1(n))
    rs = RowSpace(len(gen.unknowns))
    for row in gen.rows:
        rs.add(row.as_dict())
    rows = alternating_coefficient_rows(n)
    # symmetry of the unknowns dedupes mirrored statements, so the count is
    # below n - 1, but something must survive for every n >= 2
    assert rows
    for row in rows:
        assert rs.contains(row)


def span(rows, ncols):
    rs = RowSpace(ncols)
    for row in rows:
        rs.add(row)
    return rs


@pytest.mark.parametrize("n", range(1, 9))
def test_quadratic_hand_rows_span_the_mixed_generated_rows(n):
    # the generated system has full rank for n >= 2, so containment in its
    # row space holds for any rows; the rows of the triples with one even
    # member have rank N - (n mod 2), which a lost row lowers, and span what
    # the hand rows without the cubic row span
    hand = [row.as_dict() for row in
            symmetric_ladder_hand_system(n, include_cubic_rows=False).rows]
    gen = generate_constraints(sl2(), module_n1(n))
    mixed = [row.as_dict() for row in gen.rows
             if sum(lab in ("e", "f", "h") for lab in row.triple) == 1]
    ncols = len(gen.unknowns)
    rs_hand, rs_mixed = span(hand, ncols), span(mixed, ncols)
    assert rs_hand.rank == rs_mixed.rank == ncols - n % 2
    assert all(rs_mixed.contains(row) for row in hand)
    assert all(rs_hand.contains(row) for row in mixed)
    assert all(rs_mixed.contains(row)
               for row in alternating_coefficient_rows(n))


def test_alternating_rows_reject_a_negative_n():
    # as symmetric_ladder_hand_system and module_n1 do
    with pytest.raises(ValueError, match="n must be nonnegative"):
        alternating_coefficient_rows(-1)
    assert alternating_coefficient_rows(0) == []


# ---------------------------------------------------------------------------
# the oracles stay apart from the solver they cross-check
# ---------------------------------------------------------------------------


# every name ``oracles`` may import from ``classify``, and why it may
ORACLE_IMPORTS_FROM_CLASSIFY = {
    "ConstraintRow": "public row type of the hand system",
    "ConstraintSystem": "public system type of the hand system",
    "InvalidStructure": "public error of a failed precondition or check",
    "_full_unknowns": "the column order shared with the solver; it lists "
                      "every unknown and filters nothing, so no fast path",
    "_check_preconditions": "the precondition check every entry point runs",
}
ORACLE_NAMES = ("residual_matrix", "symmetric_ladder_hand_system",
                "alternating_coefficient_rows", "verify_rescaling_isomorphism")


def test_oracles_import_only_the_allowed_names():
    # no generator, solver or row collector reaches an oracle: from
    # ``classify`` only the allow-listed names, from elsewhere no private
    # name, and no module object whose attributes would reach past the list
    source = importlib.import_module("sl2super.oracles").__file__
    tree = ast.parse(pathlib.Path(source).read_text())
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Import), ast.unparse(node)
        if not isinstance(node, ast.ImportFrom):
            continue
        module = ("sl2super." * bool(node.level)) + (node.module or "")
        names = {alias.name for alias in node.names}
        assert module not in ("sl2super.", "importlib"), ast.unparse(node)
        if module == "sl2super.classify":
            assert names <= ORACLE_IMPORTS_FROM_CLASSIFY.keys(), (
                names - ORACLE_IMPORTS_FROM_CLASSIFY.keys())
        else:
            assert not any(name.startswith("_") or name == "*"
                           for name in names), ast.unparse(node)


def test_the_oracles_live_outside_the_solver():
    solver = importlib.import_module("sl2super.classify")
    oracles = importlib.import_module("sl2super.oracles")
    package = importlib.import_module("sl2super")
    for name in ORACLE_NAMES:
        assert not hasattr(solver, name)
        assert getattr(package, name) is getattr(oracles, name)


# ---------------------------------------------------------------------------
# annihilator prefilter
# ---------------------------------------------------------------------------


def block_range(start, size):
    return frozenset(range(start, start + size))


def test_prefilter_on_ladder_modules():
    for n in range(0, 5):
        assert annihilator_prefilter(sl2(), module_n1(n)) == frozenset()
    assert annihilator_prefilter(sl2(), module_n2(0)) == frozenset()
    for n in range(1, 5):
        flagged = annihilator_prefilter(sl2(), module_n2(n))
        assert flagged == frozenset(range(n + 1))  # the whole module


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_prefilter_flags_uncoupled_summands(n):
    # the coupled summand survives, its partner is forced to zero products
    assert annihilator_prefilter(sl2(), bimodule_m1(n)) == block_range(
        n + 1, n - 1)  # the y block
    assert annihilator_prefilter(sl2(), bimodule_m2(n)) == block_range(
        0, n + 1)  # the x block


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (6, 3), (8, 3)])
def test_prefilter_flags_alternating_chain_blocks(n, k):
    dims = [n - 2 * q + 3 for q in range(1, k + 1)]
    offsets = [sum(dims[:q]) for q in range(k)]
    odd_blocks = frozenset().union(*(
        block_range(offsets[q - 1], dims[q - 1])
        for q in range(1, k + 1) if q % 2 == 1))
    even_blocks = frozenset().union(*(
        block_range(offsets[q - 1], dims[q - 1])
        for q in range(1, k + 1) if q % 2 == 0))
    assert annihilator_prefilter(sl2(), bimodule_m3(n, k)) == odd_blocks
    assert annihilator_prefilter(sl2(), bimodule_m4(n, k)) == even_blocks


@pytest.mark.parametrize("n", [2, 3, 4])
def test_prefilter_is_conservative(n):
    # the prefilter may only remove unknowns that the full system kills too
    for build in (bimodule_m1, bimodule_m2):
        with_f = classify(sl2(), build(n))
        without = solve(generate_constraints(sl2(), build(n)))
        assert with_f.dimension == without.dimension
        assert with_f.unknowns == without.unknowns
        assert with_f.vectors == without.vectors


def test_classify_records_the_filter():
    cl = classify(sl2(), bimodule_m1(2))
    assert cl.filtered == block_range(3, 1)
    assert cl.dimension == 0


# ---------------------------------------------------------------------------
# weight prefilter: the reduced system against the full one
# ---------------------------------------------------------------------------


def zero_action_module(dim):
    zero = Matrix.zeros(dim, dim)
    return BimoduleSpec(sl2(), tuple(f"m_{i}" for i in range(dim)),
                        (zero,) * 3, (zero,) * 3)


def module_from_json(text):
    """The bimodule read back from an assembled superalgebra's JSON."""
    alg = SuperAlgebra.from_json(text)
    ne, nm = 3, alg.dim - 3
    actions = []
    for pair in (lambda a, m: (m, a), lambda a, m: (a, m)):
        actions.append(tuple(
            Matrix.from_entries(nm, nm, {
                (r - ne, m): c
                for m in range(nm)
                for r, c in alg.bracket_indices(*pair(a, ne + m)).items()})
            for a in range(ne)))
    labels = tuple(alg.label(ne + m) for m in range(nm))
    return BimoduleSpec(sl2(), labels, actions[0], actions[1])


def conjugated_n1_2():
    """module_n1(2) in the basis x_0, x_0 + x_1, x_1 + x_2, through JSON:
    no even basis vector acts diagonally on it."""
    mod = module_n1(2)
    # the columns of the change of basis p and of its inverse
    p = ({0: 1}, {0: 1, 1: 1}, {1: 1, 2: 1})
    p_inv = ({0: 1}, {0: -1, 1: 1}, {0: 1, 1: -1, 2: 1})

    def apply(action, vec):
        out = {}
        for m, c in vec.items():
            for r, v in action[m].items():
                out[r] = out.get(r, 0) + c * v
        return out

    def conj(action):  # p^-1 action p, column by column
        return [apply(p_inv, apply(action, p[j])) for j in range(3)]

    spec = BimoduleSpec(sl2(), mod.odd_labels,
                        tuple(conj(action) for action in mod.right),
                        tuple(conj(action) for action in mod.left))
    return module_from_json(assemble(sl2(), spec).to_json())


def rescaled(mod):
    """``mod`` in the basis x_m / (m + 1): the column of x_m under an
    action holds c (r + 1) / (m + 1) at row r where the original holds c,
    so the actions of module_n1(3) have denominators 2, 3 and 4."""
    def rescale(action):
        return [{r: c * Fraction(r + 1, m + 1) for r, c in col.items()}
                for m, col in enumerate(action)]

    return BimoduleSpec(sl2(), mod.odd_labels,
                        tuple(rescale(action) for action in mod.right),
                        tuple(rescale(action) for action in mod.left))


def sheared(mod):
    """``mod`` in the basis y_m = x_m + x_{m+1} / (m + 2): the columns of
    the actions get several entries with different denominators, and a
    scale per column no longer gives the same span."""
    nm = mod.module_dim

    def to_x(m):  # the x coordinates of y_m
        vec = {m: Fraction(1)}
        if m + 1 < nm:
            vec[m + 1] = Fraction(1, m + 2)
        return vec

    def to_y(vec):  # x_m = y_m + y_{m-1} / (m + 1), solved upwards
        out, prev = {}, Fraction(0)
        for m in range(nm):
            prev = vec.get(m, 0) - prev / (m + 1)
            if prev:
                out[m] = prev
        return out

    def conj(action):
        columns = []
        for j in range(nm):
            img = {}
            for m, c in to_x(j).items():
                for r, v in action[m].items():
                    img[r] = img.get(r, 0) + c * v
            columns.append(to_y(img))
        return columns

    return BimoduleSpec(sl2(), mod.odd_labels,
                        tuple(conj(action) for action in mod.right),
                        tuple(conj(action) for action in mod.left))


def unsaturated_module():
    """Actions of h on three vectors that satisfy no bimodule axiom: the
    [x_m,h]+[h,x_m] span x_0, and the right action of h takes x_0 to x_1
    and x_1 to x_2, so x_1 and x_2 are flagged only by saturating twice.
    On a valid bimodule the span is already a sub-bimodule."""
    zero = ({}, {}, {})
    return BimoduleSpec(sl2(), ("x_0", "x_1", "x_2"),
                        (zero, zero, ({1: 1}, {2: 1}, {})),
                        (zero, zero, ({0: 1, 1: -1}, {2: -1}, {})))


def distinct_rows(rows, unknowns):
    """``rows``, each (pairs of unknown and coefficient, triple, component),
    restricted to ``unknowns`` and renumbered, dropping empty rows and
    scalar multiples of earlier rows."""
    pos = {u: p for p, u in enumerate(unknowns)}
    out, seen = [], set()
    for terms, triple, component in rows:
        items = tuple(sorted((pos[u], v) for u, v in terms
                             if u in pos and v != 0))
        if not items:
            continue
        key = tuple((p, v / items[0][1]) for p, v in items)
        if key not in seen:
            seen.add(key)
            out.append((items, triple, component))
    return out


def restricted_rows(system, unknowns):
    """The rows of ``system`` restricted to ``unknowns`` and renumbered,
    dropping empty rows and scalar multiples of earlier rows."""
    return distinct_rows(
        ((((system.unknowns[p], v) for p, v in row.coeffs), row.triple,
          row.component) for row in system.rows), unknowns)


def direct_sum(*mods):
    """The direct sum of bimodules over sl2, the odd labels of the s-th
    summand marked with s primes."""
    labels, right, left, offset = [], [[], [], []], [[], [], []], 0
    for s, mod in enumerate(mods):
        labels += [label + "'" * s for label in mod.odd_labels]
        for ours, theirs in ((right, mod.right), (left, mod.left)):
            for action, columns in zip(ours, theirs):
                action += [{r + offset: c for r, c in col.items()}
                           for col in columns]
        offset += mod.module_dim
    return BimoduleSpec(sl2(), tuple(labels), tuple(right), tuple(left))


def grid_module(identifier):
    if "+" in identifier:
        return direct_sum(*map(grid_module, identifier.split("+")))
    if identifier.startswith("zero:"):
        return zero_action_module(int(identifier[5:]))
    if identifier == "conjugated-n1:2":
        return conjugated_n1_2()
    if identifier.startswith("rescaled-"):
        return rescaled(resolve(identifier[len("rescaled-"):]))
    if identifier.startswith("sheared-"):
        return sheared(resolve(identifier[len("sheared-"):]))
    if identifier.startswith("printed-"):
        return resolve(identifier[len("printed-"):], verbatim=True)
    if identifier == "unsaturated":
        return unsaturated_module()
    return resolve(identifier)


DIFFERENTIAL_GRID = (
    [f"n1:{n}" for n in range(0, 11)] + [f"n2:{n}" for n in range(0, 7)]
    + [f"{fam}:{n}" for fam in ("m1", "m2") for n in range(2, 7)]
    + [f"{fam}:{nk}" for fam in ("m3", "m4") for nk in ("4:2", "6:3", "8:3")]
    + ["zero:0", "zero:1", "zero:2", "zero:3", "conjugated-n1:2"])

# larger ids, where nearly every all-odd triple reads a single kept unknown
# whose unit row is already in the system, so the generator skips it
SKIP_GRID = ["n1:12", "n1:16", "m1:8", "m3:10:4"]

# the sheared modules flag positions from columns with several entries of
# different denominators, where integers that drop the denominators go
# wrong; the as-printed tables are read by ``annihilator --verbatim-tables``;
# only the unsaturated module needs the saturation.  The rescaled and
# sheared modules are the ones whose integer form has D > 1.
PREFILTER_GRID = DIFFERENTIAL_GRID + SKIP_GRID + [
    "rescaled-n1:3", "n1:1+n1:0", "m1:3+n2:2", "sheared-m1:4",
    "sheared-m2:3", "sheared-m3:6:3", "sheared-m4:6:3", "printed-m3:6:3",
    "printed-m4:6:2", "printed-m3:10:4", "unsaturated", "rescaled-m1:4",
    "rescaled-m3:6:3", "printed-m3:8:3", "printed-m4:10:4"]


def and_strict(identifiers):
    """(identifier, strict) cases: each identifier in the default mode,
    under its own id, then each in strict mode."""
    return [pytest.param(i, strict, id=i + "-strict" * strict)
            for strict in (False, True) for i in identifiers]


@pytest.mark.parametrize("identifier,strict",
                         and_strict(DIFFERENTIAL_GRID + SKIP_GRID))
def test_weight_filtered_classification_equals_the_full_system(identifier,
                                                               strict):
    # strict mode runs the weight filter over ordered pairs and the
    # certificate, but flags no position: its solution is that of the whole
    # ordered system
    mod = grid_module(identifier)
    cl = classify(sl2(), mod, strict=strict)
    full = generate_constraints(
        sl2(), mod, symmetric=not strict,
        keep_unknowns=off(cl.filtered, mod, not strict))
    assert cl.solution == solve(full)
    assert not (strict and cl.filtered)
    # the reduced system is the full one with the zeroed unknowns left out,
    # both orders of each weight-compatible unknown kept in strict mode
    kept = cl.system.unknowns
    weights = weight_compatible_unknowns(sl2(), mod)
    assert set(kept) == {
        u for u in full.unknowns
        if UnknownId(u.kind, min(u.i, u.j), max(u.i, u.j)) in weights}
    assert [(r.coeffs, r.triple, r.component) for r in cl.system.rows] == (
        restricted_rows(full, kept))


@given(st.sampled_from(["n1:2", "n2:3", "m1:2", "m2:3", "m4:4:2"]),
       st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_any_zeroed_set_leaves_exactly_those_unknowns_out(identifier,
                                                          symmetric, rng):
    # the generator's skipping of triples must not depend on weights
    mod = resolve(identifier)
    full = generate_constraints(sl2(), mod, symmetric=symmetric)
    zeroed = frozenset(u for u in full.unknowns if rng.random() < 0.8)
    cs = generate_constraints(sl2(), mod, symmetric=symmetric,
                              keep_unknowns=frozenset(full.unknowns) - zeroed)
    assert cs.unknowns == tuple(u for u in full.unknowns if u not in zeroed)
    assert [(r.coeffs, r.triple, r.component) for r in cs.rows] == (
        restricted_rows(full, cs.unknowns))


def reference_weight_prefilter(even, mod):
    """The unknowns U_k(i,j), i <= j, with l_i + l_j != u_k for some even
    basis vector acting diagonally with weights l on the module and u on
    the even part: one comparison per full unknown, the oracle of the
    bucketed ``weight_compatible_unknowns``, which returns the other
    unknowns."""
    ne, nm = even.dim, mod.module_dim
    rcol = mod.right

    def diagonal(columns):
        if any(set(col) - {m} for m, col in enumerate(columns)):
            return None
        return [col.get(m, Fraction(0)) for m, col in enumerate(columns)]

    zeroed = set()
    for a in range(ne):
        lam = diagonal(rcol[a])
        mu = diagonal([even.bracket_indices(k, a) for k in range(ne)])
        if lam is None or mu is None:
            continue
        zeroed.update(UnknownId(k, i, j) for k in range(ne) for i in range(nm)
                      for j in range(i, nm) if lam[i] + lam[j] != mu[k])
    return frozenset(zeroed)


def symmetric_unknowns(even, mod):
    return frozenset(UnknownId(k, i, j) for k in range(even.dim)
                     for i in range(mod.module_dim)
                     for j in range(i, mod.module_dim))


def abelian_weight_module():
    """A module over the 2-dimensional abelian algebra on which both even
    basis vectors act diagonally, with different weights."""
    even = SuperAlgebra([BasisVector(0, "p", Parity.EVEN),
                         BasisVector(1, "q", Parity.EVEN)], {})
    right = (Matrix.from_entries(3, 3, {(0, 0): 1, (1, 1): -1}),
             Matrix.from_entries(3, 3, {(2, 2): 1}))
    return even, BimoduleSpec(even, ("m_0", "m_1", "m_2"), right,
                              (Matrix.zeros(3, 3),) * 2)


@pytest.mark.parametrize("identifier", PREFILTER_GRID + ["abelian"])
def test_weight_prefilter_matches_the_reference(identifier):
    if identifier == "abelian":
        even, mod = abelian_weight_module()
    else:
        even, mod = sl2(), grid_module(identifier)
    kept = weight_compatible_unknowns(even, mod)
    assert kept <= symmetric_unknowns(even, mod)
    assert symmetric_unknowns(even, mod) - kept == (
        reference_weight_prefilter(even, mod))


@pytest.mark.parametrize("scales", [[2, 1, 1], [1, 1, 2], [1, 1, "1/3"]],
                         ids=["2e", "2h", "h/3"])
@pytest.mark.parametrize("identifier", ["n1:3", "m1:4"])
def test_weight_prefilter_reads_the_even_algebra_it_is_given(identifier,
                                                             scales):
    # the filter is public and takes any even algebra, not only the spec's
    # own.  Rescaling e keeps the weights of h on the even part (2, -2, 0);
    # rescaling h makes them 4, -4, 0 or 2/3, -2/3, 0, and those are read
    # from ``even``, the last ones matching no pair of integer weights
    even, mod = sl2().rescaled(scales), resolve(identifier)
    assert even != mod.even
    kept = weight_compatible_unknowns(even, mod)
    assert symmetric_unknowns(even, mod) - kept == (
        reference_weight_prefilter(even, mod))


def test_weight_prefilter_intersects_the_diagonal_vectors():
    # the weights of p, (1, -1, 0), keep the pairs {0, 1} and {2, 2}; those
    # of q, (0, 0, 1), keep {0, 0}, {0, 1} and {1, 1}
    even, mod = abelian_weight_module()
    kept = weight_compatible_unknowns(even, mod)
    assert kept == {UnknownId(k, 0, 1) for k in range(2)}


def test_weight_prefilter_edge_modules():
    # zero actions: every module vector has weight 0, so only the
    # h-components survive
    mod = zero_action_module(2)
    zeroed = symmetric_unknowns(sl2(), mod) - weight_compatible_unknowns(
        sl2(), mod)
    assert {u.name for u in zeroed} == {
        "a_0_0", "a_0_1", "a_1_1", "b_0_0", "b_0_1", "b_1_1"}
    # no even basis vector acts diagonally: nothing is zeroed, and classify
    # solves exactly the unfiltered system
    mod = conjugated_n1_2()
    full = symmetric_unknowns(sl2(), mod)
    assert full - weight_compatible_unknowns(sl2(), mod) == frozenset()
    cl = classify(sl2(), mod)
    assert cl.system == generate_constraints(
        sl2(), mod, keep_unknowns=off(cl.filtered, mod))
    assert generate_constraints(sl2(), mod, keep_unknowns=full) == (
        generate_constraints(sl2(), mod))


def seed_span(even, mod):
    """The reference Fraction row space spanned by the [a,m]+[m,a]: not
    the engine that ``annihilator_prefilter`` uses, which it checks."""
    rcol, lcol = mod.right, mod.left
    rs = ReferenceRowSpace(mod.module_dim)
    for a in range(even.dim):
        for m in range(mod.module_dim):
            vec = {}
            for r, cf in rcol[a][m].items():
                vec[r] = vec.get(r, Fraction(0)) + cf
            for r, cf in lcol[a][m].items():
                vec[r] = vec.get(r, Fraction(0)) + cf
            rs.add({r: v for r, v in vec.items() if v != 0})
    return rs


def right_images(even, mod, row):
    """The images of ``row`` under the right action of each even basis
    vector, zero images dropped."""
    images = []
    for a in range(even.dim):
        img = {}
        for m, cm in row.items():
            for r, cf in mod.right[a][m].items():
                val = img.get(r, Fraction(0)) + cm * cf
                if val == 0:
                    img.pop(r, None)
                else:
                    img[r] = val
        if img:
            images.append(img)
    return images


def reference_annihilator_prefilter(even, mod):
    """The odd positions in the span of the [a,m]+[m,a], saturated under
    the right action: the reference Fraction row space of ``seed_span``,
    re-imaging every echelon row in each round until a full round adds
    nothing.  The oracle of the one-pass span in ``annihilator_prefilter``,
    which equals it on every module that satisfies the axioms."""
    nm = mod.module_dim
    if nm == 0:
        return frozenset()
    rs = seed_span(even, mod)
    changed = True
    while changed:
        changed = False
        for row in list(rs.echelon_rows()):
            for img in right_images(even, mod, row):
                if rs.add(img):
                    changed = True
    return frozenset(m for m in range(nm)
                     if rs.contains({m: Fraction(1)}))


# the unsaturated module satisfies no axiom, and only the saturation of the
# reference flags more than its seed span there
@pytest.mark.parametrize("identifier",
                         [i for i in PREFILTER_GRID if i != "unsaturated"])
def test_annihilator_prefilter_matches_the_reference(identifier):
    mod = grid_module(identifier)
    assert annihilator_prefilter(sl2(), mod) == (
        reference_annihilator_prefilter(sl2(), mod))


def reference_integer_form(even, mod, factor=1):
    """The actions and even brackets of ``mod`` times ``factor`` times the
    lcm of their denominators, read straight from the ``Fraction``
    columns: the oracle of ``BimoduleSpec._integer_form``."""
    ebr = [[even.bracket_indices(x, y) for y in range(even.dim)]
           for x in range(even.dim)]
    sides = (mod.right, mod.left, ebr)
    den = factor * lcm(*(cf.denominator for side in sides for row in side
                         for vec in row for cf in vec.values()))
    return (den, *(tuple(tuple({r: int(cf * den) for r, cf in vec.items()}
                               for vec in row) for row in side)
                   for side in sides))


@pytest.mark.parametrize("identifier", PREFILTER_GRID)
def test_the_integer_form_is_the_columns_times_their_denominator(identifier):
    mod = grid_module(identifier)
    form = mod._integer_form
    assert form == reference_integer_form(sl2(), mod)
    assert all(type(v) is int for side in form[1:] for row in side
               for vec in row for v in vec.values())
    if identifier.startswith(("rescaled-", "sheared-")):
        assert form[0] > 1


def reference_as_columns(action, d):
    """One action copied into read-only ``Fraction`` columns, rows in
    ascending order and zeros dropped, as ``BimoduleSpec`` stored it before
    its integer form became the one stored form: the oracle of
    ``spec.right`` and ``spec.left``."""
    if isinstance(action, Matrix):
        if action.nrows != d:
            raise ValueError("action matrices must be square of module dim")
        action = [dict(enumerate(column)) for column in zip(*action.rows())]
    if len(action) != d:
        raise ValueError("action matrices must be square of module dim")
    columns = []
    for image in action:
        column = {}
        for r in sorted(image):
            if not 0 <= r < d:
                raise ValueError(
                    "action matrices must be square of module dim")
            v = parse_scalar(image[r])
            if v:
                column[r] = v
        columns.append(MappingProxyType(column))
    return tuple(columns)


def assert_same_columns(stored, expected):
    """Bit for bit: tuples of read-only views with the same rows in the
    same order, and ``Fraction`` values."""
    assert type(stored) is tuple and len(stored) == len(expected)
    for ours, theirs in zip(stored, expected):
        assert type(ours) is tuple and len(ours) == len(theirs)
        for column, reference in zip(ours, theirs):
            assert type(column) is MappingProxyType
            assert list(column.items()) == list(reference.items())
            assert all(type(v) is Fraction for v in column.values())


@pytest.fixture
def oracle_columns(monkeypatch):
    """(spec, right, left) for every spec built while active: the oracle's
    columns of the actions the constructor was given."""
    built = []
    init = BimoduleSpec.__init__

    def recording(self, even, odd_labels, right, left):
        init(self, even, odd_labels, right, left)
        d = self.module_dim
        built.append((self, *(tuple(reference_as_columns(a, d) for a in side)
                              for side in (right, left))))

    monkeypatch.setattr(BimoduleSpec, "__init__", recording)
    return built


# the as-printed chains PREFILTER_GRID leaves out
STORED_FORM_GRID = PREFILTER_GRID + [
    "printed-m3:4:2", "printed-m4:4:2", "printed-m3:6:2", "printed-m4:6:3",
    "printed-m4:8:3"]


@pytest.mark.parametrize("identifier", STORED_FORM_GRID)
def test_the_stored_columns_equal_the_oracle(oracle_columns, identifier):
    # the columns are built from the integer form when first read; the
    # catalog builders hand in ints, the rescaled and sheared modules
    # Fractions with D > 1
    grid_module(identifier)
    assert oracle_columns
    for spec, right, left in oracle_columns:
        assert_same_columns(spec.right, right)
        assert_same_columns(spec.left, left)
        assert spec.right is spec.right and spec.left is spec.left


STORED_INPUTS = {
    "matrix": Matrix([[0, 2, 0], [1, 0, "1/2"], [0, 0, -3]]),
    "ints": [{0: 1, 2: -4}, {}, {1: 7}],
    "fractions": [{0: Fraction(1, 3)}, {1: Fraction(4, 2)}, {}],
    "strings": [{0: "1/2", 1: "-3"}, {2: "6/4"}, {}],
    "mixed": [{2: "1/6", 0: 3, 1: Fraction(-5, 4)}, {}, {0: -1}],
    "unsorted-rows": [{2: 1, 0: 2, 1: 3}, {}, {1: 1, 0: 1}],
    "explicit-zeros": [{0: 0, 1: Fraction(0), 2: "0"}, {1: "0/5", 0: 2}, {}],
}


@pytest.mark.parametrize("bracket", [{}, {(0, 0): {0: Fraction(1, 3)}}],
                         ids=["abelian", "a-third"])
@pytest.mark.parametrize("name", sorted(STORED_INPUTS))
def test_each_kind_of_input_is_stored_as_the_oracle_stores_it(bracket, name):
    # whatever the denominators of the even brackets, which D includes
    even = SuperAlgebra([BasisVector(0, "a", Parity.EVEN)], bracket)
    labels = ("m0", "m1", "m2")
    action, other = STORED_INPUTS[name], STORED_INPUTS["ints"]
    for right, left in (((action,), (other,)), ((other,), (action,))):
        spec = BimoduleSpec(even, labels, right, left)
        assert_same_columns(spec.right, (reference_as_columns(right[0], 3),))
        assert_same_columns(spec.left, (reference_as_columns(left[0], 3),))
        assert spec._integer_form == reference_integer_form(even, spec)
        assert all(type(v) is int for side in spec._integer_form[1:]
                   for row in side for vec in row for v in vec.values())


@pytest.mark.parametrize("action,error,message", [
    ([{0: 1}], ValueError, "action matrices must be square of module dim"),
    (Matrix.identity(3), ValueError,
     "action matrices must be square of module dim"),
    ([{0: 1}, {2: 1}], ValueError,
     "action matrices must be square of module dim"),
    ([{0: 1}, {1: 0.5}], TypeError, "not an exact scalar: 0.5"),
], ids=["non-square", "non-square-matrix", "row-out-of-range", "float"])
def test_a_malformed_action_gives_the_oracle_s_error(action, error, message):
    even = SuperAlgebra([BasisVector(0, "a", Parity.EVEN)], {})
    with pytest.raises(error) as theirs:
        reference_as_columns(action, 2)
    assert str(theirs.value) == message
    for sides in (((action,), ([{}, {}],)), (([{}, {}],), (action,))):
        with pytest.raises(error) as ours:
            BimoduleSpec(even, ("m0", "m1"), *sides)
        assert str(ours.value) == message


def fraction_route_violations(mod):
    """(identity, labels, residual items) of each bimodule violation, read
    from the ``Fraction`` residuals of ``split_extension_table`` and
    ordered as ``check_bimodule_axioms`` orders them."""
    ne = mod.even.dim
    found = []
    for a, b, c, residual in _leibniz_residuals(
            mod.split_extension_table(), [False] * (ne + mod.module_dim)):
        key = ((a - ne, b, c, 1) if a >= ne else (b - ne, a, c, 2)
               if b >= ne else (c - ne, a, b, 3))
        found.append((key, residual))
    found.sort(key=lambda item: item[0])
    labels = mod.odd_labels
    return [(f"bimodule-{n}", (labels[m], mod.even.label(x),
                               mod.even.label(y)),
             [(labels[k - ne], residual[k]) for k in sorted(residual)])
            for (m, x, y, n), residual in found]


@pytest.mark.parametrize("identifier", PREFILTER_GRID)
def test_the_split_extension_table_is_the_one_the_views_lay_out(identifier):
    # laid out from the integer form and divided by D, it equals the layout
    # of the public Fraction views, and every coefficient is a Fraction
    mod = grid_module(identifier)
    even = mod.even
    table = mod.split_extension_table()
    assert table == _split_extension(
        [[even.bracket_indices(x, y) for y in range(even.dim)]
         for x in range(even.dim)], mod.right, mod.left)
    assert all(type(c) is Fraction for vec in table.values()
               for c in vec.values())
    # a fresh table on each call
    assert mod.split_extension_table() is not table


VIOLATION_TOTALS = {"printed-m3:6:3": 74, "printed-m4:6:2": 34,
                    "printed-m3:8:3": 106, "printed-m3:10:4": 215,
                    "printed-m4:10:4": 181, "unsaturated": 14}


@pytest.mark.parametrize("identifier", PREFILTER_GRID)
def test_the_integer_axiom_check_equals_the_fraction_route(identifier):
    mod = grid_module(identifier)
    report = check_bimodule_axioms(mod)
    assert [(v.identity, v.labels, list(v.residual.items()))
            for v in report] == fraction_route_violations(mod)
    assert len(report) == VIOLATION_TOTALS.get(identifier, 0)


@pytest.mark.parametrize("identifier", [
    i for i in PREFILTER_GRID if i not in VIOLATION_TOTALS])
def test_the_generated_rows_do_not_depend_on_the_form_s_scale(identifier):
    # the system over the spec's form equals the one over an independently
    # built form at six times its D: a row stores n / D whatever D is
    mod = grid_module(identifier)
    system = generate_constraints(sl2(), mod)
    mod.__dict__["_integer_form"] = reference_integer_form(sl2(), mod, 6)
    assert generate_constraints(sl2(), mod) == system


def test_the_unsaturated_module_needs_two_rounds():
    assert reference_annihilator_prefilter(
        sl2(), unsaturated_module()) == {0, 1, 2}


@pytest.mark.parametrize("identifier", [
    i for i in PREFILTER_GRID if i not in VIOLATION_TOTALS])
def test_the_right_action_keeps_the_seed_span(identifier):
    # on a bimodule [s(a,m), b] = s(a,[m,b]) + s([a,b],m), s(a,m) being
    # [a,m]+[m,a], so the reference's first round of saturation, and so
    # every round, adds no row to the span of the seeds
    mod = grid_module(identifier)
    assert check_bimodule_axioms(mod).ok
    rs = seed_span(sl2(), mod)
    rank = rs.rank
    for row in list(rs.echelon_rows()):
        for img in right_images(sl2(), mod, row):
            assert rs.contains(img)
    assert rs.rank == rank


def test_the_one_pass_prefilter_flags_the_seed_span_alone():
    # the unsaturated module fails the axioms, so the identity that makes
    # the seed span closed does not hold there: the right action of h takes
    # x_0 to x_1 and x_1 to x_2 outside it.  classify never reaches such a
    # module, and the prefilter, which no longer saturates, flags x_0 alone
    assert not check_bimodule_axioms(unsaturated_module()).ok
    assert annihilator_prefilter(sl2(), unsaturated_module()) == {0}


@pytest.mark.parametrize("identifier,flagged", [
    ("n1:96", 0), ("m1:96", 95), ("m3:64:3", 126), ("m4:64:3", 63),
    ("n2:96", 97)])
def test_annihilator_prefilter_matches_the_reference_at_scale(identifier,
                                                              flagged):
    mod = resolve(identifier)
    found = annihilator_prefilter(sl2(), mod)
    assert len(found) == flagged
    assert found == reference_annihilator_prefilter(sl2(), mod)


def one_kind_per_pair(unknowns, symmetric):
    """Every unknown of ``unknowns`` except one kind per odd pair, the kind
    (i + 2j) mod 3.  With ordered pairs, (1, 0) keeps none, so the prefix
    (x_0, x_1) reads the one unknown U_2(0,1) and (x_1, x_0) reads none,
    although the two positions still touch."""
    def kept(u):
        if not symmetric and (u.i, u.j) == (1, 0):
            return False
        return u.kind == (u.i + 2 * u.j) % 3
    return frozenset(u for u in unknowns if not kept(u))


@pytest.mark.parametrize("identifier", ["n1:2", "n1:5", "n2:3", "m1:3",
                                        "m3:4:2", "conjugated-n1:2"])
@pytest.mark.parametrize("symmetric", [True, False],
                         ids=["symmetric", "ordered"])
def test_one_kept_kind_per_pair_gives_the_restricted_rows(identifier,
                                                          symmetric):
    # every pair keeps at most one unknown, so nearly every all-odd triple
    # reads one position
    mod = grid_module(identifier)
    full = generate_constraints(sl2(), mod, symmetric=symmetric)
    zeroed = one_kind_per_pair(full.unknowns, symmetric)
    cs = generate_constraints(sl2(), mod, symmetric=symmetric,
                              keep_unknowns=frozenset(full.unknowns) - zeroed)
    assert cs.unknowns == tuple(u for u in full.unknowns if u not in zeroed)
    assert [(r.coeffs, r.triple, r.component) for r in cs.rows] == (
        restricted_rows(full, cs.unknowns))


def test_a_pair_keeping_two_kinds_gives_the_restricted_rows():
    # (0, 6) keeps b and c, while (0, 5) and (5, 6) keep nothing: the unit
    # row of b_0_6 comes first from (v_0^1, v_0^2, v_1^2), a triple that
    # reads the kept pair through its outer members only
    mod = resolve("m3:4:2")
    full = generate_constraints(sl2(), mod)
    names = {"a_0_0", "b_0_2", "b_0_6", "b_1_5", "c_0_1", "c_0_6"}
    cs = generate_constraints(sl2(), mod, keep_unknowns=frozenset(
        u for u in full.unknowns if u.name in names))
    assert {u.name for u in cs.unknowns} == names
    rows = [(r.coeffs, r.triple, r.component) for r in cs.rows]
    assert rows == restricted_rows(full, cs.unknowns)
    assert (((2, Fraction(-1)),), ("v_0^1", "v_0^2", "v_1^2"),
            "v_2^1") in rows


# calls of _RowCollector.add per generation of classify's system, about 5%
# over the 676, 873 and 615 made (both prefilters) and the 1195, 6011 and
# 9688 made in strict mode (the weight filter over ordered pairs); a
# generator that re-derives every repeat of a unit row makes 5286, 10045
# and 5208, one that also composes the mirror triples (a,v,u), (u,w,v) and
# (v,u,a) of symmetric unknowns makes 1091, 1485 and 1070, and one that
# skips an all-odd triple only when its pairs keep a single unknown, not
# when its terms read one, makes 8935 and 17198 on the strict m1:24 and
# m3:16:3
ADD_CALL_CEILINGS = {"n1:24": 710, "m1:24": 917, "m3:16:3": 646,
                     "n1:24-strict": 1255, "m1:24-strict": 6312,
                     "m3:16:3-strict": 10173}


@pytest.mark.parametrize("identifier,strict",
                         and_strict(["m1:24", "m3:16:3", "n1:24"]))
def test_generation_work_follows_the_kept_rows(monkeypatch, identifier,
                                               strict):
    module = importlib.import_module("sl2super.classify")
    calls = []
    add = module._RowCollector.add

    def counted(self, *args):
        calls.append(args)
        return add(self, *args)

    monkeypatch.setattr(module._RowCollector, "add", counted)
    cs = classify(sl2(), resolve(identifier), strict=strict).system
    assert len(cs.rows) <= len(calls) <= (
        ADD_CALL_CEILINGS[identifier + "-strict" * strict])


def test_classify_builds_full_coordinates_only_when_read(monkeypatch):
    # the text output reads no full coordinate: the unknowns built stay
    # proportional to the kept ones, where the full coordinates of m1:96
    # have 55,584 unknowns
    built = []
    init = UnknownId.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(UnknownId, "__init__", counted)
    cl = classify(sl2(), bimodule_m1(96))
    assert cl.summary_line() == "dimension 0; [L1,L1]=0"
    kept = len(cl.reduced.unknowns)
    assert len(built) <= 2 * kept
    # the unit rows certify the zero answer, so no system was generated
    assert "system" not in vars(cl)
    # the JSON output lists the full unknowns once, and counts the rank
    data = cl.to_json_dict()
    assert len(built) <= 55584 + 2 * kept
    assert len(data["unknowns"]) == 3 * 192 * 193 // 2 == 55584
    assert data["dimension"] == 0
    assert cl.unknowns is cl.unknowns


# ---------------------------------------------------------------------------
# the unit-row certificate: the zero answer without generating the system
# ---------------------------------------------------------------------------


# where classify has to generate and solve: the small ladders (n1:1 has the
# family), m1:2, and the modules whose actions give no far triple its row or
# on which no even basis vector acts diagonally
UNCERTIFIED = ({f"n1:{n}" for n in range(7)}
               | {"n2:0", "m1:2", "zero:1", "zero:2", "zero:3",
                  "conjugated-n1:2"})


@pytest.mark.parametrize("identifier",
                         DIFFERENTIAL_GRID + SKIP_GRID
                         + ["n1:96", "m1:96", "m3:64:3"])
def test_a_certified_zero_is_the_solution_of_the_system(monkeypatch,
                                                        identifier):
    module = importlib.import_module("sl2super.classify")
    calls = []

    def counted(*args, _generate=module.generate_constraints, **kwargs):
        calls.append(args)
        return _generate(*args, **kwargs)

    monkeypatch.setattr(module, "generate_constraints", counted)
    cl = classify(sl2(), grid_module(identifier))
    certified = not calls
    assert certified == (identifier not in UNCERTIFIED)
    # the system is generated once, in classify or when first read
    sol = solve(cl.system)
    assert cl.system is cl.system and len(calls) == 1
    assert sol == cl.reduced
    if certified:
        assert sol.rank == len(cl.system.unknowns)
        assert sol.vectors == () and cl.dimension == 0


@pytest.mark.parametrize("identifier,strict", and_strict([
    "n1:1", "n1:1+n1:0", "n1:3", "m1:3", "m3:4:2", "zero:2",
    "conjugated-n1:2", "rescaled-n1:3"]))
@given(st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_the_unit_row_certificate_is_sound(identifier, strict, rng):
    # classify over a kept set of at most one kind per odd pair, mostly the
    # weight-compatible one, in place of the weight filter's; its answer,
    # certified or solved, must be the solution of the full system with the
    # other unknowns left out, which no kept-pair shortcut produces.  Only
    # n1:1 and n1:1+n1:0 have a kernel, so only there can a false
    # certificate give a wrong answer.  In strict mode the kept set is over
    # ordered pairs, and each kind is kept in both orders, as the weight
    # filter keeps it: the symmetry check compares each unknown with its
    # mirror
    mod = grid_module(identifier)
    weights = weight_compatible_unknowns(sl2(), mod)
    kept = set()
    for i in range(mod.module_dim):
        for j in range(i, mod.module_dim):
            choice = rng.random()
            if choice < 0.75:
                kinds = sorted(u.kind for u in weights if (u.i, u.j) == (i, j))
                chosen = kinds[:1]
            elif choice < 0.9:
                chosen = [rng.randrange(3)]
            else:
                chosen = []
            kept.update((k, i, j) for k in chosen)
            if strict:
                kept.update((k, j, i) for k in chosen)
    module = importlib.import_module("sl2super.classify")
    with mock.patch.object(module, "_weight_compatible",
                           return_value=kept), \
            mock.patch.object(module, "generate_constraints",
                              wraps=generate_constraints) as generate:
        cl = classify(sl2(), mod, strict=strict)
        certified = not generate.called
    full = generate_constraints(
        sl2(), mod, symmetric=not strict,
        keep_unknowns=off(cl.filtered, mod, not strict))
    unknowns = tuple(u for u in full.unknowns
                     if (u.kind, u.i, u.j) in kept)
    sol = solve(ConstraintSystem(unknowns, tuple(
        ConstraintRow(coeffs, triple, component)
        for coeffs, triple, component in restricted_rows(full, unknowns))))
    assert sol == cl.reduced
    if certified:
        assert sol.rank == len(unknowns)


def test_solve_stops_at_full_rank(monkeypatch):
    # the unit rows come first, and once each unknown has its own the rank
    # is full and the longer rows are not eliminated
    mod = resolve("m1:24")
    cs = generate_constraints(sl2(), mod, keep_unknowns=(
        off(annihilator_prefilter(sl2(), mod), mod)
        & weight_compatible_unknowns(sl2(), mod)))
    calls = []
    add = RowSpace.add

    def counted(self, row):
        calls.append(row)
        return add(self, row)

    monkeypatch.setattr(RowSpace, "add", counted)
    sol = solve(cs)
    assert sol.rank == len(cs.unknowns) == len(calls) < len(cs.rows)
    assert sol.pivots == tuple(range(len(cs.unknowns)))


@pytest.mark.parametrize("strict", [False, True], ids=["filtered", "strict"])
@pytest.mark.parametrize("identifier", DIFFERENTIAL_GRID)
def test_json_rank_is_the_rank_of_the_solution(identifier, strict):
    # counted from the unknowns left out, without building the solution
    cl = classify(sl2(), grid_module(identifier), strict=strict)
    assert cl.to_json_dict()["rank"] == cl.rank == cl.solution.rank


@given(st.sampled_from(["n1:1", "n1:3", "n2:2", "m1:3", "m3:4:2",
                        "conjugated-n1:2", "rescaled-n1:3"]),
       st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_solve_does_not_depend_on_the_row_order(identifier, symmetric, rng):
    # n1:1 has a kernel in both modes
    cs = generate_constraints(sl2(), grid_module(identifier),
                              symmetric=symmetric)
    rows = list(cs.rows)
    rng.shuffle(rows)
    assert solve(ConstraintSystem(cs.unknowns, tuple(rows))) == solve(cs)


def test_classify_grid_json_matches_the_full_system(capsys):
    assert main(["classify", "n1", "--grid", "2..8", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == [f"n1:{n}" for n in range(2, 9)]
    for n in range(2, 9):
        sol = solve(generate_constraints(sl2(), module_n1(n)))
        assert {k: data[f"n1:{n}"][k]
                for k in ("unknowns", "dimension", "rank", "vectors")} == (
            sol.to_json_dict())


@pytest.mark.parametrize("identifier", (
    [f"n1:{n}" for n in range(1, 7)]
    + [f"{fam}:{n}" for fam in ("m1", "m2") for n in range(2, 5)]
    + [f"{fam}:{nk}" for fam in ("m3", "m4") for nk in ("4:2", "6:3")]))
def test_weight_prefilter_is_sound(identifier):
    # every zeroed unknown is forced to zero by the full system itself
    mod = resolve(identifier)
    full = generate_constraints(sl2(), mod)
    rs = RowSpace(len(full.unknowns))
    for row in full.rows:
        rs.add(row.as_dict())
    pos = {u: p for p, u in enumerate(full.unknowns)}
    zeroed = set(full.unknowns) - weight_compatible_unknowns(sl2(), mod)
    assert zeroed
    for u in zeroed:
        assert rs.contains({pos[u]: Fraction(1)})


def test_weight_prefilter_keeps_the_family_support():
    full = generate_constraints(sl2(), module_n1(1)).unknowns
    zeroed = set(full) - weight_compatible_unknowns(sl2(), module_n1(1))
    kept = {u.name for u in full}
    assert kept - {u.name for u in zeroed} == {"a_0_0", "b_1_1", "c_0_1"}
    assert len(zeroed) == 6


# ---------------------------------------------------------------------------
# two-summand and chain classifications
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_summand_modules_are_rigid(n):
    assert classify(sl2(), bimodule_m1(n)).dimension == 0
    assert classify(sl2(), bimodule_m2(n)).dimension == 0


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
def test_chain_modules_are_rigid(n, k):
    assert classify(sl2(), bimodule_m3(n, k)).dimension == 0
    assert classify(sl2(), bimodule_m4(n, k)).dimension == 0


def test_classify_rejects_verbatim_chain():
    with pytest.raises(InvalidStructure):
        classify(sl2(), bimodule_m3(6, 2, verbatim=True))


# ---------------------------------------------------------------------------
# the sl2 character count bounds the answer
# ---------------------------------------------------------------------------


def character_count(mod):
    """#{i <= j : l_i + l_j = 2} - #{i <= j : l_i + l_j = 4} over the
    h-weights l of the module (the diagonal of its right h action).

    The rows of the triples (x_i, x_j, a) say that the odd product is an
    sl2-equivariant map S^2 M -> sl2, so by complete reducibility and
    Clebsch-Gordan the solutions form a space of dimension at most the
    multiplicity of the adjoint module V(2) in S^2 M, which is this count.
    It reads the weights alone, not the generator."""
    columns = mod.right[2]
    assert all(set(col) <= {m} for m, col in enumerate(columns))
    weights = [col.get(m, 0) for m, col in enumerate(columns)]
    sums = Counter(weights[i] + weights[j] for i in range(len(weights))
                   for j in range(i, len(weights)))
    return sums[2] - sums[4]


CATALOG_GRID = [i for i in DIFFERENTIAL_GRID + SKIP_GRID
                if not i.startswith(("zero:", "conjugated-"))]


@pytest.mark.parametrize("identifier",
                         CATALOG_GRID + ["n1:96", "m1:96", "m3:64:3"])
def test_the_character_count_bounds_the_dimension(identifier):
    mod = resolve(identifier)
    assert classify(sl2(), mod).dimension <= character_count(mod)


@pytest.mark.parametrize("n", list(range(13)) + [96])
def test_the_character_count_of_a_ladder_is_its_parity(n):
    # V(n) has one V(2) in its symmetric square for odd n and none for even
    # n, so the count alone proves the zero answer on the even ladders
    assert character_count(module_n1(n)) == n % 2


# ---------------------------------------------------------------------------
# strict mode: no symmetry assumption
# ---------------------------------------------------------------------------


def test_strict_mode_symmetry_emerges():
    cl = classify(sl2(), module_n1(1), strict=True)
    assert cl.strict and cl.symmetry_emerged is True
    assert cl.dimension == 1
    assert cl.names == ("S1", "S2")
    # strict unknowns double the off-diagonal pairs; the weight filter
    # keeps a_0_0, b_1_1, c_0_1 and c_1_0
    assert len(cl.solution.unknowns) == 12
    assert len(cl.system.unknowns) == 4
    assert cl.solution.rank == 11


@pytest.mark.parametrize("n", [0, 2, 3])
def test_strict_mode_on_rigid_cases(n):
    cl = classify(sl2(), module_n1(n), strict=True)
    assert cl.dimension == 0
    assert cl.symmetry_emerged is True  # vacuous but recorded


def test_non_strict_records_no_emergence():
    assert classify(sl2(), module_n1(1)).symmetry_emerged is None


# ---------------------------------------------------------------------------
# representatives and the rescaling normalization
# ---------------------------------------------------------------------------


def test_every_representative_passes_reverification():
    cl = classify(sl2(), module_n1(1))
    for rep in cl.representatives:
        assert check_leibniz_super(rep).ok


def superidentity_residuals(even, mod):
    """(labels, residual items) of every violation of the superidentity on
    the zero table, ``assemble(even, mod)``."""
    return {(v.labels, tuple(v.residual.items()))
            for v in check_leibniz_super(assemble(even, mod)).violations}


def precondition_residuals(even, mod):
    """The same pairs read from ``check_leibniz`` and the bimodule axioms,
    each bimodule triple (m, x, y) put back in the order of its identity."""
    found = {(v.labels, tuple(v.residual.items()))
             for v in check_leibniz(even).violations}
    for v in check_bimodule_axioms(mod).violations:
        m, x, y = v.labels
        triple = {"bimodule-1": (m, x, y), "bimodule-2": (x, m, y),
                  "bimodule-3": (x, y, m)}[v.identity]
        found.add((triple, tuple(v.residual.items())))
    return found


@pytest.mark.parametrize("identifier,verbatim,count", [
    ("n1:3", False, 0), ("n2:4", False, 0), ("m1:5", False, 0),
    ("m3:8:3", False, 0), ("m4:10:4", False, 0), ("rescaled-m1:4", False, 0),
    ("sheared-m3:6:3", False, 0), ("sheared-m4:6:3", False, 0),
    ("m3:6:3", True, 74), ("m4:6:2", True, 34), ("m3:8:3", True, 106),
    ("m3:10:4", True, 215), ("m4:10:4", True, 181)])
def test_the_zero_table_fails_exactly_where_the_preconditions_do(
        identifier, verbatim, count):
    # with [M,M] = 0 the superidentity's sign never fires, so classify may
    # read the zero table's verdict from the precondition report
    mod = (resolve(identifier, verbatim=True) if verbatim
           else grid_module(identifier))
    zero = superidentity_residuals(sl2(), mod)
    assert len(zero) == count
    assert zero == precondition_residuals(sl2(), mod)


@pytest.mark.parametrize("identifier", ["n1:1", "n1:3", "n2:2", "m1:24",
                                        "m3:16:3", "conjugated-n1:2"])
def test_only_the_solved_tables_are_reverified(monkeypatch, identifier):
    module = importlib.import_module("sl2super.classify")
    checked = []

    def counted(alg):
        checked.append(alg)
        return check_leibniz_super(alg)

    monkeypatch.setattr(module, "check_leibniz_super", counted)
    cl = classify(sl2(), grid_module(identifier))
    assert checked == list(cl.representatives[1:])
    assert len(checked) == cl.dimension


def test_a_wrong_solved_table_fails_reverification(monkeypatch):
    module = importlib.import_module("sl2super.classify")
    # [x_0, x_0] = e alone is off the family line of module_n1(1)
    wrong = OddBracketTable.build({(0, 0): {0: Fraction(1)}})
    monkeypatch.setattr(module, "_products_from_vector",
                        lambda unknowns, vector: wrong)
    with pytest.raises(InvalidStructure, match="on re-verification") as exc:
        classify(sl2(), module_n1(1))
    assert exc.value.report is not None and not exc.value.report.ok


def test_s1_and_s2_are_built_only_for_a_two_dimensional_odd_part(
        monkeypatch):
    module = importlib.import_module("sl2super.classify")

    def refuse():
        raise AssertionError("S1 and S2 cannot match this module")

    monkeypatch.setattr(module, "superalgebra_s1", refuse)
    monkeypatch.setattr(module, "superalgebra_s2", refuse)
    assert classify(sl2(), module_n1(3)).names == ("zero",)
    assert classify(sl2(), bimodule_m1(2)).names == ("zero",)
    monkeypatch.undo()
    assert classify(sl2(), module_n1(1)).names == ("S1", "S2")


@pytest.mark.parametrize("c", [1, 4, "9/4", 25])
def test_rescaling_normalizes_square_parameters(c):
    assert verify_rescaling_isomorphism(c) is True


@pytest.mark.parametrize("c", [0, 2, -1, "3/5"])
def test_rescaling_rejects_non_squares(c):
    with pytest.raises(ValueError):
        verify_rescaling_isomorphism(c)


def test_rescaling_rejects_a_zero_denominator():
    # a ValueError, as for a parameter that is not a square
    with pytest.raises(ValueError):
        verify_rescaling_isomorphism("1/0")


@given(st.fractions(max_denominator=8))
@settings(max_examples=40, deadline=None)
def test_family_member_satisfies_superidentity_for_any_parameter(c):
    # the solved line really is a one-parameter family of superalgebras
    table = OddBracketTable.build({
        (0, 0): {0: 2 * c}, (1, 1): {1: 2 * c}, (0, 1): {2: c}})
    member = assemble(sl2(), module_n1(1), table)
    assert check_leibniz_super(member).ok


@given(st.fractions(max_denominator=6).filter(bool))
@settings(max_examples=30, deadline=None)
def test_off_family_tables_fail(c):
    # perturbing a single coefficient off the family line breaks the identity
    table = OddBracketTable.build({
        (0, 0): {0: 2 * c}, (1, 1): {1: 2 * c}, (0, 1): {2: 3 * c}})
    member = assemble(sl2(), module_n1(1), table)
    assert not check_leibniz_super(member).ok


# ---------------------------------------------------------------------------
# serialization handles
# ---------------------------------------------------------------------------


def test_system_and_solution_json_views():
    cs = generate_constraints(sl2(), module_n1(1))
    data = cs.to_json_dict()
    assert data["unknowns"][0] == "a_0_0"
    assert all({"coeffs", "triple", "component"} <= set(r) for r in data["rows"])
    sol = solve(cs)
    sdata = sol.to_json_dict()
    assert sdata["dimension"] == 1 and sdata["rank"] == 8
    assert sdata["vectors"] == [{"a_0_0": "2", "b_1_1": "2", "c_0_1": "1"}]
    cl = classify(sl2(), module_n1(1))
    cdata = cl.to_json_dict()
    assert cdata["names"] == ["S1", "S2"]
    assert cdata["dimension"] == 1
    assert isinstance(cl, Classification)
