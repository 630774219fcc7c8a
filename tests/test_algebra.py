"""Structure constant tables, identity checkers, bimodule axioms."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2super import algebra
from sl2super.algebra import (
    BasisVector,
    BimoduleSpec,
    Element,
    Parity,
    SuperAlgebra,
    check_bimodule_axioms,
    check_graded_antisymmetry,
    check_leibniz,
    check_leibniz_super,
    right_annihilator,
    symmetrized_products_in_annihilator,
)
from sl2super.catalog import (
    E,
    F,
    H,
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
from sl2super.classify import InvalidStructure, generate_constraints
from sl2super.linalg import Matrix

ONE = Fraction(1)


def even_basis(labels):
    return [BasisVector(i, lab, Parity.EVEN) for i, lab in enumerate(labels)]


def two_dim_nonlie():
    # [b,b] = a is the smallest Leibniz table that is not antisymmetric
    return SuperAlgebra(even_basis(["a", "b"]), {(1, 1): {0: ONE}})


# ---------------------------------------------------------------------------
# construction and element arithmetic
# ---------------------------------------------------------------------------


def test_construction_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        SuperAlgebra(even_basis(["a"]), {(0, 1): {0: ONE}})
    with pytest.raises(ValueError):
        SuperAlgebra(even_basis(["a"]), {(0, 0): {3: ONE}})


def test_construction_rejects_parity_breaking_products():
    basis = [BasisVector(0, "a", Parity.EVEN), BasisVector(1, "m", Parity.ODD)]
    # even*even landing on an odd vector breaks the grading
    with pytest.raises(ValueError):
        SuperAlgebra(basis, {(0, 0): {1: ONE}})
    # even*odd landing on an even vector does too
    with pytest.raises(ValueError):
        SuperAlgebra(basis, {(0, 1): {0: ONE}})
    # even*odd -> odd is fine
    SuperAlgebra(basis, {(0, 1): {1: ONE}})


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        SuperAlgebra(even_basis(["a", "a"]), {})


def test_element_arithmetic_and_zero_cleanup():
    x = Element({0: 2, 1: "3/2"})
    y = Element({1: Fraction(-3, 2), 2: 0})
    assert y.coeffs == {1: Fraction(-3, 2)}  # zero coefficient dropped
    assert (x + y).coeffs == {0: Fraction(2)}
    assert (x - x).is_zero()
    assert (-x).coeffs == {0: Fraction(-2), 1: Fraction(-3, 2)}
    assert x.scaled("1/2").coeffs == {0: Fraction(1), 1: Fraction(3, 4)}
    assert x.support() == [0, 1]


def test_bracket_bilinearity():
    A = sl2()
    e, f, h = (A.basis_element(k) for k in "efh")
    assert A.bracket(e, f) == h
    assert A.bracket(e + f, e + f) == Element({})  # [e,f] + [f,e] = 0
    assert A.bracket(e.scaled(3), h) == Element({E: Fraction(6)})


def test_parity_of_element():
    S = superalgebra_s1()
    assert S.parity_of_element(S.basis_element("e")) is Parity.EVEN
    assert S.parity_of_element(S.basis_element("x_0")) is Parity.ODD
    mixed = S.basis_element("e") + S.basis_element("x_0")
    assert S.parity_of_element(mixed) is None
    assert S.parity_of_element(Element({})) is None


def test_format_element():
    A = sl2()
    assert A.format_element(Element({})) == "0"
    assert A.format_element(Element({E: 1})) == "e"
    assert A.format_element(Element({E: -1, F: 2})) == "-e + 2f"
    assert A.format_element(Element({F: Fraction(-9, 4), H: 1})) == "-9/4f + h"
    assert A.format_element(Element({E: 1, H: -3})) == "e - 3h"


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_json_round_trip_preserves_everything():
    for alg in (sl2(), superalgebra_s1(), superalgebra_s2(), two_dim_nonlie()):
        again = SuperAlgebra.from_json(alg.to_json())
        assert again == alg
        assert again.to_json() == alg.to_json()


def test_from_json_rejects_malformed_input():
    good = superalgebra_s2().to_json_dict()
    with pytest.raises(ValueError):
        SuperAlgebra.from_json_dict({"brackets": []})  # no basis
    bad = {"basis": good["basis"],
           "brackets": [{"left": "nope", "right": "e",
                         "result": [{"coeff": "1", "label": "h"}]}]}
    with pytest.raises(ValueError):
        SuperAlgebra.from_json_dict(bad)
    bad2 = {"basis": [{"label": "a", "parity": "sideways"}], "brackets": []}
    with pytest.raises(ValueError):
        SuperAlgebra.from_json_dict(bad2)
    with pytest.raises(ValueError):
        SuperAlgebra.from_json("not json at all {")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.sampled_from(["1/0", "e", "odd", "x_0", "3/2"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["label", "parity", "left", "right",
                                       "result", "coeff"]), inner, max_size=3),
    max_leaves=6)


def _json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(node, list):
        for pos, value in enumerate(node):
            yield from _json_paths(value, path + (pos,))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_from_json_dict_raises_only_value_error(data):
    # replace one node of a valid document by an arbitrary JSON value
    doc = superalgebra_s2().to_json_dict()
    path = data.draw(st.sampled_from(list(_json_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(JSON_VALUES)
    try:
        SuperAlgebra.from_json_dict(doc)
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# identity checkers
# ---------------------------------------------------------------------------


def test_sl2_satisfies_leibniz():
    assert check_leibniz(sl2()).ok


def test_check_leibniz_requires_even_algebra():
    with pytest.raises(ValueError):
        check_leibniz(superalgebra_s1())


def test_corrupted_sl2_reports_the_right_triples():
    A = sl2()
    table = {pair: dict(vec) for pair, vec in A.table_items()}
    table[(E, F)] = {H: Fraction(2)}  # corrupt a single structure constant
    bad = SuperAlgebra(list(A.basis), table)
    report = check_leibniz(bad)
    assert not report.ok
    found = {v.labels: v.residual for v in report}
    assert found[("f", "e", "f")] == {"f": Fraction(-2)}
    assert found[("h", "e", "f")] == {"h": Fraction(2)}
    # this triple happens to still balance, so it must not be reported
    assert ("e", "e", "f") not in found


def test_violation_describe_is_readable():
    A = sl2()
    table = {pair: dict(vec) for pair, vec in A.table_items()}
    table[(E, F)] = {H: Fraction(2)}
    report = check_leibniz(SuperAlgebra(list(A.basis), table))
    text = report.describe(limit=1)
    assert "leibniz at (" in text
    assert "residual" in text
    assert "... and" in text  # more than one violation exists


def test_s1_and_s2_satisfy_super_leibniz():
    assert check_leibniz_super(superalgebra_s1()).ok
    assert check_leibniz_super(superalgebra_s2()).ok


def test_super_leibniz_detects_broken_odd_product():
    S = superalgebra_s2()
    table = {pair: dict(vec) for pair, vec in S.table_items()}
    x0 = S.index("x_0")
    table[(x0, x0)] = {E: Fraction(3)}  # was 2e
    report = check_leibniz_super(SuperAlgebra(list(S.basis), table))
    assert not report.ok


def test_graded_antisymmetry():
    # both superalgebras happen to be graded antisymmetric (Lie superalgebras)
    assert check_graded_antisymmetry(superalgebra_s1()).ok
    assert check_graded_antisymmetry(superalgebra_s2()).ok
    report = check_graded_antisymmetry(two_dim_nonlie())
    assert [v.labels for v in report] == [("b", "b")]
    assert list(report)[0].residual == {"a": Fraction(2)}


def test_rescaled_structure_constants():
    A = sl2()
    B = A.rescaled([Fraction(1, 2), 1, 1])
    # c' = c * s_i * s_j / s_k: [e,f] = h picks up 1/2, [h,e] = -2e is fixed
    assert B.bracket_indices(E, F) == {H: Fraction(1, 2)}
    assert B.bracket_indices(H, E) == {E: Fraction(-2)}
    assert check_leibniz(B).ok  # rescaling preserves the identity


@given(st.fractions(max_denominator=6).filter(bool))
def test_rescaling_by_torus_fixes_sl2(t):
    # diag(t, 1/t, 1) is an automorphism of the table
    assert sl2().rescaled([t, 1 / t, 1]) == sl2()


def test_rescaled_rejects_zero_scale():
    with pytest.raises(ValueError):
        sl2().rescaled([0, 1, 1])


def test_forget_grading():
    S = superalgebra_s2()
    flat = S.forget_grading()
    assert flat.is_purely_even()
    assert flat.bracket_indices(3, 3) == S.bracket_indices(3, 3)
    # ungraded Leibniz fails for the graded table, as it should
    assert not check_leibniz(flat).ok


# ---------------------------------------------------------------------------
# the Leibniz checkers against the identity evaluated from its definition
# ---------------------------------------------------------------------------


def reference_leibniz(A, identity, graded):
    """Every basis triple, each term through ``SuperAlgebra.bracket``."""
    units = [A.basis_element(i) for i in range(A.dim)]
    found = []
    for x, y, z in itertools.product(range(A.dim), repeat=3):
        bx, by, bz = units[x], units[y], units[z]
        sign = -1 if graded and A.parity(y) and A.parity(z) else 1
        residual = (A.bracket(bx, A.bracket(by, bz))
                    - A.bracket(A.bracket(bx, by), bz)
                    + A.bracket(A.bracket(bx, bz), by).scaled(sign))
        if not residual.is_zero():
            found.append((identity, (A.label(x), A.label(y), A.label(z)),
                          [(A.label(k), residual.coeffs[k])
                           for k in residual.support()]))
    return found


def reported(report):
    return [(v.identity, v.labels, list(v.residual.items())) for v in report]


def assert_fraction_residuals(report):
    # equality alone would also pass an int or a float residual
    for v in report:
        assert all(type(c) is Fraction for c in v.residual.values())


def assert_checkers_match_reference(A):
    graded = check_leibniz_super(A)
    assert reported(graded) == reference_leibniz(
        A, "leibniz-super", graded=True)
    flat = A.forget_grading()
    ungraded = check_leibniz(flat)
    assert reported(ungraded) == reference_leibniz(
        flat, "leibniz", graded=False)
    assert_fraction_residuals(graded)
    assert_fraction_residuals(ungraded)


def family_member(c, h_scale=1):
    # the n1:1 family line is h_scale == 1; any other h coefficient breaks it
    c = Fraction(c)
    table = OddBracketTable.build({
        (0, 0): {E: 2 * c}, (1, 1): {F: 2 * c}, (0, 1): {H: h_scale * c}})
    return assemble(sl2(), module_n1(1), table)


DIFFERENTIAL_CASES = (
    [(f"n1:{n}", lambda n=n: assemble(sl2(), module_n1(n))) for n in range(13)]
    + [(f"n2:{n}", lambda n=n: assemble(sl2(), module_n2(n))) for n in range(9)]
    + [(f"{name}:{n}", lambda b=builder, n=n: assemble(sl2(), b(n)))
       for name, builder in (("m1", bimodule_m1), ("m2", bimodule_m2))
       for n in range(2, 9)]
    + [(f"{name}:{n}:{k}{':verbatim' if verbatim else ''}",
        lambda b=builder, n=n, k=k, v=verbatim:
            assemble(sl2(), b(n, k, verbatim=v)))
       for name, builder in (("m3", bimodule_m3), ("m4", bimodule_m4))
       for n, k in ((4, 2), (6, 3), (8, 3), (10, 4))
       for verbatim in (False, True)]
    + [("s1", superalgebra_s1), ("s2", superalgebra_s2)]
    + [(f"n1:1-member:{c}:h*{h_scale}",
        lambda c=c, h_scale=h_scale: family_member(c, h_scale))
       for c in (1, 4, -1, "1/4", "9/4", -3, "2/7") for h_scale in (1, 2)]
)


@pytest.mark.parametrize("build", [b for _, b in DIFFERENTIAL_CASES],
                         ids=[name for name, _ in DIFFERENTIAL_CASES])
def test_leibniz_checkers_match_the_reference(build):
    assert_checkers_match_reference(build())


def test_differential_cases_include_violations():
    # the grid must exercise reported residuals, not only empty reports
    assert len(check_leibniz_super(family_member(4, h_scale=2))) > 0
    assert len(check_leibniz_super(
        assemble(sl2(), bimodule_m3(6, 3, verbatim=True)))) > 0
    assert len(check_leibniz(superalgebra_s2().forget_grading())) > 0


@st.composite
def graded_tables(draw):
    """Random tables of dim <= 5 with random parities and sparse rational
    constants that respect the grading; most violate the identity."""
    dim = draw(st.integers(1, 5))
    odd = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    basis = [BasisVector(i, f"b{i}", Parity.ODD if o else Parity.EVEN)
             for i, o in enumerate(odd)]
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    table = {}
    for i, j in itertools.product(range(dim), repeat=2):
        targets = [k for k in range(dim) if odd[k] == (odd[i] != odd[j])]
        if targets and draw(st.integers(0, 2)) == 0:
            ks = draw(st.lists(st.sampled_from(targets), max_size=2, unique=True))
            table[(i, j)] = {k: draw(coeff) for k in ks}
    return SuperAlgebra(basis, table)


@given(graded_tables())
@settings(max_examples=150, deadline=None)
def test_leibniz_checkers_match_the_reference_on_random_tables(A):
    assert_checkers_match_reference(A)


COPRIME_DENOMINATORS = (1, 2, 3, 7, 11, 13)


def coprime_coefficients():
    """Nonzero rationals whose denominators are drawn from
    ``COPRIME_DENOMINATORS``, so that a table's common denominator, and its
    square, is large."""
    return st.builds(Fraction, st.integers(-30, 30).filter(bool),
                     st.sampled_from(COPRIME_DENOMINATORS))


@st.composite
def coprime_denominator_tables(draw):
    """Random graded tables of dim <= 5, as ``graded_tables``, but denser
    and with coefficients over coprime denominators."""
    dim = draw(st.integers(0, 5))
    odd = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    basis = [BasisVector(i, f"b{i}", Parity.ODD if o else Parity.EVEN)
             for i, o in enumerate(odd)]
    table = {}
    for i, j in itertools.product(range(dim), repeat=2):
        targets = [k for k in range(dim) if odd[k] == (odd[i] != odd[j])]
        if targets and draw(st.booleans()):
            ks = draw(st.lists(st.sampled_from(targets), min_size=1,
                               max_size=3, unique=True))
            table[(i, j)] = {k: draw(coprime_coefficients()) for k in ks}
    return SuperAlgebra(basis, table)


@given(coprime_denominator_tables())
@example(SuperAlgebra([], {}))
@example(SuperAlgebra([BasisVector(0, "b0", Parity.EVEN),
                       BasisVector(1, "b1", Parity.ODD)], {}))
# common denominator 1001; the residual at (b0, b0, b1) is 25/11011 b1
@example(SuperAlgebra(even_basis(["b0", "b1"]), {
    (0, 0): {0: Fraction(1, 7)}, (0, 1): {1: Fraction(1, 11)},
    (1, 0): {1: Fraction(1, 13)}}))
@settings(max_examples=150, deadline=None)
def test_leibniz_checkers_match_the_reference_on_coprime_denominators(A):
    assert_checkers_match_reference(A)


# ---------------------------------------------------------------------------
# bimodule axioms
# ---------------------------------------------------------------------------


def test_bimodule_spec_validation():
    A = sl2()
    eye = Matrix.identity(2)
    with pytest.raises(ValueError):
        BimoduleSpec(A, ("m", "m"), (eye, eye, eye), (eye, eye, eye))
    with pytest.raises(ValueError):
        BimoduleSpec(A, ("m0", "m1"), (eye, eye), (eye, eye, eye))
    with pytest.raises(ValueError):
        BimoduleSpec(superalgebra_s1(), ("m",), (Matrix.identity(1),) * 5,
                     (Matrix.identity(1),) * 5)


def test_bimodule_axioms_hold_for_catalog_module():
    assert check_bimodule_axioms(module_n1(3)).ok


def corrupted_n1() -> BimoduleSpec:
    """module_n1(1) with one right-action entry of e changed."""
    spec = module_n1(1)
    right_e = list(spec.right[E])
    right_e[1] = {0: Fraction(-2)}  # [x_1, e] was -x_0
    return BimoduleSpec(spec.even, spec.odd_labels,
                        (right_e, spec.right[F], spec.right[H]),
                        spec.left)


def test_bimodule_axioms_detect_corruption():
    broken = corrupted_n1()
    report = check_bimodule_axioms(broken)
    assert not report.ok
    assert {v.identity for v in report} <= {"bimodule-1", "bimodule-2",
                                            "bimodule-3"}
    # labels are (module vector, even, even)
    m, x, y = list(report)[0].labels
    assert m.startswith("x_")
    assert x in ("e", "f", "h") and y in ("e", "f", "h")


def test_zero_actions_form_a_bimodule():
    z = Matrix.zeros(3, 3)
    spec = BimoduleSpec(sl2(), ("m0", "m1", "m2"), (z, z, z), (z, z, z))
    assert check_bimodule_axioms(spec).ok


@pytest.mark.parametrize("build", [
    corrupted_n1,
    lambda: bimodule_m3(6, 3, verbatim=True),
], ids=["corrupted-n1:1", "verbatim-m3:6:3"])
def test_a_broken_spec_keeps_its_report(build):
    spec = build()
    first = check_bimodule_axioms(spec)
    second = check_bimodule_axioms(spec)
    assert not first.ok
    assert second == first
    assert second == check_bimodule_axioms(build())
    for _ in range(2):
        with pytest.raises(InvalidStructure) as exc:
            generate_constraints(spec.even, spec)
        assert exc.value.report == first


@pytest.mark.parametrize("identifier,verbatim", [
    ("n1:3", False), ("m1:4", False), ("m4:6:3", False), ("m4:6:3", True)])
def test_equal_specs_built_separately_get_equal_reports(identifier, verbatim):
    one, two = (resolve(identifier, verbatim=verbatim) for _ in range(2))
    assert one == two and one is not two
    assert check_bimodule_axioms(one) == check_bimodule_axioms(two)


def test_axiom_report_is_evaluated_once_per_spec(monkeypatch):
    calls = []
    evaluate = algebra._bimodule_axiom_report

    def counted(spec):
        calls.append(spec)
        return evaluate(spec)

    monkeypatch.setattr(algebra, "_bimodule_axiom_report", counted)
    spec = bimodule_m4(6, 3, verbatim=True)
    for _ in range(3):
        assert len(check_bimodule_axioms(spec)) == len(evaluate(spec))
    assert calls == [spec]


def test_a_non_leibniz_acting_algebra_raises_on_every_call():
    basis = [BasisVector(i, lab, Parity.EVEN) for i, lab in enumerate("ab")]
    # [a,b] = a, [b,a] = b: [a,[b,a]] = a but [[a,b],a] - [[a,a],b] = 0
    even = SuperAlgebra(basis, {(0, 1): {0: ONE}, (1, 0): {1: ONE}})
    assert not check_leibniz(even).ok
    z = Matrix.zeros(1, 1)
    spec = BimoduleSpec(even, ("m",), (z, z), (z, z))
    for _ in range(2):
        with pytest.raises(ValueError, match="not a Leibniz algebra"):
            check_bimodule_axioms(spec)


def test_bracket_indices_cannot_change_the_algebra():
    spec = module_n1(2)
    assert check_bimodule_axioms(spec).ok
    with pytest.raises(TypeError):
        spec.even.bracket_indices(0, 2)[0] = 5  # [e, h] = 2e
    with pytest.raises(TypeError):
        spec.even.bracket_indices(0, 0)[0] = 5  # [e, e] = 0
    assert spec.even == sl2()
    assert check_bimodule_axioms(module_n1(2)).ok


def dense(action, d):
    """An action stored as columns, written out as a d x d ``Matrix``."""
    return Matrix([[action[m].get(r, 0) for m in range(d)]
                   for r in range(d)])


def apply(action, vec):
    """The image of the sparse vector ``vec`` under an action stored as
    columns."""
    out = {}
    for m, c in vec.items():
        out = algebra._vadd(out, action[m], c)
    return out


@pytest.mark.parametrize("build", [
    lambda: module_n1(3),
    lambda: bimodule_m2(4),
    lambda: bimodule_m3(8, 3, verbatim=True),
    corrupted_n1,
], ids=["n1:3", "m2:4", "verbatim-m3:8:3", "corrupted-n1:1"])
def test_action_columns_are_the_matrix_columns(build):
    # a spec built from ``Matrix`` actions stores their nonzero columns
    spec = build()
    d = spec.module_dim
    mats = [tuple(dense(action, d) for action in side)
            for side in (spec.right, spec.left)]
    rebuilt = BimoduleSpec(spec.even, spec.odd_labels, *mats)
    for cols, side_mats in zip((rebuilt.right, rebuilt.left), mats):
        assert len(cols) == len(side_mats) == spec.even.dim
        for col, mat in zip(cols, side_mats):
            assert len(col) == d
            for m in range(d):
                assert col[m] == {r: mat.entry(r, m) for r in range(d)
                                  if mat.entry(r, m) != 0}
    assert rebuilt == spec


def test_stored_columns_are_read_only():
    spec = bimodule_m1(3)
    with pytest.raises(TypeError):
        spec.right[H][0][0] = 5  # [x_0, h] = 3 x_0
    with pytest.raises(TypeError):
        spec.left[F][0][5] = 1  # [f, x_0] has no y_1 component
    with pytest.raises(TypeError):
        del spec.left[F][0][1]
    assert spec == bimodule_m1(3)
    assert check_bimodule_axioms(spec).ok


def test_a_spec_copies_its_input():
    images = [[{0: ONE}, {1: ONE}], [{}, {}]]  # b_0 acts as the identity
    even = SuperAlgebra(even_basis(["a", "b"]), {})
    spec = BimoduleSpec(even, ("m0", "m1"), images, images)
    images[0][0][1] = ONE
    images[0][1] = {0: ONE}
    images[1].append({})
    assert spec.right == spec.left == (({0: ONE}, {1: ONE}), ({}, {}))
    mats = [Matrix.identity(2), Matrix.zeros(2, 2)]
    assert BimoduleSpec(even, ("m0", "m1"), mats, mats) == spec


def test_module_labels_are_stored_as_a_tuple():
    even = SuperAlgebra(even_basis(["a"]), {})
    right, left = ([{0: ONE}, {}],), ([{}, {}],)  # [m0, a] = m0
    labels = ["m0", "m1"]
    spec = BimoduleSpec(even, labels, right, left)
    assert type(spec.odd_labels) is tuple
    labels[1] = "m0"  # would be a duplicate label if it reached the spec
    assert spec.odd_labels == ("m0", "m1")
    assert spec == BimoduleSpec(even, ("m0", "m1"), right, left)
    assert check_bimodule_axioms(spec).ok


@pytest.mark.parametrize("action,error", [
    ([{0: 1}], ValueError),                        # one column, not two
    ([{0: 1}, {0: 1}, {}], ValueError),            # three columns
    ([{0: 1}, {2: 1}], ValueError),                # row 2 of a 2-dim module
    ([{0: 1}, {-1: 1}], ValueError),               # row -1
    ([{0: 1}, {1: 0.5}], TypeError),               # a float entry
    (Matrix.identity(3), ValueError),              # a 3 x 3 matrix
    (Matrix([[1, 0, 0], [0, 1, 0]]), ValueError),  # a 2 x 3 matrix
    (Matrix([[1, 0]]), ValueError),                # a 1 x 2 matrix
], ids=["one-column", "three-columns", "row-2", "row-minus-1", "float",
        "matrix-3x3", "matrix-2x3", "matrix-1x2"])
def test_a_malformed_action_is_rejected(action, error):
    even = SuperAlgebra(even_basis(["a"]), {})
    with pytest.raises(error):
        BimoduleSpec(even, ("m0", "m1"), (action,), ([{}, {}],))
    with pytest.raises(error):
        BimoduleSpec(even, ("m0", "m1"), ([{}, {}],), (action,))


def test_zero_entries_are_not_stored():
    even = SuperAlgebra(even_basis(["a"]), {})
    spec = BimoduleSpec(even, ("m0", "m1"),
                        ([{0: 0, 1: "1/2"}, {0: Fraction(0)}],),
                        (Matrix([[0, 0], [0, -1]]),))
    assert spec.right == (({1: Fraction(1, 2)}, {}),)
    assert spec.left == (({}, {1: Fraction(-1)}),)


def test_stored_columns_are_in_row_order():
    even = SuperAlgebra(even_basis(["a"]), {})
    spec = BimoduleSpec(even, ("m0", "m1", "m2"),
                        ([{2: 1, 0: 2, 1: 3}, {}, {1: 1, 0: 1}],),
                        ([{}, {}, {}],))
    assert [list(col) for col in spec.right[0]] == [[0, 1, 2], [], [0, 1]]


# ---------------------------------------------------------------------------
# the bimodule checker against the identities evaluated action by action
# ---------------------------------------------------------------------------


def reference_bimodule(spec):
    """Every (m, x, y) and each identity in turn, each action applied to a
    vector column by column (``apply``)."""
    A = spec.even
    rho, lam = spec.right, spec.left

    def act(actions, coeffs, vec):  # the action of sum c_k b_k
        out = {}
        for k, c in coeffs.items():
            out = algebra._vadd(out, apply(actions[k], vec), c)
        return out

    def violation(identity, triple, res):
        return algebra.Violation(identity, triple, {
            spec.odd_labels[k]: res[k] for k in sorted(res)})

    bad = []
    for m in range(spec.module_dim):
        unit = {m: ONE}
        for x in range(A.dim):
            rx = apply(rho[x], unit)
            lx = apply(lam[x], unit)
            for y in range(A.dim):
                xy = A.bracket_indices(x, y)
                triple = (spec.odd_labels[m], A.label(x), A.label(y))
                # [m,[x,y]] = [[m,x],y] - [[m,y],x]
                res = algebra._vadd(act(rho, xy, unit),
                                    apply(rho[y], rx), -ONE)
                res = algebra._vadd(
                    res, apply(rho[x], apply(rho[y], unit)))
                if res:
                    bad.append(violation("bimodule-1", triple, res))
                # [x,[m,y]] = [[x,m],y] - [[x,y],m]
                res = algebra._vadd(
                    apply(lam[x], apply(rho[y], unit)),
                    apply(rho[y], lx), -ONE)
                res = algebra._vadd(res, act(lam, xy, unit))
                if res:
                    bad.append(violation("bimodule-2", triple, res))
                # [x,[y,m]] = [[x,y],m] - [[x,m],y]
                res = algebra._vadd(
                    apply(lam[x], apply(lam[y], unit)),
                    act(lam, xy, unit), -ONE)
                res = algebra._vadd(res, apply(rho[y], lx))
                if res:
                    bad.append(violation("bimodule-3", triple, res))
    return bad


def assert_bimodule_checker_matches_reference(spec):
    # list order and residual order both count
    report = check_bimodule_axioms(spec)
    assert reported(report) == reported(reference_bimodule(spec))
    assert_fraction_residuals(report)


def relabelled(spec, labels):
    return BimoduleSpec(spec.even, labels, spec.right, spec.left)


BIMODULE_CASES = (
    [(f"n1:{n}", lambda n=n: module_n1(n)) for n in range(13)]
    + [(f"n2:{n}", lambda n=n: module_n2(n)) for n in range(9)]
    + [(f"{name}:{n}", lambda b=builder, n=n: b(n))
       for name, builder in (("m1", bimodule_m1), ("m2", bimodule_m2))
       for n in range(2, 9)]
    + [(f"{name}:{n}:{k}{':verbatim' if verbatim else ''}",
        lambda b=builder, n=n, k=k, v=verbatim: b(n, k, verbatim=v))
       for name, builder in (("m3", bimodule_m3), ("m4", bimodule_m4))
       for n, k in ((4, 2), (6, 3), (8, 3), (10, 4))
       for verbatim in (False, True)]
    + [("corrupted-n1:1", corrupted_n1)]
    + [(f"zero:{d}", lambda d=d: BimoduleSpec(
        sl2(), tuple(f"m{i}" for i in range(d)),
        (Matrix.zeros(d, d),) * 3, (Matrix.zeros(d, d),) * 3))
       for d in range(4)]
    # module labels that are also even labels: the checker never builds
    # the split extension as a SuperAlgebra, so it must accept them
    + [("labels-h-e:corrupted-n1:1",
        lambda: relabelled(corrupted_n1(), ("h", "e")))]
)


@pytest.mark.parametrize("build", [b for _, b in BIMODULE_CASES],
                         ids=[name for name, _ in BIMODULE_CASES])
def test_bimodule_checker_matches_the_reference(build):
    assert_bimodule_checker_matches_reference(build())


@pytest.mark.parametrize("build", [b for _, b in BIMODULE_CASES],
                         ids=[name for name, _ in BIMODULE_CASES])
def test_a_spec_rebuilt_from_matrices_is_the_same_spec(build):
    spec = build()
    d = spec.module_dim
    rebuilt = BimoduleSpec(
        spec.even, spec.odd_labels,
        tuple(dense(action, d) for action in spec.right),
        tuple(dense(action, d) for action in spec.left))
    assert rebuilt == spec
    assert repr(check_bimodule_axioms(rebuilt)) == repr(
        check_bimodule_axioms(spec))


def test_bimodule_cases_include_violations():
    # the grid must exercise reported residuals, in every identity
    found = {v.identity
             for build in (corrupted_n1, lambda: bimodule_m3(6, 3, True))
             for v in check_bimodule_axioms(build())}
    assert found == {"bimodule-1", "bimodule-2", "bimodule-3"}


def test_colliding_labels_are_checked_but_not_assembled():
    spec = relabelled(corrupted_n1(), ("h", "e"))
    assert {v.labels[0] for v in check_bimodule_axioms(spec)} == {"h", "e"}
    with pytest.raises(ValueError, match="duplicate basis labels"):
        assemble(sl2(), spec)


@st.composite
def sl2_actions(draw):
    """Random sparse rational left and right actions on a module of dim <= 4
    of sl2, in a basis where [e,f] may be a rational multiple of h; most of
    them fail the axioms.  Entries have denominators 1, 2, 3 and 7, so the
    split extension's common denominator ranges over the divisors of 42."""
    d = draw(st.integers(1, 4))
    entries = st.dictionaries(
        st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)),
        st.sampled_from([Fraction(c) for c in (
            -2, -1, "-1/2", "1/2", 1, 2, "-2/3", "1/3", "-1/7", "5/7")]),
        max_size=d + 1)

    def actions():
        return tuple(Matrix.from_entries(d, d, draw(entries)) for _ in range(3))

    scale = draw(st.sampled_from([ONE, Fraction(1, 3), Fraction(-2, 7)]))
    return BimoduleSpec(sl2().rescaled([scale, 1, 1]),
                        tuple(f"m{i}" for i in range(d)),
                        actions(), actions())


@given(sl2_actions())
@settings(max_examples=150, deadline=None)
def test_bimodule_checker_matches_the_reference_on_random_actions(spec):
    assert_bimodule_checker_matches_reference(spec)


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------


def test_right_annihilator_of_sl2_is_trivial():
    assert right_annihilator(sl2()) == []


def test_right_annihilator_of_s1_is_trivial():
    assert right_annihilator(superalgebra_s1()) == []


def test_right_annihilator_nonlie_example():
    ann = right_annihilator(two_dim_nonlie())
    assert ann == [Element({0: 1})]


def test_symmetrized_products_land_in_annihilator():
    # graded-antisymmetric algebras: all symmetrized products vanish
    assert symmetrized_products_in_annihilator(superalgebra_s2()).ok
    # non-Lie even example: [b,b]+[b,b] = 2a must lie in R = span(a)
    assert symmetrized_products_in_annihilator(
        two_dim_nonlie().forget_grading()).ok
    # assembled module skeleton: symmetrized mixed products land in R
    skeleton = assemble(sl2(), bimodule_m1(2))
    assert symmetrized_products_in_annihilator(skeleton).ok


def test_symmetrized_products_requires_super_leibniz():
    basis = even_basis(["a", "b"])
    broken = SuperAlgebra(basis, {(0, 1): {0: ONE}, (1, 1): {1: ONE}})
    if not check_leibniz_super(broken).ok:
        with pytest.raises(ValueError):
            symmetrized_products_in_annihilator(broken)


def reference_symmetrizations(A):
    """(i, j, [b_i,b_j] + (-1)^{|i||j|}[b_j,b_i]) for every basis pair where
    it is nonzero, walking all dim^2 pairs densely."""
    out = []
    for i, j in itertools.product(range(A.dim), repeat=2):
        sign = -1 if A.parity(i) and A.parity(j) else 1
        s = {k: A.bracket_indices(i, j).get(k, 0)
             + sign * A.bracket_indices(j, i).get(k, 0) for k in range(A.dim)}
        s = {k: v for k, v in s.items() if v}
        if s:
            out.append((i, j, s))
    return out


def reference_right_annihilator(A):
    """Nullspace of the dense matrix with one row (i, k) per basis pair,
    holding the k-th coordinates of [b_i, b_j] for every j."""
    mat = Matrix.from_entries(A.dim * A.dim, A.dim, {
        (i * A.dim + k, j): v
        for i, j in itertools.product(range(A.dim), repeat=2)
        for k, v in A.bracket_indices(i, j).items()})
    return [Element(dict(enumerate(vec))) for vec in mat.nullspace()]


def assert_pair_checks_match_reference(A):
    def labelled(i, j, s):
        return (A.label(i), A.label(j)), [(A.label(k), s[k]) for k in sorted(s)]

    sums = reference_symmetrizations(A)
    assert [(v.identity, v.labels, list(v.residual.items()))
            for v in check_graded_antisymmetry(A)] == [
        ("graded-antisymmetry", *labelled(i, j, s)) for i, j, s in sums]
    ann = reference_right_annihilator(A)
    assert right_annihilator(A) == ann
    if not check_leibniz_super(A).ok:
        with pytest.raises(ValueError):
            symmetrized_products_in_annihilator(A)
        return
    basis = [[e.coeffs.get(k, 0) for k in range(A.dim)] for e in ann]

    def outside(s):  # the annihilator basis is independent
        vec = [s.get(k, 0) for k in range(A.dim)]
        return Matrix([*basis, vec]).rank() > len(basis)

    assert [(v.identity, v.labels, list(v.residual.items()))
            for v in symmetrized_products_in_annihilator(A)] == [
        ("symmetrized-product-in-annihilator", *labelled(i, j, s))
        for i, j, s in sums if outside(s)]


@given(st.one_of(graded_tables(), coprime_denominator_tables()))
@example(two_dim_nonlie())
@example(superalgebra_s2())
@settings(max_examples=150, deadline=None)
def test_pair_checks_match_the_dense_reference_on_random_tables(A):
    # the checks walk only the stored pairs and their mirrors
    assert_pair_checks_match_reference(A)


@pytest.mark.parametrize("build", [b for _, b in DIFFERENTIAL_CASES],
                         ids=[name for name, _ in DIFFERENTIAL_CASES])
def test_pair_checks_match_the_dense_reference(build):
    assert_pair_checks_match_reference(build())


@pytest.mark.parametrize("entry", [
    lambda: Element({0: "1/0"}),
    lambda: BimoduleSpec(sl2(), ("m",), ([{0: "1/0"}], [{}], [{}]),
                         ([{}], [{}], [{}])),
    lambda: OddBracketTable.build({(0, 0): {0: "1/0"}})],
    ids=["Element", "BimoduleSpec", "OddBracketTable.build"])
def test_a_zero_denominator_is_a_value_error(entry):
    with pytest.raises(ValueError):
        entry()


# ---------------------------------------------------------------------------
# randomized structural properties
# ---------------------------------------------------------------------------


@given(st.fractions(max_denominator=4), st.fractions(max_denominator=4))
@settings(max_examples=30, deadline=None)
def test_bracket_is_bilinear_random(a, b):
    A = superalgebra_s2()
    x = A.basis_element("x_0").scaled(a) + A.basis_element("e")
    y = A.basis_element("x_1").scaled(b)
    lhs = A.bracket(x, y)
    rhs = A.bracket(A.basis_element("x_0"), y).scaled(a) + A.bracket(
        A.basis_element("e"), y)
    assert lhs == rhs
