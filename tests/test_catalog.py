"""Catalog tables: golden fixtures, axiom grids, repairs, errata."""

import pathlib
from fractions import Fraction

import pytest

import reference_catalog
from sl2super.algebra import (
    check_bimodule_axioms,
    check_graded_antisymmetry,
    check_leibniz,
    check_leibniz_super,
)
from sl2super import catalog
from sl2super.catalog import (
    CATALOG_IDS,
    ERRATA,
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

GOLDEN = pathlib.Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# golden fixtures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,factory", [
    ("sl2", sl2), ("s1", superalgebra_s1), ("s2", superalgebra_s2)])
def test_golden_json_byte_identical(name, factory):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert factory().to_json() == expected


def test_sl2_table_values():
    A = sl2()
    assert A.dim == 3 and A.is_purely_even()
    assert A.bracket_indices(E, H) == {E: Fraction(2)}
    assert A.bracket_indices(H, F) == {F: Fraction(2)}
    assert A.bracket_indices(E, F) == {H: Fraction(1)}
    assert A.bracket_indices(H, E) == {E: Fraction(-2)}
    assert A.bracket_indices(F, H) == {F: Fraction(-2)}
    assert A.bracket_indices(F, E) == {H: Fraction(-1)}
    assert A.bracket_indices(E, E) == {}
    assert check_leibniz(A).ok


def test_s2_is_a_lie_superalgebra():
    S = superalgebra_s2()
    assert check_leibniz_super(S).ok
    assert check_graded_antisymmetry(S).ok
    assert S.bracket_indices(3, 3) == {E: Fraction(2)}
    assert S.bracket_indices(4, 4) == {F: Fraction(2)}
    assert S.bracket_indices(3, 4) == {H: Fraction(1)}
    assert S.bracket_indices(4, 3) == {H: Fraction(1)}


# ---------------------------------------------------------------------------
# ladder modules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 9))
def test_n1_and_n2_satisfy_axioms(n):
    assert check_bimodule_axioms(module_n1(n)).ok
    assert check_bimodule_axioms(module_n2(n)).ok


def test_n1_actions_concrete():
    spec = module_n1(2)
    # right ladder: [x_i, h] = (2-2i) x_i, [x_i, f] = x_{i+1},
    # [x_i, e] = -i(3-i) x_{i-1}; left = -right throughout
    assert spec.right[H][0] == {0: Fraction(2)}
    assert spec.right[H][2] == {2: Fraction(-2)}
    assert spec.right[F][0] == {1: Fraction(1)}
    assert spec.right[F][2] == {}
    assert spec.right[E][1] == {0: Fraction(-2)}
    for k in (E, F, H):
        assert spec.left[k] == tuple({r: -v for r, v in col.items()}
                                     for col in spec.right[k])


def test_n2_has_zero_left_action():
    spec = module_n2(4)
    for k in (E, F, H):
        assert spec.left[k] == ({},) * 5
        assert spec.right[k] == module_n1(4).right[k]


def test_module_labels():
    assert module_n1(2).odd_labels == ("x_0", "x_1", "x_2")
    assert module_n2(0).odd_labels == ("x_0",)


def test_assemble_n1_matches_s1():
    assert assemble(sl2(), module_n1(1)) == superalgebra_s1()


def test_assemble_with_odd_products_matches_s2():
    products = OddBracketTable.build({
        (0, 0): {E: 2}, (1, 1): {F: 2}, (0, 1): {H: 1}})
    assert assemble(sl2(), module_n1(1), products) == superalgebra_s2()


# ---------------------------------------------------------------------------
# two-summand bimodules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_m1_and_m2_satisfy_axioms(n):
    assert check_bimodule_axioms(bimodule_m1(n)).ok
    assert check_bimodule_axioms(bimodule_m2(n)).ok


def test_m1_dimensions_and_labels(n=4):
    spec = bimodule_m1(n)
    assert spec.module_dim == 2 * n
    assert spec.odd_labels[:2] == ("x_0", "x_1")
    assert spec.odd_labels[n + 1] == "y_0"


def test_m1_coupling_terms():
    spec = bimodule_m1(3)
    oy = 4  # y block starts after x_0..x_3
    # [f, x_0] = -x_1 + y_0
    assert spec.left[F][0][1] == Fraction(-1)
    assert spec.left[F][0][oy] == Fraction(1)
    # [h, x_1] = -(3-2) x_1 - 2 y_0
    assert spec.left[H][1][1] == Fraction(-1)
    assert spec.left[H][1][oy] == Fraction(-2)
    # [e, x_2] = 2(3-2+1) x_1 + 2*1 y_0
    assert spec.left[E][2][1] == Fraction(4)
    assert spec.left[E][2][oy] == Fraction(2)


def test_m2_coupling_terms():
    spec = bimodule_m2(3)
    oy = 4
    # [h, y_0] = 2(3-1) x_1 - (3-2) y_0
    assert spec.left[H][oy][1] == Fraction(4)
    assert spec.left[H][oy][oy] == Fraction(-1)
    # [f, y_0] = x_2 - y_1
    assert spec.left[F][oy][2] == Fraction(1)
    assert spec.left[F][oy][oy + 1] == Fraction(-1)
    # [e, y_1] = (3-2)((3-1) x_1 + y_0)
    assert spec.left[E][oy + 1][1] == Fraction(2)
    assert spec.left[E][oy + 1][oy] == Fraction(1)


# ---------------------------------------------------------------------------
# chain bimodules
# ---------------------------------------------------------------------------


CHAIN_PARAMS = [(4, 2), (6, 2), (6, 3), (8, 3), (8, 4), (10, 5)]


@pytest.mark.parametrize("n,k", CHAIN_PARAMS)
def test_m3_and_m4_satisfy_axioms(n, k):
    assert check_bimodule_axioms(bimodule_m3(n, k)).ok
    assert check_bimodule_axioms(bimodule_m4(n, k)).ok


@pytest.mark.parametrize("n", range(0, 41))
def test_chain_degenerations_are_bit_exact(n):
    # the chain builder at k = 1 (n1, n2) and k = 2 (m1, m2) against the
    # hand-written builders it replaced, in labels and stored form
    pairs = [(module_n1(n), reference_catalog.module_n1(n)),
             (module_n2(n), reference_catalog.module_n2(n))]
    if n >= 2:
        pairs += [(bimodule_m1(n), reference_catalog.bimodule_m1(n)),
                  (bimodule_m2(n), reference_catalog.bimodule_m2(n))]
    for spec, ref in pairs:
        assert spec.odd_labels == ref.odd_labels
        assert spec.right == ref.right
        assert spec.left == ref.left
        assert spec._integer_form == ref._integer_form
    if n < 2:
        return
    # the chain families at k = 2: same action matrices, only the block
    # labelling differs
    for chain, two in ((bimodule_m3(n, 2), reference_catalog.bimodule_m2(n)),
                       (bimodule_m4(n, 2), reference_catalog.bimodule_m1(n))):
        assert chain.right == two.right
        assert chain.left == two.left
        assert chain.module_dim == two.module_dim


def test_chain_dimensions():
    # blocks of dimension n-2q+3 for q = 1..k
    spec = bimodule_m3(8, 3)
    assert spec.module_dim == 9 + 7 + 5
    assert spec.odd_labels[0] == "v_0^1"
    assert spec.odd_labels[9] == "v_0^2"


def test_chain_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        bimodule_m3(4, 1)  # at least two blocks
    with pytest.raises(ValueError):
        bimodule_m3(4, 4)  # block dimension would vanish
    # odd n is allowed as long as every block keeps positive dimension
    assert check_bimodule_axioms(bimodule_m4(3, 2)).ok


# the as-printed variants violate the axioms; counts are frozen regressions
VERBATIM_VIOLATIONS = {
    ("m3", 4, 2): 45, ("m4", 4, 2): 18,
    ("m3", 6, 2): 74, ("m4", 6, 2): 34,
    ("m3", 6, 3): 74, ("m4", 6, 3): 75,
    ("m3", 8, 3): 106, ("m4", 8, 3): 123,
    ("m3", 10, 4): 215, ("m4", 10, 4): 181,
}


@pytest.mark.parametrize("family,n,k", sorted(VERBATIM_VIOLATIONS))
def test_verbatim_chains_fail_axioms(family, n, k):
    builder = bimodule_m3 if family == "m3" else bimodule_m4
    report = check_bimodule_axioms(builder(n, k, verbatim=True))
    assert len(report) == VERBATIM_VIOLATIONS[(family, n, k)]


STORED_GRID = ([(f"n1:{n}", False) for n in range(7)]
               + [(f"n2:{n}", False) for n in range(7)]
               + [(f"{fam}:{n}", False) for fam in ("m1", "m2")
                  for n in range(2, 7)]
               + [(f"{fam}:{n}:{k}", False) for fam in ("m3", "m4")
                  for n, k in CHAIN_PARAMS]
               + [(f"{fam}:{n}:{k}", True)
                  for fam, n, k in sorted(VERBATIM_VIOLATIONS)])


@pytest.mark.parametrize("identifier,verbatim", STORED_GRID)
def test_stored_coefficients_are_fractions(identifier, verbatim):
    # the builders sum ints; the spec stores every entry as a Fraction
    spec = resolve(identifier, verbatim=verbatim)
    values = [v for side in (spec.right, spec.left) for action in side
              for col in action for v in col.values()]
    assert values or identifier in ("n1:0", "n2:0")
    assert all(type(v) is Fraction for v in values)


def test_verbatim_flag_reaches_resolve():
    spec = resolve("m3:4:2", verbatim=True)
    assert not check_bimodule_axioms(spec).ok
    assert check_bimodule_axioms(resolve("m3:4:2")).ok


# ---------------------------------------------------------------------------
# errata log
# ---------------------------------------------------------------------------


def test_errata_inventory():
    families = [e.family for e in ERRATA]
    assert len(ERRATA) == 11
    assert families.count("m2") == 1
    assert families.count("m3") == 6
    assert families.count("m4") == 4
    assert set(families) == {"m2", "m3", "m4"}


def test_each_patched_erratum_alone_breaks_the_axioms():
    # the as-printed chains are the repaired ones plus these patches; each
    # patch changes the table and is needed on its own.  k = 3, since the
    # m4 patches on the odd summands start at v^3
    patched = [e for e in ERRATA if e.patch is not None]
    assert [e.family for e in patched] == ["m3"] * 3 + ["m4"] * 3
    assert sum(e.patch is None for e in ERRATA) == 5
    for e in patched:
        coupled_rem = 0 if e.family == "m3" else 1
        assert check_bimodule_axioms(
            catalog._chain_bimodule(6, 3, coupled_rem, ())).ok
        spec = catalog._chain_bimodule(6, 3, coupled_rem, (e.patch,))
        assert not check_bimodule_axioms(spec).ok, e.printed


def test_errata_entries_are_substantive():
    for e in ERRATA:
        assert e.printed and e.repaired and e.justification
        assert e.printed != e.repaired


# ---------------------------------------------------------------------------
# odd bracket tables
# ---------------------------------------------------------------------------


def test_odd_bracket_table_normalizes_pairs():
    t = OddBracketTable.build({(1, 0): {H: 1}})
    assert t.pairs() == [(0, 1)]
    assert t.value(0, 1) == {H: Fraction(1)}
    assert t.value(1, 0) == {H: Fraction(1)}
    assert t.value(2, 2) == {}


def test_odd_bracket_table_rejects_conflicts():
    with pytest.raises(ValueError):
        OddBracketTable.build({(0, 1): {H: 1}, (1, 0): {H: 2}})
    # agreeing duplicates are fine
    t = OddBracketTable.build({(0, 1): {H: 1}, (1, 0): {H: 1}})
    assert t.pairs() == [(0, 1)]


@pytest.mark.parametrize("products", [
    {(0, 1): {H: 0}, (1, 0): {H: 1}},
    {(1, 0): {H: 1}, (0, 1): {H: 0}},
    {(0, 1): {}, (1, 0): {E: 2}},
    {(1, 0): {E: 2}, (0, 1): {}},
], ids=["zero-first", "zero-second", "empty-first", "empty-second"])
def test_odd_bracket_table_conflicts_do_not_depend_on_order(products):
    # a zero value conflicts with a nonzero one for the same pair, in
    # either order of the two entries
    with pytest.raises(ValueError,
                       match=r"conflicting entries for pair \(0, 1\)"):
        OddBracketTable.build(products)


def test_odd_bracket_table_drops_zero_values():
    t = OddBracketTable.build({(0, 0): {E: 0}})
    assert t.pairs() == []


def test_assemble_rejects_foreign_module():
    other = sl2().rescaled([1, 1, 2])
    spec = module_n1(1)
    with pytest.raises(ValueError):
        assemble(other, spec)


# ---------------------------------------------------------------------------
# resolve
# ---------------------------------------------------------------------------


def test_resolve_all_id_shapes():
    assert resolve("sl2") == sl2()
    assert resolve("s1") == superalgebra_s1()
    assert resolve("s2") == superalgebra_s2()
    assert resolve("n1:3") == module_n1(3)
    assert resolve("n2:0") == module_n2(0)
    assert resolve("m1:4") == bimodule_m1(4)
    assert resolve("m2:4") == bimodule_m2(4)
    assert resolve("m3:6:3") == bimodule_m3(6, 3)
    assert resolve("m4:6:3") == bimodule_m4(6, 3)


@pytest.mark.parametrize("bad", [
    "nope", "n1", "n1:x", "n1:1:2", "m3:6", "sl2:1", "n1:-1", "m1:0",
    # a parameter is an optional minus sign and ASCII digits, nothing more
    "n1:3_0", "n1:+3", "n1:\u0663", "n1: 3", "n1:3\n", "m3:\u0666:\u0662",
    # the chain families need two summands
    "m3:6:1", "m4:6:1"])
def test_resolve_rejects_malformed_ids(bad):
    with pytest.raises(ValueError):
        resolve(bad)


def test_catalog_ids_cover_resolve():
    assert "sl2" in CATALOG_IDS and "m3:<n>:<k>" in CATALOG_IDS
