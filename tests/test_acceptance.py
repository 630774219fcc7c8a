"""Acceptance gate: every guaranteed behavior, one PASS/FAIL line each.

All checks are exact (rational arithmetic), so there are no tolerances; a
criterion passes only if every assertion in it holds bit-for-bit.  The
per-criterion summary lines are emitted by the hook in conftest.py.
"""

import itertools
import pathlib
import time
from fractions import Fraction

import numpy as np
import pytest

from sl2super.algebra import (
    BimoduleSpec,
    check_bimodule_axioms,
    check_leibniz_super,
    symmetrized_products_in_annihilator,
)
from sl2super.catalog import (
    bimodule_m1,
    bimodule_m2,
    bimodule_m3,
    bimodule_m4,
    module_n1,
    module_n2,
    sl2,
    superalgebra_s1,
    superalgebra_s2,
)
from sl2super.classify import (
    alternating_coefficient_rows,
    annihilator_prefilter,
    classify,
    generate_constraints,
    residual_matrix,
    solve,
    symmetric_ladder_hand_system,
    verify_rescaling_isomorphism,
)
from sl2super.cli import main as cli_main
from sl2super.linalg import Matrix, RowSpace

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.acceptance(1, "catalog-fidelity")
def test_criterion_1():
    for name, alg in (("sl2", sl2()), ("s1", superalgebra_s1()),
                      ("s2", superalgebra_s2())):
        assert alg.to_json() == (GOLDEN / f"{name}.json").read_text()
    assert cli_main(["verify", "s1"]) == 0
    assert cli_main(["verify", "s2"]) == 0


@pytest.mark.acceptance(2, "bimodule-axioms")
def test_criterion_2():
    for n in range(0, 9):
        assert check_bimodule_axioms(module_n1(n)).ok
        assert check_bimodule_axioms(module_n2(n)).ok
    for n in range(2, 9):
        assert check_bimodule_axioms(bimodule_m1(n)).ok
        assert check_bimodule_axioms(bimodule_m2(n)).ok


@pytest.mark.acceptance(3, "one-parameter-family")
def test_criterion_3():
    cl = classify(sl2(), module_n1(1))
    assert cl.dimension == 1
    assert cl.names == ("S1", "S2")
    assert cl.representatives[0] == superalgebra_s1()
    assert cl.representatives[1] == superalgebra_s2()
    for rep in cl.representatives:
        assert check_leibniz_super(rep).ok

    # independent exhaustive sweep: every integer coefficient table with
    # entries in [-2, 2] satisfying the superidentity lies on the solved
    # line, and every integer point of the line inside the box shows up
    _, mat = residual_matrix(sl2(), module_n1(1))
    rows = np.array([[int(v) for v in row] for row in mat.rows()],
                    dtype=np.int16)
    rows = np.unique(rows, axis=0)
    found = set()
    values = (-2, -1, 0, 1, 2)
    pool = itertools.product(values, repeat=9)
    while True:
        chunk = list(itertools.islice(pool, 200_000))
        if not chunk:
            break
        arr = np.array(chunk, dtype=np.int16)
        ok = ~np.any(rows @ arr.T, axis=0)
        for idx in np.nonzero(ok)[0]:
            found.add(tuple(int(x) for x in arr[idx]))
    line = cl.solution.vectors[0]
    expected = set()
    for t in range(-2, 3):
        point = tuple(t * v for v in line)
        if all(-2 <= x <= 2 for x in point):
            expected.add(tuple(int(x) for x in point))
    assert len(expected) == 3
    assert found == expected


@pytest.mark.acceptance(4, "higher-ladders-rigid")
def test_criterion_4():
    start = time.perf_counter()
    for n in range(2, 9):
        assert classify(sl2(), module_n1(n)).dimension == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"grid took {elapsed:.1f}s"


@pytest.mark.acceptance(5, "two-summand-rigid")
def test_criterion_5():
    for n in range(2, 7):
        assert classify(sl2(), bimodule_m1(n)).dimension == 0
        assert classify(sl2(), bimodule_m2(n)).dimension == 0
        assert annihilator_prefilter(sl2(), bimodule_m1(n)) == frozenset(
            range(n + 1, 2 * n))
        assert annihilator_prefilter(sl2(), bimodule_m2(n)) == frozenset(
            range(0, n + 1))


@pytest.mark.acceptance(6, "chain-modules")
def test_criterion_6():
    for n, k in ((4, 2), (6, 2), (6, 3), (8, 3)):
        for build in (bimodule_m3, bimodule_m4):
            assert check_bimodule_axioms(build(n, k)).ok
            assert classify(sl2(), build(n, k)).dimension == 0
            assert not check_bimodule_axioms(build(n, k, verbatim=True)).ok


@pytest.mark.acceptance(7, "hand-system-equivalence")
def test_criterion_7():
    for n in range(2, 7):
        hand = symmetric_ladder_hand_system(n)
        gen = generate_constraints(sl2(), module_n1(n))
        assert hand.unknowns == gen.unknowns
        assert solve(hand).vectors == solve(gen).vectors
        rs = RowSpace(len(gen.unknowns))
        for row in gen.rows:
            rs.add(row.as_dict())
        for row in hand.rows:
            assert rs.contains(row.as_dict())
        for row in alternating_coefficient_rows(n):
            assert rs.contains(row)
        # the generated system has full rank here, so the containments
        # above hold for any rows; the rows of the triples with one even
        # member have rank N - (n mod 2), which a lost row lowers, and span
        # what the hand rows without the cubic row span
        quadratic = [row.as_dict() for row in symmetric_ladder_hand_system(
            n, include_cubic_rows=False).rows]
        mixed = [row.as_dict() for row in gen.rows
                 if sum(lab in ("e", "f", "h") for lab in row.triple) == 1]
        rs_hand, rs_mixed = RowSpace(rs.ncols), RowSpace(rs.ncols)
        for row in quadratic:
            rs_hand.add(row)
        for row in mixed:
            rs_mixed.add(row)
        assert rs_hand.rank == rs_mixed.rank == len(gen.unknowns) - n % 2
        assert all(rs_mixed.contains(row) for row in quadratic)
        assert all(rs_hand.contains(row) for row in mixed)
        for row in alternating_coefficient_rows(n):
            assert rs_mixed.contains(row)


@pytest.mark.acceptance(8, "structural-theorems")
def test_criterion_8():
    # order symmetry of odd products is a consequence, not an assumption
    for n in (1, 2, 3):
        cl = classify(sl2(), module_n1(n), strict=True)
        assert cl.symmetry_emerged is True
    # a module with zero actions admits only the zero odd bracket
    for dim in (1, 2, 3, 4):
        zero = Matrix.zeros(dim, dim)
        spec = BimoduleSpec(sl2(), tuple(f"m_{i}" for i in range(dim)),
                            (zero,) * 3, (zero,) * 3)
        assert classify(sl2(), spec).dimension == 0
    # symmetrized products of the enriched table land in its annihilator
    assert symmetrized_products_in_annihilator(superalgebra_s2()).ok


@pytest.mark.acceptance(9, "rescaling-normalization")
def test_criterion_9():
    for c in (1, 4, Fraction(9, 4), 25):
        assert verify_rescaling_isomorphism(c) is True
