"""Exact rational linear algebra: scalars, row spaces, matrices."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_rowspace import RowSpace as ReferenceRowSpace
from sl2super.linalg import (
    Matrix,
    RowSpace,
    format_scalar,
    nullspace,
    parse_scalar,
    rank,
    rational_sqrt,
    rref,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def test_parse_scalar_accepts_common_forms():
    assert parse_scalar("3") == Fraction(3)
    assert parse_scalar("-9/4") == Fraction(-9, 4)
    assert parse_scalar(7) == Fraction(7)
    assert parse_scalar(Fraction(2, 6)) == Fraction(1, 3)


def test_parse_scalar_rejects_floats_and_garbage():
    # decimal strings are exact and parse; float objects are not and do not
    assert parse_scalar("1.5") == Fraction(3, 2)
    with pytest.raises(ValueError):
        parse_scalar("two")
    with pytest.raises(TypeError):
        parse_scalar(0.5)


def test_format_scalar_round_trip_and_shape():
    assert format_scalar(Fraction(-9, 4)) == "-9/4"
    assert format_scalar(Fraction(4, 2)) == "2"
    assert format_scalar(Fraction(0)) == "0"


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_scalar(format_scalar(q)) == q


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(25)) == Fraction(5)
    assert rational_sqrt(Fraction(0)) == Fraction(0)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None
    assert rational_sqrt(Fraction(4, 7)) is None


@given(rationals)
def test_rational_sqrt_squares(q):
    r = rational_sqrt(q * q)
    assert r is not None and r * r == q * q and r >= 0


# ---------------------------------------------------------------------------
# RowSpace
# ---------------------------------------------------------------------------


def test_rowspace_add_and_contains():
    rs = RowSpace(3)
    assert rs.add({0: Fraction(1), 1: Fraction(2)})
    assert rs.add({1: Fraction(1)})
    # dependent row: (1,2,0) - 2*(0,1,0)
    assert not rs.add({0: Fraction(1)})
    assert rs.rank == 2
    assert rs.contains({0: Fraction(5), 1: Fraction(-3)})
    assert not rs.contains({2: Fraction(1)})


def test_rowspace_nullspace_canonical():
    # x0 + x1 = 0 over 3 columns: kernel has x2 free and x1 free
    rs = RowSpace(3)
    rs.add({0: Fraction(1), 1: Fraction(1)})
    basis = rs.nullspace()
    assert len(basis) == 2
    for vec in basis:
        # canonical convention: the free coordinate carries 1
        free = [j for j, v in enumerate(vec) if v == 1]
        assert free, vec
        assert vec[0] + vec[1] == 0


def test_rowspace_full_rank_has_trivial_kernel():
    rs = RowSpace(2)
    rs.add({0: Fraction(2)})
    rs.add({0: Fraction(1), 1: Fraction(3)})
    assert rs.rank == 2
    assert rs.nullspace() == []


@st.composite
def sparse_rows(draw, ncols):
    n = draw(st.integers(min_value=0, max_value=ncols))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=n, max_size=n,
                         unique=True))
    return {c: draw(rationals.filter(bool)) for c in cols}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_rowspace_nullspace_orthogonal_to_rows(data):
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    rows = data.draw(st.lists(sparse_rows(ncols), max_size=6))
    rs = RowSpace(ncols)
    for row in rows:
        rs.add(row)
    kernel = rs.nullspace()
    assert rs.rank + len(kernel) == ncols
    for vec in kernel:
        for row in rows:
            assert sum(coef * vec[j] for j, coef in row.items()) == 0


def test_rowspace_stores_primitive_integer_rows():
    rs = RowSpace(3)
    assert rs.add({0: -2, 1: 4})
    assert rs.add({1: Fraction(3, 2), 2: Fraction(3)})
    # each stored row is the primitive integer multiple with a positive lead
    assert rs._rows == {0: {0: 1, 1: -2}, 1: {1: 1, 2: 2}}
    # (3, -6, 0) is 3 times the first row; (1, 0, 4) is the first plus twice
    # the second
    assert not rs.add({0: 3, 1: -6})
    assert rs.contains({0: 1, 2: 4})
    assert not rs.contains({2: 1})
    assert rs.contains({}) and rs.contains({0: 0})
    assert rs.echelon_rows() == [{0: 1, 2: 4}, {1: 1, 2: 2}]
    assert rs.nullspace() == [(Fraction(-4), Fraction(-2), Fraction(1))]


@pytest.mark.parametrize("col", [-1, 3])
def test_rowspace_rejects_a_column_out_of_range(col):
    rs = RowSpace(3)
    assert rs.add({0: 1})
    # the second row's in-range part lies in the span and is eliminated
    for row in ({col: 1}, {0: Fraction(1), col: Fraction(2)}):
        with pytest.raises(IndexError):
            rs.add(row)
        with pytest.raises(IndexError):
            rs.contains(row)
    assert rs.rank == 1 and len(rs.nullspace()) == 2


SCALARS = {
    "int": st.integers(-30, 30),
    "fraction": rationals,
    "mixed": st.one_of(st.integers(-30, 30), rationals),
}


@st.composite
def typed_rows(draw, ncols):
    scalars = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    return draw(st.dictionaries(st.integers(0, ncols - 1), scalars,
                                max_size=ncols))


def combination(rows, coeffs):
    out = {}
    for row, k in zip(rows, coeffs):
        for c, v in row.items():
            out[c] = out.get(c, 0) + k * v
    return out


def as_fractions(row):
    return {c: Fraction(v) for c, v in row.items()}


def assert_stored_rows_primitive(rs):
    for lead, row in rs._rows.items():
        assert min(row) == lead and row[lead] > 0
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rowspace_matches_the_fraction_reference(data):
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    rows = data.draw(st.lists(typed_rows(ncols), max_size=6))
    # integer combinations of the drawn rows, so that dependent rows and
    # rows that need several elimination steps are common
    coeffs = st.lists(st.integers(-3, 3), min_size=len(rows),
                      max_size=len(rows))
    rows += [combination(rows, k)
             for k in data.draw(st.lists(coeffs, max_size=3))]
    rows = data.draw(st.permutations(rows))
    rs, ref = RowSpace(ncols), ReferenceRowSpace(ncols)
    for row in rows:
        assert rs.add(row) == ref.add(as_fractions(row))
        assert rs.rank == ref.rank
        assert rs.pivot_columns() == ref.pivot_columns()
        assert rs.echelon_rows() == ref.echelon_rows()
        assert rs.nullspace() == ref.nullspace()
        assert all(type(v) is Fraction for row in rs.echelon_rows()
                   for v in row.values())
        assert all(type(v) is Fraction for vec in rs.nullspace()
                   for v in vec)
        assert_stored_rows_primitive(rs)
    probes = data.draw(st.lists(typed_rows(ncols), max_size=4))
    for probe in probes + rows + [{c: 1} for c in range(ncols)]:
        assert rs.contains(probe) == ref.contains(as_fractions(probe))
        # reduce gives a nonzero integer multiple of the row modulo the span
        residual = ref.reduce(as_fractions(probe))
        multiple = ref.reduce(as_fractions(rs.reduce(probe)))
        if residual:
            lead = min(residual)
            k = multiple[lead] / residual[lead]
            assert k.denominator == 1 and k != 0
            assert multiple == {c: k * v for c, v in residual.items()}
        else:
            assert not multiple


# ---------------------------------------------------------------------------
# Matrix
# ---------------------------------------------------------------------------


def test_matrix_construction_and_entry_access():
    m = Matrix([[1, 2], [3, "5/2"]])
    assert (m.nrows, m.ncols) == (2, 2)
    assert m.entry(1, 1) == Fraction(5, 2)
    assert m.row(0) == (Fraction(1), Fraction(2))


def test_matrix_ragged_rows_rejected():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def matvec(m, vec):
    return tuple(sum((a * b for a, b in zip(row, vec)), Fraction(0))
                 for row in m.rows())


def test_matrix_transpose_stack_identity():
    assert matvec(Matrix.identity(3), [1, 2, 3]) == (
        Fraction(1), Fraction(2), Fraction(3))


def test_rref_known_matrix():
    m = Matrix([[1, 2, 1], [2, 4, 0], [0, 0, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0, 2]
    assert reduced.rows()[0] == (Fraction(1), Fraction(2), Fraction(0))
    assert reduced.rows()[1] == (Fraction(0), Fraction(0), Fraction(1))
    assert rank(m) == 2


def test_nullspace_known_matrix():
    m = Matrix([[1, 2, 1], [2, 4, 0], [0, 0, 1]])
    kernel = nullspace(m)
    assert len(kernel) == 1
    vec = kernel[0]
    assert vec[1] == 1  # free column normalized to 1
    for i in range(3):
        assert sum(m.entry(i, j) * vec[j] for j in range(3)) == 0


matrix_strategy = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(rationals, min_size=ncols, max_size=ncols),
        min_size=1, max_size=5,
    )
).map(Matrix)


@given(matrix_strategy)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots


@given(matrix_strategy)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    nrows, ncols = m.nrows, m.ncols
    r = rank(m)
    assert 0 <= r <= min(nrows, ncols)
    kernel = nullspace(m)
    assert r + len(kernel) == ncols
    for vec in kernel:
        assert matvec(m, vec) == tuple([Fraction(0)] * nrows)


@given(matrix_strategy)
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_transpose(m):
    assert rank(m) == rank(Matrix(zip(*m.rows())))
