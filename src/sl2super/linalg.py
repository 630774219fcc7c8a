"""Exact rational linear algebra.

Everything in this package reduces to row operations over the rationals:
identity checkers need kernels of stacked multiplication operators, and the
classification solver needs canonical nullspaces of sparse constraint
systems.  Scalars are ``fractions.Fraction`` (arbitrary precision, always
in lowest terms with positive denominator).  The row-space engine,
``RowSpace``, eliminates in integers, fraction-free, and builds a
``Fraction`` only where a reduced echelon form or a nullspace is read.
Results are exact and platform independent.  No floating point anywhere.

Rational results transfer to any extension field: the rank of a matrix with
rational entries does not change over R or C, so solution-space dimensions
computed here are also the complex ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable

Scalar = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def parse_scalar(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def format_scalar(value: Fraction) -> str:
    """Render as "p" or "p/q" (never a decimal)."""
    return str(parse_scalar(value))


def rational_sqrt(value) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if it has none.

    A rational in lowest terms is a square iff numerator and denominator are
    both perfect squares.
    """
    x = parse_scalar(value)
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _cleared(row: dict[int, Fraction]) -> dict[int, int]:
    """``row`` times the lcm of its denominators: an integer row."""
    den = lcm(*[v.denominator for v in row.values()])
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}


class RowSpace:
    """Span of sparse rational rows, with its canonical reduced echelon form.

    Rows are dicts mapping column index to an ``int`` or a ``Fraction``.
    The span is stored as echelon rows with distinct leading (smallest)
    columns, each a primitive integer row: its entries have gcd 1 and its
    leading entry is positive.  A row is reduced against them fraction-free,
    leading column first, its denominators cleared once if a ``Fraction``
    reaches the lead, so integer rows never build a ``Fraction``.  The
    stored rows are not reduced against each other.  ``echelon_rows`` and
    ``nullspace`` read the reduced echelon form (pivot entries 1, each pivot
    column zero in every other row), which they build from them by
    back-substitution.  That form is unique to the span, so what they return
    does not depend on the order in which rows were added.
    """

    def __init__(self, ncols: int):
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        self.ncols = ncols
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivot_columns(self) -> list[int]:
        return sorted(self._rows)

    def reduce(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        """A positive integer multiple of ``row``, less a combination of the
        stored rows, whose leading column is no pivot: empty exactly when
        ``row`` lies in the span.  A column outside 0..ncols-1 raises
        IndexError."""
        out = {c: v for c, v in row.items() if v}
        while out:
            lead = min(out)
            pivot = self._rows.get(lead)
            if pivot is None:
                break
            q = out[lead]
            if type(q) is not int:
                out = _cleared(out)
                q = out[lead]
            # out <- p * out - q * pivot clears the lead column and touches
            # no column before it, since pivot starts there
            p = pivot[lead]
            if p != 1:
                g = gcd(p, q)
                p, q = p // g, q // g
                if p != 1:
                    out = {c: p * v for c, v in out.items()}
            for c, v in pivot.items():
                new = out.get(c, 0) - q * v
                if new:
                    out[c] = new
                else:
                    del out[c]
        # the stored rows have no column out of range, so such a column of
        # row is never cleared and is still in out
        if out and (lead < 0 or max(out) >= self.ncols):
            col = lead if lead < 0 else max(out)
            raise IndexError(f"column {col} out of range 0..{self.ncols - 1}")
        return out

    def contains(self, row: dict[int, Fraction]) -> bool:
        return not self.reduce(row)

    def add(self, row: dict[int, Fraction]) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        residual = self.reduce(row)
        if not residual:
            return False
        try:
            g = gcd(*residual.values())
        except TypeError:  # a Fraction entry
            residual = _cleared(residual)
            g = gcd(*residual.values())
        lead = min(residual)
        if residual[lead] < 0:
            g = -g
        self._rows[lead] = {c: v // g for c, v in residual.items()}
        return True

    def _reduced_rows(self) -> dict[int, dict[int, Fraction]]:
        """The reduced echelon rows by pivot column, built from the stored
        rows by back-substitution, last pivot first."""
        reduced: dict[int, dict[int, Fraction]] = {}
        for lead in sorted(self._rows, reverse=True):
            row = self._rows[lead]
            out = {c: Fraction(v, row[lead]) for c, v in row.items()}
            # a reduced row is zero at every other pivot column, so clearing
            # one pivot column of out leaves the others alone
            for c in row:
                prow = reduced.get(c)
                if prow is None:
                    continue
                coeff = out[c]
                for f, v in prow.items():
                    new = out.get(f, _ZERO) - coeff * v
                    if new:
                        out[f] = new
                    else:
                        del out[f]
            reduced[lead] = out
        return reduced

    def echelon_rows(self) -> list[dict[int, Fraction]]:
        """Nonzero rows of the reduced echelon form, ordered by pivot column."""
        reduced = self._reduced_rows()
        return [dict(reduced[c]) for c in sorted(reduced)]

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Canonical nullspace basis, one vector per free column.

        The vector for free column f has coordinate 1 there, 0 at the other
        free columns, and the negated reduced echelon entries at the pivot
        columns.  Vectors are ordered by free column index.  At full rank
        the basis is empty and the reduced echelon form is not built.
        """
        if self.rank == self.ncols:
            return []
        reduced = self._reduced_rows()
        basis = {f: [_ZERO] * self.ncols for f in range(self.ncols)
                 if f not in reduced}
        for f, vec in basis.items():
            vec[f] = _ONE
        for pcol, prow in reduced.items():
            for c, v in prow.items():
                if c != pcol:
                    basis[c][pcol] = -v
        return [tuple(vec) for vec in basis.values()]


class Matrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(parse_scalar(x) for x in r) for r in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
        else:
            width = 0
        self._rows = data
        self.nrows = len(data)
        self.ncols = width

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_entries(cls, nrows: int, ncols: int,
                     entries: dict[tuple[int, int], object]) -> "Matrix":
        rows = [[_ZERO] * ncols for _ in range(nrows)]
        for (i, j), v in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
            rows[i][j] = parse_scalar(v)
        return cls(rows)

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"({i},{j}) outside {self.nrows}x{self.ncols}")
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not 0 <= i < self.nrows:
            raise IndexError(f"row {i} out of range")
        return self._rows[i]

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_scalar(x) for x in r) for r in self._rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def _row_space(self) -> RowSpace:
        space = RowSpace(self.ncols)
        for r in self._rows:
            space.add({j: v for j, v in enumerate(r) if v != 0})
        return space

    def rref(self) -> tuple["Matrix", list[int]]:
        return rref(self)

    def rank(self) -> int:
        return rank(self)

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        return nullspace(self)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot column list.

    Pivot entries are 1 and are the only nonzero entries in their columns;
    zero rows are moved to the bottom.  rref(rref(m)) == rref(m).
    """
    space = m._row_space()
    pivots = space.pivot_columns()
    rows = []
    for rd in space.echelon_rows():
        rows.append([rd.get(j, _ZERO) for j in range(m.ncols)])
    while len(rows) < m.nrows:
        rows.append([_ZERO] * m.ncols)
    return Matrix(rows), pivots


def rank(m: Matrix) -> int:
    return m._row_space().rank


def nullspace(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the right kernel; empty list for injective maps.

    len(nullspace(m)) + rank(m) == m.ncols.
    """
    return m._row_space().nullspace()
