"""Exact rational linear algebra.

Everything in this package reduces to row operations over the rationals:
identity checkers need kernels of stacked multiplication operators, and the
classification solver needs canonical nullspaces of sparse constraint
systems.  All arithmetic uses ``fractions.Fraction`` (arbitrary precision,
always in lowest terms with positive denominator), so results are exact and
platform independent.  No floating point anywhere.

Rational results transfer to any extension field: the rank of a matrix with
rational entries does not change over R or C, so solution-space dimensions
computed here are also the complex ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
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


class RowSpace:
    """Incrementally maintained reduced row echelon basis of sparse rows.

    Rows are dicts mapping column index to a nonzero Fraction.  The basis is
    kept fully reduced: every pivot coefficient is 1 and every pivot column
    is zero in all other stored rows.  Because the reduced echelon form of a
    row space is unique, the result does not depend on insertion order.
    """

    def __init__(self, ncols: int):
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        self.ncols = ncols
        self._pivot_rows: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    def pivot_columns(self) -> list[int]:
        return sorted(self._pivot_rows)

    def reduce(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        """Residual of ``row`` after elimination against the current basis."""
        out = dict(row)
        for col in sorted(row):
            if col >= self.ncols:
                raise IndexError(f"column {col} out of range 0..{self.ncols - 1}")
            coeff = out.get(col, _ZERO)
            if coeff == 0:
                out.pop(col, None)
                continue
            pivot = self._pivot_rows.get(col)
            if pivot is None:
                continue
            # pivot rows contain no other pivot columns, so this subtraction
            # only touches free columns and one pass suffices
            for c, v in pivot.items():
                new = out.get(c, _ZERO) - coeff * v
                if new == 0:
                    out.pop(c, None)
                else:
                    out[c] = new
        return out

    def contains(self, row: dict[int, Fraction]) -> bool:
        return not self.reduce(row)

    def add(self, row: dict[int, Fraction]) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        residual = self.reduce(row)
        if not residual:
            return False
        lead = min(residual)
        inv = _ONE / residual[lead]
        new_row = {c: v * inv for c, v in residual.items() if c != lead}
        # restore the reduced invariant in the existing basis
        for pcol, prow in self._pivot_rows.items():
            coeff = prow.get(lead)
            if coeff is None:
                continue
            del prow[lead]
            for c, v in new_row.items():
                cur = prow.get(c, _ZERO) - coeff * v
                if cur == 0:
                    prow.pop(c, None)
                else:
                    prow[c] = cur
        new_row[lead] = _ONE
        self._pivot_rows[lead] = new_row
        return True

    def echelon_rows(self) -> list[dict[int, Fraction]]:
        """Nonzero rows of the reduced echelon form, ordered by pivot column."""
        return [dict(self._pivot_rows[c]) for c in sorted(self._pivot_rows)]

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Canonical nullspace basis, one vector per free column.

        The vector for free column f has coordinate 1 there, 0 at the other
        free columns, and the negated echelon entries at the pivot columns.
        Vectors are ordered by free column index.
        """
        pivots = self._pivot_rows
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for f in free:
            vec = [_ZERO] * self.ncols
            vec[f] = _ONE
            for pcol, prow in pivots.items():
                coeff = prow.get(f)
                if coeff is not None:
                    vec[pcol] = -coeff
            basis.append(tuple(vec))
        return basis


class IntSpan:
    """Span of sparse integer rows, for membership tests only.

    Rows are dicts mapping column index to an int.  The span is kept as
    echelon rows with distinct leading (smallest) columns, each primitive:
    its entries have gcd 1 and its leading entry is positive.  A row is
    reduced by fraction-free elimination, leading column first, so no
    ``Fraction`` is ever built; scaling a row does not change the span.
    Unlike ``RowSpace`` the rows are not reduced against each other, so
    they give membership but no canonical basis.
    """

    def __init__(self):
        self._rows: dict[int, dict[int, int]] = {}

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """A nonzero multiple of the residual of ``row``, empty exactly
        when ``row`` lies in the span."""
        out = {c: v for c, v in row.items() if v}
        while out:
            lead = min(out)
            pivot = self._rows.get(lead)
            if pivot is None:
                break
            # out <- p * out - q * pivot clears the lead column and touches
            # no column before it, since pivot starts there
            g = gcd(pivot[lead], out[lead])
            p, q = pivot[lead] // g, out[lead] // g
            if p != 1:
                out = {c: p * v for c, v in out.items()}
            for c, v in pivot.items():
                new = out.get(c, 0) - q * v
                if new:
                    out[c] = new
                else:
                    del out[c]
        return out

    def contains(self, row: dict[int, int]) -> bool:
        return not self.reduce(row)

    def add(self, row: dict[int, int]) -> dict[int, int] | None:
        """Insert a row; returns the primitive row stored when it enlarged
        the span, None otherwise."""
        residual = self.reduce(row)
        if not residual:
            return None
        lead = min(residual)
        g = gcd(*residual.values())
        if residual[lead] < 0:
            g = -g
        stored = {c: v // g for c, v in residual.items()}
        self._rows[lead] = stored
        return stored


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
