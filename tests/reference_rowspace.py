"""The ``Fraction`` Gauss-Jordan row space that ``sl2super.linalg.RowSpace``
replaced, kept unchanged as the reference it is tested against.

Every ``add`` restores the fully reduced echelon basis in ``Fraction``
arithmetic, so its echelon rows and nullspace are read straight from the
stored rows.  It shares no code with the package's engine.
"""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
