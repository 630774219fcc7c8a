"""Independent routes that cross-check the solver of ``classify``.

``residual_matrix`` evaluates the superidentity through
``check_leibniz_super`` on one-unknown tables, with no symbolic expansion.
``symmetric_ladder_hand_system`` and ``alternating_coefficient_rows`` write
the constraints of the ladder modules ``module_n1(n)`` out by hand, and
``verify_rescaling_isomorphism`` checks that a square parameter of the
one-parameter family rescales to the normalized table.

The tests hold ``generate_constraints`` and ``solve`` against these, so an
oracle must not share the code it tests.  From ``classify`` this module
imports only the result types, the precondition check that every entry
point runs and the column order of the full unknowns; from the other
modules it imports only public names.  A test reads the imports below and
fails on any other.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import BimoduleSpec, SuperAlgebra, check_leibniz_super
from .catalog import (OddBracketTable, assemble, module_n1, sl2,
                      superalgebra_s2)
from .classify import (ConstraintRow, ConstraintSystem, InvalidStructure,
                       _check_preconditions, _full_unknowns)
from .linalg import Matrix, parse_scalar, rational_sqrt


def residual_matrix(even: SuperAlgebra, mod: BimoduleSpec
                    ) -> tuple[list[tuple[tuple[str, str, str], str]], Matrix]:
    """Superidentity residuals as an explicit matrix over the full symmetric
    unknowns: column p holds the residuals that ``check_leibniz_super``
    reports on the table assembled with unknown p at 1 as its only odd
    product.

    This is the evaluated, independent route: no symbolic expansion, just
    the checker's evaluation of the definition on one-unknown tables.  A
    row is every (triple, component) with at least two odd members, in
    lexicographic order, whether or not a column reads it; on those tables
    the other triples hold by the preconditions.  The columns express that
    residuals are linear in the product table, which the tests verify
    against random tables.
    """
    _check_preconditions(even, mod)
    ne, nm = even.dim, mod.module_dim
    full = _full_unknowns(ne, nm)
    dim = ne + nm
    labels = [even.label(i) for i in range(ne)] + list(mod.odd_labels)
    row_labels = [((labels[x], labels[y], labels[z]), labels[comp])
                  for x in range(dim) for y in range(dim) for z in range(dim)
                  if (x >= ne) + (y >= ne) + (z >= ne) >= 2
                  for comp in range(dim)]
    row_index = {label: r for r, label in enumerate(row_labels)}

    entries: dict[tuple[int, int], Fraction] = {}
    for col, unk in enumerate(full):
        table = OddBracketTable.build({(unk.i, unk.j): {unk.kind: 1}})
        for v in check_leibniz_super(assemble(even, mod, table)):
            for comp, val in v.residual.items():
                entries[(row_index[(v.labels, comp)], col)] = val

    return row_labels, Matrix.from_entries(len(row_labels), len(full), entries)


def symmetric_ladder_hand_system(n: int, include_cubic_rows: bool = True
                                 ) -> ConstraintSystem:
    """Closed-form constraint system for ``module_n1(n)``, written out by
    hand as a cross-check oracle for the generator.

    With [x_i,x_j] = a_{i,j}e + b_{i,j}f + c_{i,j}h (symmetric), the
    superidentity against h, f, e gives, for 0 <= i <= j <= n (terms whose
    index leaves the range are absent):

        h rows: (i+j+1-n) a_{i,j} = 0
                (i+j-1-n) b_{i,j} = 0
                (i+j-n)   c_{i,j} = 0
        f rows: a_{i,j+1} + a_{i+1,j} = 0
                b_{i,j+1} + b_{i+1,j} = 2 c_{i,j}
                c_{i,j+1} + c_{i+1,j} = a_{i,j}
        e rows: i(n+1-i) a_{i-1,j} + j(n+1-j) a_{i,j-1} = 2 c_{i,j}
                i(n+1-i) b_{i-1,j} + j(n+1-j) b_{i,j-1} = 0
                i(n+1-i) c_{i-1,j} + j(n+1-j) c_{i,j-1} = b_{i,j}

    Those bilinear-in-even rows do not exhaust the superidentity: for odd n
    a one-parameter alternating family survives them, and the all-odd triple
    (x_{n-2}, x_1, x_1) contributes the extra row that removes it (its
    x_0 component reads -2n a_{1,n-2}, plus -3(n-2) a_{1,1} when n = 3).
    ``include_cubic_rows`` appends that row for odd n >= 3; without it the
    system is strictly weaker than the generated one for odd n.

    Each row is kept as it is written, its terms summed per unknown; only a
    row left empty is dropped.  Scalar multiples of earlier rows stay, so
    the rows are more than the generator's, which keeps one row of each
    multiple, but the unknowns, the row space and ``solve`` are the same.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    nm = n + 1
    unknowns = _full_unknowns(3, nm)
    pos = {(u.kind, u.i, u.j): p for p, u in enumerate(unknowns)}
    A, B, C = 0, 1, 2
    rows: list[ConstraintRow] = []

    def row(terms: list[tuple[int, int, int, int]],
            triple: tuple[str, str, str], comp: str) -> None:
        coeffs: dict[int, int] = {}
        for kind, i, j, cf in terms:
            if 0 <= i <= n and 0 <= j <= n:
                p = pos[(kind, min(i, j), max(i, j))]
                coeffs[p] = coeffs.get(p, 0) + cf
        items = tuple((p, Fraction(cf)) for p, cf in sorted(coeffs.items())
                      if cf)
        if items:
            rows.append(ConstraintRow(items, triple, comp))

    for i in range(nm):
        for j in range(i, nm):
            xi, xj = f"x_{i}", f"x_{j}"
            row([(A, i, j, i + j + 1 - n)], (xi, xj, "h"), "e")
            row([(B, i, j, i + j - 1 - n)], (xi, xj, "h"), "f")
            row([(C, i, j, i + j - n)], (xi, xj, "h"), "h")
            row([(A, i, j + 1, 1), (A, i + 1, j, 1)], (xi, xj, "f"), "e")
            row([(B, i, j + 1, 1), (B, i + 1, j, 1), (C, i, j, -2)],
                (xi, xj, "f"), "f")
            row([(C, i, j + 1, 1), (C, i + 1, j, 1), (A, i, j, -1)],
                (xi, xj, "f"), "h")
            ci, cj = i * (n + 1 - i), j * (n + 1 - j)
            row([(A, i - 1, j, ci), (A, i, j - 1, cj), (C, i, j, -2)],
                (xi, xj, "e"), "e")
            row([(B, i - 1, j, ci), (B, i, j - 1, cj)], (xi, xj, "e"), "f")
            row([(C, i - 1, j, ci), (C, i, j - 1, cj), (B, i, j, -1)],
                (xi, xj, "e"), "h")

    if include_cubic_rows and n >= 3 and n % 2 == 1:
        terms = [(A, 1, n - 2, -2 * n)]
        if n == 3:
            terms.append((A, 1, 1, -3 * (n - 2)))
        row(terms, (f"x_{n - 2}", "x_1", "x_1"), "x_0")

    return ConstraintSystem(unknowns, tuple(rows))


def alternating_coefficient_rows(n: int) -> list[dict[int, Fraction]]:
    """Rows stating a_{i,n-1-i} = (-1)^i a_{0,n-1} over the full symmetric
    unknowns of ``module_n1(n)``; consequences of the generated system,
    testable by row-space membership."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    unknowns = _full_unknowns(3, n + 1)
    pos = {(u.kind, u.i, u.j): p for p, u in enumerate(unknowns)}

    def at(i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return pos[(0, i, j)]

    rows = []
    for i in range(1, n):
        coeffs: dict[int, Fraction] = {}
        p1, p2 = at(i, n - 1 - i), at(0, n - 1)
        coeffs[p1] = coeffs.get(p1, Fraction(0)) + 1
        coeffs[p2] = coeffs.get(p2, Fraction(0)) - Fraction((-1) ** i)
        coeffs = {p: v for p, v in coeffs.items() if v != 0}
        if coeffs:
            rows.append(coeffs)
    return rows


def verify_rescaling_isomorphism(c) -> bool:
    """Check mechanically that the one-parameter family member at parameter
    c is isomorphic to the normalized table via the odd rescaling by 1/r,
    where c = r^2.

    Over the rationals only square parameters admit the rescaling; over a
    field containing a square root of every scalar the same change of basis
    normalizes any nonzero parameter.  Raises ValueError for zero or
    non-square c.
    """
    c = parse_scalar(c)
    if c == 0:
        raise ValueError("parameter must be nonzero")
    r = rational_sqrt(c)
    if r is None:
        raise ValueError(
            f"{c} is not the square of a rational; the rescaling needs a "
            "field extension")
    member = assemble(sl2(), module_n1(1), OddBracketTable.build(
        {(0, 0): {0: 2 * c}, (1, 1): {1: 2 * c}, (0, 1): {2: c}}))
    report = check_leibniz_super(member)
    if not report.ok:
        raise InvalidStructure(
            "family member fails the superidentity:\n" + report.describe(5),
            report)
    scales = (Fraction(1), Fraction(1), Fraction(1), 1 / r, 1 / r)
    if member.rescaled(scales) != superalgebra_s2():
        raise InvalidStructure(
            f"rescaling by 1/{r} did not reach the normalized table")
    return True
