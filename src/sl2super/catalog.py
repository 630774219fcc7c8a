"""Catalog of multiplication tables: sl2, its weight-ladder bimodules, and
the two 5-dimensional Leibniz superalgebras built on the 2-dimensional odd
part.

Every bimodule family is a chain of k simple summands of dimensions n+1,
n-1, ..., n-2k+3 (n is the highest weight of the leading summand), acted
on from the right by the standard ladders, with a coupled left action on
alternate summands: the odd-numbered ones (m4's parity) or the
even-numbered ones (m3's parity).  One builder, ``_chain_bimodule``,
writes the actions of all six families:

* ``module_n1(n)``  k = 1, its summand coupled: simple ladder, left action
  = -(right action)
* ``module_n2(n)``  k = 1, nothing coupled: simple ladder, zero left action
* ``bimodule_m1(n)``, ``bimodule_m2(n)``  k = 2 with m4's and m3's parity:
  the two indecomposable pairs of simple summands of dimensions n+1 and
  n-1, on the basis x_i, y_j
* ``bimodule_m3(n, k)``, ``bimodule_m4(n, k)``  k >= 2 on the basis v_i^q,
  so m3(n,2) equals m2(n) and m4(n,2) equals m1(n) but for the labels

The source tables for the multi-summand families circulate with transcription
slips (index and coefficient typos).  The default constructors apply the
minimal repairs recorded in ``ERRATA``; every repaired table is validated
against ``check_bimodule_axioms`` at construction time and the constructor
raises if validation fails.  The report is kept on the spec, so a later
check of the same object (``classify``'s preconditions, ``verify``) reuses
it instead of evaluating the axioms again.  Passing ``verbatim=True``
builds the m3/m4 table as printed, so the failure can be audited: the
repaired table with the ``Patch`` of each of its family's errata applied
(6 of the 11 errata change a printed table), without validation;
``verify`` then reports the exact broken triples.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (BasisVector, BimoduleSpec, Parity, SuperAlgebra, Vec,
                      check_bimodule_axioms)
from .linalg import parse_scalar

SL2_LABELS = ("e", "f", "h")
E, F, H = 0, 1, 2


def sl2() -> SuperAlgebra:
    """The 3-dimensional simple Lie algebra in the basis e, f, h with
    [e,h] = 2e, [h,f] = 2f, [e,f] = h (and the negated transposes)."""
    basis = [BasisVector(i, lab, Parity.EVEN) for i, lab in enumerate(SL2_LABELS)]
    one = Fraction(1)
    table: dict[tuple[int, int], Vec] = {
        (E, H): {E: 2 * one},
        (H, F): {F: 2 * one},
        (E, F): {H: one},
        (H, E): {E: -2 * one},
        (F, H): {F: -2 * one},
        (F, E): {H: -one},
    }
    return SuperAlgebra(basis, table)


# ---------------------------------------------------------------------------
# bimodule builders
# ---------------------------------------------------------------------------


def module_n1(n: int) -> BimoduleSpec:
    """Simple (n+1)-dimensional ladder bimodule with left = -right: the
    one-summand chain with its summand coupled."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _chain_bimodule(n, 1, 1,
                           labels=tuple(f"x_{i}" for i in range(n + 1)))


def module_n2(n: int) -> BimoduleSpec:
    """Simple (n+1)-dimensional ladder bimodule with zero left action: the
    one-summand chain with no summand coupled."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _chain_bimodule(n, 1, 0,
                           labels=tuple(f"x_{i}" for i in range(n + 1)))


def bimodule_m1(n: int) -> BimoduleSpec:
    """Two-summand indecomposable bimodule whose x-summand carries the
    coupled left action:

        [x_i,h] = (n-2i)x_i          [h,x_i] = -(n-2i)x_i - 2i y_{i-1}
        [x_i,f] = x_{i+1}            [f,x_i] = -x_{i+1} + y_i
        [x_i,e] = -i(n-i+1)x_{i-1}   [e,x_i] = i(n-i+1)x_{i-1} + i(i-1)y_{i-2}

    with the y-summand (dimension n-1) acted on only from the right by the
    standard ladder of highest weight n-2: the two-summand chain with m4's
    coupling parity, on the basis x_i, y_j.
    """
    if n < 2:
        raise ValueError("need n >= 2 so both summands are nonempty")
    labels = tuple(f"x_{i}" for i in range(n + 1)) + \
        tuple(f"y_{j}" for j in range(n - 1))
    spec = _chain_bimodule(n, 2, 1, labels=labels)
    _validate(spec, f"m1:{n}")
    return spec


def bimodule_m2(n: int) -> BimoduleSpec:
    """Two-summand indecomposable bimodule whose y-summand carries the
    coupled left action:

        [y_j,h] = (n-2-2j)y_j   [h,y_j] = 2(n-j-1)x_{j+1} - (n-2j-2)y_j
        [y_j,f] = y_{j+1}       [f,y_j] = x_{j+2} - y_{j+1}
        [y_j,e] = -j(n-j-1)y_{j-1}
                                [e,y_j] = (n-j-1)((n-j)x_j + j y_{j-1})

    (the f row repairs a stray index, see ERRATA); the x-summand is acted on
    only from the right.  This is the two-summand chain with m3's coupling
    parity, on the basis x_i, y_j.
    """
    if n < 2:
        raise ValueError("need n >= 2 so both summands are nonempty")
    labels = tuple(f"x_{i}" for i in range(n + 1)) + \
        tuple(f"y_{j}" for j in range(n - 1))
    spec = _chain_bimodule(n, 2, 0, labels=labels)
    _validate(spec, f"m2:{n}")
    return spec


def _chain_bimodule(n: int, k: int, coupled_rem: int,
                    patches: tuple[Patch, ...] = (),
                    labels: tuple[str, ...] | None = None) -> BimoduleSpec:
    """Repaired k-summand chain, summand by summand, on the basis v_i^q
    unless ``labels`` names it.  Summand q (1-based) has dimension n-2q+3
    and highest weight m_q = n-2q+2; the right action is block diagonal
    with the standard ladders

        [v_i^q,h] = (m-2i) v_i^q   [v_i^q,f] = v_{i+1}^q
        [v_i^q,e] = -i(m-i+1) v_{i-1}^q

    Blocks with q % 2 == coupled_rem carry the left action

        [h,v_i^q] = 2(m+1-i) v_{i+1}^{q-1} - (m-2i) v_i^q  - 2i v_{i-1}^{q+1}
        [f,v_i^q] = v_{i+2}^{q-1}          - v_{i+1}^q     + v_i^{q+1}
        [e,v_i^q] = (m+1-i)(m+2-i) v_i^{q-1} + i(m+1-i) v_{i-1}^q
                                           + i(i-1) v_{i-2}^{q+1}

    (m = m_q; terms whose summand or ladder index falls outside the chain
    are zero); the remaining blocks have zero left action.  The diagonal
    part is exactly the negated right action, and the off-diagonal coupling
    maps are equivariant, which is what makes the axioms hold.  Each of
    ``patches`` then overrides the columns it covers (see ``Patch``).
    """
    if n - 2 * k + 3 < 1:
        raise ValueError(f"summand dimensions must stay positive: need n >= {2 * k - 2}")
    # dims[q] and offsets[q] belong to summand q, counted from 1
    dims = [0] + [n - 2 * q + 3 for q in range(1, k + 1)]
    offsets = [sum(dims[:q]) for q in range(k + 1)]
    if labels is None:
        labels = tuple(f"v_{i}^{q}" for q in range(1, k + 1)
                       for i in range(dims[q]))
    # right[gen][col] and left[gen][col]: the image of module vector col
    right = [[{} for _ in labels] for _ in range(3)]
    left = [[{} for _ in labels] for _ in range(3)]

    def column(terms: list[tuple[tuple[int, int], int]]) -> dict[int, int]:
        # the sum of c v_{i'}^{q'} over the terms ((q', i'), c) that fall
        # inside the chain
        return {offsets[tq] + ti: c for (tq, ti), c in terms
                if 1 <= tq <= k and 0 <= ti < dims[tq]}

    for q in range(1, k + 1):
        m = n - 2 * q + 2
        for i in range(m + 1):
            col = offsets[q] + i
            right[H][col] = {col: m - 2 * i}
            if i < m:
                right[F][col] = {col + 1: 1}
            if i > 0:
                right[E][col] = {col - 1: -i * (m - i + 1)}
            if q % 2 != coupled_rem:
                continue
            left[H][col] = column([((q - 1, i + 1), 2 * (m + 1 - i)),
                                   ((q, i), -(m - 2 * i)),
                                   ((q + 1, i - 1), -2 * i)])
            left[F][col] = column([((q - 1, i + 2), 1), ((q, i + 1), -1),
                                   ((q + 1, i), 1)])
            left[E][col] = column([((q - 1, i), (m + 1 - i) * (m + 2 - i)),
                                   ((q, i - 1), i * (m + 1 - i)),
                                   ((q + 1, i - 2), i * (i - 1))])
    for patch in patches:
        action = (right if patch.side == "right" else left)[patch.gen]
        for q in range(2 + patch.parity, k + 1, 2):
            for i in range(dims[q]):
                action[offsets[q] + i] = column(patch.column(n, q // 2, q, i))
    return BimoduleSpec(sl2(), labels, right, left)


def _chain(family: str, n: int, k: int, verbatim: bool) -> BimoduleSpec:
    """The m3 or m4 chain, repaired and validated, or as printed."""
    if k < 2:
        raise ValueError("need at least two summands (k >= 2)")
    coupled_rem = 0 if family == "m3" else 1
    if verbatim:
        return _chain_bimodule(n, k, coupled_rem, tuple(
            e.patch for e in ERRATA if e.family == family and e.patch))
    spec = _chain_bimodule(n, k, coupled_rem)
    _validate(spec, f"{family}:{n}:{k}")
    return spec


def bimodule_m3(n: int, k: int, verbatim: bool = False) -> BimoduleSpec:
    """k-summand chain whose even-superscript summands carry the coupled
    left action; bimodule_m3(n, 2) coincides with bimodule_m2(n) on the
    basis v_i^q instead of x_i, y_j, both being the two-summand chain with
    this parity.

    The default applies the repairs and validates.  ``verbatim=True`` gives
    the printed table, not validated: the repaired one with the patches of
    the three m3 errata that change it (right e, left h and left e on the
    even summands).
    """
    return _chain("m3", n, k, verbatim)


def bimodule_m4(n: int, k: int, verbatim: bool = False) -> BimoduleSpec:
    """k-summand chain whose odd-superscript summands carry the coupled
    left action; bimodule_m4(n, 2) coincides with bimodule_m1(n) on the
    basis v_i^q instead of x_i, y_j, both being the two-summand chain with
    this parity.

    ``verbatim=True`` works as in ``bimodule_m3``, with the three m4
    patches: right e on the even summands, and left h and right e on the
    odd summands from v^3 on.
    """
    return _chain("m4", n, k, verbatim)


def _validate(spec: BimoduleSpec, name: str) -> None:
    report = check_bimodule_axioms(spec)
    if not report.ok:
        raise ValueError(
            f"internal error: repaired table {name} violates the bimodule "
            f"axioms:\n{report.describe(limit=5)}")


# ---------------------------------------------------------------------------
# assembly of superalgebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OddBracketTable:
    """Symmetric table of odd-times-odd products, valued in the even part.

    Keys are unordered pairs of odd basis positions (stored with i <= j);
    omitted pairs are zero.  Values are sparse coordinate vectors over the
    even basis.
    """

    entries: tuple[tuple[tuple[int, int], tuple[tuple[int, Fraction], ...]], ...]

    @classmethod
    def build(cls, products: dict[tuple[int, int], dict[int, object]]
              ) -> "OddBracketTable":
        # every key seen, zero values included, so the conflict check does
        # not depend on which of the two orders of a pair comes first
        norm: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), vec in products.items():
            key = (i, j) if i <= j else (j, i)
            clean = {k: parse_scalar(v) for k, v in vec.items()
                     if parse_scalar(v) != 0}
            if key in norm and norm[key] != clean:
                raise ValueError(f"conflicting entries for pair {key}")
            norm[key] = clean
        return cls(tuple(sorted((k, tuple(sorted(v.items())))
                                for k, v in norm.items() if v)))

    @classmethod
    def zero(cls) -> "OddBracketTable":
        return cls(())

    def value(self, i: int, j: int) -> Vec:
        key = (i, j) if i <= j else (j, i)
        for k, terms in self.entries:
            if k == key:
                return dict(terms)
        return {}

    def pairs(self) -> list[tuple[int, int]]:
        return [k for k, _ in self.entries]


def assemble(even: SuperAlgebra, mod: BimoduleSpec,
             odd_products: OddBracketTable | None = None) -> SuperAlgebra:
    """Superalgebra on even + odd basis: even and mixed products from
    ``BimoduleSpec.split_extension_table``, odd products from
    ``odd_products`` (zero when omitted, extended symmetrically).
    """
    if mod.even != even:
        raise ValueError("module was built over a different even algebra")
    if odd_products is None:
        odd_products = OddBracketTable.zero()
    ne = even.dim
    nm = mod.module_dim
    basis = [BasisVector(i, even.label(i), Parity.EVEN) for i in range(ne)]
    basis += [BasisVector(ne + m, mod.odd_labels[m], Parity.ODD)
              for m in range(nm)]
    table = mod.split_extension_table()
    for (i, j) in odd_products.pairs():
        if not (0 <= i < nm and 0 <= j < nm):
            raise ValueError(f"odd pair ({i},{j}) out of module range")
        vec = odd_products.value(i, j)
        for k in vec:
            if not 0 <= k < ne:
                raise ValueError("odd products must land in the even part")
        table[(ne + i, ne + j)] = dict(vec)
        table[(ne + j, ne + i)] = dict(vec)
    return SuperAlgebra(basis, table)


def superalgebra_s1() -> SuperAlgebra:
    """5-dimensional superalgebra: sl2 acting on the 2-dimensional ladder
    (left = -right) with all odd products zero.  Equals
    assemble(sl2(), module_n1(1))."""
    one = Fraction(1)
    basis = [BasisVector(0, "e", Parity.EVEN), BasisVector(1, "f", Parity.EVEN),
             BasisVector(2, "h", Parity.EVEN), BasisVector(3, "x_0", Parity.ODD),
             BasisVector(4, "x_1", Parity.ODD)]
    x0, x1 = 3, 4
    table: dict[tuple[int, int], Vec] = {
        (E, H): {E: 2 * one}, (H, F): {F: 2 * one}, (E, F): {H: one},
        (H, E): {E: -2 * one}, (F, H): {F: -2 * one}, (F, E): {H: -one},
        (x0, H): {x0: one}, (x1, H): {x1: -one},
        (x0, F): {x1: one}, (x1, E): {x0: -one},
        (H, x0): {x0: -one}, (H, x1): {x1: one},
        (F, x0): {x1: -one}, (E, x1): {x0: one},
    }
    return SuperAlgebra(basis, table)


def superalgebra_s2() -> SuperAlgebra:
    """The superalgebra of ``superalgebra_s1`` enriched with the odd products
    [x_0,x_0] = 2e, [x_1,x_1] = 2f, [x_0,x_1] = [x_1,x_0] = h."""
    one = Fraction(1)
    base = superalgebra_s1()
    x0, x1 = 3, 4
    table = {pair: vec for pair, vec in base.table_items()}
    table[(x0, x0)] = {E: 2 * one}
    table[(x1, x1)] = {F: 2 * one}
    table[(x0, x1)] = {H: one}
    table[(x1, x0)] = {H: one}
    return SuperAlgebra(list(base.basis), table)


# ---------------------------------------------------------------------------
# errata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Patch:
    """A printed slip as a column override of the repaired chain table: on
    every summand q >= 2 with q % 2 == ``parity``, the image of each v_i^q
    under generator ``gen`` acting from ``side`` ("right" or "left") is
    replaced by ``column(n, p, q, i)`` with p = q // 2, a list of terms
    ((q', i'), c) meaning c v_{i'}^{q'}, a term outside the chain being
    zero."""

    side: str
    gen: int
    parity: int
    column: Callable[[int, int, int, int], list[tuple[tuple[int, int], int]]]


@dataclass(frozen=True)
class Erratum:
    family: str
    printed: str
    repaired: str
    justification: str
    patch: Patch | None = None


#: Transcription slips in the source tables and the repairs the default
#: constructors apply.  Every repaired table is validated against
#: check_bimodule_axioms when it is built.  The as-printed table of m3 or
#: m4 (``verbatim=True``) is the repaired table with the ``patch`` of each
#: erratum of its family applied, under these reading rules: every
#: coefficient is kept literally, out-of-range indices denote zero, a
#: row's left-hand side is read from its position in the table, and when
#: two printed row groups cover the same summand the later group wins.
#:
#: Six errata carry a patch: each changes the printed table, and each is
#: needed, since applied alone it breaks the axioms of the repaired m3:6:3
#: or m4:6:3 (tests/test_catalog.py).  The other five change nothing
#: observable and carry none:
#:
#: * the m2 stray index, since no as-printed m2 table is built;
#: * the m3 and m4 left-f superscript slips, which "left-hand side from
#:   row position" reads away;
#: * the two m3 right actions on v^{2p+1}, which the v^{2p+1} rows of the
#:   next printed group overwrite under "the later group wins".
ERRATA: tuple[Erratum, ...] = (
    Erratum(
        "m2",
        "[f,y_j] = x_{j+2} - y_{i+1}",
        "[f,y_j] = x_{j+2} - y_{j+1}",
        "stray index i in a j-indexed row; with any other index the second "
        "bimodule identity fails at (y_j, f, h)"),
    Erratum(
        "m3",
        "[v_i^{2p},e] = -i(n-4p+1-i) v_{i-1}^{2p}",
        "[v_i^{2p},e] = -i(n-4p+3-i) v_{i-1}^{2p}",
        "the right action on a summand of highest weight m = n-4p+2 must be "
        "the standard ladder -i(m-i+1); the printed coefficient belongs to "
        "the next summand",
        Patch("right", E, 0, lambda n, p, q, i: [
            ((q, i - 1), -i * (n - 4 * p + 1 - i))])),
    Erratum(
        "m3",
        "[f,v_i^{2p-1}] = v_{i+2}^{2p-1} - v_{i+1}^{2p} + v_i^{2p+1}",
        "[f,v_i^{2p}] = v_{i+2}^{2p-1} - v_{i+1}^{2p} + v_i^{2p+1}",
        "left-hand-side superscript slip: the row sits in the v^{2p} group "
        "and the odd-superscript summands of this family have zero left "
        "action (stated two rows above)"),
    Erratum(
        "m3",
        "[h,v_i^{2p}] = 2(n-2p-i+3) v_{i+1}^{2p-1} - (n-2p-2i+2) v_{i+1}^{2p}"
        " - 2i v_{i-1}^{2p+1}",
        "[h,v_i^{2p}] = 2(n-4p+3-i) v_{i+1}^{2p-1} - (n-4p+2-2i) v_i^{2p}"
        " - 2i v_{i-1}^{2p+1}",
        "the diagonal part of a coupled left action must negate the right "
        "h-action (index i, weight coefficient n-4p+2-2i), and 2p/4p "
        "bookkeeping must match the two-summand table at k = 2",
        Patch("left", H, 0, lambda n, p, q, i: [
            ((q - 1, i + 1), 2 * (n - 2 * p - i + 3)),
            ((q, i + 1), -(n - 2 * p - 2 * i + 2)),
            ((q + 1, i - 1), -2 * i)])),
    Erratum(
        "m3",
        "[e,v_i^{2p}] = (n-2p-i+3)((n-2p-i+4) v_i^{2p-1} + i v_{i-1}^{2p})"
        " + i(i-1) v_{i-2}^{2p+1}",
        "[e,v_i^{2p}] = (n-4p+3-i)((n-4p+4-i) v_i^{2p-1} + i v_{i-1}^{2p})"
        " + i(i-1) v_{i-2}^{2p+1}",
        "same 2p/4p bookkeeping as the h row; already at p = 1 the printed "
        "coefficients disagree with the two-summand table, which reads "
        "(n-1-i)((n-i)..., and only the 4p reading satisfies the axioms",
        Patch("left", E, 0, lambda n, p, q, i: [
            ((q - 1, i), (n - 2 * p - i + 3) * (n - 2 * p - i + 4)),
            ((q, i - 1), (n - 2 * p - i + 3) * i),
            ((q + 1, i - 2), i * (i - 1))])),
    Erratum(
        "m3",
        "[v_i^{2p+1},h] = (n-4p+1-i) v_i^{2p+1}",
        "[v_i^{2p+1},h] = (n-4p-2i) v_i^{2p+1}",
        "h acts diagonally with weights m-2i on a summand of highest "
        "weight m = n-4p; the printed coefficient is not even linear in i "
        "with slope -2"),
    Erratum(
        "m3",
        "[v_i^{2p+1},e] = -i(n-4p-1-i) v_{i-1}^{2p+1}",
        "[v_i^{2p+1},e] = -i(n-4p+1-i) v_{i-1}^{2p+1}",
        "standard ladder coefficient -i(m-i+1) with m = n-4p"),
    Erratum(
        "m4",
        "[v_i^{2p},e] = -i(n-4p+1-i) v_{i-1}^{2p}",
        "[v_i^{2p},e] = -i(n-4p+3-i) v_{i-1}^{2p}",
        "standard ladder coefficient -i(m-i+1) with m = n-4p+2",
        Patch("right", E, 0, lambda n, p, q, i: [
            ((q, i - 1), -i * (n - 4 * p + 1 - i))])),
    Erratum(
        "m4",
        "[f,v_i^{2p-1}] = 0",
        "[f,v_i^{2p}] = 0",
        "left-hand-side superscript slip: the zero left action belongs to "
        "the even-superscript summands; v^1 and the other odd-superscript "
        "summands carry the coupled action"),
    Erratum(
        "m4",
        "[h,v_i^{2p+1}] = (n-4p-i+1) v_{i+1}^{2p} - (n-4p-2i) v_{i+1}^{2p+1}"
        " - 2i v_{i-1}^{2p+2}",
        "[h,v_i^{2p+1}] = 2(n-4p-i+1) v_{i+1}^{2p} - (n-4p-2i) v_i^{2p+1}"
        " - 2i v_{i-1}^{2p+2}",
        "diagonal term must use index i (negated right action); the factor "
        "2 on the coupling makes the h row the commutator of the e and f "
        "rows, without it the first bimodule identity fails",
        Patch("left", H, 1, lambda n, p, q, i: [
            ((q - 1, i + 1), n - 4 * p - i + 1),
            ((q, i + 1), -(n - 4 * p - 2 * i)),
            ((q + 1, i - 1), -2 * i)])),
    Erratum(
        "m4",
        "[v_i^{2p+1},e] = -i(n-4p-1-i) v_{i-1}^{2p+1}",
        "[v_i^{2p+1},e] = -i(n-4p+1-i) v_{i-1}^{2p+1}",
        "standard ladder coefficient -i(m-i+1) with m = n-4p",
        Patch("right", E, 1, lambda n, p, q, i: [
            ((q, i - 1), -i * (n - 4 * p - 1 - i))])),
)


# ---------------------------------------------------------------------------
# catalog identifiers (shared with the command line interface)
# ---------------------------------------------------------------------------


#: The largest module dimension ``resolve`` builds.  A larger id is refused
#: before anything is built, since classifying it or printing its table
#: takes time and memory that grow with the dimension.  The largest module
#: the tests, CI, demos and benchmark use is m1:192, of dimension 384.
MAX_MODULE_DIM = 2048


#: A catalog id parameter: an optional minus sign and ASCII digits.  ``int``
#: alone would also take "+3", "3_0", " 3" and non-ASCII digits.
_PARAMETER = re.compile(r"-?[0-9]+")


def module_dim(name: str, *params: int) -> int:
    """Dimension of the catalog module ``name`` with ``params``, from the
    parameters alone: n+1 for n1/n2:<n>, 2n for m1/m2:<n>, and k(n+2-k),
    the sum of the summand dimensions n-2q+3, for m3/m4:<n>:<k>."""
    if name in ("n1", "n2"):
        return params[0] + 1
    if name in ("m1", "m2"):
        return 2 * params[0]
    n, k = params
    return k * (n + 2 - k)


def _check_module_dim(identifier: str, name: str, params: list[int]) -> None:
    dim = module_dim(name, *params)
    if dim > MAX_MODULE_DIM:
        raise ValueError(f"{identifier} would have module dimension {dim}, "
                         f"over the limit of {MAX_MODULE_DIM}")


def resolve(identifier: str, verbatim: bool = False):
    """Map a catalog id to a SuperAlgebra or BimoduleSpec.

    Ids: sl2, s1, s2, n1:<n>, n2:<n>, m1:<n>, m2:<n>, m3:<n>:<k>, m4:<n>:<k>.
    ``verbatim`` selects the as-printed variants of m3/m4.  A module id of
    dimension over ``MAX_MODULE_DIM`` raises ValueError.
    """
    parts = identifier.split(":")
    name, args = parts[0], parts[1:]
    if not all(_PARAMETER.fullmatch(a) for a in args):
        raise ValueError(f"non-integer parameter in id {identifier!r}")
    params = [int(a) for a in args]
    plain = {"sl2": sl2, "s1": superalgebra_s1, "s2": superalgebra_s2}
    if name in plain:
        if params:
            raise ValueError(f"{name} takes no parameters")
        return plain[name]()
    one_param = {"n1": module_n1, "n2": module_n2,
                 "m1": bimodule_m1, "m2": bimodule_m2}
    if name in one_param:
        if len(params) != 1:
            raise ValueError(f"{name} takes exactly one parameter, e.g. {name}:2")
        _check_module_dim(identifier, name, params)
        return one_param[name](params[0])
    if name in ("m3", "m4"):
        if len(params) != 2:
            raise ValueError(f"{name} takes two parameters, e.g. {name}:6:2")
        _check_module_dim(identifier, name, params)
        builder = bimodule_m3 if name == "m3" else bimodule_m4
        return builder(params[0], params[1], verbatim=verbatim)
    raise ValueError(f"unknown catalog id {identifier!r}")


CATALOG_IDS = ("sl2", "s1", "s2", "n1:<n>", "n2:<n>", "m1:<n>", "m2:<n>",
               "m3:<n>:<k>", "m4:<n>:<k>")
