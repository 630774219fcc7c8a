"""Symbolic constraint generation and exact solution for the unknown
odd-times-odd products of a superalgebra skeleton.

Given an even Leibniz algebra and a validated bimodule, the products of two
odd basis vectors are the only undetermined part of a superalgebra table.
Writing each such product with unknown coefficients over the even basis, the
Leibniz superidentity on every basis triple with at least two odd members
becomes a homogeneous linear system in those unknowns: each identity term
contains exactly one odd-times-odd bracket composed with known actions, so
no unknown ever multiplies another.  Triples with at most one odd member
hold automatically because the even part and the bimodule are validated
beforehand: the module must be built over the given even part, and its
axiom report is evaluated once per spec, then reused (the catalog builders
validate the same spec object, so ``classify`` does not evaluate it again).

``generate_constraints`` expands that system symbolically, ``solve`` returns
its canonical nullspace, and ``classify`` packages the solutions as actual
superalgebra tables, each solved one re-verified from scratch (the zero
table's verdict is the precondition report, and it is assembled only when
read).  The independent routes that the tests hold these against, the
evaluated ``residual_matrix`` and the hand-written ladder systems, are in
``oracles``.

Two prefilters shrink the system before it is generated.
``annihilator_prefilter`` flags odd positions whose products all vanish.
``weight_compatible_unknowns`` names the unknowns that the weights of a
diagonally acting even basis vector (h, over sl2) leave free; on the catalog
modules that is a few percent of them, and the generator keeps only those
(over ordered pairs in ``strict`` mode, which skips the other filter).
``classify`` keeps the solution of the reduced system and writes it in full
coordinates, where it equals the solution of the unreduced system exactly,
only when those are read.

All three read the actions from the spec's one stored form, its columns
and even brackets times the lcm D of their denominators (1 on every catalog
table) as ``int``s; a certified text-mode ``classify`` reads nothing else.
The generator does not walk the basis triples: each kept pair of odd
positions scatters its kept unknowns, composed with the known actions, into
the triples that read it, one rule per term of the residuals.  The system
is the same, row for row, as the full expansion's, and the work follows the
kept pairs rather than the dimension.  Rows are summed in integers and
deduplicated by their primitive form.

After the weight filter a pair usually keeps one unknown U, and an all-odd
triple of the pair whose third member keeps no unknown with either (a far
member) reads U alone: its rows are multiples of the unit row U = 0.  When
every kept unknown has a far triple with a nonzero row, the system has full
rank and the zero solution, so ``classify`` checks this unit-row
certificate first and then neither generates nor solves the system; it is
built if read.  On the catalog modules the certificate fails only on a few
small ones (``n1:0`` to ``n1:6``, ``n2:0``, ``m1:2``, and in ``strict`` mode
up to ``n2:6``, ``m2:6`` and ``m4:6:3``), and where no even basis vector
acts diagonally.  Then ``solve`` eliminates the unit rows before the others
and stops once the rank is full.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import gcd

from .algebra import (BimoduleSpec, SuperAlgebra, check_bimodule_axioms,
                      check_leibniz_super)
from .catalog import (OddBracketTable, assemble, superalgebra_s1,
                      superalgebra_s2)
from .linalg import RowSpace, format_scalar


class InvalidStructure(ValueError):
    """A precondition table fails its identity checks; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, order=True)
class UnknownId:
    """Coefficient unknown: coordinate ``kind`` of the product of odd basis
    vectors i and j.  For a 3-dimensional even part the kinds are named
    a, b, c (coefficients of the first, second, third even vector)."""

    kind: int
    i: int
    j: int

    @property
    def name(self) -> str:
        letter = "abc"[self.kind] if self.kind < 3 else f"u{self.kind}"
        return f"{letter}_{self.i}_{self.j}"

    def __repr__(self):
        return f"UnknownId({self.name})"


@dataclass(frozen=True)
class ConstraintRow:
    """One linear equation: sum of coeff * unknown = 0, tagged with the
    basis triple whose superidentity produced it and the component of the
    residual it equates."""

    coeffs: tuple[tuple[int, Fraction], ...]
    triple: tuple[str, str, str]
    component: str

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coeffs)


@dataclass(frozen=True)
class ConstraintSystem:
    unknowns: tuple[UnknownId, ...]
    rows: tuple[ConstraintRow, ...]

    def unknown_names(self) -> tuple[str, ...]:
        return tuple(u.name for u in self.unknowns)

    def to_json_dict(self) -> dict:
        return {
            "unknowns": list(self.unknown_names()),
            "rows": [
                {
                    "coeffs": {self.unknowns[p].name: format_scalar(v)
                               for p, v in row.coeffs},
                    "triple": list(row.triple),
                    "component": row.component,
                }
                for row in self.rows
            ],
        }


@dataclass(frozen=True)
class SolutionSpace:
    """Canonical nullspace of a constraint system."""

    unknowns: tuple[UnknownId, ...]
    vectors: tuple[tuple[Fraction, ...], ...]
    rank: int
    pivots: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def free_columns(self) -> tuple[int, ...]:
        taken = set(self.pivots)
        return tuple(c for c in range(len(self.unknowns)) if c not in taken)

    def nonzero_named(self, vector: tuple[Fraction, ...]) -> dict[str, Fraction]:
        return {self.unknowns[p].name: v for p, v in enumerate(vector) if v != 0}

    def to_json_dict(self) -> dict:
        return {
            "unknowns": [u.name for u in self.unknowns],
            "dimension": self.dimension,
            "rank": self.rank,
            "vectors": [
                {name: format_scalar(v)
                 for name, v in self.nonzero_named(vec).items()}
                for vec in self.vectors
            ],
        }


class _RowCollector:
    """Accumulates generated rows, deduplicating scalar multiples while
    keeping the first provenance tag.

    Rows arrive as integer vectors: the coefficients times ``denominator``,
    a common denominator of every coefficient the rows can have.  A row is
    keyed by its primitive form, the integers divided by their gcd and
    signed so that the first one is positive.  Two rows get equal keys
    exactly when one is a scalar multiple of the other; a single-term row
    is keyed ``((p, 1),)``, its unit row.  Only a row that is kept is
    turned into ``Fraction`` coefficients."""

    def __init__(self, denominator: int = 1):
        self.denominator = denominator
        self.rows: list[ConstraintRow] = []
        self.seen: set[tuple] = set()

    def add(self, coeffs: dict[int, int],
            triple: tuple[str, str, str], component: str) -> None:
        items = sorted((p, n) for p, n in coeffs.items() if n)
        if not items:
            return
        if len(items) == 1:
            key: tuple = ((items[0][0], 1),)
        else:
            g = gcd(*(n for _, n in items))
            if items[0][1] < 0:
                g = -g
            key = tuple((p, n // g) for p, n in items)
        if key in self.seen:
            return
        self.seen.add(key)
        d = self.denominator
        self.rows.append(ConstraintRow(
            tuple((p, Fraction(n, d)) for p, n in items), triple, component))


def _check_preconditions(even: SuperAlgebra, mod: BimoduleSpec) -> None:
    if even != mod.even:
        raise InvalidStructure(
            "module was built over a different even algebra")
    rep = mod._even_report  # shared with the axiom check
    if not rep.ok:
        raise InvalidStructure(
            "even part fails the Leibniz identity:\n" + rep.describe(5), rep)
    rep = check_bimodule_axioms(mod)
    if not rep.ok:
        raise InvalidStructure(
            "module fails the bimodule axioms:\n" + rep.describe(10), rep)


def _kept_pairs(ne: int, mod: BimoduleSpec, symmetric: bool,
                keep_unknowns: frozenset[UnknownId] | None):
    """The unknowns ``generate_constraints`` keeps, kind-major; ``kinds``,
    the kind and position of every kept U_kind(i, j) by ordered pair (both
    orders share one list when ``symmetric``); and ``reach``.

    ``reach(i, j)`` is (near, lfar, rfar) for a kept pair.  When it keeps
    one kind k, a third odd member w outside ``near`` (the positions that
    keep an unknown with i or j) is far: its triples with the pair read
    U_k(i, j) alone.  ``lfar`` (``rfar``) is the first far w with
    [e_k, x_w] != 0 ([x_w, e_k] != 0), or None; (x_i, x_j, x_w) and
    (x_i, x_w, x_j) ((x_w, x_i, x_j)) then give U's unit row.  A pair that
    keeps more kinds has every w near and none far."""
    nm = mod.module_dim
    if keep_unknowns is None:
        unknowns = _full_unknowns(ne, nm, symmetric)
    else:
        unknowns = tuple(sorted(
            (u for u in keep_unknowns
             if 0 <= u.kind < ne and 0 <= u.i < nm and 0 <= u.j < nm
             and (u.i <= u.j or not symmetric)),
            key=lambda u: (u.kind, u.i, u.j)))
    kinds: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for p, u in enumerate(unknowns):
        kinds.setdefault((u.i, u.j), []).append((u.kind, p))
    if symmetric:
        for (i, j), ks in list(kinds.items()):
            kinds[(j, i)] = ks
    touch: list[set[int]] = [set() for _ in range(nm)]
    for i, j in kinds:
        touch[i].add(j)
        touch[j].add(i)
    _, rcol, lcol, _ = mod._integer_form
    lsup = [[w for w in range(nm) if lcol[k][w]] for k in range(ne)]
    rsup = [[w for w in range(nm) if rcol[k][w]] for k in range(ne)]

    def reach(i: int, j: int):
        ks = kinds[(i, j)]
        if len(ks) > 1:
            return range(nm), None, None
        near = touch[i] | touch[j]
        k = ks[0][0]
        return (near, next((w for w in lsup[k] if w not in near), None),
                next((w for w in rsup[k] if w not in near), None))

    return unknowns, kinds, reach


def generate_constraints(even: SuperAlgebra, mod: BimoduleSpec,
                         symmetric: bool = True,
                         keep_unknowns: frozenset[UnknownId] | None = None
                         ) -> ConstraintSystem:
    """Expand the superidentity over the ordered basis triples with two or
    three odd members into linear rows over the unknown odd products.

    ``symmetric`` trusts that the product of two odd elements does not
    depend on their order and keys unknowns by unordered pairs; with
    ``symmetric=False`` the two orders are independent unknowns and the
    solver itself must force their equality.  ``keep_unknowns``, when given,
    keeps only the unknowns it names and leaves every other one out of the
    system (``classify`` keeps those of ``weight_compatible_unknowns`` off
    the positions ``annihilator_prefilter`` flags); unknowns it names that
    the system does not have are ignored.

    Rows come in lexicographic triple order, components ascending within a
    triple, each restricted to the kept unknowns.  The triples are not
    walked: each kept ordered pair (i, j) of odd positions scatters its
    terms into the triples that read it, by one rule per term of the
    residuals of (a,u,v), (u,a,v), (u,v,a) and (u,v,w), and the terms are
    summed per triple and component.  A mixed triple reads the pair directly
    or through an action (found from the preimages ``lpre`` and ``rpre``);
    an all-odd triple (i,j,w), (w,i,j) or (i,w,j) reads it for every near w
    (see ``_kept_pairs``), and of the far w, which give multiples of the
    pair's one unit row, only the first of each form with a nonzero term
    gets one.  An all-odd triple whose terms read one unknown p alone is
    skipped once p's unit row is kept.  With ``symmetric`` no term goes to
    the mirror triples (a,v,u), (u,w,v) and (v,u,a), u < v (v < w), whose
    rows are, coefficient for coefficient, those of (a,u,v), (u,v,w) and
    (u,v,a), which come first.  So rows, order and provenance are those of
    the full expansion, at a cost that follows the kept pairs and their
    fan-out through the actions, not the dimension.

    Each term is one structure constant, so the rows are summed as integer
    vectors over the spec's integer form, keyed by their primitive form,
    and a kept row stores each integer n as ``Fraction(n, D)``.
    """
    _check_preconditions(even, mod)
    ne, nm = even.dim, mod.module_dim
    unknowns, kinds, reach = _kept_pairs(ne, mod, symmetric, keep_unknowns)

    # rcol[a][m] (lcol[a][m]) = [x_m, e_a] ([e_a, x_m]) and ebr[x][y] =
    # [e_x, e_y] times den, as int vectors: every term of a row is one of
    # these (the preconditions make ``even`` the spec's own).  Indexed by
    # the kind k of the unknown they act on: rbr[a][k] = [e_k, e_a],
    # rodd[w][k] = [x_w, e_k] and lodd[w][k] = [e_k, x_w]; unit[k] puts a
    # term in component k
    den, rcol, lcol, ebr = mod._integer_form
    rbr = [[ebr[k][a] for k in range(ne)] for a in range(ne)]
    rodd = [[rcol[k][w] for k in range(ne)] for w in range(nm)]
    lodd = [[lcol[k][w] for k in range(ne)] for w in range(nm)]
    unit = [{k: 1} for k in range(ne)]
    # lpre[a][m] (rpre[a][m]) maps each odd position x such that [e_a, x]
    # ([x, e_a]) has an x_m component to that coefficient
    lpre = [[{} for _ in range(nm)] for _ in range(ne)]
    rpre = [[{} for _ in range(nm)] for _ in range(ne)]
    for a in range(ne):
        for x in range(nm):
            for m, cf in lcol[a][x].items():
                lpre[a][m][x] = cf
            for m, cf in rcol[a][x].items():
                rpre[a][m][x] = cf

    # terms[code] lists the (component, position, coefficient) terms of the
    # triple (t0, t1, t2) of basis positions, the even basis first, coded
    # t0 * dim2 + t1 * dim + t2 (codes sort as triples do), flat in one list
    # of ints: they are summed only when the triple is emitted
    dim = ne + nm
    dim2 = dim * dim
    terms: defaultdict[int, list[int]] = defaultdict(list)

    def put(t0: int, t1: int, t2: int, ks: list[tuple[int, int]],
            cols: list[dict[int, int]], sign: int) -> None:
        """Add sign * cols[k] U_k to the triple (t0, t1, t2) for each kept
        U_k of ``ks``, unless ``symmetric`` makes it a mirror triple."""
        if symmetric and t1 >= ne and (t0 > t1 if t2 < ne else t1 > t2):
            return
        out = terms[t0 * dim2 + t1 * dim + t2]
        for k, p in ks:
            for comp, cf in cols[k].items():
                out += comp, p, sign * cf

    for (i, j), ks in kinds.items():
        oi, oj = ne + i, ne + j
        for a in range(ne):
            # (a,u,v): [a,U(u,v)] - U([a,u],v) - U([a,v],u)
            put(a, oi, oj, ks, ebr[a], 1)
            for x, cf in lpre[a][i].items():
                put(a, ne + x, oj, ks, unit, -cf)
                put(a, oj, ne + x, ks, unit, -cf)
            # (u,a,v): U(u,[a,v]) - U([u,a],v) + [U(u,v),a]
            for x, cf in lpre[a][j].items():
                put(oi, a, ne + x, ks, unit, cf)
            for x, cf in rpre[a][i].items():
                put(ne + x, a, oj, ks, unit, -cf)
            put(oi, a, oj, ks, rbr[a], 1)
            # (u,v,a): U(u,[v,a]) - [U(u,v),a] + U([u,a],v)
            for x, cf in rpre[a][j].items():
                put(oi, ne + x, a, ks, unit, cf)
            put(oi, oj, a, ks, rbr[a], -1)
            for x, cf in rpre[a][i].items():
                put(ne + x, oj, a, ks, unit, cf)
        # (u,v,w): [u,[v,w]] - [[u,v],w] - [[u,w],v], read by (w,i,j) and by
        # (i,j,w) and (i,w,j) for every near w; of the far w, whose terms
        # are multiples of the one unknown's, only the first of each form
        # with a nonzero term
        near, lfar, rfar = reach(i, j)
        for w in near if rfar is None else [*near, rfar]:
            put(ne + w, oi, oj, ks, rodd[w], 1)
        for w in near if lfar is None else [*near, lfar]:
            put(oi, oj, ne + w, ks, lodd[w], -1)
            put(oi, ne + w, oj, ks, lodd[w], -1)

    labels = [even.label(i) for i in range(ne)] + list(mod.odd_labels)
    collector = _RowCollector(den)
    for code in sorted(terms):
        t0, t1, t2 = code // dim2, code // dim % dim, code % dim
        flat = terms[code]
        # an all-odd triple (its components are odd positions) that reads
        # one unknown only gives nothing but its unit row: skip it once kept
        shift = ne if min(t0, t1, t2) >= ne else 0
        ps = set(flat[1::3]) if shift else ()
        if len(ps) == 1 and ((ps.pop(), 1),) in collector.seen:
            continue
        rows: dict[int, dict[int, int]] = {}
        it = iter(flat)
        for comp, p, cf in zip(it, it, it):
            row = rows.get(comp)
            if row is None:
                rows[comp] = {p: cf}
            else:
                row[p] = row.get(p, 0) + cf
        triple = (labels[t0], labels[t1], labels[t2])
        for comp in sorted(rows):
            collector.add(rows[comp], triple, labels[shift + comp])

    return ConstraintSystem(unknowns, tuple(collector.rows))


def solve(cs: ConstraintSystem) -> SolutionSpace:
    """Canonical nullspace of the row matrix: one basis vector per free
    column, that column set to 1.

    The rows are eliminated shortest first (a stable sort), unit rows before
    the rest, so a longer row is reduced by the unit rows already in place
    instead of being kept and then cleared again as each unit row arrives.
    The reduced echelon form, and so the rank, pivots and nullspace, does
    not depend on the order of the rows, and once the rank is the number of
    unknowns every later row lies in the span, so elimination stops there."""
    n = len(cs.unknowns)
    rs = RowSpace(n)
    for row in sorted(cs.rows, key=lambda row: len(row.coeffs)):
        if rs.rank == n:
            break
        rs.add(row.as_dict())
    return SolutionSpace(cs.unknowns, tuple(rs.nullspace()), rs.rank,
                         tuple(rs.pivot_columns()))


def annihilator_prefilter(even: SuperAlgebra, mod: BimoduleSpec
                          ) -> frozenset[int]:
    """Odd basis positions whose products are forced to vanish in every
    solution.

    The span of the s(a,m) = [a,m]+[m,a] (a even, m odd) consists of
    elements z with [anything, z] = 0, whatever the odd products turn out
    to be, so an odd basis vector in it has zero product with every odd
    element.  Returns those positions; sound in the symmetric regime (the
    unordered product keyed on the pair vanishes).  On a bimodule the span
    is closed under the right action, [s(a,m), b] = s(a,[m,b]) + s([a,b],m)
    (the axioms on (m,a,b) plus those on (a,m,b)), so it is not saturated:
    each s(a,m), read from the spec's integer form, enters a ``RowSpace``
    once, in integers.  ``classify`` checks the axioms before it calls
    this.  Both the soundness and the closure follow from the bimodule
    axioms: on a table that fails them, such as an as-printed chain
    (``annihilator --verbatim-tables``), the positions returned are only
    those in the span of the s(a,m), and ``verify`` is the check.
    """
    _, right, left, _ = mod._integer_form
    span = RowSpace(mod.module_dim)
    for ra, la in zip(right, left):
        for rm, lm in zip(ra, la):
            span.add({r: rm.get(r, 0) + lm.get(r, 0)
                      for r in rm.keys() | lm.keys()})
    return frozenset(m for m in range(mod.module_dim)
                     if span.contains({m: 1}))


def weight_compatible_unknowns(even: SuperAlgebra, mod: BimoduleSpec
                               ) -> frozenset[UnknownId]:
    """Symmetric unknowns that the weights of the even basis vectors acting
    diagonally leave free; every other unknown vanishes in every solution.

    When the right action of even basis vector e_a is diagonal on the module,
    [x_m, e_a] = l_m x_m, and on the even part, [e_k, e_a] = u_k e_k, the
    superidentity on the triple (x_i, x_j, e_a) has the single-term component
    (l_i + l_j - u_k) U_k(i,j) = 0.  Every unknown U_k(i,j) with
    l_i + l_j != u_k therefore vanishes in every solution.  Over sl2 the
    vector h qualifies on every catalog module (its weight decomposition);
    on a module where no even basis vector acts diagonally every unknown is
    kept.  The unknowns are keyed by unordered pairs, i <= j, for the
    symmetric regime.

    The odd indices are bucketed by weight, so the unknowns that match come
    from the bucket of u_k - l_i for each kind k and index i, and the result
    is those matching every diagonal vector: its cost follows the unknowns
    kept, not the ones left out.
    """
    return frozenset(UnknownId(k, i, j)
                     for k, i, j in _weight_compatible(even, mod))


def _weight_compatible(even: SuperAlgebra, mod: BimoduleSpec,
                       symmetric: bool = True) -> set[tuple[int, int, int]]:
    """The (kind, i, j) of ``weight_compatible_unknowns``, over ordered pairs
    unless ``symmetric``: every one when no even basis vector acts
    diagonally."""
    ne, nm = even.dim, mod.module_dim
    den, rcol, _, _ = mod._integer_form
    kept: set[tuple[int, int, int]] | None = None
    for a in range(ne):
        lam = _diagonal(rcol[a])
        mu = _diagonal([even.bracket_indices(k, a) for k in range(ne)])
        if lam is None or mu is None:
            continue
        # bucket the odd indices by weight: U_k(i,j) matches exactly when
        # j is in the bucket of u_k - l_i; a u_k * den off the integers
        # (``even`` is not the spec's own) matches none
        bucket: dict[int, list[int]] = {}
        for j, weight in enumerate(lam):
            bucket.setdefault(weight, []).append(j)
        targets = [(k, int(u * den)) for k, u in enumerate(mu)
                   if (u * den).denominator == 1]
        matching = {(k, i, j) for k, u in targets for i in range(nm)
                    for j in bucket.get(u - lam[i], ())
                    if j >= i or not symmetric}
        kept = matching if kept is None else kept & matching
    if kept is None:
        return {(k, i, j) for k in range(ne) for i in range(nm)
                for j in range(nm) if j >= i or not symmetric}
    return kept


def _diagonal(columns: Sequence[Mapping]) -> list | None:
    """Diagonal of a map given by its sparse columns, or None when the map
    is not diagonal."""
    if any(col.keys() - {m} for m, col in enumerate(columns)):
        return None
    return [col.get(m, 0) for m, col in enumerate(columns)]


def _embedded(sol: SolutionSpace, unknowns: tuple[UnknownId, ...]
              ) -> tuple[tuple[tuple[Fraction, ...], ...], list[int | None]]:
    """The kernel vectors of ``sol`` written over ``unknowns``, coordinate 0
    where ``sol`` has no unknown, and the position there of each unknown of
    ``sol``: None, and its value dropped, for one not among ``unknowns``
    (over unordered pairs, the second order of a strict pair)."""
    index = {u: p for p, u in enumerate(unknowns)}
    positions = [index.get(u) for u in sol.unknowns]
    vectors = []
    for vec in sol.vectors:
        out = [Fraction(0)] * len(unknowns)
        for p, val in zip(positions, vec):
            if p is not None:
                out[p] = val
        vectors.append(tuple(out))
    return tuple(vectors), positions


def _full_unknowns(ne: int, nm: int, symmetric: bool = True
                   ) -> tuple[UnknownId, ...]:
    """Kind-major unknowns over the odd pairs: unordered pairs when
    ``symmetric``, ordered pairs otherwise."""
    return tuple(UnknownId(k, i, j) for k in range(ne) for i in range(nm)
                 for j in range(nm) if j >= i or not symmetric)


def _products_from_vector(unknowns: tuple[UnknownId, ...],
                          vector: tuple[Fraction, ...]) -> OddBracketTable:
    """The odd products of a solution vector, read from its unknowns with
    i <= j: over ordered unknowns the other order carries the same value
    once symmetry has emerged."""
    products: dict[tuple[int, int], dict[int, Fraction]] = {}
    for u, val in zip(unknowns, vector):
        if val == 0 or u.i > u.j:
            continue
        products.setdefault((u.i, u.j), {})[u.kind] = val
    return OddBracketTable.build(products)


@dataclass(frozen=True)
class Classification:
    """Solution space plus re-verified representative tables.

    ``reduced`` is the canonical solution of ``system``, the system over
    the kept unknowns, which ``generate`` builds once, when first read.  The
    full coordinates, whose size grows with the square of the module
    dimension, are built when read too, each by writing the vectors of
    ``reduced`` over its unknowns (``_embedded``): ``vectors`` over
    ``unknowns`` (every symmetric unknown), and ``solution``, the solution
    of the system with only the ``filtered`` positions left out.  The unit
    row of each unknown the weights leave out of ``system`` lies in that
    system's row space, so it is a pivot there: the pivots of ``solution``
    are every position but the free columns of ``reduced``, and ``rank``,
    the rank of ``solution``, is its unknowns less ``dimension``, counted
    without building it.  ``solved`` holds the table of each solution
    vector; ``representatives`` and ``names`` assemble the zero table
    L ⋉ M of ``mod`` when read."""

    generate: Callable[[], ConstraintSystem] = field(repr=False,
                                                     compare=False)
    reduced: SolutionSpace
    mod: BimoduleSpec = field(repr=False)
    solved: tuple[SuperAlgebra, ...]
    filtered: frozenset[int]
    strict: bool
    symmetry_emerged: bool | None

    @property
    def even_dim(self) -> int:
        return self.mod.even.dim

    @property
    def module_dim(self) -> int:
        return self.mod.module_dim

    @cached_property
    def representatives(self) -> tuple[SuperAlgebra, ...]:
        return (assemble(self.mod.even, self.mod), *self.solved)

    @cached_property
    def names(self) -> tuple[str, ...]:
        names = ["zero"] + [f"P{i}" for i in range(1, len(self.solved) + 1)]
        if self.module_dim == 2:  # S1 and S2 have a 2-dimensional odd part
            s1, s2 = superalgebra_s1(), superalgebra_s2()
            names = ["S1" if rep == s1 else "S2" if rep == s2 else name
                     for rep, name in zip(self.representatives, names)]
        return tuple(names)

    @cached_property
    def system(self) -> ConstraintSystem:
        return self.generate()

    @cached_property
    def unknowns(self) -> tuple[UnknownId, ...]:
        return _full_unknowns(self.even_dim, self.module_dim)

    @cached_property
    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return _embedded(self.reduced, self.unknowns)[0]

    @cached_property
    def solution(self) -> SolutionSpace:
        flagged = self.filtered
        unknowns = tuple(u for u in _full_unknowns(
            self.even_dim, self.module_dim, not self.strict)
            if u.i not in flagged and u.j not in flagged)
        vectors, positions = _embedded(self.reduced, unknowns)
        free = {positions[p] for p in self.reduced.free_columns()}
        pivots = tuple(p for p in range(len(unknowns)) if p not in free)
        return SolutionSpace(unknowns, vectors, len(pivots), pivots)

    @property
    def dimension(self) -> int:
        return len(self.reduced.vectors)

    def summary_line(self) -> str:
        if self.dimension == 0:
            return "dimension 0; [L1,L1]=0"
        return (f"dimension {self.dimension}; representatives: "
                + ", ".join(self.names))

    def verdict_line(self) -> str:
        if self.dimension == 0:
            return "[L1,L1]=0"
        return "family: " + ",".join(self.names)

    @property
    def rank(self) -> int:
        """``solution.rank``, counted without building ``solution``: the
        unknowns off the ``filtered`` positions less ``dimension``."""
        k = self.module_dim - len(self.filtered)
        pairs = k * k if self.strict else k * (k + 1) // 2
        return self.even_dim * pairs - self.dimension

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "rank": self.rank,
            "unknowns": [u.name for u in self.unknowns],
            "vectors": [
                {self.unknowns[p].name: format_scalar(v)
                 for p, v in enumerate(vec) if v != 0}
                for vec in self.vectors
            ],
            "representatives": [rep.to_json_dict()
                                for rep in self.representatives],
            "names": list(self.names),
            "filtered": sorted(self.filtered),
            "strict": self.strict,
            "symmetry_emerged": self.symmetry_emerged,
        }


def classify(even: SuperAlgebra, mod: BimoduleSpec,
             strict: bool = False) -> Classification:
    """Determine every odd-times-odd product table compatible with the
    superidentity over the given skeleton.

    ``annihilator_prefilter`` and the weight filter of
    ``weight_compatible_unknowns`` run before generating; ``system`` is then
    the smaller system over the kept unknowns, and ``reduced`` its solution.
    ``solution`` is always that of the system with only the
    annihilator-flagged positions left out, bit for bit: the unknowns the
    weights leave out come back as pivots with coordinate 0.  The unfiltered
    route is ``solve(generate_constraints(even, mod))``.
    When the unit-row certificate (see the module docstring) holds,
    ``reduced`` is the zero solution of full rank, equal to
    ``solve(system)``, and ``system`` is generated only if it is read.

    Returns the canonical solution space, in full symmetric coordinates
    when read, plus representative superalgebras: the zero-product table
    and, per solution-space basis vector, the table at parameter 1.  Each
    solved table is re-verified here through ``check_leibniz_super``; a
    failure there would mean the generator and the checker disagree and
    raises immediately.  The zero table is L ⋉ M with [M, M] = 0, and on it
    the superidentity's sign never fires, so its residuals are exactly those
    of ``check_leibniz`` and ``check_bimodule_axioms``: the precondition
    report, already clean, is its verdict, and it is assembled when read.

    ``strict`` treats the two orders of each odd pair as independent
    unknowns and verifies that the solver forces their equality.  The weight
    filter (the row of (x_i, x_j, h) reads one order alone) and the
    certificate run over ordered pairs; the annihilator prefilter, whose
    argument covers unordered products only, is skipped.

    The preconditions are checked before either prefilter runs, so a module
    that fails them raises ``InvalidStructure`` without further work.
    """
    _check_preconditions(even, mod)
    filtered = frozenset() if strict else annihilator_prefilter(even, mod)
    # name only the kept unknowns off the flagged positions
    kept = frozenset(UnknownId(k, i, j)
                     for k, i, j in _weight_compatible(even, mod, not strict)
                     if i not in filtered and j not in filtered)
    unknowns, _, reach = _kept_pairs(even.dim, mod, not strict, kept)

    generate = partial(generate_constraints, even, mod, symmetric=not strict,
                       keep_unknowns=kept)
    if all(reach(u.i, u.j)[1:] != (None, None) for u in unknowns):
        # a far triple gives each unknown its unit row: the system has full
        # rank, and it is generated only if it is read
        n = len(unknowns)
        sol = SolutionSpace(unknowns, (), n, tuple(range(n)))
    else:
        system = generate()
        sol = solve(system)
        generate = lambda: system

    symmetry_emerged: bool | None = None
    if strict:
        spos = {(u.kind, u.i, u.j): p for p, u in enumerate(sol.unknowns)}
        symmetry_emerged = all(
            vec[spos[(k, i, j)]] == vec[spos[(k, j, i)]]
            for vec in sol.vectors
            for (k, i, j) in spos if i < j)
        if not symmetry_emerged:
            raise InvalidStructure(
                "strict mode produced an order-dependent solution; "
                "representatives require symmetric products")

    # the zero table is L ⋉ M, which _check_preconditions has verified
    solved = []
    for vec in sol.vectors:
        solved.append(assemble(even, mod,
                               _products_from_vector(sol.unknowns, vec)))
        report = check_leibniz_super(solved[-1])
        if not report.ok:
            raise InvalidStructure(
                "internal error: a solved table fails the superidentity "
                "on re-verification:\n" + report.describe(5), report)

    return Classification(generate, sol, mod, tuple(solved), filtered,
                          strict, symmetry_emerged)
