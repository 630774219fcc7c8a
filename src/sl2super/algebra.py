"""Superalgebra core: graded structure constants and identity checkers.

A (Leibniz) superalgebra is stored as a Z2-graded basis plus a sparse table
of structure constants.  The bracket is not assumed antisymmetric or
associative; the checkers below test which identities actually hold on
basis triples.  Three checkers share one kernel that visits only the
structure constants that can compose, so it covers every triple whose
residual can be nonzero without enumerating all dim^3 of them:

* ``check_leibniz``          [x,[y,z]] = [[x,y],z] - [[x,z],y]   (ungraded)
* ``check_leibniz_super``    [x,[y,z]] = [[x,y],z] - (-1)^{|y||z|} [[x,z],y]
* ``check_bimodule_axioms``  the three compatibility identities a left/right
  action pair must satisfy (see ``BimoduleSpec``).  M is a Leibniz bimodule
  over L exactly when the split extension L ⋉ M with [M, M] = 0 satisfies
  the Leibniz identity, so the axioms are that identity on the triples of
  L ⋉ M with exactly one module member.

``check_graded_antisymmetry`` ([x,y] = -(-1)^{|x||y|} [y,x]) compares basis
pairs directly.

Every check returns a ``ViolationReport``; an empty report means the
identity holds exactly.  All arithmetic is exact: rational, or integer over
one common denominator in the shared kernel.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from functools import cached_property
from math import lcm
from types import MappingProxyType

from .linalg import Matrix, RowSpace, format_scalar, parse_scalar

_ZERO = Fraction(0)

Vec = dict[int, Fraction]  # sparse coordinate vector over a basis

_NO_PRODUCT: Mapping[int, Fraction] = MappingProxyType({})

_EXACT_SCALAR = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class Parity(IntEnum):
    EVEN = 0
    ODD = 1

    @classmethod
    def from_str(cls, s: str) -> "Parity":
        try:
            return {"even": cls.EVEN, "odd": cls.ODD}[s]
        except (KeyError, TypeError):
            raise ValueError(f"parity must be 'even' or 'odd', got {s!r}") from None

    def to_str(self) -> str:
        return "even" if self is Parity.EVEN else "odd"


@dataclass(frozen=True)
class BasisVector:
    index: int
    label: str
    parity: Parity


def _vadd(a: Vec, b: Vec, scale: Fraction = Fraction(1)) -> Vec:
    out = dict(a)
    for k, v in b.items():
        new = out.get(k, _ZERO) + scale * v
        if new == 0:
            out.pop(k, None)
        else:
            out[k] = new
    return out


def _vscale(a: Vec, c: Fraction) -> Vec:
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


class Element:
    """Sparse linear combination of basis vectors (coefficients exact)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, object] | None = None):
        clean: Vec = {}
        for k, v in (coeffs or {}).items():
            fv = parse_scalar(v)
            if fv != 0:
                clean[int(k)] = fv
        self.coeffs = clean

    def __add__(self, other: "Element") -> "Element":
        return Element(_vadd(self.coeffs, other.coeffs))

    def __sub__(self, other: "Element") -> "Element":
        return Element(_vadd(self.coeffs, other.coeffs, Fraction(-1)))

    def __neg__(self) -> "Element":
        return Element({k: -v for k, v in self.coeffs.items()})

    def scaled(self, c) -> "Element":
        return Element(_vscale(self.coeffs, parse_scalar(c)))

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {format_scalar(v)}"
                          for k, v in sorted(self.coeffs.items()))
        return f"Element({{{inner}}})"


@dataclass(frozen=True)
class Violation:
    """One failed identity instance: which identity, at which basis labels,
    with what nonzero residual (label -> coefficient)."""
    identity: str
    labels: tuple[str, ...]
    residual: dict[str, Fraction]

    def describe(self) -> str:
        terms = " + ".join(f"{format_scalar(c)}*{l}"
                           for l, c in self.residual.items())
        return f"{self.identity} at ({', '.join(self.labels)}): residual {terms}"


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self):
        return iter(self.violations)

    def describe(self, limit: int | None = None) -> str:
        if self.ok:
            return "no violations"
        shown = self.violations if limit is None else self.violations[:limit]
        lines = [v.describe() for v in shown]
        if limit is not None and len(self.violations) > limit:
            lines.append(f"... and {len(self.violations) - limit} more")
        return "\n".join(lines)


class SuperAlgebra:
    """Finite dimensional Z2-graded algebra given by structure constants.

    The table maps a basis index pair (i, j) to the sparse coordinates of
    [b_i, b_j]; absent pairs multiply to zero.  Construction validates that
    indices are in range and that the product of homogeneous elements is
    homogeneous of the expected parity (grading compatibility).
    """

    def __init__(self, basis: list[BasisVector],
                 table: dict[tuple[int, int], Vec]):
        labels = [b.label for b in basis]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        for pos, b in enumerate(basis):
            if b.index != pos:
                raise ValueError("basis indices must be 0..dim-1 in order")
        self.basis: tuple[BasisVector, ...] = tuple(basis)
        self._index: dict[str, int] = {b.label: b.index for b in basis}
        dim = len(basis)
        clean: dict[tuple[int, int], Vec] = {}
        for (i, j), vec in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket pair ({i},{j}) out of range")
            expected = (basis[i].parity + basis[j].parity) % 2
            entry: Vec = {}
            for k, v in vec.items():
                if not 0 <= k < dim:
                    raise ValueError(f"product component {k} out of range")
                fv = parse_scalar(v)
                if fv == 0:
                    continue
                if basis[k].parity != expected:
                    raise ValueError(
                        f"grading violated: [{labels[i]},{labels[j]}] has a "
                        f"{basis[k].parity.to_str()} component {labels[k]}")
                entry[k] = fv
            if entry:
                clean[(i, j)] = entry
        self._table = clean
        self._views = {pair: MappingProxyType(vec)
                       for pair, vec in clean.items()}

    # -- introspection -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no basis vector labelled {label!r}") from None

    def label(self, i: int) -> str:
        return self.basis[i].label

    def parity(self, i: int) -> Parity:
        return self.basis[i].parity

    def even_indices(self) -> list[int]:
        return [b.index for b in self.basis if b.parity is Parity.EVEN]

    def odd_indices(self) -> list[int]:
        return [b.index for b in self.basis if b.parity is Parity.ODD]

    def is_purely_even(self) -> bool:
        return all(b.parity is Parity.EVEN for b in self.basis)

    def table_items(self) -> list[tuple[tuple[int, int], Vec]]:
        return [(pair, dict(vec)) for pair, vec in sorted(self._table.items())]

    # -- element helpers ------------------------------------------------

    def basis_element(self, key) -> Element:
        i = key if isinstance(key, int) else self.index(key)
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range")
        return Element({i: 1})

    def element(self, coeffs: dict[str, object]) -> Element:
        return Element({self.index(l): v for l, v in coeffs.items()})

    def format_element(self, x: Element) -> str:
        if x.is_zero():
            return "0"
        parts = []
        for k in x.support():
            c = x.coeffs[k]
            lab = self.label(k)
            if c == 1:
                term = lab
            elif c == -1:
                term = f"-{lab}"
            else:
                term = f"{format_scalar(c)}{lab}"
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append(f"- {term[1:]}")
            else:
                parts.append(f"+ {term}")
        return " ".join(parts)

    # -- the bracket -----------------------------------------------------

    def bracket_indices(self, i: int, j: int) -> Mapping[int, Fraction]:
        """Read-only sparse coordinates of [b_i, b_j] (empty when zero)."""
        return self._views.get((i, j), _NO_PRODUCT)

    def bracket(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the structure constant table."""
        out: Vec = {}
        for i, xi in x.coeffs.items():
            if i >= self.dim:
                raise ValueError("element does not live in this algebra")
            for j, yj in y.coeffs.items():
                if j >= self.dim:
                    raise ValueError("element does not live in this algebra")
                entry = self._table.get((i, j))
                if not entry:
                    continue
                c = xi * yj
                for k, v in entry.items():
                    new = out.get(k, _ZERO) + c * v
                    if new == 0:
                        out.pop(k, None)
                    else:
                        out[k] = new
        return Element(out)

    def parity_of_element(self, x: Element) -> Parity | None:
        """Parity of a homogeneous element, None for mixed or zero."""
        ps = {self.parity(k) for k in x.coeffs}
        return ps.pop() if len(ps) == 1 else None

    # -- transformations -------------------------------------------------

    def rescaled(self, scales: list) -> "SuperAlgebra":
        """Algebra in the rescaled basis b_i' = s_i b_i (labels kept).

        Structure constants transform as c' = c * s_i * s_j / s_k.
        """
        s = [parse_scalar(x) for x in scales]
        if len(s) != self.dim or any(x == 0 for x in s):
            raise ValueError("need one nonzero scale per basis vector")
        table: dict[tuple[int, int], Vec] = {}
        for (i, j), vec in self._table.items():
            table[(i, j)] = {k: v * s[i] * s[j] / s[k] for k, v in vec.items()}
        return SuperAlgebra(list(self.basis), table)

    def forget_grading(self) -> "SuperAlgebra":
        """Same table with every basis vector declared even (ungraded view)."""
        basis = [BasisVector(b.index, b.label, Parity.EVEN) for b in self.basis]
        return SuperAlgebra(basis, {p: dict(v) for p, v in self._table.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, SuperAlgebra)
                and self.basis == other.basis
                and self._table == other._table)

    def __repr__(self) -> str:
        return (f"SuperAlgebra(dim={self.dim}, "
                f"odd={len(self.odd_indices())}, "
                f"products={len(self._table)})")

    # -- JSON wire format -------------------------------------------------

    def to_json_dict(self) -> dict:
        brackets = []
        for (i, j), vec in sorted(self._table.items()):
            result = [{"coeff": format_scalar(vec[k]), "label": self.label(k)}
                      for k in sorted(vec)]
            brackets.append({"left": self.label(i), "right": self.label(j),
                             "result": result})
        return {
            "basis": [{"label": b.label, "parity": b.parity.to_str()}
                      for b in self.basis],
            "brackets": brackets,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "SuperAlgebra":
        """Inverse of ``to_json_dict``; any malformed input raises ValueError."""
        if not isinstance(data, dict) or "basis" not in data:
            raise ValueError("algebra JSON must be an object with a 'basis' key")
        basis = []
        for pos, entry in enumerate(_json_list(data["basis"], "'basis'")):
            where = f"basis entry {pos}"
            label = _json_field(entry, "label", where)
            if not isinstance(label, str):
                raise ValueError(f"the label of {where} must be a string, "
                                 f"got {type(label).__name__}")
            basis.append(BasisVector(
                pos, label,
                Parity.from_str(_json_field(entry, "parity", where))))
        index = {b.label: b.index for b in basis}
        if len(index) != len(basis):
            raise ValueError("duplicate basis labels")

        def position(lab) -> int:
            if isinstance(lab, str) and lab in index:
                return index[lab]
            raise ValueError(f"unknown basis label {lab!r}")

        table: dict[tuple[int, int], Vec] = {}
        brackets = _json_list(data.get("brackets", []), "'brackets'")
        for pos, br in enumerate(brackets):
            where = f"bracket entry {pos}"
            i = position(_json_field(br, "left", where))
            j = position(_json_field(br, "right", where))
            vec: Vec = {}
            for term in _json_list(_json_field(br, "result", where),
                                   f"'result' of {where}"):
                k = position(_json_field(term, "label", f"a term of {where}"))
                coeff = _json_field(term, "coeff", f"a term of {where}")
                vec[k] = vec.get(k, _ZERO) + _json_coefficient(coeff)
            if (i, j) in table:
                raise ValueError(f"duplicate bracket entry for ({br['left']},{br['right']})")
            table[(i, j)] = vec
        return cls(basis, table)

    @classmethod
    def from_json(cls, text: str) -> "SuperAlgebra":
        return cls.from_json_dict(json.loads(text))


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _json_coefficient(coeff) -> Fraction:
    """An exact coefficient spelled as a string "p" or "p/q", with an
    optional leading minus sign and q nonzero."""
    if not isinstance(coeff, str) or not _EXACT_SCALAR.fullmatch(coeff):
        raise ValueError(
            f"coefficient {coeff!r} is not an exact string 'p' or 'p/q'")
    try:
        return Fraction(coeff)
    except ZeroDivisionError:
        raise ValueError(
            f"coefficient {coeff!r} has a zero denominator") from None


def _json_field(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r}")
    return obj[key]


# ---------------------------------------------------------------------------
# identity checkers
# ---------------------------------------------------------------------------


def _leibniz_residuals(table: Mapping[tuple[int, int], Vec], odd: list[bool]
                       ) -> Iterator[tuple[int, int, int, Vec]]:
    """Yield ``(x, y, z, residual)`` for every basis triple with a nonzero
    residual [x,[y,z]] - [[x,y],z] + s(y,z)[[x,z],y], in lexicographic order.

    ``table`` maps (i, j) to the sparse coordinates of [b_i, b_j] on the
    basis b_0 .. b_{dim-1}, dim = len(odd), and is only read.  ``odd[i]`` is
    the parity used for b_i; s(y,z) = -1 exactly when y and z are both odd.
    The ``Fraction`` front of ``_integer_residuals``: the lcm D of all
    denominators (1 for an empty table) scales the table to integers, and
    each residual, summed as D^2 times its value, is ``Fraction(n, D*D)``.
    """
    D = lcm(*(c.denominator for vec in table.values() for c in vec.values()))
    scaled = {pair: {t: c.numerator * (D // c.denominator)
                     for t, c in vec.items()} for pair, vec in table.items()}
    for x, y, z, residual in _integer_residuals(scaled, odd):
        yield x, y, z, {k: Fraction(v, D * D) for k, v in residual.items()}


def _integer_residuals(table: Mapping, odd: list[bool]) -> Iterator[tuple]:
    """The residuals of ``_leibniz_residuals`` on an integer ``table``, as
    integer vectors with nonzero entries, in the same order.

    Rather than evaluating all dim^3 triples, the table is indexed once by
    left factor (``right[i]`` = pairs (j, [b_i,b_j])) and by product
    component (``producers[t]`` = (y, z, c) with [b_y,b_z]_t = c).  For each
    x in turn the three terms are then summed over nonzero structure
    constants only:

        [x,[y,z]] = sum_t [y,z]_t [x,t]      (t with [x,t] != 0, producers[t])
        [[x,a],b] = sum_t [x,a]_t [t,b]      (a with [x,a] != 0, b in right[t])

    and each product [[x,a],b] feeds both the pair (a, b), as -[[x,y],z],
    and the pair (b, a), as s(b,a)[[x,z],y].  Every triple left out has all
    three terms empty, so its residual is zero.  Only the pairs of one x are
    held at a time.  Residual keys come in no particular order.
    """
    dim = len(odd)
    right: list[list[tuple[int, dict[int, int]]]] = [[] for _ in range(dim)]
    producers: list[list[tuple[int, int, int]]] = [[] for _ in range(dim)]
    for (i, j), vec in table.items():
        right[i].append((j, vec))
        for t, c in vec.items():
            producers[t].append((i, j, c))
    for x in range(dim):
        acc: dict[tuple[int, int], dict[int, int]] = {}
        for t, xt in right[x]:
            for y, z, c in producers[t]:
                row = acc.setdefault((y, z), {})
                for k, v in xt.items():
                    row[k] = row.get(k, 0) + c * v
        for a, xa in right[x]:
            for t, c in xa.items():
                for b, tb in right[t]:
                    row_ab = acc.setdefault((a, b), {})
                    row_ba = acc.setdefault((b, a), {})
                    flip = odd[a] and odd[b]
                    for k, v in tb.items():
                        p = c * v
                        row_ab[k] = row_ab.get(k, 0) - p
                        row_ba[k] = (row_ba.get(k, 0) - p if flip
                                     else row_ba.get(k, 0) + p)
        # most pairs cancel on a valid table: drop them before sorting
        nonzero = {yz: row for yz, row in acc.items() if any(row.values())}
        for (y, z) in sorted(nonzero):
            yield x, y, z, {k: v for k, v in nonzero[(y, z)].items() if v}


def _labelled(A: SuperAlgebra, vec: Vec) -> dict[str, Fraction]:
    return {A.label(k): vec[k] for k in sorted(vec)}


def _leibniz_report(A: SuperAlgebra, identity: str,
                    odd: list[bool]) -> ViolationReport:
    return ViolationReport(tuple(
        Violation(identity, (A.label(x), A.label(y), A.label(z)),
                  _labelled(A, residual))
        for x, y, z, residual in _leibniz_residuals(A._table, odd)))


def check_leibniz(A: SuperAlgebra) -> ViolationReport:
    """Ungraded Leibniz identity [x,[y,z]] = [[x,y],z] - [[x,z],y] on the
    basis triples of an even algebra (see ``_leibniz_residuals``).

    Raises ValueError when A has odd basis vectors; use check_leibniz_super
    for graded algebras.
    """
    if not A.is_purely_even():
        raise ValueError("check_leibniz requires a purely even algebra")
    return _leibniz_report(A, "leibniz", [False] * A.dim)


def check_leibniz_super(A: SuperAlgebra) -> ViolationReport:
    """Graded Leibniz identity on basis triples.

    For y, z of parities b, c the identity reads
    [x,[y,z]] = [[x,y],z] - (-1)^{bc} [[x,z],y]; the sign flips exactly when
    y and z are both odd.  Only the structure constants that can compose are
    visited (``_leibniz_residuals``), which covers every triple whose
    residual can be nonzero; violations come in lexicographic triple order.
    """
    return _leibniz_report(A, "leibniz-super",
                           [b.parity is Parity.ODD for b in A.basis])


def check_graded_antisymmetry(A: SuperAlgebra) -> ViolationReport:
    """Reports pairs with [x,y] + (-1)^{|x||y|}[y,x] != 0.

    An empty report combined with an empty check_leibniz_super report means
    A is a Lie superalgebra (the graded Jacobi identity follows).
    """
    return ViolationReport(tuple(
        Violation("graded-antisymmetry", (A.label(i), A.label(j)),
                  _labelled(A, s))
        for i, j, s in _graded_symmetrizations(A)))


def _graded_symmetrizations(A: SuperAlgebra) -> Iterator[tuple]:
    """(i, j, [b_i,b_j] + (-1)^{|i||j|}[b_j,b_i]) for each basis pair where
    that is nonzero, in lexicographic pair order: only a stored product or
    its mirror can give one, so no other pair is visited."""
    for i, j in sorted(A._table.keys() | {(j, i) for i, j in A._table}):
        sign = Fraction(-1) if A.parity(i) and A.parity(j) else Fraction(1)
        s = _vadd(A.bracket_indices(i, j), A.bracket_indices(j, i), sign)
        if s:
            yield i, j, s


# ---------------------------------------------------------------------------
# bimodules
# ---------------------------------------------------------------------------


Columns = tuple[Mapping[int, Fraction], ...]  # one action, column by column

_NOT_SQUARE = "action matrices must be square of module dim"


@dataclass(frozen=True, init=False)
class BimoduleSpec:
    """Left/right action pair of an even Leibniz algebra L on a module M.

    ``right[a][m]`` is the image of module vector m under m -> [m, b_a], and
    ``left[a][m]`` its image under m -> [b_a, m], each a read-only sparse
    mapping from module index to nonzero ``Fraction`` coefficient in the
    basis ``odd_labels``, rows in ascending order.  Each action may be
    passed as a ``Matrix`` (column m holds the image of the m-th module
    vector) or as one mapping per module vector.  The axioms checked by
    ``check_bimodule_axioms`` are, for module m and even x, y:

        [m,[x,y]] = [[m,x],y] - [[m,y],x]      (bimodule-1)
        [x,[m,y]] = [[x,m],y] - [[x,y],m]      (bimodule-2)
        [x,[y,m]] = [[x,y],m] - [[x,m],y]      (bimodule-3)

    which is the Leibniz identity of the split extension L ⋉ M
    (``split_extension_table``) on the triples (m,x,y), (x,m,y), (x,y,m).

    The one stored form of the actions is ``_integer_form`` (see
    ``_integer_actions``): the lcm D of every denominator and the columns
    times D as ``int`` dicts, read from the input once.  The axiom check,
    ``split_extension_table``, both prefilters and the generator read it;
    ``right`` and ``left`` are built from it when first read, then kept.
    Two specs are equal when their even algebras, labels and forms are,
    which is when their ``right`` and ``left`` are.  A spec is immutable
    (frozen fields, module labels copied into a tuple, read-only action
    columns, an even algebra whose table is private), so its axiom report
    too is computed once, and the Leibniz report of its even part, which
    ``classify`` reads too.
    """

    even: SuperAlgebra
    odd_labels: tuple[str, ...]
    _integer_form: tuple = field(repr=False)

    def __init__(self, even: SuperAlgebra, odd_labels: Sequence[str],
                 right: Sequence, left: Sequence):
        if not even.is_purely_even():
            raise ValueError("the acting algebra must be purely even")
        odd_labels = tuple(odd_labels)
        if len(set(odd_labels)) != len(odd_labels):
            raise ValueError("duplicate module labels")
        if len(right) != even.dim or len(left) != even.dim:
            raise ValueError("need one action matrix per even basis vector")
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "odd_labels", odd_labels)
        object.__setattr__(self, "_integer_form", _integer_actions(
            even, right, left, len(odd_labels)))

    def __repr__(self) -> str:
        return (f"BimoduleSpec(even={self.even!r}, "
                f"odd_labels={self.odd_labels!r}, right={self.right!r}, "
                f"left={self.left!r})")

    @property
    def module_dim(self) -> int:
        return len(self.odd_labels)

    @cached_property
    def right(self) -> tuple[Columns, ...]:
        D, right, _, _ = self._integer_form
        return _fraction_columns(D, right)

    @cached_property
    def left(self) -> tuple[Columns, ...]:
        D, _, left, _ = self._integer_form
        return _fraction_columns(D, left)

    @cached_property
    def _even_report(self) -> ViolationReport:
        return check_leibniz(self.even)

    @cached_property
    def _axiom_report(self) -> ViolationReport:
        return _bimodule_axiom_report(self)

    def split_extension_table(self) -> dict[tuple[int, int], Vec]:
        """Structure constants of L ⋉ M with [M, M] = 0, on the basis of L
        (indices 0 .. n-1) followed by the module vectors (n .. n+d-1): the
        products of L, then per even x and module m the products [x, m] and
        [m, x].  The table the axiom check sums in ints, laid out from
        ``_integer_form`` by the same helper, divided by D; it reads
        neither ``right`` nor ``left``.  A fresh table on each call."""
        D, right, left, even = self._integer_form
        return {key: {k: Fraction(v, D) for k, v in vec.items()}
                for key, vec in _split_extension(even, right, left).items()}


def _integer_actions(even: SuperAlgebra, right: Sequence, left: Sequence,
                     d: int) -> tuple:
    """The stored form of ``BimoduleSpec``: (D, right, left, even), the two
    actions column by column and the even brackets ``even[x][y]`` times the
    lcm D of all their denominators, as ``int`` dicts.

    Each action is read once: a ``Matrix``, or one mapping per module
    vector from row to an ``int``, ``Fraction`` or "p/q" coefficient.  The
    columns are copies with the zeros dropped and the rows in ascending
    order, so that equal specs are stored, and read, alike however their
    input was ordered; an ``int`` entry is kept as it is.  Raises
    ValueError unless every action is d x d with its rows in range, and
    TypeError on a coefficient that is not exact."""
    den = 1  # the lcm of the denominators read so far
    sides = []
    for side in (right, left):
        actions = []
        for action in side:
            if isinstance(action, Matrix):
                if action.nrows != d:
                    raise ValueError(_NOT_SQUARE)
                action = [dict(enumerate(column))
                          for column in zip(*action.rows())]
            if len(action) != d:
                raise ValueError(_NOT_SQUARE)
            columns = []
            for image in action:
                column = {}
                for r in sorted(image):
                    if not 0 <= r < d:
                        raise ValueError(_NOT_SQUARE)
                    v = image[r]
                    if type(v) is not int:
                        v = parse_scalar(v)
                        den = lcm(den, v.denominator)
                        if v.denominator == 1:
                            v = v.numerator
                    if v:
                        column[r] = v
                columns.append(column)
            actions.append(tuple(columns))
        sides.append(tuple(actions))
    ebr = [[even.bracket_indices(x, y) for y in range(even.dim)]
           for x in range(even.dim)]
    D = lcm(den, *(c.denominator for row in ebr for vec in row
                   for c in vec.values()))
    if D > 1:
        sides = [_scaled(side, D) for side in sides]
    return (D, *sides, _scaled(ebr, D))


def _scaled(rows: Sequence, D: int) -> tuple:
    """``rows[x][y]``, sparse vectors of exact coefficients with
    denominators dividing D, times D as ``int`` dicts."""
    return tuple(tuple({r: c.numerator * (D // c.denominator)
                        for r, c in vec.items()} for vec in row)
                 for row in rows)


def _fraction_columns(D: int, side: Sequence) -> tuple[Columns, ...]:
    """One side of the integer form divided by D: the ``right`` or
    ``left`` of ``BimoduleSpec``."""
    return tuple(tuple(MappingProxyType({r: Fraction(v, D)
                                         for r, v in column.items()})
                       for column in action) for action in side)


def _split_extension(even: Sequence, right: Sequence, left: Sequence) -> dict:
    """The layout of ``split_extension_table`` from ``even[x][y]`` and
    action columns, at the scale they are given in."""
    ne = len(even)
    table = {(x, y): dict(vec) for x, row in enumerate(even)
             for y, vec in enumerate(row) if vec}
    for x, (rx, lx) in enumerate(zip(right, left)):
        for m, (rm, lm) in enumerate(zip(rx, lx)):
            if lm:
                table[(x, ne + m)] = {ne + r: v for r, v in lm.items()}
            if rm:
                table[(ne + m, x)] = {ne + r: v for r, v in rm.items()}
    return table


def check_bimodule_axioms(spec: BimoduleSpec) -> ViolationReport:
    """Verify the three bimodule identities on every basis triple.

    Violations come ordered by module vector m, then even x, then even y,
    then identity, labelled (m, x, y) for all three identities.  The
    identities are evaluated once per spec object; later calls return the
    same report.  Raises ValueError, on every call, when the acting algebra
    is not a Leibniz algebra, since the axioms only make sense over one.
    """
    return spec._axiom_report


def _bimodule_axiom_report(spec: BimoduleSpec) -> ViolationReport:
    """The uncached evaluation behind ``check_bimodule_axioms``: the Leibniz
    residuals of ``split_extension_table``, summed in ints on the same table
    built from ``spec._integer_form``.  Every triple of L ⋉ M with two
    or three module members has all three terms zero, and one with none is
    a triple of L, checked first, so each residual left is (m,x,y) for
    bimodule-1, (x,m,y) for bimodule-2 or (x,y,m) for bimodule-3.  No sign
    depends on parities here: it flips only when two members are odd."""
    A = spec.even
    even_report = spec._even_report
    if not even_report.ok:
        raise ValueError("acting algebra is not a Leibniz algebra:\n"
                         + even_report.describe(limit=3))
    ne = A.dim
    D, right, left, even = spec._integer_form
    found = []
    for a, b, c, residual in _integer_residuals(
            _split_extension(even, right, left),
            [False] * (ne + spec.module_dim)):
        if a >= ne:
            found.append(((a - ne, b, c, 1), residual))
        elif b >= ne:
            found.append(((b - ne, a, c, 2), residual))
        else:
            found.append(((c - ne, a, b, 3), residual))
    found.sort(key=lambda item: item[0])
    labels = spec.odd_labels
    return ViolationReport(tuple(
        Violation(f"bimodule-{n}", (labels[m], A.label(x), A.label(y)),
                  {labels[k - ne]: Fraction(residual[k], D * D)
                   for k in sorted(residual)})
        for (m, x, y, n), residual in found))


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------


def right_annihilator(A: SuperAlgebra) -> list[Element]:
    """Canonical basis of R(A) = {z : [x, z] = 0 for all x}.

    Computed exactly as the joint kernel of the operators z -> [b_i, z]
    stacked into one matrix, whose row (i, k) holds the k-th coordinates of
    the stored products [b_i, b_j]; the basis is the canonical reduced
    echelon nullspace basis.
    """
    rows: dict[tuple[int, int], Vec] = {}
    for (i, j), vec in sorted(A._table.items()):
        for k, v in vec.items():
            rows.setdefault((i, k), {})[j] = v
    space = RowSpace(A.dim)
    for row in rows.values():
        space.add(row)
    return [Element({k: v for k, v in enumerate(vec) if v != 0})
            for vec in space.nullspace()]


def symmetrized_products_in_annihilator(A: SuperAlgebra) -> ViolationReport:
    """Check that every [x,y] + (-1)^{|x||y|}[y,x] lies in span R(A).

    This is a consequence of the graded Leibniz identity, so the input must
    pass check_leibniz_super first (ValueError otherwise).  An empty report
    confirms the containment for all basis pairs.
    """
    super_report = check_leibniz_super(A)
    if not super_report.ok:
        raise ValueError("not a Leibniz superalgebra:\n"
                         + super_report.describe(limit=3))
    span = RowSpace(A.dim)
    for elem in right_annihilator(A):
        span.add(dict(elem.coeffs))
    return ViolationReport(tuple(
        Violation("symmetrized-product-in-annihilator",
                  (A.label(i), A.label(j)), _labelled(A, s))
        for i, j, s in _graded_symmetrizations(A) if not span.contains(s)))
