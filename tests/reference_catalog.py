"""The four family builders that ``sl2super.catalog`` replaced with
one-summand and two-summand chains, kept unchanged as the reference they
are tested against.

``module_n1`` and ``module_n2`` build the simple ladder and its left action
themselves; ``bimodule_m1`` and ``bimodule_m2`` write both actions of the
two summands by hand, from the tables in their docstrings.  They share no
code with the package's chain builder.
"""

from sl2super.algebra import BimoduleSpec, check_bimodule_axioms
from sl2super.catalog import E, F, H, sl2


class _ActionBuilder:
    """Accumulates one action of each of the three generators, column by
    column: ``columns[gen][col]`` maps a row to its integer coefficient in
    the image of module vector ``col``, the form ``BimoduleSpec`` takes (and
    copies, ints kept as ints and zeros dropped)."""

    def __init__(self, dim: int):
        self.dim = dim
        self.columns: list[list[dict[int, int]]] = [
            [{} for _ in range(dim)] for _ in range(3)]

    def add(self, gen: int, row: int, col: int, value: int) -> None:
        if not 0 <= row < self.dim:
            return  # out-of-range ladder indices denote the zero vector
        image = self.columns[gen][col]
        image[row] = image.get(row, 0) + value

    def set_column(self, gen: int, col: int,
                   terms: list[tuple[int, int]]) -> None:
        """Replace the whole image of basis vector ``col`` under ``gen``."""
        self.columns[gen][col] = {}
        for row, value in terms:
            self.add(gen, row, col, value)


def _ladder_right(builder: _ActionBuilder, offset: int, m: int) -> None:
    """Standard simple-module right action on slots offset..offset+m:
    [v_i,h] = (m-2i)v_i, [v_i,f] = v_{i+1}, [v_i,e] = -i(m-i+1)v_{i-1}."""
    for i in range(m + 1):
        builder.add(H, offset + i, offset + i, m - 2 * i)
        if i + 1 <= m:
            builder.add(F, offset + i + 1, offset + i, 1)
        if i >= 1:
            builder.add(E, offset + i - 1, offset + i, -i * (m - i + 1))


def module_n1(n: int) -> BimoduleSpec:
    """Simple (n+1)-dimensional ladder bimodule with left = -right."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    right = _ActionBuilder(n + 1)
    _ladder_right(right, 0, n)
    left = [[{r: -v for r, v in image.items()} for image in action]
            for action in right.columns]
    labels = tuple(f"x_{i}" for i in range(n + 1))
    return BimoduleSpec(sl2(), labels, right.columns, left)


def module_n2(n: int) -> BimoduleSpec:
    """Simple (n+1)-dimensional ladder bimodule with zero left action."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    right = _ActionBuilder(n + 1)
    _ladder_right(right, 0, n)
    labels = tuple(f"x_{i}" for i in range(n + 1))
    return BimoduleSpec(sl2(), labels, right.columns,
                        _ActionBuilder(n + 1).columns)


def bimodule_m1(n: int) -> BimoduleSpec:
    """Two-summand indecomposable bimodule whose x-summand carries the
    coupled left action:

        [x_i,h] = (n-2i)x_i          [h,x_i] = -(n-2i)x_i - 2i y_{i-1}
        [x_i,f] = x_{i+1}            [f,x_i] = -x_{i+1} + y_i
        [x_i,e] = -i(n-i+1)x_{i-1}   [e,x_i] = i(n-i+1)x_{i-1} + i(i-1)y_{i-2}

    with the y-summand (dimension n-1) acted on only from the right by the
    standard ladder of highest weight n-2.
    """
    if n < 2:
        raise ValueError("need n >= 2 so both summands are nonempty")
    dim = (n + 1) + (n - 1)
    oy = n + 1  # y-block offset
    right = _ActionBuilder(dim)
    left = _ActionBuilder(dim)
    _ladder_right(right, 0, n)
    _ladder_right(right, oy, n - 2)
    for i in range(n + 1):
        left.add(H, i, i, -(n - 2 * i))
        if i - 1 <= n - 2:
            left.add(H, oy + i - 1, i, -2 * i)
        if i + 1 <= n:   # x_{n+1} is zero, not the next block
            left.add(F, i + 1, i, -1)
        if i <= n - 2:
            left.add(F, oy + i, i, 1)
        left.add(E, i - 1, i, i * (n - i + 1))
        left.add(E, oy + i - 2, i, i * (i - 1))
    labels = tuple(f"x_{i}" for i in range(n + 1)) + \
        tuple(f"y_{j}" for j in range(n - 1))
    spec = BimoduleSpec(sl2(), labels, right.columns, left.columns)
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
    only from the right.
    """
    if n < 2:
        raise ValueError("need n >= 2 so both summands are nonempty")
    dim = (n + 1) + (n - 1)
    oy = n + 1
    right = _ActionBuilder(dim)
    left = _ActionBuilder(dim)
    _ladder_right(right, 0, n)
    _ladder_right(right, oy, n - 2)
    for j in range(n - 1):
        left.add(H, j + 1, oy + j, 2 * (n - j - 1))
        left.add(H, oy + j, oy + j, -(n - 2 * j - 2))
        left.add(F, j + 2, oy + j, 1)
        if j + 1 <= n - 2:
            left.add(F, oy + j + 1, oy + j, -1)
        left.add(E, j, oy + j, (n - j - 1) * (n - j))
        left.add(E, oy + j - 1, oy + j, (n - j - 1) * j)
    labels = tuple(f"x_{i}" for i in range(n + 1)) + \
        tuple(f"y_{j}" for j in range(n - 1))
    spec = BimoduleSpec(sl2(), labels, right.columns, left.columns)
    _validate(spec, f"m2:{n}")
    return spec


def _validate(spec: BimoduleSpec, name: str) -> None:
    report = check_bimodule_axioms(spec)
    if not report.ok:
        raise ValueError(
            f"internal error: repaired table {name} violates the bimodule "
            f"axioms:\n{report.describe(limit=5)}")
