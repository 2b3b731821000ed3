"""Dyadic grids on the unit cube.

A grid function is a piecewise-constant function on ``[0, 1)^n`` (``n`` in
{1, 2}) given by one value per dyadic cell at a fixed depth ``L``.  The
``2**(n*L)`` cells are stored row-major: along axis 0 for ``n == 1``, and with
axis 0 slowest for ``n == 2``.  Dyadic cubes of every level ``0 <= l <= L``
are half-open boxes ``prod_a [c_a * 2**-l, (c_a + 1) * 2**-l)`` addressed by
:class:`CubeId`.

Exact cube integrals and monomial moments are served from prefix-sum tables
(:class:`MomentTable`), so every quantity here is a finite sum evaluated in
float64 -- no quadrature error beyond roundoff.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "CubeId",
    "GridFunction",
    "MomentTable",
    "average",
    "children",
    "moment",
    "iter_cubes",
    "cube_index",
    "level_offsets",
    "cube_measures",
    "tree_size",
    "multi_indices",
]

# Moments are tabulated for all multi-indices with |alpha| <= MAX_MOMENT_ORDER,
# which covers Gram/right-hand-side data for polynomial fits of degree <= 2.
MAX_MOMENT_ORDER = 4

_MAX_CELLS = 1 << 22  # hard guard against accidental huge allocations


@dataclass(frozen=True, order=True)
class CubeId:
    """A dyadic cube: ``level`` halvings, integer corner coordinates.

    ``coords`` has one entry per axis, each in ``range(2**level)``.  The cube
    is ``prod_a [coords[a] * 2**-level, (coords[a] + 1) * 2**-level)``.
    """

    level: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"cube level must be >= 0, got {self.level}")
        if not self.coords:
            raise ValueError("cube coords must have at least one axis")
        side_count = 1 << self.level
        for c in self.coords:
            if not 0 <= c < side_count:
                raise ValueError(
                    f"coordinate {c} out of range for level {self.level} "
                    f"(need 0 <= c < {side_count})"
                )

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def side(self) -> float:
        return 2.0 ** -self.level

    @property
    def measure(self) -> float:
        return 2.0 ** (-self.level * self.dimension)

    @property
    def lower(self) -> tuple[float, ...]:
        return tuple(c * self.side for c in self.coords)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((c + 0.5) * self.side for c in self.coords)

    def parent(self) -> CubeId:
        if self.level == 0:
            raise ValueError("the root cube [0,1)^n has no parent")
        return CubeId(self.level - 1, tuple(c >> 1 for c in self.coords))

    def ancestor(self, level: int) -> CubeId:
        """The unique ancestor at a coarser (or equal) ``level``."""
        if not 0 <= level <= self.level:
            raise ValueError(
                f"ancestor level must lie in [0, {self.level}], got {level}"
            )
        shift = self.level - level
        return CubeId(level, tuple(c >> shift for c in self.coords))

    def contains(self, other: CubeId) -> bool:
        """Dyadic containment: ``other`` is a (not necessarily strict) descendant."""
        if other.dimension != self.dimension:
            raise ValueError("cubes live in different dimensions")
        if other.level < self.level:
            return False
        return other.ancestor(self.level) == self


def children(cube: CubeId, depth: int | None = None) -> list[CubeId]:
    """The ``2**n`` dyadic children, row-major (axis 0 slowest).

    With a grid ``depth`` given, raises ``ValueError`` for cells at the
    finest level, which have no children inside that grid.
    """
    if depth is not None and cube.level >= depth:
        raise ValueError("finest level has no children")
    base = tuple(c << 1 for c in cube.coords)
    offs = itertools.product((0, 1), repeat=cube.dimension)
    return [CubeId(cube.level + 1, tuple(b + o for b, o in zip(base, off)))
            for off in offs]


def tree_size(depth: int, dimension: int) -> int:
    """Number of dyadic cubes of levels ``0..depth``."""
    return sum(1 << (dimension * l) for l in range(depth + 1))


def level_offsets(depth: int, dimension: int) -> np.ndarray:
    """Breadth-first index of the first cube of each level ``0..depth``,
    followed by ``tree_size(depth, dimension)``."""
    return np.cumsum([0] + [1 << (dimension * l) for l in range(depth + 1)])


def cube_measures(depth: int, dimension: int) -> np.ndarray:
    """``|Q|`` of every cube in breadth-first order."""
    return np.concatenate([
        np.full(1 << (dimension * lvl), 2.0 ** (-dimension * lvl))
        for lvl in range(depth + 1)
    ])


def iter_cubes(depth: int, dimension: int):
    """All cubes in breadth-first order: by level, then row-major coords."""
    for level in range(depth + 1):
        side = 1 << level
        for coords in itertools.product(range(side), repeat=dimension):
            yield CubeId(level, coords)


def cube_index(cube: CubeId, dimension: int) -> int:
    """Position of ``cube`` in the breadth-first order of :func:`iter_cubes`."""
    offset = sum(1 << (dimension * l) for l in range(cube.level))
    rank = 0
    side = 1 << cube.level
    for c in cube.coords:
        rank = rank * side + c
    return offset + rank


def multi_indices(dimension: int, max_total: int) -> list[tuple[int, ...]]:
    """Multi-indices ``alpha`` with ``|alpha| <= max_total``, graded order."""
    out = [
        alpha
        for alpha in itertools.product(range(max_total + 1), repeat=dimension)
        if sum(alpha) <= max_total
    ]
    out.sort(key=lambda a: (sum(a), a))
    return out


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function on ``[0,1)^n`` at dyadic depth ``depth``."""

    dimension: int
    depth: int
    values: np.ndarray
    # derived data, built on first use: never passed in, so a new
    # ``values`` (``dataclasses.replace``) never inherits them
    _moment_table: "MomentTable | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _error_levels: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        n_cells = 1 << (self.dimension * self.depth)
        if n_cells > _MAX_CELLS:
            raise ValueError(
                f"grid would need {n_cells} cells (limit {_MAX_CELLS}); "
                "reduce the depth"
            )
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == self.dimension and self.dimension == 2:
            values = values.ravel()
        if values.ndim != 1 or values.size != n_cells:
            raise ValueError(
                f"need {n_cells} cell values for dimension {self.dimension} "
                f"at depth {self.depth}, got array of shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("cell values must all be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_json(cls, text: str | bytes) -> GridFunction:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"input is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("grid JSON must be an object with "
                             "'dimension', 'depth' and 'values'")
        missing = {"dimension", "depth", "values"} - payload.keys()
        if missing:
            raise ValueError(f"grid JSON is missing keys: {sorted(missing)}")
        dim, depth = payload["dimension"], payload["depth"]
        # bool is a subclass of int, but true/false are not sizes
        if any(not isinstance(v, int) or isinstance(v, bool)
               for v in (dim, depth)):
            raise ValueError("'dimension' and 'depth' must be integers")
        values = payload["values"]
        if not isinstance(values, list):
            raise ValueError("'values' must be a flat list of numbers")
        return cls(dim, depth, np.asarray(values, dtype=np.float64))

    @classmethod
    def from_file(cls, path: str | Path) -> GridFunction:
        return cls.from_json(Path(path).read_text())

    def to_json(self) -> str:
        payload = {
            "dimension": self.dimension,
            "depth": self.depth,
            "values": self.values.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    # -- geometry ----------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.values.size

    @property
    def cell_measure(self) -> float:
        return 2.0 ** (-self.dimension * self.depth)

    @property
    def values_nd(self) -> np.ndarray:
        side = 1 << self.depth
        return self.values.reshape((side,) * self.dimension)

    def check_cube(self, cube: CubeId) -> None:
        if cube.dimension != self.dimension:
            raise ValueError(
                f"cube has dimension {cube.dimension}, grid has {self.dimension}"
            )
        if cube.level > self.depth:
            raise ValueError(
                f"cube level {cube.level} is finer than grid depth {self.depth}"
            )

    def cell_block(self, cube: CubeId) -> np.ndarray:
        """Read-only view of the finest-level cell values inside ``cube``."""
        self.check_cube(cube)
        s = 1 << (self.depth - cube.level)
        nd = self.values_nd
        sl = tuple(slice(c * s, (c + 1) * s) for c in cube.coords)
        return nd[sl]

    def cube_values(self, cube: CubeId) -> np.ndarray:
        return self.cell_block(cube).ravel()

    # -- calculus ----------------------------------------------------------

    def moments(self) -> MomentTable:
        """Shared prefix-sum table; built on first use."""
        if self._moment_table is None:
            object.__setattr__(self, "_moment_table", MomentTable(self))
        return self._moment_table

    def integral(self, cube: CubeId | None = None) -> float:
        return self.moments().integral(cube or _root(self.dimension))

    def with_values(self, values: np.ndarray) -> GridFunction:
        return GridFunction(self.dimension, self.depth, values)


def _root(dimension: int) -> CubeId:
    return CubeId(0, (0,) * dimension)


def average(f: GridFunction, cube: CubeId) -> float:
    """Mean value of ``f`` over ``cube`` (exact cell-count average)."""
    return f.moments().integral(cube) / cube.measure


def moment(f: GridFunction, cube: CubeId, alpha: tuple[int, ...]) -> float:
    """Exact ``integral_cube f(x) x^alpha dx`` for ``|alpha| <= 4``."""
    return f.moments().moment(cube, alpha)


class MomentTable:
    """Prefix sums of cell integrals of ``f``, ``f * x^alpha``, ``|f|``, ``f^2``.

    Any dyadic cube is a rectangle of finest cells, so each cube quantity is
    an O(1) inclusion-exclusion of a prefix array.  Monomial factors per cell
    are exact: ``int_a^b x^m dx = (b**(m+1) - a**(m+1)) / (m+1)``.
    """

    def __init__(self, f: GridFunction, max_total_order: int = MAX_MOMENT_ORDER):
        self.dimension = f.dimension
        self.depth = f.depth
        self.max_total_order = max_total_order
        n = f.dimension
        side = 1 << f.depth
        v = f.values_nd

        edges = np.arange(side + 1, dtype=np.float64) / side
        # axis_factor[m][i] = integral over cell i of x^m, one axis
        axis_factor = [
            (edges[1:] ** (m + 1) - edges[:-1] ** (m + 1)) / (m + 1)
            for m in range(max_total_order + 1)
        ]

        cell_meas = 2.0 ** (-n * f.depth)
        alphas = multi_indices(n, max_total_order)
        # one stack: f^2, then f x^alpha in graded order, so the data of the
        # L2 fits up to any degree is a leading slice
        self._row = {alpha: i for i, alpha in enumerate(alphas, start=1)}
        self._prefix = np.empty((1 + len(alphas),) + (side + 1,) * n)
        self._prefix[0] = _prefix_sum(v * v * cell_meas)
        for alpha, i in self._row.items():
            if n == 1:
                weights = axis_factor[alpha[0]]
            else:
                weights = np.multiply.outer(axis_factor[alpha[0]],
                                            axis_factor[alpha[1]])
            self._prefix[i] = _prefix_sum(v * weights)
        self._prefix_abs = _prefix_sum(np.abs(v) * cell_meas)
        self._grid = f

    def _rect(self, cube: CubeId) -> tuple[tuple[int, int], ...]:
        self._grid.check_cube(cube)
        s = 1 << (self.depth - cube.level)
        return tuple((c * s, (c + 1) * s) for c in cube.coords)

    def moment(self, cube: CubeId, alpha: tuple[int, ...]) -> float:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dimension:
            raise ValueError(
                f"multi-index {alpha} has {len(alpha)} axes, grid has "
                f"{self.dimension}"
            )
        if any(a < 0 for a in alpha):
            raise ValueError(f"multi-index must be nonnegative, got {alpha}")
        if sum(alpha) > self.max_total_order:
            raise ValueError(
                f"moment order {sum(alpha)} exceeds the tabulated maximum "
                f"{self.max_total_order}"
            )
        return _rect_sum(self._prefix[self._row[alpha]], self._rect(cube))

    def level_l2_sums(self, level: int, max_total: int,
                      coords: np.ndarray | None = None) -> np.ndarray:
        """The data of L2 fits on cubes ``Q`` of one ``level``.

        Row 0 is ``integral_Q f^2 dx``, row ``1 + i`` is
        ``integral_Q f(x) x^alpha dx`` for the ``i``-th ``alpha`` of
        ``multi_indices(n, max_total)``.  Columns are cubes: ``coords``
        (shape ``(m, n)``, entries in ``range(2**level)``) picks them, by
        default every cube of the level in breadth-first order.  Each entry
        equals the scalar lookup bit for bit.
        """
        if not 0 <= max_total <= self.max_total_order:
            raise ValueError(
                f"moment order {max_total} outside the tabulated range "
                f"0..{self.max_total_order}"
            )
        if not 0 <= level <= self.depth:
            raise ValueError(f"level must lie in [0, {self.depth}], got {level}")
        n = self.dimension
        prefix = self._prefix[:1 + math.comb(max_total + n, n)]
        s = 1 << (self.depth - level)
        if coords is None:
            prefix = prefix[(...,) + (slice(None, None, s),) * n]
            lo, hi = [slice(None, -1)] * n, [slice(1, None)] * n
        else:
            lo = [coords[:, ax] * s for ax in range(n)]
            hi = [i + s for i in lo]
        if n == 1:
            return prefix[..., hi[0]] - prefix[..., lo[0]]
        (i0, j0), (i1, j1) = lo, hi
        out = (prefix[..., i1, j1] - prefix[..., i0, j1]
               - prefix[..., i1, j0] + prefix[..., i0, j0])
        return out.reshape(len(prefix), -1)

    def integral(self, cube: CubeId) -> float:
        return self.moment(cube, (0,) * self.dimension)

    def abs_integral(self, cube: CubeId) -> float:
        """``integral_cube |f| dx``."""
        return _rect_sum(self._prefix_abs, self._rect(cube))

    def square_integral(self, cube: CubeId) -> float:
        """``integral_cube f^2 dx``."""
        return _rect_sum(self._prefix[0], self._rect(cube))

    def abs_pow_integral(self, cube: CubeId, q: int) -> float:
        """``integral_cube |f|^q dx`` for q in {1, 2}."""
        if q == 1:
            return self.abs_integral(cube)
        if q == 2:
            return self.square_integral(cube)
        raise ValueError(f"q must be 1 or 2, got {q}")


def _prefix_sum(a: np.ndarray) -> np.ndarray:
    """Zero-padded cumulative sum over every axis."""
    out = a
    for axis in range(a.ndim):
        out = np.cumsum(out, axis=axis)
    padded = np.zeros(tuple(s + 1 for s in out.shape))
    padded[(slice(1, None),) * a.ndim] = out
    return padded


def _rect_sum(prefix: np.ndarray, rect: tuple[tuple[int, int], ...]) -> float:
    if len(rect) == 1:
        (i0, i1), = rect
        return float(prefix[i1] - prefix[i0])
    (i0, i1), (j0, j1) = rect
    return float(prefix[i1, j1] - prefix[i0, j1] - prefix[i1, j0] + prefix[i0, j0])
