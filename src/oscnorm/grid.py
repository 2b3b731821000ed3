"""Dyadic grids on the unit cube.

A grid function is a piecewise-constant function on ``[0, 1)^n`` (``n`` in
{1, 2}) given by one value per dyadic cell at a fixed depth ``L``.  The
``2**(n*L)`` cells are stored row-major: along axis 0 for ``n == 1``, and with
axis 0 slowest for ``n == 2``.  Dyadic cubes of every level ``0 <= l <= L``
are half-open boxes ``prod_a [c_a * 2**-l, (c_a + 1) * 2**-l)`` addressed by
:class:`CubeId`.

Cube integrals and monomial moments are direct sums over the cube's cells,
so every quantity here is a finite sum evaluated in float64 -- no
quadrature error beyond roundoff.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

__all__ = [
    "CubeId",
    "GridFunction",
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

_CELL_BITS = 22
_MAX_CELLS = 1 << _CELL_BITS  # hard guard against accidental huge allocations


def _check_cells(dimension: int, depth: int, grids: int = 1) -> int:
    """The ``2**(dimension * depth)`` cells of a grid, if ``grids`` such
    grids fit ``_MAX_CELLS``; the exponent is compared before any shift."""
    bits = dimension * depth
    if bits > _CELL_BITS or grids << bits > _MAX_CELLS:
        many = f"{grids} grids of " if grids > 1 else ""
        raise ValueError(f"dimension {dimension} at depth {depth} would need "
                         f"{many}2**{bits} cells (limit {_MAX_CELLS})")
    return 1 << bits


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


def _halves(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and the second half of every cube along the trailing axis
    ``axis`` (negative) of a level grid: two strided views."""
    tail = (slice(None),) * (-1 - axis)
    return tuple(a[(..., slice(i, None, 2), *tail)] for i in (0, 1))


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

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        n_cells = _check_cells(self.dimension, self.depth)
        values = np.asarray(self.values, dtype=np.float64)
        if self.dimension == 2 and values.shape == (1 << self.depth,) * 2:
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
        """Read ``{"dimension": n, "depth": L, "values": [...]}``.

        ``values`` holds JSON numbers only, as one flat list or, for
        ``n == 2``, as a list of rows.  orjson rounds every decimal to the
        nearest double, as ``json.loads`` does, and refuses ``NaN``,
        ``Infinity`` and numbers that overflow a double as invalid JSON.

        Types are read off one ``np.array`` call, which infers the dtype: a
        float or signed-integer array of at most two axes holds numbers
        only, except that numpy folds ``true`` and ``false`` into it as 1
        and 0, so a grid with an entry equal to 0 or 1 has the type of
        every entry scanned for a bool as well.  Anything else (ragged
        rows, strings, ``null``, bools alone, integers past ``int64``,
        deeper nesting) takes the exact per-entry checks, so each refusal
        keeps its message.
        """
        try:
            payload = orjson.loads(text)
        except orjson.JSONDecodeError as exc:
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
        not_numbers = ("'values' must be a flat list of numbers, or a list "
                       "of rows of numbers")
        if not isinstance(values, list):
            raise ValueError(not_numbers)
        try:
            array = np.array(values)
        except ValueError:      # ragged nesting
            array = None
        if array is not None and array.dtype.kind in "fi" and array.ndim <= 2:
            # numpy reads true and false as 1 and 0
            if ((array == 0) | (array == 1)).any():
                cells = (values if array.ndim == 1
                         else itertools.chain.from_iterable(values))
                if bool in set(map(type, cells)):
                    raise ValueError(not_numbers)
            return cls(dim, depth, array)
        kinds = set(map(type, values))
        if kinds == {list}:     # rows of a 2-D grid
            if len(set(map(len, values))) != 1:
                raise ValueError("the rows of 'values' differ in length")
            kinds = set(map(type, itertools.chain.from_iterable(values)))
        # exact types: bool is an int, and strings and null are not numbers
        if not kinds <= {float, int}:
            raise ValueError(not_numbers)
        return cls(dim, depth, np.asarray(values, dtype=np.float64))

    @classmethod
    def from_file(cls, path: str | Path) -> GridFunction:
        return cls.from_json(Path(path).read_bytes())

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

    def integral(self, cube: CubeId | None = None) -> float:
        block = self.cell_block(cube or _root(self.dimension))
        return float(block.sum()) * self.cell_measure


def _root(dimension: int) -> CubeId:
    return CubeId(0, (0,) * dimension)


def average(f: GridFunction, cube: CubeId) -> float:
    """Mean value of ``f`` over ``cube`` (exact cell-count average)."""
    return f.integral(cube) / cube.measure


def moment(f: GridFunction, cube: CubeId, alpha: tuple[int, ...]) -> float:
    """``integral_cube f(x) x^alpha dx``, summed over the cube's cells.

    Monomial factors per cell are
    ``int_a^b x^m dx = (b - a) * sum_j a^j b^(m-j) / (m+1)``: on
    ``[0, 1)`` every term is ``>= 0``, so nothing cancels.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != f.dimension:
        raise ValueError(
            f"multi-index {alpha} has {len(alpha)} axes, grid has "
            f"{f.dimension}"
        )
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index must be nonnegative, got {alpha}")
    block = f.cell_block(cube)
    weights = 1.0
    for c, m, cells in zip(cube.coords, alpha, block.shape):
        edges = np.arange(c * cells, (c + 1) * cells + 1) / (1 << f.depth)
        a, b = edges[:-1], edges[1:]
        w = (b - a) * sum(a ** j * b ** (m - j)
                          for j in range(m + 1)) / (m + 1)
        weights = np.multiply.outer(weights, w)
    return float((block * weights).sum())


def _unit_moment(m: int) -> float:
    """``integral_{-1/2}^{1/2} u^m du``."""
    return 0.0 if m % 2 else 0.5 ** m / (m + 1)


# kept for its name alone: perfbench/tracer.py binds
# ``oscnorm.grid.MomentTable``; nothing in the library calls it
MomentTable = moment
