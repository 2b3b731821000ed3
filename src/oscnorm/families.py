"""Families of dyadic cubes: packings and sparse classes.

A *packing* is an antichain: pairwise non-nested cubes.  A family is *sparse
of order* ``t`` in (0, 1] when for every member ``Q`` its family-children
(maximal members strictly inside ``Q``) satisfy

    sum over children Q' of |Q'|^t  <=  (1/2) |Q|^t

A class is named by ``"packing"`` or by its order.  Weak sparseness (each
core set ``E_Q = Q minus union(children)`` keeps at least half the measure,
``|E_Q| >= |Q|/2``) is order-1 sparseness: children are disjoint, so
``sum |Q'| <= |Q|/2`` iff ``|E_Q| >= |Q|/2``.  Packings are sparse of every
order (no children at all).

Families are arrays over the breadth-first cube numbering of
:func:`~oscnorm.grid.cube_index`: member numbers, the position of each
member's nearest member ancestor, and integer core cell counts.  One
classifier decides every class: a top-down sweep over the levels finds
every member's nearest member ancestor, child sums follow by
``np.bincount``, and the conditions are checked per member.  It runs on any
number of member sets at once, each a row: :func:`validate_index` is the
one-row call, :func:`checked` the one-row call for a family the library
built, which raises where that family breaks its class, and
:func:`family_tables` classifies every nonempty subset of a tree that
:func:`enumerable` admits (at most ``SUBSET_NODE_CAP`` nodes) in a single
call, giving the cached measure matrices behind the exhaustive norm
evaluators.  The Calderon-Zygmund stopping time (:func:`cz_family`) is a
level sweep over dyadic averages; :class:`CubeId` appears only at the API
and JSON edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grid import (CubeId, GridFunction, cube_index, cube_measures, iter_cubes,
                   level_offsets, tree_size)
from .maximal import level_integrals, refine

__all__ = [
    "CubeFamily",
    "SparsityViolation",
    "validate",
    "validate_index",
    "checked",
    "finest_family",
    "cz_family",
    "family_tables",
    "enumerable",
    "SUBSET_NODE_CAP",
]

COMPARE_TOL = 1e-12
SUBSET_NODE_CAP = 15    # tree nodes up to which every subset is classified


@dataclass(frozen=True, eq=False)
class CubeFamily:
    """A validated family, stored as arrays in breadth-first cube order.

    ``index`` holds the members' breadth-first cube numbers, ascending and
    distinct.  ``parent[i]`` is the position in ``index`` of the smallest
    member strictly containing member ``i``, or -1; the members whose parent
    is ``i`` are the family-children of member ``i``.  ``core_counts[i]`` is
    the number of finest cells in its core set ``E_Q``: the cells of ``Q``
    minus those of its children.  Core sets are pairwise disjoint by
    construction.  ``kind`` is ``"packing"`` when ``order`` is ``None``,
    else ``"sparse"``.

    ``cubes``, ``children_map[Q]`` (the maximal members strictly inside
    ``Q``) and ``core_cells[Q]`` (the flat finest-cell indices of ``E_Q``)
    present the same data keyed by :class:`CubeId`; each is built on first
    access.
    """

    dimension: int
    depth: int
    order: float | None
    index: np.ndarray
    parent: np.ndarray
    core_counts: np.ndarray

    @property
    def kind(self) -> str:
        return "packing" if self.order is None else "sparse"

    @cached_property
    def cubes(self) -> tuple[CubeId, ...]:
        level, coords = _levels_coords(self.index, self.dimension, self.depth)
        return tuple(CubeId(lvl, tuple(c))
                     for lvl, c in zip(level.tolist(), coords.tolist()))

    @cached_property
    def children_map(self) -> dict[CubeId, tuple[CubeId, ...]]:
        kids: dict[CubeId, list[CubeId]] = {c: [] for c in self.cubes}
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                kids[self.cubes[p]].append(self.cubes[i])
        return {c: tuple(k) for c, k in kids.items()}

    @cached_property
    def core_cells(self) -> dict[CubeId, tuple[int, ...]]:
        _, (owner,) = _sweep(np.zeros_like(self.index), self.index, 1,
                             self.dimension, self.depth, self.depth)
        # cells grouped by owning member, ascending within each group
        cells = np.argsort(owner, kind="stable")[np.count_nonzero(owner < 0):]
        split = np.split(cells, np.cumsum(self.core_counts)[:-1])
        return {c: tuple(s.tolist()) for c, s in zip(self.cubes, split)}

    @cached_property
    def _position(self) -> dict[CubeId, int]:
        return {c: i for i, c in enumerate(self.cubes)}

    def core_measure(self, cube: CubeId) -> float:
        count = int(self.core_counts[self._position[cube]])
        return count * 2.0 ** (-self.dimension * self.depth)

    def to_json_dict(self) -> dict:
        level, coords = _levels_coords(self.index, self.dimension, self.depth)
        return {
            "kind": self.kind,
            "order": self.order,
            "cubes": [{"level": lvl, "coords": c}
                      for lvl, c in zip(level.tolist(), coords.tolist())],
        }

    def json_cubes(self, indent: int) -> str:
        """The ``cubes`` list of :meth:`to_json_dict` as ``json.dumps(...,
        indent=2)`` writes it after a key on a line indented by ``indent``
        spaces, rendered from the member arrays: one ``%d`` template per
        cube, filled from one flat list of ints."""
        if not self.index.size:
            return "[]"
        level, coords = _levels_coords(self.index, self.dimension, self.depth)
        pad = " " * (indent + 2)
        cube = (f'{pad}{{\n{pad}  "coords": [\n'
                + ",\n".join([f"{pad}    %d"] * self.dimension)
                + f'\n{pad}  ],\n{pad}  "level": %d\n{pad}}}')
        ints = np.column_stack((coords, level)).ravel().tolist()
        body = ",\n".join([cube] * self.index.size) % tuple(ints)
        return f"[\n{body}\n{' ' * indent}]"


@dataclass(frozen=True)
class SparsityViolation:
    """First cube breaking the requested condition, with both sides."""

    cube: CubeId
    condition: str
    lhs: float
    rhs: float

    def __str__(self) -> str:
        return (f"{self.condition} fails at {self.cube}: "
                f"{self.lhs:.12g} > {self.rhs:.12g}")


def _levels_coords(index: np.ndarray, dimension: int,
                   depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels ``(m,)`` and corner coordinates ``(m, dimension)`` of
    breadth-first cube numbers."""
    offsets = level_offsets(depth, dimension)
    level = np.searchsorted(offsets, index, side="right") - 1
    rank = index - offsets[level]
    coords = (rank[:, None] if dimension == 1 else
              np.stack([rank >> level, rank & ((1 << level) - 1)], axis=1))
    return level, coords


def _sweep(rows: np.ndarray, index: np.ndarray, n_rows: int, dimension: int,
           depth: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """One top-down pass over levels ``0..stop`` carrying, for every row and
    every cube, the position of the deepest member of that row containing it
    (-1 for none).

    Member ``i`` is cube ``index[i]`` of row ``rows[i]``; ``index`` is
    ascending, and a row lists each cube at most once.  Returns each
    member's parent position (the nearest member of its row strictly
    containing it; members must lie at levels ``<= stop``) and the carried
    map at level ``stop``, ``(n_rows, cells)`` with the cells flat row-major.
    The map is indexed by flat keys ``row * cells + rank``.  It holds only
    -1 down to the first member's level, so the pass starts there and the
    members of that level have no parent.
    """
    offsets = level_offsets(depth, dimension)
    bounds = np.searchsorted(index, offsets)
    first = int(np.searchsorted(offsets, index[0], side="right")) - 1
    parent = np.full(index.size, -1, dtype=np.int64)
    near = np.full((n_rows,) + (1 << first,) * dimension, -1, dtype=np.int64)
    for lvl in range(first, stop + 1):
        if lvl > first:
            near = refine(near, dimension)
        lo, hi = bounds[lvl], bounds[lvl + 1]
        if lo < hi:
            flat = near.reshape(-1)          # a view: writes land in near
            key = rows[lo:hi] << (dimension * lvl)
            key += index[lo:hi]
            key -= offsets[lvl]
            if lvl > first:
                parent[lo:hi] = flat[key]
            flat[key] = np.arange(lo, hi)
    return parent, near.reshape(n_rows, -1)


def _classify(rows: np.ndarray, index: np.ndarray, n_rows: int, order,
              dimension: int, depth: int) -> tuple[np.ndarray, ...]:
    """The class condition for every member of every row at once.

    Members are laid out as for :func:`_sweep`.  Children and their measure
    sums come from ``np.bincount`` over the members in order, so each
    member's children are summed in breadth-first order, as a loop over a
    row's members would.  Returns the parent positions, the core cell counts
    and, per member, whether it breaks the condition of ``order`` with the
    two sides of that condition.
    """
    n, m = dimension, index.size
    per_level = np.diff(np.searchsorted(index, level_offsets(depth, n)))
    level = np.repeat(np.arange(depth + 1), per_level)
    parent, _ = _sweep(rows, index, n_rows, n, depth, int(level[-1]))
    has = parent >= 0
    kids = parent[has]
    size = np.left_shift(1, n * (depth - np.arange(depth + 1)))[level]
    core = size - np.bincount(kids, weights=size[has],
                              minlength=m).astype(np.int64)
    meas = [2.0 ** (-n * lvl) for lvl in range(depth + 1)]
    if order == "packing":
        lhs = np.bincount(kids, minlength=m)     # children per member
        rhs = np.zeros(m)
        bad = core < size                        # any children at all
    else:
        pw = np.array([mu ** float(order) for mu in meas])[level]
        lhs = np.bincount(kids, weights=pw[has], minlength=m)
        rhs = 0.5 * pw
        bad = lhs > rhs + COMPARE_TOL
    return parent, core, bad, lhs, rhs


def validate(family, order, *, dimension: int,
             depth: int) -> CubeFamily | SparsityViolation:
    """Classify a set of cubes, or report the first violating cube.

    ``order`` is a sparseness order in (0, 1], or ``"packing"``.  Measures
    are powers of two, so the fractional-power sums are compared in
    floating point with a 1e-12 tolerance.  "First" is the breadth-first
    cube order.
    """
    cubes = list(family)
    for c in cubes:
        if c.dimension != dimension:
            raise ValueError(f"cube {c} does not match dimension {dimension}")
        if c.level > depth:
            raise ValueError(f"cube {c} is finer than depth {depth}")
    index = np.unique(np.array([cube_index(c, dimension) for c in cubes],
                               dtype=np.int64))
    return validate_index(index, order, dimension=dimension, depth=depth)


def _class_of(order) -> tuple[str, float | None]:
    """The condition's wording and the numeric order of a class:
    ``"packing"`` or a sparseness order, a number in ``(0, 1]``."""
    if order == "packing":
        return "packing (pairwise non-nested)", None
    if isinstance(order, (str, bool)) or not 0.0 < float(order) <= 1.0:
        raise ValueError(f"sparseness order must lie in (0, 1], got {order}")
    return f"sparse(order {float(order):g})", float(order)


def validate_index(index: np.ndarray, order, *, dimension: int,
                   depth: int) -> CubeFamily | SparsityViolation:
    """:func:`validate` for a nonempty family given as ascending, distinct
    breadth-first cube numbers (an int64 array), with no per-cube objects:
    the one-row call of the family classifier."""
    condition, order_val = _class_of(order)
    nodes = tree_size(depth, dimension)
    if not (isinstance(index, np.ndarray) and index.ndim == 1
            and index.dtype.kind == "i" and index.size and index[0] >= 0
            and index[-1] < nodes and (index[1:] > index[:-1]).all()):
        raise ValueError("a cube family must be a nonempty 1-D signed "
                         "integer array of strictly ascending cube numbers "
                         f"in [0, {nodes})")
    one_row = np.broadcast_to(np.int64(0), index.shape)   # no allocation
    parent, core, bad, lhs, rhs = _classify(one_row, index, 1, order,
                                            dimension, depth)
    if bad.any():
        i = int(bad.argmax())
        level, coords = _levels_coords(index[i:i + 1], dimension, depth)
        lvl = int(level[0])
        return SparsityViolation(CubeId(lvl, tuple(coords[0].tolist())),
                                 condition, float(lhs[i]), float(rhs[i]))
    return CubeFamily(dimension, depth, order_val, index, parent, core)


def checked(index: np.ndarray, order, *, dimension: int,
            depth: int) -> CubeFamily:
    """:func:`validate_index` for a family the library built to lie in its
    class: the family, or a one-line ``ValueError`` carrying the violation
    where it does not."""
    result = validate_index(index, order, dimension=dimension, depth=depth)
    if isinstance(result, SparsityViolation):
        raise ValueError(f"a built family breaks its class: {result}")
    return result


def finest_family(dimension: int, depth: int, order) -> CubeFamily:
    """The finest level as :func:`validate_index` returns it at ``order``,
    built without the classifier: no finest cube contains another, so each
    member has no parent and its own cell as its core set."""
    _, order_val = _class_of(order)
    offsets = level_offsets(depth, dimension)
    index = np.arange(offsets[depth], offsets[depth + 1])
    ones = np.ones_like(index)
    return CubeFamily(dimension, depth, order_val, index, -ones, ones)


# -- Calderon-Zygmund stopping time ------------------------------------------

def cz_family(g: GridFunction, factor: float = 2.0) -> CubeFamily:
    """Stopping-time family of a nonnegative density.

    Starting from the root, each selected cube ``Q`` recruits the maximal
    dyadic ``Q' != Q`` inside it whose average strictly exceeds
    ``factor * average(g, Q)``, then recurses.  Chebyshev gives
    ``sum |Q'| < |Q| / factor``, so ``factor >= 2`` lands in sparse(1);
    a factor in ``(1, 2)`` need not, and :func:`checked` refuses such a
    result.

    A cube is selected exactly when its average beats ``factor`` times the
    average of its nearest selected ancestor, so one top-down sweep over the
    level averages, carrying that threshold, finds every member (Lerner and
    Nazarov, *Intuitive dyadic calculus*, section 6).
    """
    if factor <= 1.0:
        raise ValueError(f"stopping factor must exceed 1, got {factor}")
    if np.any(g.values < 0):
        raise ValueError("stopping-time construction needs a nonnegative density")
    n, depth = g.dimension, g.depth
    integrals = level_integrals(g.values_nd * g.cell_measure, n, depth)
    offsets = level_offsets(depth, n)
    picks = []
    thr = np.full((1,) * n, -np.inf)      # the root is always selected
    for lvl, avg in enumerate(integrals):
        avg /= 2.0 ** (-n * lvl)
        if lvl:
            thr = refine(thr, n)
        sel = avg > thr
        np.multiply(avg, factor, out=thr, where=sel)
        picks.append(np.flatnonzero(sel) + offsets[lvl])
    del integrals, avg, thr, sel    # freed before the classifier allocates
    return checked(np.concatenate(picks), 1.0, dimension=n, depth=depth)


# -- cached family tables for vectorised oracles ------------------------------

def enumerable(dimension: int, depth: int) -> bool:
    """Whether every subset of the cube tree can be enumerated: the tree
    has at most ``SUBSET_NODE_CAP`` nodes."""
    return tree_size(depth, dimension) <= SUBSET_NODE_CAP


@dataclass(frozen=True)
class FamilyTables:
    """All valid families of one class as measure matrices.

    Row ``i`` describes family ``i``: ``core_meas[i, j]`` is ``|E_Q|`` when
    cube ``j`` (breadth-first numbering) is a member, else 0; ``cube_meas``
    likewise holds ``|Q|``.  ``masks`` keeps the member bitmasks so witnesses
    can be reconstructed.
    """

    dimension: int
    depth: int
    order: object
    masks: np.ndarray
    core_meas: np.ndarray
    cube_meas: np.ndarray

    def family_cubes(self, row: int) -> list[CubeId]:
        cubes = list(iter_cubes(self.depth, self.dimension))
        mask = int(self.masks[row])
        return [cubes[i] for i in range(len(cubes)) if mask >> i & 1]


@lru_cache(maxsize=32)
def family_tables(dimension: int, depth: int, order) -> FamilyTables:
    """Enumerate once, evaluate many times: every nonempty subset of an
    :func:`enumerable` tree is a row, and one classifier call keeps the
    rows of the requested class, in ascending mask order."""
    _class_of(order)      # refuse a bad order before enumerating anything
    nodes = tree_size(depth, dimension)
    if not enumerable(dimension, depth):
        raise ValueError(
            f"oracle scale exceeded: {nodes} nodes > {SUBSET_NODE_CAP}")
    masks = np.arange(1, 1 << nodes, dtype=np.int64)
    member = (masks >> np.arange(nodes)[:, None]) & 1      # (nodes, rows)
    index, rows = np.nonzero(member)     # by cube number, then by row
    _, core, bad, _, _ = _classify(rows, index, masks.size, order,
                                   dimension, depth)
    keep = np.ones(masks.size, dtype=bool)
    keep[rows[bad]] = False
    core_meas = np.zeros((masks.size, nodes))
    core_meas[rows, index] = core * 2.0 ** (-dimension * depth)
    cube_meas = member.T * cube_measures(depth, dimension)
    return FamilyTables(dimension, depth, order, masks[keep], core_meas[keep],
                        cube_meas[keep])
