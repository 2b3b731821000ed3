"""Families of dyadic cubes: packings, sparse, and weakly sparse classes.

A *packing* is an antichain: pairwise non-nested cubes.  A family is *sparse
of order* ``t`` in (0, 1] when for every member ``Q`` its family-children
(maximal members strictly inside ``Q``) satisfy

    sum over children Q' of |Q'|^t  <=  (1/2) |Q|^t

and *weakly sparse* when each core set ``E_Q = Q minus union(children)`` keeps
at least half the measure: ``|E_Q| >= |Q|/2``.  Order-1 sparseness implies
weak sparseness; packings are sparse of every order (no children at all).

Families are arrays over the breadth-first cube numbering of
:func:`~oscnorm.grid.cube_index`: member numbers, the position of each
member's nearest member ancestor, and integer core cell counts.  Validation
is one top-down sweep over the levels, and the Calderon-Zygmund stopping
time is a level sweep over dyadic averages; :class:`CubeId` appears only at
the API and JSON edge.

Alongside the object-level API (:func:`validate`, :func:`enumerate_families`,
:func:`cz_family`) this module provides the flat oracle machinery used by the
exhaustive norm evaluators: bitmask subset enumeration over the breadth-first
numbering (node counts <= 15), cached per-family measure matrices for
vectorised evaluation, and exhaustive antichain *value* tables via recursive
cross-sums (node counts <= 63, where streaming every antichain one by one
would be hopeless but the multiset of achievable totals is small).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grid import (CubeId, GridFunction, children, cube_index, iter_cubes,
                   level_offsets, tree_size)
from .maximal import level_integrals, refine

__all__ = [
    "CubeFamily",
    "SparsityViolation",
    "validate",
    "validate_index",
    "enumerate_families",
    "cz_family",
    "antichain_value_max",
]

COMPARE_TOL = 1e-12
_SUBSET_NODE_CAP = 15
_ANTICHAIN_NODE_CAP = 63
_VALUE_TABLE_CAP = 2_000_000


@dataclass(frozen=True, eq=False)
class CubeFamily:
    """A validated family, stored as arrays in breadth-first cube order.

    ``index`` holds the members' breadth-first cube numbers, ascending and
    distinct.  ``parent[i]`` is the position in ``index`` of the smallest
    member strictly containing member ``i``, or -1; the members whose parent
    is ``i`` are the family-children of member ``i``.  ``core_counts[i]`` is
    the number of finest cells in its core set ``E_Q``: the cells of ``Q``
    minus those of its children.  Core sets are pairwise disjoint by
    construction.

    ``cubes``, ``children_map[Q]`` (the maximal members strictly inside
    ``Q``) and ``core_cells[Q]`` (the flat finest-cell indices of ``E_Q``)
    present the same data keyed by :class:`CubeId`; each is built on first
    access.
    """

    dimension: int
    depth: int
    kind: str  # "packing" | "sparse" | "weakly_sparse"
    order: float | None
    index: np.ndarray
    parent: np.ndarray
    core_counts: np.ndarray

    @cached_property
    def cubes(self) -> tuple[CubeId, ...]:
        return tuple(CubeId(lvl, tuple(c)) for lvl, c in zip(
            *_levels_coords(self.index, self.dimension, self.depth)))

    @cached_property
    def children_map(self) -> dict[CubeId, tuple[CubeId, ...]]:
        kids: dict[CubeId, list[CubeId]] = {c: [] for c in self.cubes}
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                kids[self.cubes[p]].append(self.cubes[i])
        return {c: tuple(k) for c, k in kids.items()}

    @cached_property
    def core_cells(self) -> dict[CubeId, tuple[int, ...]]:
        _, owner = _sweep(self.index, self.dimension, self.depth, self.depth)
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
        return {
            "kind": self.kind,
            "order": self.order,
            "cubes": [{"level": lvl, "coords": c} for lvl, c in zip(
                *_levels_coords(self.index, self.dimension, self.depth))],
        }


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
                   depth: int) -> tuple[list[int], list[list[int]]]:
    """Levels and corner coordinates of breadth-first cube numbers, as
    Python lists."""
    offsets = level_offsets(depth, dimension)
    level = np.searchsorted(offsets, index, side="right") - 1
    rank = index - offsets[level]
    coords = (rank[:, None] if dimension == 1 else
              np.stack([rank >> level, rank & ((1 << level) - 1)], axis=1))
    return level.tolist(), coords.tolist()


def _sweep(index: np.ndarray, dimension: int, depth: int,
           stop: int) -> tuple[np.ndarray, np.ndarray]:
    """One top-down pass over levels ``0..stop`` carrying, for every cube,
    the position of the deepest member containing it (-1 for none).

    Returns each member's parent position (the nearest member strictly
    containing it; members must lie at levels ``<= stop``) and the carried
    map at level ``stop``, flat row-major.
    """
    offsets = level_offsets(depth, dimension)
    bounds = np.searchsorted(index, offsets)
    parent = np.full(index.size, -1, dtype=np.int64)
    near = np.full((1,) * dimension, -1, dtype=np.int64)
    for lvl in range(stop + 1):
        if lvl:
            near = refine(near, dimension)
        lo, hi = bounds[lvl], bounds[lvl + 1]
        if lo < hi:
            flat = near.reshape(-1)          # a view: writes land in near
            rank = index[lo:hi] - offsets[lvl]
            parent[lo:hi] = flat[rank]
            flat[rank] = np.arange(lo, hi)
    return parent, near.reshape(-1)


def validate(family, order, *, dimension: int,
             depth: int) -> CubeFamily | SparsityViolation:
    """Classify a set of cubes, or report the first violating cube.

    ``order`` is a sparseness order in (0, 1], or ``"packing"``, or
    ``"weak"``.  Measures are powers of two, so the fractional-power sums are
    compared in floating point with a 1e-12 tolerance.  "First" is the
    breadth-first cube order.
    """
    cubes = list(family)
    if not cubes:
        raise ValueError("a cube family must be nonempty")
    for c in cubes:
        if c.dimension != dimension:
            raise ValueError(f"cube {c} does not match dimension {dimension}")
        if c.level > depth:
            raise ValueError(f"cube {c} is finer than depth {depth}")
    index = np.unique(np.array([cube_index(c, dimension) for c in cubes],
                               dtype=np.int64))
    return validate_index(index, order, dimension=dimension, depth=depth)


def validate_index(index: np.ndarray, order, *, dimension: int,
                   depth: int) -> CubeFamily | SparsityViolation:
    """:func:`validate` for a nonempty family given as ascending, distinct
    breadth-first cube numbers (an int64 array), with no per-cube objects.

    Children and their measure sums come from ``np.bincount`` over the
    members in breadth-first order, the summation order of a loop over the
    members.
    """
    if order not in ("packing", "weak"):
        t = float(order)
        if not 0.0 < t <= 1.0:
            raise ValueError(f"sparseness order must lie in (0, 1], got {order}")
    n, m = dimension, index.size
    level = np.searchsorted(level_offsets(depth, n), index, side="right") - 1
    parent, _ = _sweep(index, n, depth, int(level[-1]))
    has = parent >= 0
    kids = parent[has]
    size = np.left_shift(1, n * (depth - level))
    core = size - np.bincount(kids, weights=size[has],
                              minlength=m).astype(np.int64)
    meas = [2.0 ** (-n * lvl) for lvl in range(depth + 1)]

    def cube(i: int) -> CubeId:
        (lvl,), (coords,) = _levels_coords(index[i:i + 1], n, depth)
        return CubeId(lvl, tuple(coords))

    if order == "packing":
        if kids.size:
            first = int(kids.min())
            return SparsityViolation(
                cube(first), "packing (pairwise non-nested)",
                float(np.count_nonzero(kids == first)), 0.0)
        kind, order_val = "packing", None
    elif order == "weak":
        core_meas = core * 2.0 ** (-n * depth)
        half = 0.5 * np.array(meas)[level]
        bad = np.flatnonzero(core_meas < half - COMPARE_TOL)
        if bad.size:
            i = int(bad[0])
            return SparsityViolation(
                cube(i), "weak sparseness |E_Q| >= |Q|/2",
                float(half[i]), float(core_meas[i]))
        kind, order_val = "weakly_sparse", None
    else:
        pw = np.array([mu ** t for mu in meas])[level]
        lhs = np.bincount(kids, weights=pw[has], minlength=m)
        rhs = 0.5 * pw
        bad = np.flatnonzero(lhs > rhs + COMPARE_TOL)
        if bad.size:
            i = int(bad[0])
            return SparsityViolation(
                cube(i), f"sparse(order {t:g})", float(lhs[i]), float(rhs[i]))
        kind, order_val = "sparse", t
    return CubeFamily(n, depth, kind, order_val, index, parent, core)


# -- enumeration -------------------------------------------------------------

def enumerate_families(depth: int, dimension: int, order):
    """Yield every nonempty family of the requested class, exactly once.

    Full subset enumeration needs at most 15 tree nodes; families come out in
    ascending order of their member bitmask over the breadth-first cube
    numbering.  Packings alone are allowed up to 63 nodes through a recursive
    antichain generator (deterministic order, documented as such).
    """
    nodes = tree_size(depth, dimension)
    if order == "packing" and nodes > _SUBSET_NODE_CAP:
        if nodes > _ANTICHAIN_NODE_CAP:
            raise ValueError(
                f"oracle scale exceeded: {nodes} nodes > {_ANTICHAIN_NODE_CAP}")
        yield from _enumerate_antichains(depth, dimension)
        return
    if nodes > _SUBSET_NODE_CAP:
        raise ValueError(
            f"oracle scale exceeded: {nodes} nodes > {_SUBSET_NODE_CAP} "
            "for full subset enumeration")
    cubes = list(iter_cubes(depth, dimension))
    for mask in range(1, 1 << nodes):
        family = [cubes[i] for i in range(nodes) if mask >> i & 1]
        result = validate(family, order, dimension=dimension, depth=depth)
        if isinstance(result, CubeFamily):
            yield result


def _enumerate_antichains(depth, dimension):
    root = CubeId(0, (0,) * dimension)

    def walk(cube):
        """Antichains of the subtree at ``cube``: the singleton, then unions
        of child-subtree antichains."""
        yield (cube,)
        if cube.level >= depth:
            return
        kids = children(cube, depth)

        def combos(i):
            if i == len(kids):
                yield ()
                return
            for rest in combos(i + 1):
                yield rest
                for sub in walk(kids[i]):
                    yield sub + rest

        for combo in combos(0):
            if combo:
                yield combo

    for members in walk(root):
        fam = validate(members, "packing", dimension=dimension, depth=depth)
        assert isinstance(fam, CubeFamily)
        yield fam


# -- Calderon-Zygmund stopping time ------------------------------------------

def cz_family(g: GridFunction, factor: float = 2.0) -> CubeFamily:
    """Stopping-time family of a nonnegative density.

    Starting from the root, each selected cube ``Q`` recruits the maximal
    dyadic ``Q' != Q`` inside it whose average strictly exceeds
    ``factor * average(g, Q)``, then recurses.  Chebyshev gives
    ``sum |Q'| < |Q| / factor``, so ``factor >= 2`` lands in sparse(1).
    The result is validated before being returned.

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
    for lvl, integral in enumerate(integrals):
        avg = integral / 2.0 ** (-n * lvl)
        if lvl:
            thr = refine(thr, n)
        sel = avg > thr
        thr = np.where(sel, factor * avg, thr)
        picks.append(np.flatnonzero(sel) + offsets[lvl])
    result = validate_index(np.concatenate(picks), 1.0, dimension=n,
                            depth=depth)
    if isinstance(result, SparsityViolation):
        raise ValueError(
            f"stopping-time family failed sparseness validation: {result}")
    return result


# -- exhaustive antichain totals ----------------------------------------------

def antichain_value_max(weights: np.ndarray, dimension: int,
                        depth: int) -> float:
    """Exact max of ``sum of w`` over all nonempty antichains, by exhausting
    achievable totals.

    ``weights`` (nonnegative, indexed by the breadth-first cube numbering)
    are combined bottom-up: each subtree contributes the multiset {take the
    root} plus {any combination of child-subtree choices}.  When the full
    multiset would blow past the cap, only *maximal* antichains are kept,
    which is lossless for the max under nonnegative weights: every antichain
    extends to a maximal one without decreasing its total.
    """
    nodes = tree_size(depth, dimension)
    if nodes > _ANTICHAIN_NODE_CAP:
        raise ValueError(
            f"oracle scale exceeded: {nodes} nodes > {_ANTICHAIN_NODE_CAP}")
    w = np.asarray(weights, dtype=np.float64)
    if w.size != nodes:
        raise ValueError(f"need {nodes} weights, got {w.size}")
    if np.any(w < 0):
        raise ValueError("antichain totals need nonnegative weights")

    maximal_only = _count_totals(depth, dimension, False) > _VALUE_TABLE_CAP

    def totals(cube: CubeId) -> np.ndarray:
        own = w[cube_index(cube, dimension)]
        if cube.level >= depth:
            return np.array([own]) if maximal_only else np.array([own, 0.0])
        acc = None
        for kid in children(cube, depth):
            t = totals(kid)
            acc = t if acc is None else np.add.outer(acc, t).ravel()
        # full mode: acc keeps the all-children-empty 0, covering every
        # antichain of the subtree; the overall empty set contributes 0,
        # harmless under nonnegative weights.
        return np.concatenate(([own], acc))

    return float(totals(CubeId(0, (0,) * dimension)).max())


@lru_cache(maxsize=None)
def _count_totals(level_to_go: int, dimension: int, maximal_only: bool) -> int:
    if level_to_go == 0:
        return 1 if maximal_only else 2
    sub = _count_totals(level_to_go - 1, dimension, maximal_only)
    return 1 + sub ** (1 << dimension)


# -- cached family tables for vectorised oracles ------------------------------

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
    """Enumerate once, evaluate many times: subset scan at <= 15 nodes."""
    nodes = tree_size(depth, dimension)
    if nodes > _SUBSET_NODE_CAP:
        raise ValueError(
            f"oracle scale exceeded: {nodes} nodes > {_SUBSET_NODE_CAP}")
    cubes = list(iter_cubes(depth, dimension))
    meas = np.array([c.measure for c in cubes])
    anc: list[list[int]] = []
    for c in cubes:
        chain = []
        walk = c
        while walk.level > 0:
            walk = walk.parent()
            chain.append(cube_index(walk, dimension))
        anc.append(chain)

    t = None if order in ("packing", "weak") else float(order)
    pow_meas = meas ** t if t is not None else meas

    masks, core_rows, cube_rows = [], [], []
    for mask in range(1, 1 << nodes):
        members = [i for i in range(nodes) if mask >> i & 1]
        parent = {}
        for i in members:
            for a in anc[i]:
                if mask >> a & 1:
                    parent[i] = a
                    break
        if order == "packing" and parent:
            continue
        core = meas.copy()
        child_pow = np.zeros(nodes)
        for i, pa in parent.items():
            core[pa] -= meas[i]
            child_pow[pa] += pow_meas[i]
        ok = True
        if order == "weak":
            ok = all(core[i] >= 0.5 * meas[i] - COMPARE_TOL for i in members)
        elif t is not None:
            ok = all(child_pow[i] <= 0.5 * pow_meas[i] + COMPARE_TOL
                     for i in members)
        if not ok:
            continue
        row_core = np.zeros(nodes)
        row_cube = np.zeros(nodes)
        for i in members:
            row_core[i] = core[i]
            row_cube[i] = meas[i]
        masks.append(mask)
        core_rows.append(row_core)
        cube_rows.append(row_cube)
    return FamilyTables(dimension, depth, order,
                        np.array(masks, dtype=np.int64),
                        np.array(core_rows), np.array(cube_rows))
