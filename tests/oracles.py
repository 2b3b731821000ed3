"""Independent exhaustive oracles for the family classes.

These enumerate families and antichain totals by their own means (a subset
scan through :func:`oscnorm.families.validate`, a recursive antichain
generator, and bottom-up cross-sums of achievable totals), so the tests can
check the library's batched family tables and tree DPs against them.  No
library code calls them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from oscnorm.families import SUBSET_NODE_CAP as _SUBSET_NODE_CAP
from oscnorm.families import CubeFamily, validate
from oscnorm.grid import CubeId, children, cube_index, iter_cubes, tree_size

_ANTICHAIN_NODE_CAP = 63
_VALUE_TABLE_CAP = 2_000_000


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
