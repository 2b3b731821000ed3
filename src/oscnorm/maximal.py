"""Dyadic local maximal operators on the unit cube.

The fractional maximal function of order ``lam`` is, per finest cell ``x``,

    M_{q,lam} f(x) = max over dyadic Q containing x of
                     (|Q|^{lam/n - 1} * integral_Q |f|^q)^{1/q}

The dyadic cubes containing a cell form exactly its ancestor chain, so the
whole field is computed by one top-down sweep carrying a running maximum:
O(2^{nL} * L) work.

The kernels here work on the trailing grid axes and accept any leading
axes, so the verification suites run them on one row per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, _children, _join

__all__ = ["MaximalResult", "fractional_maximal", "lp_norm", "lp_rows",
           "maximal_cells", "maximal_opnorm_bound", "refine", "sibling_sums"]


@dataclass(frozen=True)
class MaximalResult:
    values: GridFunction
    q: int
    lam: float


def fractional_maximal(f: GridFunction, q: int, lam: float) -> MaximalResult:
    """Pointwise dyadic fractional maximal function of ``f``."""
    n = f.dimension
    if q not in (1, 2):
        raise ValueError(f"q must be 1 or 2, got {q}")
    if not 0.0 <= lam < n:
        raise ValueError(f"lambda must lie in [0, {n}), got {lam}")
    out = maximal_cells(np.abs(f.values) ** q * f.cell_measure, n, f.depth,
                        q, lam)
    if not np.isfinite(out).all():
        raise ValueError("the maximal function overflows near the float limit")
    return MaximalResult(GridFunction(n, f.depth, out), q, lam)


def maximal_cells(cell_integrals: np.ndarray, dimension: int, depth: int,
                  q: int, lam: float) -> np.ndarray:
    """``M_{q,lam}`` per finest cell from the flat per-cell integrals of
    ``|f|^q``, ``(..., 2**(n*depth))`` with any leading trial axes: the
    integrals summed up the tree and the maximum taken down each chain,
    returned in the same flat shape."""
    lead = cell_integrals.shape[:-1]
    grid = cell_integrals.reshape(*lead, *(1 << depth,) * dimension)
    levels = level_integrals(grid, dimension, depth)
    return chain_max(levels, dimension, q, lam).reshape(cell_integrals.shape)


def sibling_sums(level_vals: np.ndarray, dimension: int) -> np.ndarray:
    """Sum every group of ``2**dimension`` siblings: a level-``l`` array,
    ``(2**l,) * dimension`` on the trailing axes, becomes the level-``l-1``
    array.  Leading axes (one per trial) are carried along."""
    # children added one at a time in row-major order of their offset bits:
    # a multi-axis ``sum`` picks its order from the shape, so a lone block
    # would round otherwise
    kids = _children(level_vals, dimension)
    return sum(kids[1:], kids[0])


def level_integrals(cell_integrals: np.ndarray, dimension: int,
                    depth: int) -> list[np.ndarray]:
    """Aggregate per-cell integrals up the tree; entry ``l`` holds the
    integral over each level-``l`` cube, shape ``(2**l,) * dimension`` on
    the trailing axes after any leading trial axes."""
    levels = [cell_integrals]
    for _ in range(depth):
        levels.append(sibling_sums(levels[-1], dimension))
    return levels[::-1]


def refine(level_vals: np.ndarray, dimension: int) -> np.ndarray:
    """Copy each cube's entry to its ``2**dimension`` children: the
    ``(2**l,) * dimension`` trailing axes of level ``l`` become those of
    ``l + 1``."""
    for ax in range(-dimension, 0):
        level_vals = _join(level_vals, level_vals, ax)
    return level_vals


def chain_max(levels: list[np.ndarray], dimension: int, q: int,
              lam: float) -> np.ndarray:
    """Per finest cell, max over its ancestor chain of
    ``(|Q|^{lam/n - 1} * S_Q)^{1/q}`` where ``S_Q`` comes from ``levels``
    (any leading trial axes are kept)."""
    run = None
    for l, S in enumerate(levels):
        meas = 2.0 ** (-dimension * l)
        val = (meas ** (lam / dimension - 1.0) * S) ** (1.0 / q)
        run = val if run is None else np.maximum(refine(run, dimension), val)
    return run


def lp_rows(values: np.ndarray, p: float, cell_measure: float):
    """``L^p`` norm of cell values along the last axis; ``p = inf`` is the
    max.  A single flat grid reduces to a NumPy scalar before the root is
    taken, which rounds like Python's ``**``; stacked rows take the root as
    an array."""
    v = np.abs(values)
    if math.isinf(p):
        return v.max(axis=-1)
    return ((v ** p).sum(axis=-1) * cell_measure) ** (1.0 / p)


def lp_norm(g: GridFunction, p: float) -> float:
    """Exact ``L^p([0,1)^n)`` norm of a grid function; ``p = inf`` is the max."""
    if not p >= 1:      # also refuses nan
        raise ValueError(f"p must be >= 1, got {p}")
    return float(lp_rows(g.values, p, g.cell_measure))


def maximal_opnorm_bound(p: float) -> float:
    """Operator norm bound ``p/(p-1)`` for the dyadic maximal function on L^p.

    Callers working at exponent ``p`` pass the conjugate ``p'`` and receive
    ``p'/(p'-1) = p``.
    """
    if not p > 1:       # also refuses nan
        raise ValueError(f"the bound p/(p-1) needs p > 1, got {p}")
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)
