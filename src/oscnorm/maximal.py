"""Dyadic local maximal operators on the unit cube.

The fractional maximal function of order ``lam`` is, per finest cell ``x``,

    M_{q,lam} f(x) = max over dyadic Q containing x of
                     (|Q|^{lam/n - 1} * integral_Q |f|^q)^{1/q}

The dyadic cubes containing a cell form exactly its ancestor chain, so the
whole field is computed by one top-down sweep carrying a running maximum:
O(2^{nL} * L) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction

__all__ = ["MaximalResult", "fractional_maximal", "lp_norm",
           "maximal_opnorm_bound", "refine"]


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
    dens = np.abs(f.values_nd) ** q * f.cell_measure
    levels = level_integrals(dens, n, f.depth)
    out = chain_max(levels, n, q, lam)
    return MaximalResult(GridFunction(n, f.depth, out.ravel()), q, lam)


def level_integrals(cell_integrals: np.ndarray, dimension: int,
                    depth: int) -> list[np.ndarray]:
    """Aggregate per-cell integrals up the tree; entry ``l`` holds the
    integral over each level-``l`` cube, shape ``(2**l,) * dimension``."""
    levels = [None] * (depth + 1)
    levels[depth] = cell_integrals
    for l in range(depth - 1, -1, -1):
        finer = levels[l + 1]
        if dimension == 1:
            levels[l] = finer.reshape(-1, 2).sum(axis=1)
        else:
            m = finer.shape[0] // 2
            levels[l] = finer.reshape(m, 2, m, 2).sum(axis=(1, 3))
    return levels


def refine(level_vals: np.ndarray, dimension: int) -> np.ndarray:
    """Copy each cube's entry to its ``2**dimension`` children: the
    ``(2**l,) * dimension`` array of level ``l`` becomes that of ``l + 1``."""
    for ax in range(dimension):
        level_vals = np.repeat(level_vals, 2, axis=ax)
    return level_vals


def chain_max(levels: list[np.ndarray], dimension: int, q: int,
              lam: float) -> np.ndarray:
    """Per finest cell, max over its ancestor chain of
    ``(|Q|^{lam/n - 1} * S_Q)^{1/q}`` where ``S_Q`` comes from ``levels``."""
    run = None
    for l, S in enumerate(levels):
        meas = 2.0 ** (-dimension * l)
        val = (meas ** (lam / dimension - 1.0) * S) ** (1.0 / q)
        run = val if run is None else np.maximum(refine(run, dimension), val)
    return run


def lp_norm(g: GridFunction, p: float) -> float:
    """Exact ``L^p([0,1)^n)`` norm of a grid function; ``p = inf`` is the max."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    v = np.abs(g.values)
    if math.isinf(p):
        return float(v.max())
    return float((v ** p).sum() * g.cell_measure) ** (1.0 / p)


def maximal_opnorm_bound(p: float) -> float:
    """Operator norm bound ``p/(p-1)`` for the dyadic maximal function on L^p.

    Callers working at exponent ``p`` pass the conjugate ``p'`` and receive
    ``p'/(p'-1) = p``.
    """
    if p <= 1:
        raise ValueError(f"the bound p/(p-1) needs p > 1, got {p}")
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)
