"""Deterministic grid-function generators for the verification suites.

All randomness flows through PCG64 seeded by ``SeedSequence((seed, trial))``,
so a (seed, trial) pair pins down every generated function bit-for-bit across
platforms and the suite reports stay byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import _MAX_CELLS, GridFunction

__all__ = ["GENERATOR_NAMES", "generate", "rng_for", "batch_uniform"]

GENERATOR_NAMES = ("uniform-iid", "step", "log-singularity", "indicator",
                   "custom-file")


def rng_for(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, trial))))


def generate(kind: str, dimension: int, depth: int, seed: int = 0,
             trial: int = 0, path: str | None = None) -> GridFunction:
    n_cells = 1 << (dimension * depth)
    if kind == "uniform-iid":
        vals = rng_for(seed, trial).uniform(0.0, 1.0, size=n_cells)
        return GridFunction(dimension, depth, vals)
    if kind == "step":
        # indicator of the left half along axis 0
        side = 1 << depth
        if dimension == 1:
            vals = (np.arange(side) < side // 2).astype(np.float64)
        else:
            rows = (np.arange(side) < side // 2).astype(np.float64)
            vals = np.repeat(rows, side)
        return GridFunction(dimension, depth, vals)
    if kind == "log-singularity":
        if dimension != 1:
            raise ValueError("the log-singularity generator is 1-dimensional")
        return log_singularity(depth)
    if kind == "indicator":
        vals = np.zeros(n_cells)
        vals[0] = 1.0
        return GridFunction(dimension, depth, vals)
    if kind == "custom-file":
        if path is None:
            raise ValueError("generator 'custom-file' needs a file path")
        return GridFunction.from_file(path)
    raise ValueError(f"unknown generator {kind!r}; "
                     f"options: {', '.join(GENERATOR_NAMES)}")


def log_singularity(depth: int) -> GridFunction:
    """Cell averages of ``log(1/x)`` on [0,1): exact via the antiderivative
    ``x - x log x`` (limit 0 at x = 0)."""
    edges = np.arange((1 << depth) + 1, dtype=np.float64) / (1 << depth)

    def anti(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = x[pos] - x[pos] * np.log(x[pos])
        return out

    avgs = (anti(edges[1:]) - anti(edges[:-1])) * (1 << depth)
    return GridFunction(1, depth, avgs)


def batch_uniform(dimension: int, depth: int, seed: int,
                  trials: int) -> np.ndarray:
    """Matrix of ``trials`` independent uniform-iid grids, row ``t`` equal to
    ``generate("uniform-iid", ..., trial=t).values``.  The whole batch is
    held by the same cell limit as a single grid."""
    n_cells = 1 << (dimension * depth)
    if trials * n_cells > _MAX_CELLS:
        raise ValueError(
            f"{trials} grids of {n_cells} cells would need "
            f"{trials * n_cells} cells (limit {_MAX_CELLS}); reduce the "
            "trials or the depth")
    out = np.empty((trials, n_cells))
    for t in range(trials):
        out[t] = rng_for(seed, t).uniform(0.0, 1.0, size=n_cells)
    return out
