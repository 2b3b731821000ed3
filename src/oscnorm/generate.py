"""Deterministic grid-function generators for the verification suites.

All randomness flows through PCG64 seeded by ``SeedSequence((seed, trial))``,
so a (seed, trial) pair pins down every generated function bit-for-bit across
platforms and the suite reports stay byte-identical.  ``rng_for`` builds that
generator; ``batch_uniform`` reproduces the same ``SeedSequence((seed,
trial))`` -> ``PCG64`` starting states for a whole batch of trials in numpy
arithmetic, and the tests pin its rows against ``rng_for``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .grid import GridFunction, _check_cells

__all__ = ["GENERATOR_NAMES", "generate", "rng_for", "batch_uniform"]

GENERATOR_NAMES = ("uniform-iid", "step", "log-singularity", "indicator",
                   "custom-file")


def rng_for(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, trial))))


def generate(kind: str, dimension: int, depth: int, seed: int = 0,
             trial: int = 0, path: str | None = None) -> GridFunction:
    if kind not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {kind!r}; "
                         f"options: {', '.join(GENERATOR_NAMES)}")
    if kind == "custom-file":
        if path is None:
            raise ValueError("generator 'custom-file' needs a file path")
        return GridFunction.from_file(path)
    n_cells = _check_cells(dimension, depth)    # before any array is built
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
    vals = np.zeros(n_cells)        # the indicator of the first cell
    vals[0] = 1.0
    return GridFunction(dimension, depth, vals)


def log_singularity(depth: int) -> GridFunction:
    """Cell averages of ``log(1/x)`` on [0,1): exact via the antiderivative
    ``x - x log x`` (limit 0 at x = 0)."""
    cells = _check_cells(1, depth)
    edges = np.arange(cells + 1, dtype=np.float64) / cells

    def anti(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = x[pos] - x[pos] * np.log(x[pos])
        return out

    avgs = (anti(edges[1:]) - anti(edges[:-1])) * cells
    return GridFunction(1, depth, avgs)


# NumPy's SeedSequence hash (NEP 19) and PCG64 multiplier (O'Neill 2014)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _hasher(init: int, mult: int):
    """SeedSequence's multiply-xorshift hash on ``uint32`` arrays; its
    constant advances on every call."""
    h = init

    def step(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = v ^ h
        h = h * mult & _M32
        v = v * h
        return v ^ (v >> 16)
    return step


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _pcg64_states(seed: int, trials: int) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence((seed, t)))`` for every
    ``t < trials``: the entropy words of ``seed`` then ``t``, hashed into a
    4-word pool as ``uint32`` arrays over all trials at once."""
    words = [seed & _M32]             # little-endian 32-bit words; 0 is [0]
    while seed := seed >> 32:
        words.append(seed & _M32)
    entropy = [np.full(trials, w, np.uint32) for w in words]
    entropy.append(np.arange(trials, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(trials, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:      # entropy longer than the pool
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): 8 words cycled from the pool, each pair
    # low word first
    draw = _hasher(_INIT_B, _MULT_B)
    out = [draw(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
    s0, s1, q0, q1 = (
        (out[2 * j] | out[2 * j + 1] << 32).tolist() for j in range(4))
    states = []
    for a, b, c, d in zip(s0, s1, q0, q1):
        # pcg64_set_seed: the first word of each pair is the high half;
        # inc = 2 initseq + 1, state = (inc + initstate) M + inc
        inc = ((c << 64 | d) << 1 | 1) & _M128
        states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128,
                       inc))
    return states


def batch_uniform(dimension: int, depth: int, seed: int,
                  trials: int) -> np.ndarray:
    """Matrix of ``trials`` independent uniform-iid grids, row ``t`` equal to
    ``generate("uniform-iid", ..., trial=t).values``.  The whole batch is
    held by the same cell limit as a single grid.

    The starting state of every row's ``SeedSequence((seed, t))`` ->
    ``PCG64`` stream is computed in bulk (``_pcg64_states``); each row is
    then drawn by NumPy's own ``Generator.random`` from that state, which
    gives the bits of ``uniform(0, 1)``.  The cell limit caps ``trials`` at
    ``_MAX_CELLS`` = 2**22, so a trial index is one entropy word.  Tests pin
    the rows against ``rng_for(seed, t)``."""
    n_cells = _check_cells(dimension, depth, trials)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    out = np.empty((trials, n_cells))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for t, (state, inc) in enumerate(_pcg64_states(int(seed), trials)):
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        gen.random(out=out[t])
    return out
