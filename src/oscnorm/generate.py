"""Deterministic grid-function generators for the verification suites.

All randomness flows through PCG64 seeded by ``SeedSequence((seed, trial))``,
so a (seed, trial) pair pins down every generated function bit-for-bit across
platforms and the suite reports stay byte-identical.  ``rng_for`` builds that
generator; ``batch_uniform`` reproduces the same ``SeedSequence((seed,
trial))`` -> ``PCG64`` starting states for a whole batch of trials in numpy
arithmetic, as 128-bit integers held in (high, low) ``uint64`` halves.  Rows
of at most 16 cells are drawn from those states by jump-ahead in the same
arithmetic, longer rows by NumPy's own generator; the tests pin every row
against ``rng_for``.
"""

from __future__ import annotations

import numbers

import numpy as np

from .grid import GridFunction, _check_cells

__all__ = ["GENERATOR_NAMES", "generate", "rng_for", "batch_uniform"]

GENERATOR_NAMES = ("uniform-iid", "step", "log-singularity", "indicator")


def rng_for(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, trial))))


def generate(kind: str, dimension: int, depth: int, seed: int = 0,
             trial: int = 0) -> GridFunction:
    if kind not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {kind!r}; "
                         f"options: {', '.join(GENERATOR_NAMES)}")
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
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_JUMP_CELLS = 16    # the longest row drawn by jump-ahead; longer rows step


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The high and low ``uint64`` halves of 128-bit integers."""
    return (np.array([v >> 64 for v in values], np.uint64),
            np.array([v & _M64 for v in values], np.uint64))


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the products ``a * b`` of ``uint64`` arrays,
    from 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    mid0, mid1 = a0 * b1, a1 * b0
    carry = (a0 * b0 >> 32) + (mid0 & _M32) + (mid1 & _M32)
    return a1 * b1 + (mid0 >> 32) + (mid1 >> 32) + (carry >> 32)


def _mul128(xh, xl, ch, cl):
    """``x * c mod 2**128`` on (high, low) ``uint64`` halves."""
    return _mulhi(xl, cl) + xl * ch + xh * cl, xl * cl


def _add128(xh, xl, ch, cl):
    """``x + c mod 2**128`` on (high, low) ``uint64`` halves."""
    lo = xl + cl
    return xh + ch + (lo < xl), lo


def _jump_factors(cells: int) -> tuple[np.ndarray, ...]:
    """Halves of ``M^k`` and ``M^(k-1) + ... + M + 1`` for ``k = 1..cells``:
    PCG64 steps before it outputs, so draw ``k`` reads the state
    ``M^k s + (M^(k-1) + ... + 1) inc`` of a stream started at ``s``."""
    mult, add = [], []
    a, b = 1, 0
    for _ in range(cells):
        a, b = a * _PCG_MULT & _M128, (b * _PCG_MULT + 1) & _M128
        mult.append(a)
        add.append(b)
    return (*_halves(mult), *_halves(add))


_JUMP = _jump_factors(_JUMP_CELLS)
_PCG_MULT_HALVES = _halves([_PCG_MULT])


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


def _pcg64_states(seed: int, trials: int) -> tuple[tuple[np.ndarray, ...],
                                                   tuple[np.ndarray, ...]]:
    """``(state, inc)`` of ``PCG64(SeedSequence((seed, t)))`` for every
    ``t < trials``, each as its (high, low) ``uint64`` halves: the entropy
    words of ``seed`` then ``t``, hashed into a 4-word pool as ``uint32``
    arrays over all trials at once."""
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
    # pcg64_set_seed: the first 64-bit word of each pair is the high half;
    # inc = 2 initseq + 1, state = (inc + initstate) M + inc
    s_hi, s_lo, q_hi, q_lo = (out[2 * j] | out[2 * j + 1] << 32
                              for j in range(4))
    inc = (q_hi << 1 | q_lo >> 63, q_lo << 1 | 1)
    state = _add128(*_mul128(*_add128(*inc, s_hi, s_lo), *_PCG_MULT_HALVES),
                    *inc)
    return state, inc


def _jump_rows(state, inc, cells: int) -> np.ndarray:
    """Draws ``1..cells`` of every stream at once, as ``Generator.random``
    gives them: the state of each draw by jump-ahead, then PCG64's XSL-RR
    output (``hi ^ lo`` rotated right by ``hi >> 58``) and its top 53 bits
    as a double."""
    mh, ml, ah, al = (f[:cells] for f in _JUMP)
    hi, lo = _add128(*_mul128(state[0][:, None], state[1][:, None], mh, ml),
                     *_mul128(inc[0][:, None], inc[1][:, None], ah, al))
    x, rot = hi ^ lo, hi >> 58
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return (x >> 11).astype(np.float64) * 2.0 ** -53


def _batch_args(dimension, depth, seed, trials) -> tuple[int, int, int, int]:
    """The sizes and seed of a batch as Python ints, or a ``ValueError``
    naming the first one that is not an integer or is out of range; no
    array is built."""
    args = {"dimension": dimension, "depth": depth, "seed": seed,
            "trials": trials}
    for name, value in args.items():
        # bool is a subclass of int, but True/False are not sizes or seeds
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    dimension, depth, seed, trials = (int(v) for v in args.values())
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return dimension, depth, seed, trials


def batch_uniform(dimension: int, depth: int, seed: int,
                  trials: int) -> np.ndarray:
    """Matrix of ``trials`` independent uniform-iid grids, row ``t`` equal to
    ``generate("uniform-iid", ..., trial=t).values``.  The whole batch is
    held by the same cell limit as a single grid.

    The starting state of every row's ``SeedSequence((seed, t))`` ->
    ``PCG64`` stream is computed in bulk (``_pcg64_states``).  A row of at
    most ``_JUMP_CELLS`` = 16 cells is then drawn with all the others in
    ``uint64`` arithmetic, each draw's state by jump-ahead from the start
    (``_jump_rows``); a longer row is drawn by NumPy's own
    ``Generator.random`` from its state, where stepping is cheaper than the
    jumps.  Both give the bits of ``uniform(0, 1)``.  The cell limit caps
    ``trials`` at ``_MAX_CELLS`` = 2**22, so a trial index is one entropy
    word.  Tests pin the rows against ``rng_for(seed, t)``."""
    dimension, depth, seed, trials = _batch_args(dimension, depth, seed,
                                                 trials)
    n_cells = _check_cells(dimension, depth, trials)
    state, inc = _pcg64_states(seed, trials)
    if n_cells <= _JUMP_CELLS:
        return _jump_rows(state, inc, n_cells)
    out = np.empty((trials, n_cells))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    s_hi, s_lo, q_hi, q_lo = (h.tolist() for h in (*state, *inc))
    for t in range(trials):
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": s_hi[t] << 64 | s_lo[t],
                                  "inc": q_hi[t] << 64 | q_lo[t]},
                        "has_uint32": 0, "uinteger": 0}
        gen.random(out=out[t])
    return out
