"""Each batched kernel on stacked ``(trials, ...)`` input against the
single-grid call on every row, bit for bit.

The library calls these kernels on one grid and the verification suites on
one row per trial; suite reports stay byte-identical only while the two
agree exactly.
"""

import functools
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnorm import local_poly
from oscnorm.grid import GridFunction
from oscnorm.local_poly import (_column_deviations, median_deviations,
                                median_sweep)
from oscnorm.maximal import (chain_max, fractional_maximal, level_integrals,
                             lp_norm, lp_rows, maximal_cells, refine,
                             sibling_sums)
from oscnorm.norms import packing_dp

SHAPES = st.sampled_from([(1, 0), (1, 1), (1, 3), (1, 6), (2, 0), (2, 1),
                          (2, 2), (2, 4)])


def _stack(seed, n, depth, trials, dist="uniform"):
    rng = np.random.default_rng(seed)
    size = (trials, 1 << (n * depth))
    if dist == "ties":
        return rng.integers(-2, 3, size).astype(float)
    return rng.lognormal(0.0, 1.5, size) * rng.choice([-1.0, 1.0], size)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), SHAPES, st.integers(1, 5),
       st.sampled_from([1, 2]), st.floats(0.0, 0.99))
def test_level_sums_and_chain_max_rowwise(seed, shape, trials, q, lam_frac):
    n, depth = shape
    lam = lam_frac * n
    V = _stack(seed, n, depth, trials)
    dens = np.abs(V.reshape(trials, *(1 << depth,) * n)) ** q
    batched = level_integrals(dens, n, depth)
    run = chain_max(batched, n, q, lam)
    for t in range(trials):
        single = level_integrals(dens[t], n, depth)
        assert len(single) == len(batched) == depth + 1
        for lvl, (b, s) in enumerate(zip(batched, single)):
            assert b[t].shape == s.shape == (1 << lvl,) * n
            assert np.array_equal(b[t], s)
        assert np.array_equal(run[t], chain_max(single, n, q, lam))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), SHAPES, st.integers(1, 5),
       st.sampled_from([1, 2]), st.floats(0.0, 0.99))
def test_maximal_cells_rowwise_is_the_fractional_maximal(seed, shape, trials,
                                                         q, lam_frac):
    """The one maximal-chain kernel on flat rows of cell integrals gives
    each row the bits of ``fractional_maximal`` on that row's grid."""
    n, depth = shape
    lam = lam_frac * n
    V = _stack(seed, n, depth, trials)
    cell = 2.0 ** (-n * depth)
    run = maximal_cells(np.abs(V) ** q * cell, n, depth, q, lam)
    assert run.shape == V.shape
    for t in range(trials):
        single = fractional_maximal(GridFunction(n, depth, V[t]), q, lam)
        assert np.array_equal(run[t], single.values.values)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), SHAPES, st.integers(1, 5),
       st.sampled_from([1.0, 4.0 / 3.0, 2.0, 4.0, math.inf]))
def test_lp_rows_rowwise(seed, shape, trials, p):
    n, depth = shape
    V = _stack(seed, n, depth, trials)
    cell = 2.0 ** (-n * depth)
    batched = lp_rows(V, p, cell)
    assert batched.shape == (trials,)
    for t in range(trials):
        # a one-row stack takes the array root, exactly as the batch does
        assert batched[t] == lp_rows(V[t:t + 1], p, cell)[0]
        # a single flat grid roots a NumPy scalar, as ``**`` on a Python
        # float would; the array root may differ from it in the last bit
        single = lp_norm(GridFunction(n, depth, V[t]), p)
        assert single == float(lp_rows(V[t], p, cell))
        assert abs(batched[t] - single) <= np.spacing(single)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), SHAPES, st.integers(1, 5),
       st.sampled_from(["uniform", "ties"]))
def test_median_deviations_rowwise(seed, shape, trials, dist):
    n, depth = shape
    V = _stack(seed, n, depth, trials, dist)
    for lvl in range(depth + 1):
        med, dev = median_deviations(V, n, depth, lvl)
        assert med.shape == dev.shape == (trials, 1 << (n * lvl))
        for t in range(trials):
            single_med, single_dev = median_deviations(V[t], n, depth, lvl)
            assert np.array_equal(med[t], single_med)
            assert np.array_equal(dev[t], single_dev)


def _sweep_values(seed, n, depth, lead, dist):
    rng = np.random.default_rng(seed)
    size = (*lead, 1 << (n * depth))
    return {"uniform": lambda: rng.uniform(0.0, 1.0, size),
            "ties": lambda: rng.integers(-2, 3, size).astype(float),
            "zeros": lambda: rng.choice([-0.0, 0.0, 1.0, -1.0], size),
            "negative": lambda: -rng.lognormal(0.0, 1.5, size),
            "offset": lambda: rng.uniform(0.0, 1.0, size) + 1e12}[dist]()


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_values(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1),
       st.sampled_from([(1, d) for d in range(13)]
                       + [(2, d) for d in range(7)]),
       st.sampled_from([(), (1,), (3,), (2, 2)]),
       st.sampled_from(["uniform", "ties", "zeros", "negative", "offset"]))
def test_median_sweep_has_the_bits_of_the_sort_route(seed, shape, lead,
                                                     dist):
    """Every level of the sweep, networks included, gives the deviations
    of ``median_deviations`` (``np.sort``) bit for bit and its medians by
    value (a zero median's sign is left open), and each row those of its
    one-row sweep."""
    n, depth = shape
    V = _sweep_values(seed, n, depth, lead, dist)
    # the networks at every size, then the sweep as it picks its route
    for cells in (0, local_poly._NETWORK_CELLS):
        with mock.patch.object(local_poly, "_NETWORK_CELLS", cells):
            swept = list(median_sweep(V, n, depth))[::-1]
            one = {row: list(median_sweep(V[row], n, depth))[::-1]
                   for row in np.ndindex(*lead)}
        assert len(swept) == depth
        for lvl, (med, dev) in enumerate(swept):
            want_med, want_dev = median_deviations(V, n, depth, lvl)
            assert _same_values(med, want_med), lvl
            assert _same_bits(dev, want_dev), lvl
            for row, levels in one.items():
                assert _same_values(med[row], levels[lvl][0])
                assert _same_bits(dev[row], levels[lvl][1])


@pytest.mark.parametrize("n, depth", [(1, 3), (2, 2)])
def test_median_sweep_sorts_every_zero_one_grid(n, depth):
    """The networks sort every 0-1 input (Knuth's 0-1 principle), so they
    sort everything: all ``2**cells`` 0-1 grids as one batch."""
    cells = 1 << (n * depth)
    V = ((np.arange(1 << cells)[:, None] >> np.arange(cells)) & 1) * 1.0
    with mock.patch.object(local_poly, "_NETWORK_CELLS", 0):
        swept = list(median_sweep(V, n, depth))[::-1]
    for lvl, (med, dev) in enumerate(swept):
        want_med, want_dev = median_deviations(V, n, depth, lvl)
        assert _same_values(med, want_med) and _same_bits(dev, want_dev)


@pytest.mark.parametrize("cells", [2, 4, 8])
def test_column_deviations_add_as_numpy_adds_a_row(cells):
    """The sweep adds ``|v - median|`` over sorted columns in the order of
    numpy's contiguous row sum: left to right below 8 terms, its pairwise
    block at 8.  Terms spread over 40 orders of magnitude make the order
    show, so a numpy release that reorders its reduction fails here."""
    rng = np.random.default_rng(cells)
    rows = np.sort(rng.lognormal(0.0, 20.0, (20_000, cells))
                   * rng.choice([-1.0, 1.0], (20_000, cells)), axis=-1)
    cols = list(rows.T.copy())
    med = cols[(cells - 1) // 2]
    want = np.abs(rows - med[:, None]).sum(axis=-1)
    assert _same_bits(_column_deviations(cols, med), want)
    # the data tells orders apart: at 8 terms left to right is not
    # numpy's order, and below 8 right to left is not
    terms = np.abs(rows - med[:, None]).T
    left = functools.reduce(np.add, terms)
    right = functools.reduce(np.add, terms[::-1])
    if cells > 2:
        assert ((left if cells == 8 else right) != want).any()


@pytest.mark.parametrize("offset", [0.0, 1e8, 1e12])
def test_median_deviations_against_fractions(offset):
    """``sum |v - median|`` on a 1D L=16 grid against exact rational sums,
    at the root and at two cubes of every other level: a constant added
    to the values does not cost accuracy."""
    depth = 16
    rng = np.random.default_rng(1)
    values = rng.uniform(0.0, 1.0, 1 << depth) + offset
    for lvl in range(depth + 1):
        med, dev = median_deviations(values, 1, depth, lvl)
        cells = 1 << (depth - lvl)
        for i in sorted({0, int(rng.integers(1 << lvl))}):
            block = values[i * cells:(i + 1) * cells]
            m = Fraction(float(med[i]))
            exact = sum(abs(Fraction(float(v)) - m) for v in block)
            assert abs(Fraction(float(dev[i])) - exact) <= exact * 1e-15, (
                lvl, i)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), SHAPES, st.integers(1, 5),
       st.sampled_from(["uniform", "ties"]))
def test_packing_dp_rowwise(seed, shape, trials, dist):
    n, depth = shape
    rng = np.random.default_rng(seed)
    weights = [np.abs(_stack(int(rng.integers(2 ** 16)), n, lvl, trials, dist))
               for lvl in range(depth + 1)]
    totals, kids = packing_dp(weights, n)
    assert totals.shape == (trials,)
    assert len(kids) == depth
    for t in range(trials):
        single_total, single_kids = packing_dp([w[t] for w in weights], n)
        assert totals[t] == single_total
        for b, s, w in zip(kids, single_kids, weights):
            assert b.shape == w.shape
            assert np.array_equal(b[t], s)


# -- the children walk against the former reshape-and-slice layout ------------

def _reference_sibling_sums(level_vals, dimension):
    """The former ``sibling_sums``: each trailing axis reshaped to
    ``(half, 2)`` and the children sliced by their offset bits in row-major
    order, added one at a time."""
    lead = level_vals.shape[:level_vals.ndim - dimension]
    half = level_vals.shape[-1] // 2
    pairs = level_vals.reshape(*lead, *(half, 2) * dimension)
    kids = [pairs[(..., *(x for b in bits for x in (slice(None), b)))]
            for bits in itertools.product((0, 1), repeat=dimension)]
    return sum(kids[1:], kids[0])


def _reference_packing_dp(weights, dimension):
    """``packing_dp`` on the former sibling sums."""
    best, child_sums = weights[-1], []
    for lvl in range(len(weights) - 2, -1, -1):
        w = weights[lvl]
        grid = best.reshape(*w.shape[:-1], *(2 << lvl,) * dimension)
        kids = _reference_sibling_sums(grid, dimension).reshape(w.shape)
        child_sums.append(kids)
        best = np.maximum(w, kids)
    return best[..., 0], child_sums[::-1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), SHAPES,
       st.sampled_from([(), (1,), (3,), (2, 3)]),
       st.sampled_from(["uniform", "lognormal", "tied", "signed"]))
def test_children_walk_has_the_bits_of_the_former_slicing(seed, shape, lead,
                                                         dist):
    """Level sums, the packing DP and ``refine`` give the bits of the
    reshape-and-slice layout they replaced, with any leading axes."""
    n, depth = shape
    rng = np.random.default_rng(seed)
    size = (*lead, *(1 << depth,) * n)
    values = {"uniform": lambda: rng.uniform(0.0, 1.0, size),
              "lognormal": lambda: rng.lognormal(0.0, 1.5, size),
              "tied": lambda: rng.integers(0, 3, size).astype(float),
              "signed": lambda: (rng.lognormal(0.0, 1.5, size)
                                 * rng.choice([-1.0, 1.0], size))}[dist]()
    want = [values]
    for _ in range(depth):
        want.append(_reference_sibling_sums(want[-1], n))
    want = want[::-1]
    got = level_integrals(values, n, depth)
    assert len(got) == depth + 1
    for lvl in range(1, depth + 1):
        assert _same_bits(sibling_sums(want[lvl], n), want[lvl - 1])
    for g, w in zip(got, want):
        assert _same_bits(g, w)
    for lvl in range(depth):
        repeated = want[lvl]
        for ax in range(-n, 0):
            repeated = np.repeat(repeated, 2, axis=ax)
        assert _same_bits(refine(want[lvl], n), repeated)
    weights = [np.abs(w).reshape(*lead, -1) for w in want]
    total, kids = packing_dp(weights, n)
    want_total, want_kids = _reference_packing_dp(weights, n)
    assert _same_bits(total, want_total)
    assert len(kids) == len(want_kids) == depth
    for g, w in zip(kids, want_kids):
        assert _same_bits(g, w)
