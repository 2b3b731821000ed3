"""Dyadic (fractional) sharp-maximal operator and its L^p operator bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnorm.grid import GridFunction, iter_cubes
from oscnorm.maximal import fractional_maximal, maximal_opnorm_bound
from oscnorm.norms import lp_norm


def _mvals(f, q=1, lam=0.0):
    return fractional_maximal(f, q, lam).values.values


def test_single_spike_golden():
    f = GridFunction(1, 2, [1.0, 0.0, 0.0, 0.0])
    res = fractional_maximal(f, 1, 0.0)
    assert res.values.values.tolist() == [1.0, 0.5, 0.25, 0.25]
    assert res.lam == 0.0 and res.q == 1


def test_constant_function():
    f = GridFunction(1, 2, np.full(4, 2.5))
    assert _mvals(f) == pytest.approx(np.full(4, 2.5))
    # q=2 average of a constant is the same constant
    assert _mvals(f, q=2) == pytest.approx(np.full(4, 2.5))


def test_two_level_average_wins():
    # |f - 1/2| is identically 1/2, so every cube average ties
    f = GridFunction(1, 1, [0.0, 1.0])
    g = GridFunction(1, 1, np.abs(f.values - 0.5))
    assert _mvals(g) == pytest.approx([0.5, 0.5])


def test_pointwise_domination_exact():
    """M f >= |f| on every cell: the singleton cell is admissible."""
    rng = np.random.default_rng(0)
    for n, depth in ((1, 4), (2, 2)):
        for _ in range(50):
            f = GridFunction(n, depth, rng.uniform(-3, 3, 2 ** (n * depth)))
            assert np.all(_mvals(f) >= np.abs(f.values))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
def test_sublinearity(sa, sb):
    ra, rb = np.random.default_rng(sa), np.random.default_rng(sb)
    f = GridFunction(1, 3, ra.uniform(-1, 1, 8))
    g = GridFunction(1, 3, rb.uniform(-1, 1, 8))
    s = GridFunction(1, 3, f.values + g.values)
    assert np.all(_mvals(s) <= _mvals(f) + _mvals(g) + 1e-12)


def test_lambda_monotone_on_unit_domain():
    """Cube sides are <= 1, so raising lam can only shrink the weights."""
    rng = np.random.default_rng(5)
    f = GridFunction(1, 3, rng.uniform(0, 2, 8))
    prev = None
    for lam in (0.0, 0.25, 0.5, 0.75):
        cur = _mvals(f, lam=lam)
        if prev is not None:
            assert np.all(cur <= prev + 1e-12), lam
        prev = cur


def test_fractional_weights_explicit():
    # spike of height 1 on [0, 1/4), weight |Q|^{1/2}
    f = GridFunction(1, 2, [1.0, 0.0, 0.0, 0.0])
    vals = _mvals(f, lam=0.5)
    # first cell: max(2^-1 * 1, 2^-1/2 * 1/2, 1 * 1/4) = 1/2
    assert vals[0] == pytest.approx(0.5)
    # last cell only sees the root: 1 * 1/4
    assert vals[3] == pytest.approx(0.25)


def test_parameter_validation():
    f = GridFunction(1, 1, [0.0, 1.0])
    with pytest.raises(ValueError, match="lambda"):
        fractional_maximal(f, 1, 1.0)       # lam must be < dimension
    with pytest.raises(ValueError, match="lambda"):
        fractional_maximal(f, 1, -0.1)
    with pytest.raises(ValueError, match="q"):
        fractional_maximal(f, 3, 0.0)
    g = GridFunction(2, 1, [0.0, 1.0, 2.0, 3.0])
    assert np.all(np.isfinite(_mvals(g, lam=1.5)))   # fine in two dimensions


def test_q_exponent():
    f = GridFunction(1, 1, [0.0, 1.0])
    r1, r2 = _mvals(f, q=1), _mvals(f, q=2)
    # on the zero cell: q=1 average 1/2, q=2 average sqrt(1/2)
    assert r1[0] == pytest.approx(0.5)
    assert r2[0] == pytest.approx(math.sqrt(0.5))
    assert np.all(r2 >= r1 - 1e-12)     # power-mean inequality


def test_result_is_grid_shaped():
    f = GridFunction(2, 2, np.arange(16.0))
    res = fractional_maximal(f, 1, 0.0)
    assert isinstance(res.values, GridFunction)
    assert res.values.dimension == 2 and res.values.depth == 2


def test_opnorm_bound_values():
    assert maximal_opnorm_bound(2.0) == pytest.approx(2.0)
    assert maximal_opnorm_bound(4.0 / 3.0) == pytest.approx(4.0)
    assert maximal_opnorm_bound(4.0) == pytest.approx(4.0 / 3.0)
    assert maximal_opnorm_bound(math.inf) == 1.0
    with pytest.raises(ValueError):
        maximal_opnorm_bound(1.0)
    with pytest.raises(ValueError):
        maximal_opnorm_bound(0.5)


def test_opnorm_bound_refuses_nan():
    with pytest.raises(ValueError, match="needs p > 1, got nan"):
        maximal_opnorm_bound(math.nan)


def test_lp_norm_refuses_nan():
    with pytest.raises(ValueError, match="p must be >= 1, got nan"):
        lp_norm(GridFunction(1, 2, [1.0, 2.0, 3.0, 4.0]), math.nan)


def test_opnorm_bound_on_random_grids():
    """||M f||_p <= p/(p-1) ||f||_p, checked at p in {2, 4, 8}."""
    rng = np.random.default_rng(11)
    worst = {2.0: 0.0, 4.0: 0.0, 8.0: 0.0}
    for trial in range(300):
        n = 1 if trial % 3 else 2
        depth = 4 if n == 1 else 2
        f = GridFunction(n, depth, rng.uniform(-1, 1, 2 ** (n * depth)))
        mf = fractional_maximal(f, 1, 0.0).values
        for p in worst:
            ratio = lp_norm(mf, p) / lp_norm(f, p)
            worst[p] = max(worst[p], ratio)
            assert ratio <= maximal_opnorm_bound(p) + 1e-12
    for p, r in sorted(worst.items()):
        print(f"p={p}: worst ||Mf||/||f|| = {r:.4f} (bound {p/(p-1):.4f})")


def test_maximal_vs_brute_force():
    """Check against a direct loop over all cubes containing each cell."""
    rng = np.random.default_rng(21)
    for n, depth in ((1, 3), (2, 2)):
        f = GridFunction(n, depth, rng.uniform(-2, 2, 2 ** (n * depth)))
        got = _mvals(f, lam=0.5)
        want = np.zeros((1 << depth,) * n)
        for c in iter_cubes(depth, n):
            cand = c.measure ** 0.5 * np.abs(f.cube_values(c)).mean()
            s = 1 << (depth - c.level)
            sl = tuple(slice(x * s, (x + 1) * s) for x in c.coords)
            want[sl] = np.maximum(want[sl], cand)
        assert got == pytest.approx(want.ravel(), abs=1e-12)
