"""Best local polynomial approximation in L^1 and L^2.

The q=2 and (q=1, k=1) solvers are exact; the q=1, k>=2 path is IRLS plus a
simplex polish with an LP certificate, so those tests check certified ratios
rather than equalities.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnorm.grid import CubeId, GridFunction, iter_cubes
from oscnorm.local_poly import (best_fit, mean_oscillation, poly_error,
                                residual_cell_integrals, scaled_error)

ROOT1 = CubeId(0, (0,))
ROOT2 = CubeId(0, (0, 0))


def test_median_fit_two_cells():
    f = GridFunction(1, 1, [0.0, 1.0])
    fit = best_fit(f, ROOT1, 1, 1)
    assert fit.coeffs == pytest.approx([0.0])     # lower median
    assert fit.error == pytest.approx(0.5)
    assert fit.near_best_factor == 1.0


def test_median_fit_four_cells():
    f = GridFunction(1, 2, [1.0, 2.0, 3.0, 10.0])
    fit = best_fit(f, ROOT1, 1, 1)
    assert fit.coeffs == pytest.approx([2.0])
    assert fit.error == pytest.approx(2.5)


def test_l2_affine_step():
    # closed form: error^2 = 1/2 - 1/4 - 3/16 = 1/16
    f = GridFunction(1, 1, [0.0, 1.0])
    fit = best_fit(f, ROOT1, 2, 2)
    assert fit.error == pytest.approx(0.25, abs=1e-14)
    assert fit.near_best_factor == 1.0


def test_l1_affine_step_golden():
    f = GridFunction(1, 1, [0.0, 1.0])
    fit = best_fit(f, ROOT1, 2, 1)
    print("L1 affine fit of a step:", fit.error, "factor", fit.near_best_factor)
    assert fit.error == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-9)
    assert 1.0 <= fit.near_best_factor <= 1.05
    assert not fit.approximate


def test_constant_function_exact_for_all_params():
    for n, root in ((1, ROOT1), (2, ROOT2)):
        f = GridFunction(n, 2, np.full(4 ** n, 3.25))
        for k, q in itertools.product((1, 2, 3), (1, 2)):
            fit = best_fit(f, root, k, q)
            assert fit.error == pytest.approx(0.0, abs=1e-12), (n, k, q)


def test_k_zero_is_norm_of_f():
    f = GridFunction(1, 1, [-1.0, 1.0])
    assert best_fit(f, ROOT1, 0, 1).error == pytest.approx(1.0)
    assert best_fit(f, ROOT1, 0, 2).error == pytest.approx(1.0)


def test_k_out_of_range():
    f = GridFunction(1, 1, [0.0, 1.0])
    with pytest.raises(ValueError):
        best_fit(f, ROOT1, 4, 1)
    with pytest.raises(ValueError):
        best_fit(f, ROOT1, -1, 1)
    with pytest.raises(ValueError):
        best_fit(f, ROOT1, 1, 3)


def test_evaluate_matches_coeffs():
    f = GridFunction(1, 2, [1.0, 2.0, 3.0, 10.0])
    fit = best_fit(f, ROOT1, 2, 2)
    xs = np.array([[0.1], [0.9]])
    direct = sum(
        c * xs[:, 0] ** e[0] for c, e in zip(fit.coeffs, fit.exponents)
    )
    assert fit.evaluate(xs) == pytest.approx(direct)


def test_scaled_error_conventions():
    f = GridFunction(1, 1, [0.0, 1.0])
    # measure-1 cube: exponent irrelevant
    for conv in ("V", "SV"):
        assert scaled_error(f, ROOT1, 1, 1, 0.0, convention=conv) \
            == pytest.approx(0.5)
        assert scaled_error(f, ROOT1, 1, 1, 0.7, convention=conv) \
            == pytest.approx(0.5)
    # |c| = 1/2, q=2, lam=n=1: ratio V/SV = |c|^{lam - lam/2} = 2^{-1/2}
    g = GridFunction(1, 2, [0.0, 8.0, 0.0, 0.0])
    c = CubeId(1, (0,))
    v = scaled_error(g, c, 1, 2, 1.0, convention="V")
    sv = scaled_error(g, c, 1, 2, 1.0, convention="SV")
    assert v / sv == pytest.approx(2.0 ** -0.5, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([1, 2]))
def test_error_monotone_in_k(seed, q):
    rng = np.random.default_rng(seed)
    f = GridFunction(1, 2, rng.uniform(-1, 1, 4))
    errs = [poly_error(f, ROOT1, k, q) for k in (1, 2, 3)]
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_mean_oscillation_two_sided(seed):
    """E_1 <= integral |f - avg| <= 2 E_1, all terms exact."""
    rng = np.random.default_rng(seed)
    f = GridFunction(1, 3, rng.uniform(-2, 2, 8))
    for c in iter_cubes(2, 1):
        e1 = poly_error(f, c, 1, 1)
        osc = mean_oscillation(f, c) * c.measure
        assert e1 <= osc + 1e-12
        assert osc <= 2 * e1 + 1e-12


def test_mean_oscillation_bulk():
    rng = np.random.default_rng(0)
    worst_lo, worst_hi = 1.0, 1.0
    for _ in range(1000):
        f = GridFunction(1, 2, rng.uniform(0, 1, 4))
        e1 = poly_error(f, ROOT1, 1, 1)
        osc = mean_oscillation(f, ROOT1)
        if e1 > 0:
            worst_lo = min(worst_lo, osc / e1)
            worst_hi = max(worst_hi, osc / e1)
        assert e1 <= osc + 1e-12 and osc <= 2 * e1 + 1e-12
    print(f"osc/E1 over 1000 grids ranged [{worst_lo:.4f}, {worst_hi:.4f}]")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16 - 1),
       st.floats(-5, 5, allow_nan=False),
       st.sampled_from([1, 2]), st.sampled_from([1, 2, 3]))
def test_translation_by_constant(seed, shift, q, k):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1, 1, 4)
    a = poly_error(GridFunction(1, 2, vals), ROOT1, k, q)
    b = poly_error(GridFunction(1, 2, vals + shift), ROOT1, k, q)
    assert a == pytest.approx(b, abs=1e-12)


def _brute_force_l1(f, c, k, grid_pts=21, rounds=6):
    """3-level refinement search over polynomial coefficients."""
    from oscnorm.local_poly import _l1_integrator
    from oscnorm.grid import multi_indices
    exps = multi_indices(f.dimension, k - 1)
    integrate = _l1_integrator(f, c, exps)
    center = np.zeros(len(exps))
    width = 2.0 * max(1.0, np.abs(f.cube_values(c)).max())
    best = math.inf
    for _ in range(rounds):
        axes = [np.linspace(cc - width, cc + width, grid_pts) for cc in center]
        for combo in itertools.product(*axes):
            obj = integrate(np.array(combo)).sum()
            if obj < best:
                best, center = obj, np.array(combo)
        width *= 2.2 / (grid_pts - 1)
    return best


@pytest.mark.parametrize("k", [1, 2])
def test_exactness_against_refinement_search(k):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(8):
        f = GridFunction(1, 2, rng.uniform(-1, 1, 4))
        ours = poly_error(f, ROOT1, k, 1)
        brute = _brute_force_l1(f, ROOT1, k)
        worst = max(worst, abs(ours - brute))
        assert ours <= brute + 1e-9        # never worse than the search
        assert abs(ours - brute) < 1e-6
    print(f"k={k}: worst |ours - brute| = {worst:.2e}")


def test_near_best_certificates_on_random_grids():
    rng = np.random.default_rng(7)
    factors = []
    for _ in range(25):
        f = GridFunction(1, 3, rng.uniform(0, 1, 8))
        fit = best_fit(f, ROOT1, 2, 1)
        factors.append(fit.near_best_factor)
        assert fit.near_best_factor >= 1.0
        assert fit.error >= 0.0
    print(f"near-best factors: max {max(factors):.5f}")
    assert max(factors) <= 1.1


def test_2d_affine_l1_exact_residuals():
    rng = np.random.default_rng(3)
    f = GridFunction(2, 1, rng.uniform(-1, 1, 4))
    fit = best_fit(f, ROOT2, 2, 1)
    cells = residual_cell_integrals(f, fit, 1)
    # residual integrals recompose to the reported error
    assert cells.sum() == pytest.approx(fit.error, abs=1e-12)
    assert not fit.approximate


def test_2d_quadratic_flagged_approximate():
    rng = np.random.default_rng(4)
    f = GridFunction(2, 1, rng.uniform(-1, 1, 4))
    fit = best_fit(f, ROOT2, 3, 1)
    assert fit.approximate        # quadrature-based objective in 2D
    assert fit.error >= 0.0


def test_residual_integrals_l2_match_error():
    rng = np.random.default_rng(9)
    f = GridFunction(1, 3, rng.uniform(-1, 1, 8))
    for k in (1, 2, 3):
        fit = best_fit(f, ROOT1, k, 2)
        cells = residual_cell_integrals(f, fit, 2)
        assert math.sqrt(max(cells.sum(), 0.0)) == pytest.approx(
            fit.error, abs=1e-12), k


def test_subcube_fit():
    f = GridFunction(1, 2, [5.0, 5.0, 1.0, 3.0])
    c = CubeId(1, (1,))
    fit = best_fit(f, c, 1, 1)
    assert fit.coeffs == pytest.approx([1.0])    # lower median of (1, 3)
    assert fit.error == pytest.approx(2.0 * 0.25)


def test_l1_certificate_memory_stays_small():
    """The LP certificate of a 512-cell root fit has 4,096 subcells: a
    dense ``(2m, d + m)`` design with its identity block would trace ~900 MB,
    the sparse one a few MB."""
    f = GridFunction(1, 9, np.random.default_rng(3).uniform(0.0, 1.0, 512))
    tracemalloc.start()
    try:
        fit = best_fit(f, ROOT1, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert 1.0 <= fit.near_best_factor < math.inf
