"""Best local polynomial approximation in L^1 and L^2.

The q=2 and (q=1, k=1) solvers are exact; the q=1, k>=2 path polishes the
exact objective (Newton in 1D and 2D affine) or solves its midpoint rule
(a vertex descent in the 2D quadratic corner) and certifies the fit by
L^1-L^inf duality, so those tests check certified ratios rather than
equalities.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscnorm import local_poly
from oscnorm.grid import CubeId, GridFunction, iter_cubes, multi_indices
from oscnorm.local_poly import (_exponents, _l1_integrator, best_fit,
                                l2_level_fits, mean_oscillation, poly_error,
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
    integrate = _l1_integrator(f.cell_block(c), c.side, exps)
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


@pytest.mark.parametrize("q", [1, 2])
def test_residual_integrals_k0_are_powers_of_the_values(q):
    """Against the zero polynomial a cell's residual is ``|v|^q |cell|``."""
    rng = np.random.default_rng(q)
    for n, depth, cube in ((1, 3, ROOT1), (1, 3, CubeId(1, (1,))),
                           (2, 2, ROOT2), (2, 2, CubeId(1, (0, 1)))):
        f = GridFunction(n, depth, rng.uniform(-2.0, 2.0, 1 << (n * depth)))
        fit = best_fit(f, cube, 0, q)
        want = np.abs(f.cell_block(cube)).ravel() ** q * f.cell_measure
        assert np.array_equal(residual_cell_integrals(f, fit, q), want)


@pytest.mark.parametrize("n, depth", [(1, 0), (1, 5), (2, 0), (2, 3)])
def test_constant_residuals_have_the_bits_of_the_integrator(n, depth):
    """Against a constant ``a0`` (0 at ``k = 0``) the ``q = 1`` residual is
    ``|v - a0| |cell|`` per cell, with the bits of the exact ``L^1``
    integrator at that constant, on the root and on a subcube, for values
    far from 0, tied, tiny and of both signs."""
    rng = np.random.default_rng(depth)
    size = 1 << (n * depth)
    exps = _exponents(n, 1)
    for values in (rng.uniform(0.0, 1.0, size), rng.lognormal(0.0, 1.5, size),
                   rng.uniform(0.0, 1.0, size) + 1e12,
                   rng.integers(0, 3, size).astype(float),
                   1e-300 * rng.uniform(0.0, 1.0, size),
                   rng.normal(0.0, 1.0, size)):
        f = GridFunction(n, depth, values)
        for cube in {CubeId(0, (0,) * n), CubeId(min(depth, 1), (0,) * n)}:
            for k, fit_q in ((0, 1), (1, 1), (1, 2)):
                fit = best_fit(f, cube, k, fit_q)
                a0 = fit.local_coeffs[0] if k else 0.0
                want = _l1_integrator(f.cell_block(cube), cube.side,
                                      exps)(np.array([a0]))
                got = residual_cell_integrals(f, fit, 1)
                assert got.tobytes() == want.tobytes(), (k, fit_q, cube)


def test_constant_residuals_stay_within_one_copy_of_the_values():
    """A constant's residual at 1D L=16 traces one array of the cube's
    cells, at either ``q``; cutting each cell at the roots of ``v - a0``
    traced 17 of them at ``q = 1``."""
    f = GridFunction(1, 16, np.random.default_rng(16).uniform(0.0, 1.0,
                                                               1 << 16))
    for k in (0, 1):
        for q in (1, 2):
            fit = best_fit(f, ROOT1, k, 2 if k else q)
            tracemalloc.start()
            try:
                residual_cell_integrals(f, fit, q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * f.values.nbytes, (k, q, peak)


# -- metamorphic checks of the L^1, k >= 2 route ------------------------------

def _symmetries(n, j):
    """``(name, map of the cell values, map of one level's errors)`` for the
    reflections along each axis, the 2D transpose and scaling by ``2^-j``;
    both maps act on arrays of shape ``(2^l,) * n``."""
    maps = [(f"reflect-{ax}", lambda v, ax=ax: np.flip(v, ax),
             lambda e, ax=ax: np.flip(e, ax)) for ax in range(n)]
    if n == 2:
        maps.append(("transpose", np.transpose, np.transpose))
    maps.append((f"scale-2^-{j}", lambda v: v * 2.0 ** -j,
                 lambda e: e * 2.0 ** -j))
    return maps


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([1, 2]),
       st.integers(1, 8), st.sampled_from([2, 3]),
       st.sampled_from(["uniform", "lognormal"]), st.integers(0, 60))
@example(0, 1, 8, 3, "lognormal", 7)
@example(1, 2, 8, 3, "lognormal", 7)
@example(2, 2, 8, 2, "uniform", 60)
def test_l1_error_levels_follow_the_symmetries(seed, n, depth, k, dist, j):
    """``error_levels(f, k, 1)`` at ``k`` = 2, 3 commutes with reflection
    along each axis and the 2D transpose, and scales with the values, to
    1e-13 relative, on 1D L<=8 and 2D L<=4: checks of the Newton polish,
    the quadratic corner and the two-cell closed form at scales no oracle
    reaches.  The drawn ``depth`` is halved, rounding up, in 2D."""
    depth = -(-depth // n)
    rng = np.random.default_rng(seed)
    size = 1 << (n * depth)
    values = (rng.uniform(0.0, 1.0, size) if dist == "uniform"
              else rng.lognormal(0.0, 1.5, size)).reshape((1 << depth,) * n)
    base = local_poly.error_levels(GridFunction(n, depth, values.ravel()),
                                   k, 1)
    for name, on_values, on_errors in _symmetries(n, j):
        moved = local_poly.error_levels(
            GridFunction(n, depth, on_values(values).ravel()), k, 1)
        for level, (want, got) in enumerate(zip(base, moved)):
            shape = (1 << level,) * n
            np.testing.assert_allclose(
                got, on_errors(want.reshape(shape)).ravel(), rtol=1e-13,
                atol=0.0, err_msg=f"{name}, level {level}")


def test_l1_levels_take_their_starts_once_per_level(monkeypatch):
    """At 1D L=3, ``k = 2``, the ``L^1`` levels read their median and
    ``L^2`` starts from one call of each level kernel per level of cubes
    of 4 or more cells (2 each), not one per such cube (3).  The two-cell
    level is fitted in closed form and the one-cell level is zero, so
    neither calls them."""
    calls = {"l2_level_fits": [], "median_deviations": []}
    for name, seen in calls.items():
        real = getattr(local_poly, name)
        monkeypatch.setattr(local_poly, name,
                            lambda *args, _real=real, _seen=seen:
                            _seen.append(args) or _real(*args))
    f = GridFunction(1, 3, np.random.default_rng(3).uniform(0.0, 1.0, 8))
    errs = local_poly.error_levels(f, 2, 1)
    assert [e.shape for e in errs] == [(1,), (2,), (4,), (8,)]
    assert len(calls["l2_level_fits"]) == len(calls["median_deviations"]) == 2
    assert [args[1] for args in calls["l2_level_fits"]] == [0, 1]


def test_level_sweep_fits_no_one_cell_cube():
    """``error_levels`` returns the finest level as zeros, unfitted: at 2D
    L=8, ``k = 3, q = 2``, the sweep traces 9.2 MB, where fitting the
    65,536 one-cell cubes and dropping their coefficients traced 31.6 MB."""
    f = GridFunction(2, 8, np.random.default_rng(8).uniform(0.0, 1.0,
                                                            1 << 16))
    tracemalloc.start()
    try:
        local_poly.error_levels(f, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


def test_subcube_fit():
    f = GridFunction(1, 2, [5.0, 5.0, 1.0, 3.0])
    c = CubeId(1, (1,))
    fit = best_fit(f, c, 1, 1)
    assert fit.coeffs == pytest.approx([1.0])    # lower median of (1, 3)
    assert fit.error == pytest.approx(2.0 * 0.25)


def test_l1_certificate_memory_stays_small():
    """The certificate of a 512-cell root fit reads ``d`` rows of cell
    moments; an LP certificate on 4,096 subcells as a dense primal program,
    ``(2m, d + m)`` with its identity block, would trace ~900 MB."""
    f = GridFunction(1, 9, np.random.default_rng(3).uniform(0.0, 1.0, 512))
    tracemalloc.start()
    try:
        fit = best_fit(f, ROOT1, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert 1.0 <= fit.near_best_factor < math.inf


@pytest.mark.parametrize("k", [2, 3])
def test_root_l1_certificate_at_full_subcell_budget(k):
    """A 1,024-cell root fit, which filled the 8,192-subcell budget of the
    former LP certificate, is certified by duality, and tightly."""
    f = GridFunction(1, 10, np.random.default_rng(10).uniform(0.0, 1.0, 1024))
    fit = best_fit(f, ROOT1, k, 1)
    assert 1.0 <= fit.near_best_factor <= 1.000001


def test_quadratic_corner_fit_memory_stays_small():
    """A 2D L=7 root fit at ``k = 3, q = 1`` runs its vertex descent on the
    whole 65,536-subcell grid of the 2-point rule: a handful of arrays of
    that grid, and no ``(65,536, 6)`` design matrix, which alone would
    trace 3 MB."""
    f = GridFunction(2, 7, np.random.default_rng(7).uniform(0.0, 1.0, 4 ** 7))
    tracemalloc.start()
    try:
        fit = best_fit(f, ROOT2, 3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert 1.0 <= fit.near_best_factor < math.inf


def test_quadratic_residual_memory_stays_small():
    """The q=1 residual of a 2D L=8 quadratic fit is filled one block of
    cell rows at a time: a whole 4,096 x 4,096 midpoint grid would trace
    at least 128 MB per array."""
    f = GridFunction(2, 8, np.random.default_rng(8).uniform(0.0, 1.0, 4 ** 8))
    fit = best_fit(f, ROOT2, 3, 2)
    tracemalloc.start()
    try:
        cells = residual_cell_integrals(f, fit, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert cells.shape == (4 ** 8,) and np.all(cells >= 0.0)


# root ``best_fit(f, root, k, 1)`` on 2D lognormal grids (seed, depth): the
# error and the certificate.  The k=3 pins are the vertex descent's: exact
# on the 16-point midpoint rule at depth 3, where the former simplex polish
# read 0.7290379923282061 and 1.0141574917130218 with factors 1.00022 and
# 1.00047; at depth 5 the descent solves the 8-point rule, within the
# subcell budget, and the error is the 16-point objective there, 4e-9 and
# 6e-9 relative above the former 1.1473002645777166 and 1.12218112388446
# (factors 1.0000008 and 1.0000016).  The k=2 factors were re-pinned when
# the duality bound replaced the LP certificate of the affine fits; the LP
# read 1.0000915010640279, 1.0000563735304757, 1.000000049271706 and
# 1.0000003451201556.
FIT_PINS = [
    # (depth, k, seed, error, near_best_factor)
    (3, 2, 11, 0.7493585165251333, 1.0000000268712192),
    (3, 2, 12, 1.0632070434606433, 1.0000000002471348),
    (3, 3, 11, 0.7290379921211063, 1.0),
    (3, 3, 12, 1.014157491682084, 1.0000000000000002),
    (5, 2, 11, 1.1473492012862838, 1.0000000096821673),
    (5, 2, 12, 1.1225417652695975, 1.0000000116128873),
    (5, 3, 11, 1.147300268870372, 1.0000000242383411),
    (5, 3, 12, 1.1221811304880664, 1.0000000585807072),
]


@pytest.mark.parametrize("depth, k, seed, error, factor", FIT_PINS)
def test_root_l1_fits_keep_their_pinned_values(depth, k, seed, error, factor):
    f = GridFunction(2, depth, np.random.default_rng(seed).lognormal(
        0.0, 1.0, 4 ** depth))
    fit = best_fit(f, ROOT2, k, 1)
    assert fit.error == pytest.approx(error, rel=1e-9)
    assert fit.near_best_factor == pytest.approx(factor, rel=1e-6)
    assert fit.near_best_factor >= 1.0
    assert fit.approximate == (k == 3)


def test_quadratic_corner_fit_is_the_midpoint_optimum():
    """2D L=1, k=3: the former simplex polish stalled 8.9% above the LP
    certificate here.  The vertex descent ends at the optimum of the
    16-point midpoint rule, where its own dual bound is the objective, so
    the factor is 1 to rounding."""
    f = GridFunction(2, 1, np.random.default_rng(0).lognormal(0.0, 1.5, 4))
    fit = best_fit(f, ROOT2, 3, 1)
    assert fit.error > 0.0
    assert 1.0 <= fit.near_best_factor <= 1.0 + 1e-12
    assert fit.approximate


def test_edge_step_without_a_turning_breakpoint_is_a_dead_end():
    """Along ``r + t c`` with ``r = [1, -1]`` and ``c = [1, 1]`` the one
    breakpoint, at ``t = 1``, adds 2 to the slope: a slope of -5 never
    turns, so there is no line minimum, and a slope of -1 turns there."""
    r, c = np.array([1.0, -1.0]), np.array([1.0, 1.0])
    zero = np.zeros(2, dtype=bool)
    assert local_poly._edge_step(r, c, -5.0, zero, 1.0) == (0.0, None)
    assert local_poly._edge_step(r, c, -1.0, zero, 1.0) == (1.0, 1)


def test_vertex_descent_stops_where_an_edge_has_no_line_minimum(
        monkeypatch):
    """No grid tried reaches the descent's dead ends (a search over 5,009
    random root fits at 2D L=1-2 found none), so ``_edge_step`` is made
    to report one.
    Before a vertex the descent keeps its start and the residuals' signs;
    at a vertex it keeps the vertex and the dual it has, whose excess
    shows the fit is not certified as optimal."""
    rng = np.random.default_rng(0)
    block = rng.lognormal(0.0, 1.5, (2, 2))
    exps = _exponents(2, 3)
    start = np.zeros(len(exps))
    start[0] = np.median(block)
    edge_step = local_poly._edge_step
    monkeypatch.setattr(local_poly, "_edge_step", lambda *args: (0.0, None))
    a, y, y_max, basis, pivots = local_poly._vertex_descent(block, 4, exps,
                                                            start)
    signs = np.sign(np.repeat(np.repeat(block - start[0], 4, 0), 4, 1))
    assert np.array_equal(a, start) and np.array_equal(y, signs)
    assert (y_max, basis, pivots) == (1.0, [], 0)

    calls = []
    monkeypatch.setattr(local_poly, "_edge_step", lambda *args: (
        calls.append(args) or edge_step(*args) if len(calls) < len(exps)
        else (0.0, None)))
    a, y, y_max, basis, pivots = local_poly._vertex_descent(block, 4, exps,
                                                            start)
    assert len(basis) == len(exps) and pivots == 1 and y_max > 1.0
    mids = (np.arange(8) + 0.5) / 8 - 0.5
    u, w = np.divmod(np.asarray(basis), 8)
    fitted = sum(c * mids[u] ** i * mids[w] ** j
                 for c, (i, j) in zip(a, exps))
    assert np.allclose(fitted, block[u // 4, w // 4], rtol=1e-12)


def test_converged_fit_is_not_flagged_approximate():
    """A 1D fit has a closed-form objective and, here, a finite certified
    factor of 1 + 7e-8, so it is not approximate; the fit is not the exact
    minimum, so the factor is not 1."""
    f = GridFunction(1, 7, np.random.default_rng(100).uniform(0.0, 1.0, 128))
    fit = best_fit(f, CubeId(1, (0,)), 3, 1)
    assert 1.0 < fit.near_best_factor < 1.00001
    assert not fit.approximate


@pytest.mark.parametrize("depth, cube", [
    (1, ROOT2), (2, ROOT2), (2, CubeId(1, (1, 0))), (3, ROOT2),
    (3, CubeId(1, (0, 1))),
])
def test_uncertified_quadratic_corner_is_the_certified_fit(depth, cube):
    """In the 2D quadratic corner the certificate reads the descent's dual
    and moves no coefficient, so both calls give the bits."""
    f = GridFunction(2, depth, np.random.default_rng(depth).lognormal(
        0.0, 1.0, 4 ** depth))
    fit = best_fit(f, cube, 3, 1)
    assert fit.error > 0.0
    assert poly_error(f, cube, 3, 1) == fit.error


@pytest.mark.parametrize("k", [2, 3])
def test_uncertified_fit_past_the_polish_cap_is_the_certified_fit(k):
    """A 1D fit of 2,048 cells, past the 1,024-cell cap of the former
    simplex polish, is polished by Newton as any other, and is the same fit
    with or without the certificate."""
    f = GridFunction(1, 11, np.random.default_rng(11).uniform(0.0, 1.0, 2048))
    fit = best_fit(f, ROOT1, k, 1)
    assert 1.0 <= fit.near_best_factor < 1.001
    assert poly_error(f, ROOT1, k, 1) == fit.error


# -- the Newton polish of the 1D and 2D affine fits --------------------------

NEWTON_SHAPES = [(1, 2), (1, 3), (2, 2)]


def _smooth_point(rng, n, depth, k):
    """The root integrator of a uniform grid and a coefficient vector near
    the data, at which the zero set of ``v - P`` crosses some cells."""
    f = GridFunction(n, depth, rng.uniform(0.0, 1.0, 1 << (n * depth)))
    root = CubeId(0, (0,) * n)
    exps = _exponents(n, k)
    integrate = _l1_integrator(f.cell_block(root), root.side, exps)
    while True:
        a = rng.uniform(-1.0, 1.0, len(exps))
        a[0] = rng.uniform(0.2, 0.8)
        if np.trace(integrate(a, True)[2]) > 0.0:
            return integrate, a


@pytest.mark.parametrize("n, k", NEWTON_SHAPES)
def test_newton_derivatives_match_central_differences(n, k):
    """The closed-form gradient is the central difference of the exact
    objective, and the Hessian that of the gradient, at points where no
    root sits on a cell edge."""
    rng = np.random.default_rng(10 * n + k)
    h = 1e-7
    for depth in (1, 3, 5 // n):
        integrate, a = _smooth_point(rng, n, depth, k)
        _, g, H = integrate(a, True)
        steps = h * np.eye(len(a))
        g_fd = [(integrate(a + e).sum() - integrate(a - e).sum()) / (2 * h)
                for e in steps]
        H_fd = [(integrate(a + e, True)[1] - integrate(a - e, True)[1])
                / (2 * h) for e in steps]
        np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(H, H_fd, rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(H, H.T)


@pytest.mark.parametrize("k", [2, 3])
def test_band_hessian_is_the_gradient_difference(k):
    """The 1D Hessian smoothed over ``|v - P| < band / 2``: its first row is
    the gradient's difference across ``band`` in the constant, and a
    narrow band gives the exact Hessian."""
    rng = np.random.default_rng(k)
    for depth in (2, 4, 6):
        integrate, a = _smooth_point(rng, 1, depth, k)
        _, _, H = integrate(a, True)
        for band in (1e-2, 1e-1):
            shift = np.zeros(len(a))
            shift[0] = band / 2
            diff = integrate(a + shift, True)[1] - integrate(a - shift, True)[1]
            row = integrate(a, True, band)[2][0]
            np.testing.assert_allclose(row * band, diff, rtol=1e-12,
                                       atol=1e-15)
        # the difference quotient cancels to ~1e-16 / band
        np.testing.assert_allclose(integrate(a, True, 1e-7)[2], H,
                                   rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("n, k", NEWTON_SHAPES)
def test_newton_routes_give_the_uncertified_bits(n, k):
    """Without the LP as a start the certificate changes no bit of the
    fit: ``poly_error`` is ``best_fit(..).error`` on every cube."""
    rng = np.random.default_rng(100 + 10 * n + k)
    for depth in range(1, 7 // n):
        for dist in ("uniform", "lognormal", "ties"):
            size = 1 << (n * depth)
            values = {"uniform": rng.uniform(0.0, 1.0, size),
                      "lognormal": rng.lognormal(0.0, 1.5, size),
                      "ties": rng.integers(0, 3, size).astype(float)}[dist]
            f = GridFunction(n, depth, values)
            level = int(rng.integers(0, depth))
            cube = CubeId(level, tuple(int(x) for x in
                                       rng.integers(0, 1 << level, n)))
            fit = best_fit(f, cube, k, 1)
            assert poly_error(f, cube, k, 1) == fit.error, (depth, dist)
            assert fit.near_best_factor >= 1.0
            assert not fit.approximate


def test_newton_routes_never_call_the_simplex(monkeypatch):
    """No fit calls scipy's Nelder-Mead or HiGHS: the 1D and 2D affine fits
    are polished by Newton, the 2D quadratic corner is solved by vertex
    descent, and all of them are certified by duality."""
    from scipy import optimize

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(optimize, "minimize", refuse("Nelder-Mead"))
    monkeypatch.setattr(optimize, "linprog", refuse("linprog"))
    rng = np.random.default_rng(4)
    for n, k in NEWTON_SHAPES + [(2, 3)]:
        f = GridFunction(n, 3, rng.uniform(0.0, 1.0, 1 << (3 * n)))
        root = CubeId(0, (0,) * n)
        fit = best_fit(f, root, k, 1)
        assert fit.error == poly_error(f, root, k, 1) > 0
        assert 1.0 <= fit.near_best_factor < 1.000001


def test_failed_certificate_reports_an_infinite_factor(monkeypatch):
    """A quadratic-corner bound at 0 certifies nothing: the factor of a 2D
    quadratic fit is infinite and the fit approximate, and the error is
    the uncertified one, bit for bit."""
    f = GridFunction(2, 2, np.random.default_rng(5).uniform(0.0, 1.0, 16))
    want = poly_error(f, ROOT2, 3, 1)
    monkeypatch.setattr(local_poly, "_quad_dual_bound", lambda *args: 0.0)
    fit = best_fit(f, ROOT2, 3, 1)
    assert fit.near_best_factor == math.inf
    assert fit.approximate
    assert fit.error == want > 0.0


@pytest.mark.parametrize("n, k", NEWTON_SHAPES)
@pytest.mark.parametrize("bound", [0.0, -1.0])
def test_non_positive_dual_bound_reports_an_infinite_factor(monkeypatch, n,
                                                            k, bound):
    """A duality bound at or below 0 certifies nothing: the factor of a 1D
    or 2D affine fit is infinite and the fit approximate, and the error is
    the uncertified one, bit for bit."""
    f = GridFunction(n, 6 // n, np.random.default_rng(5).uniform(
        0.0, 1.0, 1 << 6))
    root = CubeId(0, (0,) * n)
    want = poly_error(f, root, k, 1)
    monkeypatch.setattr(local_poly, "_dual_lower_bound",
                        lambda *args: bound)
    fit = best_fit(f, root, k, 1)
    assert fit.near_best_factor == math.inf
    assert fit.approximate
    assert fit.error == want > 0.0


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("bound", [0.0, -1.0])
def test_non_positive_dual_bound_of_two_cells_reports_an_infinite_factor(
        monkeypatch, k, bound):
    """So is the factor of a 1D two-cell fit, which is in closed form: the
    fit is approximate and the error the uncertified one, bit for bit."""
    f = GridFunction(1, 1, [0.25, 1.0])
    want = poly_error(f, ROOT1, k, 1)
    monkeypatch.setattr(local_poly, "_dual_lower_bound",
                        lambda *args: bound)
    fit = best_fit(f, ROOT1, k, 1)
    assert fit.near_best_factor == math.inf
    assert fit.approximate
    assert fit.error == want > 0.0


@pytest.mark.parametrize("n, k", NEWTON_SHAPES + [(2, 3)])
def test_constant_fits_of_tied_values_are_certified_tightly(n, k):
    """On values in {0, 1, 2} the fit is often the median, a kink of the
    objective, where ``y`` is free on the cells the constant matches; with
    ``y = 0`` there, the factors of these grids reached 5.5.  In the 2D
    quadratic corner the same ties make degenerate vertices, whole rows of
    zero residuals, on which pivots by the basis dual alone cycled."""
    worst = 1.0
    for depth in range(1, 9 // n):
        for seed in range(6):
            values = np.random.default_rng(seed).integers(0, 3, 1 << (n * depth))
            fit = best_fit(GridFunction(n, depth, values.astype(float)),
                           CubeId(0, (0,) * n), k, 1)
            worst = max(worst, fit.near_best_factor)
    print(f"worst factor - 1 = {worst - 1.0:.2e}")
    assert worst <= 1 + 1e-6


@pytest.mark.parametrize("rows", [
    # a perturbation linear along rows of subcells cycled here, factor 109
    [0.6071579418823742, 0.12962686746080343, 0.3477596383549971,
     0.07500519241205805],
    [0.31427975442173983, 0.9314430286269454, 0.9611009846460553,
     0.21110816243412434],
    [0.5, 0.25, 0.75, 0.5],
])
def test_quadratic_corner_of_values_constant_along_rows(rows):
    """Values that do not depend on ``w`` make the midpoint optimum a
    whole face: every fit on it matches the values along entire rows of
    subcells, so each vertex has dozens of zero residuals off its basis.
    The descent still ends at the optimum with its own certificate."""
    block = np.repeat(np.array(rows)[:, None], 4, axis=1)
    f = GridFunction(2, 2, block.ravel())
    fit = best_fit(f, ROOT2, 3, 1)
    assert fit.error > 0.0
    assert 1.0 <= fit.near_best_factor <= 1.0 + 1e-9
    assert poly_error(f, ROOT2, 3, 1) == fit.error


@pytest.mark.parametrize("seed", range(6))
def test_box_least_squares_reaches_targets_inside_the_box(seed):
    """A target inside ``A [-1, 1]^T`` is met to rounding by some ``y`` in
    the box; from outside, ``y`` stays in the box and ends no farther from
    the target than ``y = 0``."""
    rng = np.random.default_rng(seed)
    d, cells = int(rng.integers(1, 4)), int(rng.integers(1, 40))
    A = rng.uniform(-1.0, 1.0, (d, cells)) / cells
    inside = A @ rng.uniform(-1.0, 1.0, cells)
    y = local_poly._box_least_squares(A, inside)
    assert np.abs(y).max() <= 1.0
    assert np.abs(A @ y - inside).max() <= 1e-9 * np.abs(inside).max()
    outside = 3.0 * np.abs(A).sum(axis=1)
    y = local_poly._box_least_squares(A, outside)
    assert np.abs(y).max() <= 1.0
    assert np.linalg.norm(A @ y - outside) <= np.linalg.norm(outside)


# -- relative thresholds: fits and certificates do not depend on scale ------

SCALES = [0, 20, 40, 50, 60]


@pytest.mark.parametrize("n, depth, k", [(1, 3, 2), (1, 3, 3), (1, 6, 2),
                                         (1, 6, 3), (2, 2, 2), (2, 3, 2),
                                         (2, 1, 3), (2, 2, 3), (2, 3, 3)])
def test_fits_scale_with_the_values(n, depth, k):
    """``best_fit(2^-j f)`` is ``2^-j`` times the fit of ``f``: no threshold
    of the fit or its certificate has an absolute floor.  With a floor,
    ``2^-50 f`` on 1D L=3 kept its unpolished fit (0.238514 against
    0.235521 in units of the scale) with a certified factor of 1; the
    former simplex and LP of the 2D quadratic corner, with absolute
    tolerances, read 0.214274 at 2D L=2 and 0.223744 for ``2^-50 f``, with
    factors 1.0064 and 20.26.  Only the quadratic corner, whose objective
    is a midpoint rule, is approximate."""
    root = CubeId(0, (0,) * n)
    for seed in range(3):
        values = np.random.default_rng(seed).uniform(0.0, 1.0, 1 << (n * depth))
        base = best_fit(GridFunction(n, depth, values), root, k, 1)
        assert 1.0 <= base.near_best_factor < 1.000001
        for j in SCALES:
            fit = best_fit(GridFunction(n, depth, 2.0 ** -j * values), root,
                           k, 1)
            assert fit.error * 2.0 ** j == pytest.approx(base.error,
                                                         rel=1e-12), j
            assert fit.near_best_factor == pytest.approx(
                base.near_best_factor, rel=1e-6), j
            assert fit.approximate == (len(fit.exponents) == 6)


# -- q = 2 accuracy against exact rational arithmetic -------------------------

# the headline grids, 65,536 cells each: seeded uniform values
HEADLINE = [(1, 16), (2, 8)]


def _uniform_grid(n, depth):
    return GridFunction(n, depth, np.random.default_rng(0).uniform(
        0.0, 1.0, 1 << (n * depth)))


def exact_l2_error(f, cube, k):
    """``(E_k(f;Q)_2, ||f||_{L^2(Q)})`` from the projection residual
    ``int f^2 - b^T G^{-1} b`` in ``Fraction`` arithmetic, with ``b`` the
    cell values against exact local cell integrals of ``u^alpha``."""
    block = f.cell_block(cube)
    cells = block.shape[0]
    edges = [Fraction(2 * i - cells, 2 * cells) for i in range(cells + 1)]
    vol = Fraction(cube.measure)
    exps = multi_indices(f.dimension, k - 1)

    def mu(m):
        return Fraction(0) if m % 2 else Fraction(1, 2 ** m * (m + 1))

    vals = {idx: Fraction(float(block[idx])) for idx in np.ndindex(block.shape)}
    sq = sum(v * v for v in vals.values()) * vol / cells ** f.dimension
    b = [vol * sum(v * math.prod((edges[i + 1] ** (m + 1) - edges[i] ** (m + 1))
                                 / (m + 1) for i, m in zip(idx, alpha))
                   for idx, v in vals.items())
         for alpha in exps]
    # Gauss-Jordan on G a = b, G the Gram matrix of u^alpha on the cube
    rows = [[vol * math.prod(mu(x + y) for x, y in zip(al, be)) for be in exps]
             + [bb]
            for al, bb in zip(exps, b)]
    for c in range(len(exps)):
        for r in range(len(exps)):
            if r != c:
                t = rows[r][c] / rows[c][c]
                rows[r] = [x - t * y for x, y in zip(rows[r], rows[c])]
    a = [row[-1] / row[i] for i, row in enumerate(rows)]
    err_sq = sq - sum(x * y for x, y in zip(a, b))
    return math.sqrt(err_sq), math.sqrt(sq)


@pytest.mark.parametrize("n, depth", HEADLINE)
def test_l2_fits_are_exactly_zero_on_finest_cells(n, depth):
    """A cell holds a constant, so every fit reproduces it: the error is
    exactly 0, not a rounding residue."""
    f = _uniform_grid(n, depth)
    for k in (1, 2, 3):
        assert np.all(l2_level_fits(f, depth, k)[1] == 0.0)


@pytest.mark.parametrize("n, depth", HEADLINE)
def test_l2_fits_on_small_cubes_match_exact_projection(n, depth):
    """Cubes of 2 to 16 cells: the error is exact to rounding of ``E*``,
    the projection residual in rational arithmetic."""
    f = _uniform_grid(n, depth)
    rng = np.random.default_rng(1)
    worst = 0.0
    for level in range(depth - 1, depth - (5 if n == 1 else 3), -1):
        side = 1 << level
        pick = rng.integers(0, side ** n, 8)
        for k in (1, 2, 3):
            errs = l2_level_fits(f, level, k)[1]
            for i in pick:
                cube = CubeId(level, tuple(int(c) for c in np.unravel_index(
                    i, (side,) * n)))
                exact = exact_l2_error(f, cube, k)[0]
                worst = max(worst, abs(errs[i] - exact) / exact)
    print(f"max |E - E*| / E* = {worst:.3e}")
    assert worst <= 1e-14


def test_l2_two_cell_cubes_match_the_closed_form():
    """On a cube of two cells the best constant is their mean, so
    ``E_1 = sqrt(|Q|) |v1 - v2| / 2``: every cube one level above the
    finest of the 1D headline grid."""
    f = _uniform_grid(1, 16)
    errs = l2_level_fits(f, 15, 1)[1]
    closed = math.sqrt(2.0 ** -15) * np.abs(f.values[0::2]
                                            - f.values[1::2]) / 2
    assert np.max(np.abs(errs - closed) / closed) <= 1e-15


@pytest.mark.parametrize("n, depth", HEADLINE)
def test_l2_errors_ignore_an_added_constant(n, depth):
    """Every cube's values are taken relative to its first cell, which is
    exact for ``v + s``: the errors of ``v + s`` and ``(v + s) - s`` are
    the same floats, on every level and for every degree."""
    v = _uniform_grid(n, depth).values
    for s in (1e6, 1e9, 1e12):
        f = GridFunction(n, depth, v + s)
        g = GridFunction(n, depth, f.values - s)
        for k in (1, 2, 3):
            for level in range(depth + 1):
                ef, eg = (l2_level_fits(h, level, k)[1] for h in (f, g))
                assert (ef == eg).all(), (s, k, level)
                assert ef.any() or level == depth, (s, k, level)
