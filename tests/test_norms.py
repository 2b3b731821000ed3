"""Oscillation norms, certified bounds, and rearrangement functionals.

Golden values below are hand-derived for tiny grids; ordering properties are
spot-checked on random grids against the exact enumeration paths.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnorm import norms
from oscnorm.families import validate
from oscnorm.grid import (CubeId, GridFunction, cube_index, iter_cubes,
                          level_offsets)
from oscnorm.norms import (NormParams, NormReport, bmo_norm, family_value,
                           garo_norm, lp_norm, packing_sup_norm, rearrangement,
                           ri_functionals, scaled_error_levels,
                           sparse_norm_bounds, sparse_sup_exhaustive)
from oscnorm.local_poly import scaled_error
from oracles import antichain_value_max

STEP = GridFunction(1, 1, [0.0, 1.0])
ROOT = CubeId(0, (0,))


# -- golden values on the unit step -------------------------------------------

def test_step_packing_sup():
    rep = packing_sup_norm(STEP, NormParams.jn(1.0))
    assert rep.exact and rep.value == pytest.approx(0.5)
    assert rep.witness.cubes == (ROOT,)


def test_step_bmo():
    assert bmo_norm(STEP) == pytest.approx(0.5)
    rep = packing_sup_norm(STEP, NormParams.bmo())
    assert rep.value == pytest.approx(0.5)


def test_step_sparse_sup():
    rep = sparse_sup_exhaustive(STEP, NormParams.sjn(2.0))
    assert rep.value == pytest.approx(0.5)
    assert rep.extras["weighted_value"] == pytest.approx(0.5)


def test_step_bounds_bracket():
    rep = sparse_norm_bounds(STEP, NormParams.sjn(1.0))
    assert rep.value_lower == pytest.approx(0.5)
    assert rep.value_upper == pytest.approx(1.0)
    assert not rep.exact
    with pytest.raises(ValueError, match="bracketed"):
        rep.value


def test_step_garo():
    rep = garo_norm(STEP, 2.0)
    assert rep.exact and rep.value == pytest.approx(0.5)
    assert rep.extras["jn_value"] == pytest.approx(0.5)
    with pytest.raises(ValueError, match="p > 1"):
        garo_norm(STEP, 1.0)


# -- identities and orderings --------------------------------------------------

@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_riesz_identity(p):
    rng = np.random.default_rng(int(p))
    worst = 0.0
    for n, depth in ((1, 3), (2, 2)):
        for _ in range(25):
            f = GridFunction(n, depth, rng.uniform(-1, 1, 2 ** (n * depth)))
            rep = packing_sup_norm(f, NormParams.riesz(p))
            ref = lp_norm(f, p)
            worst = max(worst, abs(rep.value - ref) / ref)
            assert rep.value == pytest.approx(ref, rel=1e-10)
            # the witness must be a packing attaining the value
            assert rep.witness is not None
    print(f"p={p}: worst relative gap {worst:.2e}")


def test_riesz_witness_is_finest_level():
    f = GridFunction(1, 2, [1.0, -2.0, 3.0, -4.0])
    rep = packing_sup_norm(f, NormParams.riesz(2.0))
    levels = {c.level for c in rep.witness.cubes}
    assert levels == {2}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([1.0, 2.0, 4.0]))
def test_jn_below_sjn(seed, p):
    rng = np.random.default_rng(seed)
    f = GridFunction(1, 2, rng.uniform(0, 1, 4))
    jn = packing_sup_norm(f, NormParams.jn(p)).value
    sjn = sparse_sup_exhaustive(f, NormParams.sjn(p)).value
    assert jn <= sjn + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([1.5, 2.0, 4.0]))
def test_garo_below_jn(seed, p):
    rng = np.random.default_rng(seed)
    f = GridFunction(1, 3, rng.uniform(0, 1, 8))
    g = garo_norm(f, p)
    assert g.value <= g.extras["jn_value"] + 1e-12


def test_fractional_refinement_below_plain():
    rng = np.random.default_rng(13)
    for _ in range(20):
        f = GridFunction(1, 2, rng.uniform(0, 1, 4))
        plain = sparse_sup_exhaustive(
            f, NormParams.sv(2.0, 1, 1, 0.5)).value
        refined = sparse_sup_exhaustive(
            f, NormParams.sv_fractional(2.0, 1, 1, 0.5, 1)).value
        assert refined <= plain + 1e-12


def test_sv_fractional_order():
    params = NormParams.sv_fractional(2.0, 1, 1, 0.5, 1)
    assert params.family_order == pytest.approx(0.5)
    params2 = NormParams.sv_fractional(2.0, 1, 1, 1.0, 2)
    assert params2.family_order == pytest.approx(0.5)


def test_bounds_bracket_exhaustive_value():
    rng = np.random.default_rng(3)
    for p in (1.0, 2.0, 4.0):
        for _ in range(30):
            f = GridFunction(1, 3, rng.uniform(0, 1, 8))
            exact = sparse_sup_exhaustive(f, NormParams.sjn(p)).value
            rep = sparse_norm_bounds(f, NormParams.sjn(p))
            assert rep.value_lower <= exact + 1e-12
            assert exact <= rep.value_upper + 1e-10


@pytest.mark.parametrize("n, depth", [(1, 2), (1, 3), (2, 1)])
def test_k0_bounds_bracket_exhaustive_value(n, depth):
    """``k = 0`` compares with the zero polynomial: the bracket's upper side
    is the maximal function of ``|f|^q`` itself, its lower side a family
    value of the same errors, and together they hold the exact value."""
    rng = np.random.default_rng(10 * n + depth)
    for q in (1, 2):
        for p in (1.0, 2.0, math.inf):
            params = NormParams.sv(p, 0, q, 0.0)
            for _ in range(20):
                f = GridFunction(n, depth, rng.uniform(-1.0, 1.0,
                                                       1 << (n * depth)))
                exact = sparse_sup_exhaustive(f, params).value
                rep = sparse_norm_bounds(f, params)
                assert rep.value_lower <= exact * (1 + 1e-12), (q, p)
                assert exact <= rep.value_upper * (1 + 1e-12), (q, p)


def test_core_form_below_weighted_form():
    rng = np.random.default_rng(4)
    for _ in range(30):
        f = GridFunction(1, 2, rng.uniform(0, 1, 4))
        rep = sparse_sup_exhaustive(f, NormParams.sjn(2.0))
        assert rep.value <= rep.extras["weighted_value"] + 1e-12
        assert rep.extras["weighted_value"] <= 2 ** 0.5 * rep.value + 1e-12


def test_infinite_p_collapses_to_max_scaled():
    rng = np.random.default_rng(6)
    f = GridFunction(1, 3, rng.uniform(0, 1, 8))
    params = NormParams.jn(math.inf)
    rep = packing_sup_norm(f, params)
    direct = max(
        scaled_error(f, c, 1, 1, 0.0, convention="V")
        for c in iter_cubes(3, 1)
    )
    assert rep.value == pytest.approx(direct, abs=1e-12)
    assert rep.value == pytest.approx(bmo_norm(f), abs=1e-15)
    # sparse sup at p=inf sees the same singleton maximum
    srep = sparse_sup_exhaustive(
        f, NormParams(k=1, q=1, lam=0.0, p=math.inf, convention="V",
                      family_class="sparse", family_order=1.0))
    assert srep.value == pytest.approx(direct, abs=1e-12)


def test_packing_dp_matches_antichain_oracle_2d():
    """Regression: 2D sibling grouping in the tree DP is not contiguous."""
    rng = np.random.default_rng(8)
    for p in (1.0, 2.0):
        for _ in range(15):
            f = GridFunction(2, 2, rng.uniform(0, 1, 16))
            params = NormParams.jn(p)
            rep = packing_sup_norm(f, params)
            flat = np.concatenate(scaled_error_levels(f, params))
            meas = np.concatenate([
                np.full(1 << (2 * lvl), 4.0 ** -lvl) for lvl in range(3)])
            oracle = antichain_value_max(flat ** p * meas, 2, 2) ** (1 / p)
            assert rep.value == pytest.approx(oracle, abs=1e-12)
            # witness recomputes to the reported value
            w_idx = [cube_index(c, 2) for c in rep.witness.cubes]
            w_val = float(((flat[w_idx] ** p) * meas[w_idx]).sum()) ** (1 / p)
            assert w_val == pytest.approx(rep.value, abs=1e-12)


def test_scaled_error_levels_match_direct():
    rng = np.random.default_rng(9)
    f = GridFunction(1, 2, rng.uniform(0, 1, 4))
    for params in (NormParams.jn(2.0), NormParams.riesz(2.0),
                   NormParams.sv(2.0, 2, 2, 0.5),
                   NormParams.sjn(2.0)):
        levels = scaled_error_levels(f, params)
        for c in iter_cubes(2, 1):
            want = scaled_error(f, c, params.k, params.q, params.lam,
                                convention=params.convention)
            got = float(levels[c.level][c.coords[0]])
            assert got == pytest.approx(want, abs=1e-12), (params, c)


# every route with a level kernel, as (k, q)
KERNEL_ROUTES = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2), (3, 2)]


@pytest.mark.parametrize("n, depth", [(1, 10), (2, 5), (1, 16), (2, 8)])
@pytest.mark.parametrize("dist", ["uniform", "lognormal"])
def test_one_cube_has_the_bits_of_its_level_sweep(n, depth, dist):
    """A single cube is its level kernel's one-row call: ``scaled_error``
    equals the entry of ``scaled_error_levels`` bit for bit, on every cube
    of the 1,024-cell grids and on 8 sampled cubes per level of the
    65,536-cell ones."""
    rng = np.random.default_rng(21)
    size = 1 << (n * depth)
    values = (rng.uniform(0.0, 1.0, size) if dist == "uniform"
              else rng.lognormal(0.0, 1.5, size))
    f = GridFunction(n, depth, values)
    offsets = level_offsets(depth, n)
    pick = np.arange(offsets[-1])
    if size > 1024:
        pick = np.unique(np.concatenate([
            rng.integers(lo, hi, 8) for lo, hi in zip(offsets, offsets[1:])]))
    cubes = list(iter_cubes(depth, n))
    for k, q in KERNEL_ROUTES:
        params = NormParams.packing(2.0, k, q, 0.5)
        flat = np.concatenate(scaled_error_levels(f, params))[pick]
        got = np.array([scaled_error(f, cubes[i], k, q, 0.5, convention="V")
                        for i in pick])
        assert (got == flat).all(), ((k, q), int((got != flat).sum()))


@pytest.mark.parametrize("n, depth", [(1, 16), (2, 8)])
def test_median_route_ignores_an_added_constant(n, depth):
    """BMO, JN_2 and the Garsia-Rodemich lower value of ``v + s`` equal
    those of ``(v + s) - s`` bit for bit: the deviations from the median
    are the same floats, so their sums are too."""
    rng = np.random.default_rng(1)
    v = rng.uniform(0.0, 1.0, 1 << (n * depth))
    for s in (1e6, 1e8, 1e12):
        f = GridFunction(n, depth, v + s)
        g = GridFunction(n, depth, f.values - s)
        assert bmo_norm(f) == bmo_norm(g), s
        gf, gg = garo_norm(f, 2.0), garo_norm(g, 2.0)
        assert gf.extras["jn_value"] == gg.extras["jn_value"], s
        assert gf.value_lower == gg.value_lower, s


@pytest.mark.parametrize("n, depth", [(1, 16), (2, 8)])
def test_bounds_upper_side_follows_an_added_constant(n, depth):
    """The ``sjn`` upper bound integrates ``|f - P|`` per cell with the
    fit's constant taken into the values, so for ``v + s`` it moves from
    that of ``(v + s) - s`` only as the root mean of ``v + s`` rounds, at
    ``eps * s`` scale."""
    v = np.random.default_rng(1).uniform(0.0, 1.0, 1 << (n * depth))
    for s in (1e4, 1e8, 1e12):
        f = GridFunction(n, depth, v + s)
        g = GridFunction(n, depth, f.values - s)
        upper = [sparse_norm_bounds(h, NormParams.sjn(2.0)).value_upper
                 for h in (f, g)]
        assert upper[0] == pytest.approx(upper[1], rel=1e-17 * s), s


@pytest.mark.parametrize("n, depth", [(1, 3), (2, 1)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_q2_routes_follow_an_added_constant(n, depth, k):
    """``sv(2, k, 2)`` of ``v + s`` at oracle scale: the exact value equals
    that of ``(v + s) - s`` bit for bit, since every ``L^2`` error does.
    The upper bound integrates ``|f - P|^2`` with the fit's constant taken
    into the values, so it stays above the exact value and within a few
    ``ulp(s)`` of the bound for ``(v + s) - s``."""
    v = np.random.default_rng(0).uniform(0.0, 1.0, 1 << (n * depth))
    params = NormParams.sv(2.0, k, 2, 0.0)
    for s in (1e6, 1e9, 1e12):
        f = GridFunction(n, depth, v + s)
        g = GridFunction(n, depth, f.values - s)
        exact = sparse_sup_exhaustive(f, params).value
        assert exact == sparse_sup_exhaustive(g, params).value > 0.0, s
        upper = [sparse_norm_bounds(h, params).value_upper for h in (f, g)]
        assert upper[0] >= exact, s
        assert abs(upper[0] - upper[1]) <= 4 * math.ulp(s), s


@pytest.mark.parametrize("n, depth, limit", [(1, 16, 10_500_000),
                                             (2, 8, 9_500_000)])
def test_bounds_hold_nothing_on_the_grid(n, depth, limit):
    """``sjn`` bounds read the root fit from the root's cells alone: the
    traced peak stays under ``limit`` (8.9 / 7.7 MB; 13.1 / 12.6 MB when a
    whole-grid moment table was built for it), and once the report is
    dropped nothing is left on the grid."""
    f = GridFunction(n, depth, np.random.default_rng(0).uniform(
        0.0, 1.0, 1 << (n * depth)))
    # one small call first, so one-time caches are not counted
    sparse_norm_bounds(GridFunction(n, 1, np.arange(2.0 ** n)),
                       NormParams.sjn(2.0))
    tracemalloc.start()
    try:
        rep = sparse_norm_bounds(f, NormParams.sjn(2.0))
        peak = tracemalloc.get_traced_memory()[1]
        del rep
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak <= limit
    assert held <= 65_536
    assert f._error_levels == {}


def test_sparse_sup_exhaustive_refuses_large_tree():
    f = GridFunction(1, 4, np.random.default_rng(0).uniform(0.0, 1.0, 16))
    with pytest.raises(ValueError, match="sparse_norm_bounds"):
        sparse_sup_exhaustive(f, NormParams.sjn(2.0))


def test_error_levels_are_swept_once_per_grid(monkeypatch):
    """One sweep of local fits per grid and (k, q), whatever p, lambda,
    convention or entry point; a new grid sweeps again."""
    calls = []
    poly_error = norms.poly_error
    monkeypatch.setattr(norms, "poly_error",
                        lambda *args: calls.append(args) or poly_error(*args))
    rng = np.random.default_rng(4)
    f = GridFunction(1, 2, rng.uniform(0, 1, 4))
    first = np.concatenate(scaled_error_levels(f, NormParams.sv(1.0, 2, 1,
                                                                0.0)))
    assert len(calls) == 7
    for p in (1.0, 2.0, 4.0):
        sparse_sup_exhaustive(f, NormParams.sv(p, 2, 1, 0.0))
        sparse_norm_bounds(f, NormParams.sv(p, 2, 1, 0.0))
        packing_sup_norm(f, NormParams.packing(p, 2, 1, 0.5))
    assert len(calls) == 7
    again = np.concatenate(scaled_error_levels(f, NormParams.sv(1.0, 2, 1,
                                                                0.0)))
    assert again.tobytes() == first.tobytes()
    g = GridFunction(1, 2, f.values)
    scaled_error_levels(g, NormParams.sv(1.0, 2, 1, 0.0))
    assert len(calls) == 14
    zeros = dataclasses.replace(f, values=np.zeros(4))
    assert not np.concatenate(scaled_error_levels(
        zeros, NormParams.sv(1.0, 2, 1, 0.0))).any()
    assert len(calls) == 21


@pytest.mark.parametrize("n, k", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_held_error_levels_are_read_only(n, k):
    f = GridFunction(n, 2, np.random.default_rng(5).uniform(0, 1, 4 ** n))
    scaled = scaled_error_levels(f, NormParams.packing(2.0, k, 1, 0.0))
    errs = f._error_levels[k, 1]
    assert len(errs) == len(scaled) == 3
    for err in errs:
        assert not err.flags.writeable
        with pytest.raises(ValueError):
            err[0] = 1.0
    # the scaled levels are the caller's own arrays
    scaled[0][0] = -1.0
    again = scaled_error_levels(f, NormParams.packing(2.0, k, 1, 0.0))
    assert again[0][0] != -1.0


def test_family_value_manual():
    f = GridFunction(1, 2, [0.0, 1.0, 4.0, 9.0])
    fam = validate([ROOT, CubeId(1, (0,))], 1.0, dimension=1, depth=2)
    params = NormParams.sjn(2.0)
    flat = np.concatenate(scaled_error_levels(f, params))
    want = math.sqrt(
        flat[cube_index(ROOT, 1)] ** 2 * 0.5          # core [1/2, 1)
        + flat[cube_index(CubeId(1, (0,)), 1)] ** 2 * 0.5)
    assert family_value(f, fam, params) == pytest.approx(want, abs=1e-14)


def test_garo_sandwich_at_scale():
    """Past enumeration scale the report is a certified bracket."""
    rng = np.random.default_rng(10)
    exact_count = 0
    for _ in range(20):
        f = GridFunction(1, 4, rng.uniform(0, 1, 16))
        rep = garo_norm(f, 2.0)
        assert rep.value_lower <= rep.value_upper + 1e-15
        if rep.exact:
            exact_count += 1
            assert rep.value_lower == rep.value_upper
    print(f"sandwich closed exactly on {exact_count}/20 grids")


def test_garo_large_scale_agrees_with_enumeration_when_exact():
    # depth 3 is enumerable: compare the two code paths
    rng = np.random.default_rng(12)
    for _ in range(10):
        f = GridFunction(1, 3, rng.uniform(0, 1, 8))
        small = garo_norm(f, 2.0)     # enumeration path (15 nodes)
        assert small.exact
        assert small.value_lower <= small.extras["jn_value"] + 1e-12


# -- rearrangement-invariant functionals ---------------------------------------

FOUR = GridFunction(1, 2, [3.0, 1.0, 2.0, 2.0])


def test_rearrangement_goldens():
    r = rearrangement(FOUR)
    assert r.values.tolist() == [3.0, 2.0, 2.0, 1.0]
    assert r.block == pytest.approx(0.25)
    assert r.star(0.2) == 3.0
    assert r.star(0.25) == 2.0          # right-continuous
    assert r.star_left(0.25) == 3.0
    assert r.star_left(1.0) == 1.0
    assert r.starstar(0.5) == pytest.approx(2.5)
    assert r.starstar(1.0) == pytest.approx(2.0)


def test_rearrangement_domains():
    r = rearrangement(FOUR)
    with pytest.raises(ValueError):
        r.star(1.0)
    with pytest.raises(ValueError):
        r.star(-0.1)
    with pytest.raises(ValueError):
        r.star_left(0.0)
    with pytest.raises(ValueError):
        r.starstar(0.0)


def test_ri_functionals_goldens():
    out = ri_functionals(FOUR, 2.0)
    assert out.bds == pytest.approx(4.0 / 3.0)
    assert out.weak_lp == pytest.approx(math.sqrt(3.0))
    with pytest.raises(ValueError, match="p > 1"):
        ri_functionals(FOUR, 1.0)


def test_weak_lp_simple_values():
    ones = GridFunction(1, 1, [1.0, 1.0])
    assert ri_functionals(ones, 2.0).weak_lp == pytest.approx(1.0)
    half = GridFunction(1, 1, [1.0, 0.0])
    assert ri_functionals(half, 2.0).weak_lp == pytest.approx(math.sqrt(0.5))


def test_llogl_of_one():
    out = ri_functionals(GridFunction(1, 2, np.ones(4)), 2.0)
    mu = out.llogl
    assert mu == pytest.approx(1.256750618537767, abs=1e-9)
    # defining equation of the Luxemburg gauge at the solution
    assert (1 / mu) * math.log(math.e + 1 / mu) == pytest.approx(1.0, abs=1e-9)


def test_llogl_scales_linearly():
    rng = np.random.default_rng(14)
    f = GridFunction(1, 3, rng.uniform(0, 2, 8))
    a = ri_functionals(f, 2.0).llogl
    b = ri_functionals(GridFunction(1, 3, 3.0 * f.values), 2.0).llogl
    assert b == pytest.approx(3.0 * a, rel=1e-8)
    zero = GridFunction(1, 1, [0.0, 0.0])
    assert ri_functionals(zero, 2.0).llogl == 0.0


def test_weak_lp_skips_the_llogl_bisection(monkeypatch):
    def refuse(f):
        raise AssertionError("the L log L gauge was computed")

    monkeypatch.setattr(norms, "_luxemburg_llogl", refuse)
    out = ri_functionals(FOUR, 2.0)
    assert out.weak_lp == pytest.approx(math.sqrt(3.0))
    assert out.bds == pytest.approx(4.0 / 3.0)
    with pytest.raises(AssertionError, match="gauge"):
        out.llogl


def reference_llogl(f):
    """The per-grid bisection that ``norms.llogl_rows`` batches, kept as
    its reference: every row of the batch must have these bits."""
    v = np.abs(f.values)
    if not np.any(v > 0):
        return 0.0
    meas = f.cell_measure

    def integral(mu):
        x = v / mu
        return float((x * np.log(math.e + x)).sum() * meas)

    hi = max(float(v.max()), 1e-300)
    while integral(hi) > 1.0:
        hi *= 2.0
    lo = hi
    while integral(lo) <= 1.0:
        lo /= 2.0
        if lo < 1e-300:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if integral(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * hi:
            break
    return hi


@st.composite
def llogl_batches(draw):
    """Signed rows at scales 1e-8 to 1e8, some all zero, in 1D or 2D."""
    dimension = draw(st.sampled_from((1, 2)))
    depth = draw(st.integers(0, 4))
    cells = 1 << (dimension * depth)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()) and draw(st.booleans()):
            rows.append(np.zeros(cells))
            continue
        scale = 10.0 ** draw(st.floats(-8.0, 8.0))
        unit = draw(st.lists(st.floats(-1.0, 1.0), min_size=cells,
                             max_size=cells))
        rows.append(scale * np.array(unit))
    return dimension, depth, np.array(rows)


@settings(max_examples=150, deadline=None)
@given(llogl_batches())
def test_llogl_rows_have_the_bits_of_the_per_grid_bisection(batch):
    dimension, depth, rows = batch
    got = norms.llogl_rows(rows, 2.0 ** (-dimension * depth))
    for t, row in enumerate(rows):
        f = GridFunction(dimension, depth, row)
        want = reference_llogl(f)
        assert got[t].hex() == want.hex()
        assert norms._luxemburg_llogl(f).hex() == want.hex()


@pytest.mark.parametrize("values", [[0.0, 1.0], [0.0, 1.0, 2.0, 3.0]])
def test_llogl_is_scale_invariant(values):
    """The bisection stops on a relative bracket: ``llogl(s f) / s`` reads
    the same at every scale (an absolute stop read 0.75 for ``[0, 1]`` at
    ``s = 1e-9``, against 0.70899 at ``s = 1``)."""
    depth = len(values).bit_length() - 1
    ratios = [ri_functionals(GridFunction(1, depth, s * np.array(values)),
                             2.0).llogl / s
              for s in (1.0, 1e-6, 1e-9, 1e-12)]
    assert ratios == pytest.approx([ratios[0]] * 4, rel=1e-9)


def test_llogl_at_the_float_limit_raises():
    # the bracket starts above half the float maximum
    with pytest.raises(ValueError, match="float limit"):
        norms._luxemburg_llogl(GridFunction(1, 1, [1.7e308, 1.7e308]))
    # the one doubling would overflow
    with pytest.raises(ValueError, match="float limit"):
        norms.llogl_rows(np.array([[1.0, 1.0], [8e307, 8e307]]), 0.5)
    # the same doubling one decade lower stays in range
    f = GridFunction(1, 1, [8e306, 8e306])
    assert norms._luxemburg_llogl(f) == reference_llogl(f)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_weak_lp_below_lp(seed):
    rng = np.random.default_rng(seed)
    f = GridFunction(1, 3, rng.uniform(-2, 2, 8))
    for p in (1.5, 2.0, 4.0):
        assert ri_functionals(f, p).weak_lp <= lp_norm(f, p) + 1e-12


def test_bds_vanishes_for_constants():
    f = GridFunction(1, 2, np.full(4, 7.0))
    assert ri_functionals(f, 2.0).bds == pytest.approx(0.0)


def test_bds_at_the_float_limit():
    """The prefix sum of ``bds`` would overflow here; it is scaled by an
    exact power of two, so the gap scales with the values bit for bit."""
    assert ri_functionals(GridFunction(1, 1, [1.7e308, 1.7e308]), 2.0).bds \
        == 0.0
    values = np.array([1.0, 3.0, 0.0, 2.0])
    small = ri_functionals(GridFunction(1, 2, values), 2.0).bds
    huge = ri_functionals(GridFunction(1, 2, values * 2.0 ** 1021), 2.0).bds
    assert small > 0.0 and huge == small * 2.0 ** 1021


def _bds_by_points(f):
    """sup(f** - f*) by one starstar call per block midpoint and right
    endpoint: the reference for the prefix-sum evaluation."""
    r = rearrangement(f)
    bds = 0.0
    for j in range(r.values.size):
        for t in ((j + 0.5) * r.block, (j + 1.0) * r.block):
            fstar_plus = r.star(t) if t < 1.0 else r.star_left(1.0)
            bds = max(bds, r.starstar(t) - fstar_plus)
    return bds


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1),
       st.sampled_from([(1, 0), (1, 1), (1, 5), (1, 8), (2, 3)]),
       st.sampled_from(["uniform", "lognormal", "ties"]))
def test_bds_matches_per_point_loop(seed, shape, dist):
    n, depth = shape
    rng = np.random.default_rng(seed)
    size = 1 << (n * depth)
    values = {"uniform": lambda: rng.uniform(-2, 2, size),
              "lognormal": lambda: rng.lognormal(0.0, 1.5, size),
              "ties": lambda: rng.integers(0, 3, size).astype(float)}[dist]()
    f = GridFunction(n, depth, values)
    want = _bds_by_points(f)
    assert abs(ri_functionals(f, 2.0).bds - want) <= 1e-12 * abs(want)


def test_lp_norm_values():
    assert lp_norm(STEP, 1.0) == pytest.approx(0.5)
    assert lp_norm(STEP, 2.0) == pytest.approx(math.sqrt(0.5))
    assert lp_norm(STEP, math.inf) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        lp_norm(STEP, 0.5)


def test_report_json_shape():
    rep = packing_sup_norm(STEP, NormParams.jn(2.0))
    d = rep.to_json_dict()
    assert d["exact"] is True and d["dyadic"] is True
    assert d["params"]["p"] == 2.0
    assert d["witness"]["kind"] == "packing"
    inf_d = packing_sup_norm(STEP, NormParams.bmo()).to_json_dict()
    assert inf_d["params"]["p"] == "inf"
