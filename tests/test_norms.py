"""Oscillation norms, certified bounds, and rearrangement functionals.

Golden values below are hand-derived for tiny grids; ordering properties are
spot-checked on random grids against the exact enumeration paths.
"""

import dataclasses
import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnorm import norms, suites
from oscnorm.families import CubeFamily, validate
from oscnorm.grid import (CubeId, GridFunction, cube_index, iter_cubes,
                          level_offsets)
from oscnorm.norms import (NormParams, NormReport, bmo_norm, family_value,
                           garo_norm, lp_norm, packing_sup_norm, rearrangement,
                           ri_functionals, scaled_error_levels,
                           sparse_norm_bounds, sparse_sup_exhaustive)
from oscnorm.local_poly import (PolyFit, best_fit, convention_exponent,
                                error_levels, poly_error, scaled_error)
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


@pytest.mark.parametrize("n, depth", [(1, 6), (2, 3)])
def test_k0_bounds_lower_side_from_the_finest_packing(n, depth):
    """At ``k = 0`` a finest cell's error is its own size, not 0, so the
    finest packing stays a lower-side candidate: on a uniform grid at
    ``p = 2`` it beats the stopping-time family and every singleton."""
    f = GridFunction(n, depth, np.random.default_rng(0).uniform(
        0.0, 1.0, 1 << (n * depth)))
    params = NormParams.sv(2.0, 0, 1, 0.0)
    rep = sparse_norm_bounds(f, params)
    start, stop = level_offsets(depth, n)[depth:]
    assert rep.witness.index.tolist() == list(range(start, stop))
    assert rep.value_lower == family_value(f, rep.witness, params) > 0.0


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
        f, NormParams(k=1, q=1, lam=0.0, p=math.inf, family_order=1.0))
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


# every route whose levels are one kernel call each, as (k, q)
KERNEL_ROUTES = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2), (3, 2)]
# the L^1 routes fit their rows one at a time: small grids only
L1_ROUTES = [(2, 1), (3, 1)]


@pytest.mark.parametrize("n, depth", [(1, 5), (2, 2), (1, 10), (2, 5),
                                      (1, 16), (2, 8)])
@pytest.mark.parametrize("dist", ["uniform", "lognormal"])
def test_one_cube_has_the_bits_of_its_level_sweep(n, depth, dist):
    """A single cube is its level's one-row call: ``scaled_error`` equals
    the entry of ``scaled_error_levels`` bit for bit, on every cube of the
    grids of up to 1,024 cells and on 8 sampled cubes per level of the
    65,536-cell ones; the ``L^1``, ``k >= 2`` routes on the grids of up to
    32 cells."""
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
    for k, q in KERNEL_ROUTES + (L1_ROUTES if size <= 32 else []):
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


def test_sparse_sup_exhaustive_refuses_large_tree(monkeypatch):
    """Order 1 runs on the coverage DP up to 2^16 cells, a thinner order
    on the family tables up to 15 tree nodes; past its cap each refuses at
    once, before any error sweep, and names the bracket instead."""
    monkeypatch.setattr(norms, "_scaled_flat", None)   # a sweep would fail
    for f, params, cap in (
            (GridFunction(1, 17, np.zeros(1 << 17)), NormParams.sjn(2.0),
             "coverage DP runs up to 65536 cells, got 131072"),
            (GridFunction(2, 9, np.zeros(1 << 18)),
             NormParams.sv(2.0, 2, 2, 0.0), "got 262144"),
            (GridFunction(1, 4, np.zeros(16)),
             NormParams.sv_fractional(2.0, 1, 1, 0.5, 1),
             "oracle scale exceeded: 31 nodes > 15")):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{cap}; use "
                           "sparse_norm_bounds"):
            sparse_sup_exhaustive(f, params)
        assert time.perf_counter() - start < 0.01


def test_each_functional_refuses_the_other_family_class(monkeypatch):
    """Packing suprema refuse sparse parameters and sparse ones packing
    parameters, before any error sweep, and the sparse refusal does not
    send the caller to ``sparse_norm_bounds``, which refuses them too."""
    monkeypatch.setattr(norms, "_scaled_flat", None)   # a sweep would fail
    with pytest.raises(ValueError, match="family_class='packing'"):
        packing_sup_norm(STEP, NormParams.sjn(2.0))
    for functional in (sparse_sup_exhaustive, sparse_norm_bounds):
        with pytest.raises(ValueError, match="got 'packing'$"):
            functional(STEP, NormParams.jn(2.0))


def test_norm_params_name_the_class_by_the_order_alone():
    """``family_order`` is the one field for the class: ``None`` for
    packings, a number for sparse families; the rest is read off it."""
    names = [fl.name for fl in dataclasses.fields(NormParams)]
    assert names == ["k", "q", "lam", "p", "family_order"]
    for knob in ("convention", "family_class"):
        with pytest.raises(TypeError):
            NormParams(**{knob: "SV"})
    packing, sparse = NormParams(), NormParams(family_order=0.5)
    assert (packing.family_class, packing.convention) == ("packing", "V")
    assert (sparse.family_class, sparse.convention) == ("sparse", "SV")
    with pytest.raises(ValueError, match="family_class='packing'"):
        packing_sup_norm(STEP, sparse)


# to_json_dict of each named functional, as json.dumps writes it in order
PARAMS_JSON = [
    (NormParams.jn(2.0), '{"k": 1, "q": 1, "lambda": 0.0, "p": 2.0, '
     '"convention": "V", "family_class": "packing", "family_order": null}'),
    (NormParams.bmo(), '{"k": 1, "q": 1, "lambda": 0.0, "p": "inf", '
     '"convention": "V", "family_class": "packing", "family_order": null}'),
    (NormParams.riesz(3.0), '{"k": 0, "q": 1, "lambda": 0.0, "p": 3.0, '
     '"convention": "V", "family_class": "packing", "family_order": null}'),
    (NormParams.packing(1.5, 2, 2, 0.5), '{"k": 2, "q": 2, "lambda": 0.5, '
     '"p": 1.5, "convention": "V", "family_class": "packing", '
     '"family_order": null}'),
    (NormParams.sjn(math.inf), '{"k": 1, "q": 1, "lambda": 0.0, "p": "inf", '
     '"convention": "SV", "family_class": "sparse", "family_order": 1.0}'),
    (NormParams.sv(4.0, 3, 1, 0.25), '{"k": 3, "q": 1, "lambda": 0.25, '
     '"p": 4.0, "convention": "SV", "family_class": "sparse", '
     '"family_order": 1.0}'),
    (NormParams.sv_fractional(2.0, 2, 1, 0.5, 2), '{"k": 2, "q": 1, '
     '"lambda": 0.5, "p": 2.0, "convention": "SV", "family_class": '
     '"sparse", "family_order": 0.75}'),
]


@pytest.mark.parametrize("params, text", PARAMS_JSON)
def test_norm_params_json_keeps_its_bytes(params, text):
    assert json.dumps(params.to_json_dict()) == text


@pytest.mark.parametrize("order",
                         [0.0, 1.5, math.nan, "weak", "packing", "0.5", True])
@pytest.mark.parametrize("functional",
                         [sparse_sup_exhaustive, sparse_norm_bounds])
def test_sparse_functionals_refuse_a_bad_order_before_any_work(
        monkeypatch, functional, order):
    """Only a number in (0, 1] is an order.  Anything else is refused
    before the error sweep or the family table, by a message that does
    not send the caller to ``sparse_norm_bounds``."""
    monkeypatch.setattr(norms, "_scaled_flat", None)   # a sweep would fail
    monkeypatch.setattr(norms, "family_tables", None)  # so would a table
    with pytest.raises(ValueError,
                       match=r"order (must lie )?in \(0, 1\], got ") as exc:
        functional(STEP, NormParams(family_order=order))
    assert "sparse_norm_bounds" not in str(exc.value)


def test_a_bad_order_is_refused_at_once_at_the_cell_cap():
    f = GridFunction(1, 22, np.zeros(1 << 22))
    params = dataclasses.replace(NormParams.sjn(2.0), family_order=1.5)
    for functional in (sparse_sup_exhaustive, sparse_norm_bounds):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="sparseness order"):
            functional(f, params)
        assert time.perf_counter() - start < 0.01


P_FUNCTIONALS = {
    "packing": lambda p: packing_sup_norm(STEP, NormParams.jn(p)),
    "exhaustive": lambda p: sparse_sup_exhaustive(STEP, NormParams.sjn(p)),
    "bounds": lambda p: sparse_norm_bounds(STEP, NormParams.sjn(p)),
    "garo": lambda p: garo_norm(STEP, p),
    "ri": lambda p: ri_functionals(STEP, p),
}


@pytest.mark.parametrize("p", [0.0, 0.5, -1.0, math.nan])
@pytest.mark.parametrize("functional", list(P_FUNCTIONALS))
def test_functionals_refuse_a_bad_p_before_any_work(monkeypatch,
                                                     functional, p):
    """``NormParams`` refuses ``p < 1`` and a NaN ``p`` when it is built,
    so no functional sweeps an error or builds a table for one; ``garo``
    and the rearrangement functionals refuse ``p <= 1`` themselves."""
    monkeypatch.setattr(norms, "scaled_error_levels", None)
    monkeypatch.setattr(norms, "family_tables", None)
    monkeypatch.setattr(norms, "rearrangement", None)
    with pytest.raises(ValueError, match=r"p (must be >= 1 or inf|> 1), got "):
        P_FUNCTIONALS[functional](p)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("functional", [packing_sup_norm,
                                        sparse_sup_exhaustive,
                                        sparse_norm_bounds])
def test_functionals_refuse_a_non_finite_lambda_before_any_work(
        monkeypatch, functional, lam):
    monkeypatch.setattr(norms, "scaled_error_levels", None)
    monkeypatch.setattr(norms, "family_tables", None)
    order = None if functional is packing_sup_norm else 1.0
    with pytest.raises(ValueError, match="lambda must be finite, got "):
        functional(STEP, NormParams(lam=lam, family_order=order))



def test_garo_refuses_a_nan_p_for_its_own_reason():
    """``garo_norm`` tests ``p > 1`` itself, before it builds the
    ``NormParams`` that would refuse a NaN for another reason."""
    with pytest.raises(ValueError,
                       match="the functional needs p > 1, got nan"):
        garo_norm(STEP, math.nan)


@pytest.mark.parametrize("k, q, says", [
    (1.5, 1, "k must lie in 0..3, got 1.5"),
    (2.0, 1, "k must lie in 0..3, got 2.0"),
    (True, 1, "k must lie in 0..3, got True"),
    (4, 1, "k must lie in 0..3, got 4"),
    (1, 1.0, "q must be 1 or 2, got 1.0"),
    (1, True, "q must be 1 or 2, got True"),
], ids=["k-1.5", "k-2.0", "k-True", "k-4", "q-1.0", "q-True"])
def test_k_and_q_must_be_integers_in_range(k, q, says):
    """A float or a bool is refused as ``k`` or ``q`` even where its value
    is in range, by ``NormParams`` when it is built and by ``best_fit``."""
    with pytest.raises(ValueError, match=f"^{says}$"):
        NormParams(k=k, q=q)
    with pytest.raises(ValueError, match=f"^{says}$"):
        best_fit(STEP, ROOT, k, q)


def test_numpy_integer_k_and_q_are_kept_as_python_ints():
    """NumPy integers are accepted and stored as Python ints, so the
    parameters write as JSON and the fit is the one of plain ints."""
    params = NormParams.sv(2.0, np.int64(2), np.int64(2), 0.0)
    assert (type(params.k), type(params.q)) == (int, int)
    assert (json.dumps(params.to_json_dict())
            == json.dumps(NormParams.sv(2.0, 2, 2, 0.0).to_json_dict()))
    fit, want = (best_fit(STEP, ROOT, k, q) for k, q in
                 ((np.int64(2), np.int64(1)), (2, 1)))
    assert (type(fit.degree_bound), type(fit.q)) == (int, int)
    assert fit.local_coeffs.tobytes() == want.local_coeffs.tobytes()
    assert fit.error == want.error


# -- what the result types derive -------------------------------------------

def test_result_types_store_no_field_they_can_derive():
    """Exactness, a family's kind and a fit's plain basis are read off the
    other fields, so none of them can disagree with those fields."""
    def names(cls):
        return [fl.name for fl in dataclasses.fields(cls)]
    assert names(NormReport) == ["params", "value_lower", "value_upper",
                                 "witness", "extras"]
    assert names(CubeFamily) == ["dimension", "depth", "order", "index",
                                 "parent", "core_counts"]
    assert names(PolyFit) == ["cube", "degree_bound", "q", "local_coeffs",
                              "error", "near_best_factor", "approximate"]
    assert validate([ROOT], "packing", dimension=1, depth=1).kind == "packing"
    assert validate([ROOT], 0.5, dimension=1, depth=1).kind == "sparse"
    fit = best_fit(FOUR, ROOT, 2, 2)
    assert fit.exponents == ((0,), (1,))
    x = np.array([[0.125], [0.625]])
    assert fit.coeffs[0] + fit.coeffs[1] * x[:, 0] == pytest.approx(
        fit.evaluate(x))


def test_a_report_is_exact_when_its_sides_meet():
    params = NormParams.sjn(2.0)
    assert NormReport(params, 0.0, 0.0, None).exact
    rep = NormReport(params, 0.25, 0.5, None)
    assert not rep.exact
    with pytest.raises(ValueError, match="bracketed"):
        rep.value
    for lower, upper in ((math.nan, math.nan), (0.0, math.inf),
                         (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="the result is not finite"):
            NormReport(params, lower, upper, None)


EXACTNESS_CALLS = {
    "jn": lambda f: packing_sup_norm(f, NormParams.jn(2.0)),
    "bmo": lambda f: packing_sup_norm(f, NormParams.bmo()),
    "v-k2-q2": lambda f: packing_sup_norm(
        f, NormParams.packing(3.0, 2, 2, 0.0)),
    "sjn-exact": lambda f: sparse_sup_exhaustive(f, NormParams.sjn(2.0)),
    "sv-exact": lambda f: sparse_sup_exhaustive(
        f, NormParams.sv(math.inf, 2, 2, 0.0)),
    "sjn-bounds": lambda f: sparse_norm_bounds(f, NormParams.sjn(2.0)),
    "sv-bounds": lambda f: sparse_norm_bounds(
        f, NormParams.sv(3.0, 2, 2, 0.5)),
    "garo": lambda f: garo_norm(f, 2.0),
    "garo-inf": lambda f: garo_norm(f, math.inf),
}


@pytest.mark.parametrize("dist", ["uniform", "lognormal", "constant"])
@pytest.mark.parametrize("n, depth", [(1, 1), (1, 2), (1, 3), (2, 1), (1, 10)])
def test_every_report_is_exact_exactly_when_its_sides_meet(n, depth, dist):
    """Every functional's report is finite, and exact just when its sides
    meet; on a constant grid every bracket closes at 0."""
    rng = np.random.default_rng([n, depth])
    size = 1 << (n * depth)
    values = {"uniform": rng.uniform(0.0, 1.0, size),
              "lognormal": rng.lognormal(0.0, 1.5, size),
              "constant": np.full(size, 0.75)}[dist]
    f = GridFunction(n, depth, values)
    for name, call in EXACTNESS_CALLS.items():
        rep = call(f)
        assert math.isfinite(rep.value_lower), name
        assert math.isfinite(rep.value_upper), name
        assert rep.exact == (rep.value_lower == rep.value_upper), name
        if dist == "constant":
            assert rep.exact and rep.value == 0.0, name


def test_functionals_refuse_a_non_finite_result():
    """The differences of these finite values overflow: each functional
    raises once instead of returning a non-finite value marked exact."""
    f = GridFunction(1, 1, [1e308, -1e308])
    calls = [lambda: packing_sup_norm(f, NormParams.jn(2.0)),
             lambda: bmo_norm(f), lambda: garo_norm(f, 2.0),
             lambda: sparse_sup_exhaustive(f, NormParams.sjn(2.0))]
    for call in calls:
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="not finite"):
            call()


def test_a_report_refuses_a_non_finite_extra():
    """The exact sparse value of this grid is finite, but the unpenalised
    coverage pass overflows in finest-cell units, so its weighted value is
    infinite: the report refuses it, as it refuses a non-finite side."""
    f = GridFunction(1, 2, [1.6e154, 0.0, 0.0, 0.0])
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="^the result is not finite: "):
        sparse_sup_exhaustive(f, NormParams.sjn(2.0))
    params = NormParams.sjn(2.0)
    for bad in (math.inf, math.nan, np.float64(-np.inf)):
        with pytest.raises(ValueError, match="the result is not finite"):
            NormReport(params, 1.0, 1.0, None, extras={"jn_value": bad})
    assert NormReport(params, 1.0, 1.0, None,
                      extras={"jn_value": 2.0, "count": 3}).exact


def test_sparse_bounds_name_an_overflowing_residual():
    """The root fit of these finite values overflows: the bounds say so,
    and do not call the input values non-finite."""
    f = GridFunction(1, 1, [1e308, -1e308])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="overflows near the float limit$"):
        sparse_norm_bounds(f, NormParams.sjn(2.0))


def test_convention_exponent_refuses_an_unknown_convention():
    with pytest.raises(ValueError, match="'V' or 'SV', got 'W'"):
        convention_exponent("W", 0.0, 1, 1)


@pytest.mark.parametrize("fit", [best_fit, poly_error])
@pytest.mark.parametrize("cube, reason", [
    (CubeId(0, (0, 0)), "cube has dimension 2, grid has 1"),
    (CubeId(2, (0,)), "cube level 2 is finer than grid depth 1"),
])
def test_fits_refuse_a_cube_off_the_grid(fit, cube, reason):
    with pytest.raises(ValueError, match=reason):
        fit(STEP, cube, 1, 1)


@pytest.mark.parametrize("n, depth", [(1, 3), (1, 6), (2, 2), (2, 3)])
@pytest.mark.parametrize("dist", ["uniform", "lognormal", "tied", "offset"])
def test_one_cell_fits_are_exactly_zero(n, depth, dist):
    """Every ``k >= 1`` level sweep skips the fits of one-cell cubes and
    reads 0.0 there, which is the bits each route's own one-row fit
    returns (never -0.0), with the cell's value as the constant."""
    v = _values(np.random.default_rng(6), 1 << (n * depth), dist)
    f = GridFunction(n, depth, v)
    finest = list(iter_cubes(depth, n))[level_offsets(depth, n)[depth]:]
    for k, q in itertools.product((1, 2, 3), (1, 2)):
        swept = error_levels(f, k, q)[depth]
        fits = [poly_error(f, c, k, q) for c in finest]
        assert [e.hex() for e in fits] == [e.hex() for e in swept.tolist()]
        assert {e.hex() for e in fits} == {(0.0).hex()}
        fit = best_fit(f, finest[-1], k, q)
        assert fit.local_coeffs[0] == v[-1] and not fit.local_coeffs[1:].any()
        assert fit.error == 0.0 and fit.near_best_factor == 1.0


@pytest.mark.parametrize("n", [1, 2])
def test_errors_of_a_zero_grid_are_zero(n):
    errs = np.concatenate(error_levels(GridFunction(n, 2, np.zeros(4 ** n)),
                                       2, 1))
    assert {e.hex() for e in errs.tolist()} == {(0.0).hex()}


def _values(rng, size, dist):
    if dist == "uniform":
        return rng.uniform(0.0, 1.0, size)
    if dist == "lognormal":
        return rng.lognormal(0.0, 1.5, size)
    if dist == "tied":
        return rng.integers(0, 3, size).astype(float)
    return 1e12 + rng.uniform(0.0, 1.0, size)


@pytest.mark.parametrize("n, depth", [(1, 1), (1, 2), (1, 3), (2, 1)])
@pytest.mark.parametrize("dist", ["uniform", "lognormal", "tied"])
def test_setup_and_per_p_halves_give_the_functionals_bits(n, depth, dist):
    """One sweep of scaled errors, the suites' ``_sparse_rows`` over the
    finite ``p`` and ``_packing_rows`` per ``p``, and one multi-p call of
    ``_bounds`` give the values of the three public functionals bit for
    bit, at each (k, q) of sv-equivalence; the bounds name the public
    witness."""
    f = GridFunction(n, depth, _values(np.random.default_rng(depth),
                                       1 << (n * depth), dist))
    for k, q in ((1, 1), (2, 2), (3, 2), (2, 1)):
        # the scaled errors and the bounds do not read params.p
        scaled = norms._scaled_flat(f, NormParams.sv(math.inf, k, q, 0.0))
        levels = scaled_error_levels(f, NormParams.packing(math.inf, k, q,
                                                           0.0))
        # at lam = 0 the packing's V scaling is the sparse SV one
        split = np.split(scaled, level_offsets(depth, n)[1:-1])
        assert len(split) == len(levels)
        for got, want in zip(split, levels):
            assert got.tobytes() == want.tobytes()
        finite = (1.0, 2.0, 4.0)
        svs = suites._sparse_rows(levels, n, finite)
        _, bounds = norms._bounds(f, NormParams.sv(math.inf, k, q, 0.0),
                                  scaled, finite + (math.inf,))
        for i, (p, (lower, upper, best)) in enumerate(
                zip(finite + (math.inf,), bounds)):
            bracket = sparse_norm_bounds(f, NormParams.sv(p, k, q, 0.0))
            assert lower.hex() == bracket.value_lower.hex()
            assert upper.hex() == bracket.value_upper.hex()
            best_index = [best] if isinstance(best, int) else best.index
            assert bracket.witness.index.tolist() == list(best_index)
            if i < len(finite):
                sv = sparse_sup_exhaustive(f, NormParams.sv(p, k, q, 0.0))
                pk = packing_sup_norm(f, NormParams.packing(p, k, q, 0.0))
                assert float(svs[i]).hex() == sv.value.hex()
                assert (float(suites._packing_rows(levels, n, p)).hex()
                        == pk.value.hex())


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
