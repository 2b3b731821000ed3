"""Metamorphic checks of the tree passes at scales no oracle reaches.

Reflecting the grid along an axis and transposing a 2D grid map dyadic
cubes to dyadic cubes of the same level, and scaling the values by
``2^-j`` scales every local error by ``2^-j``, so the fractional maximal
function, the packing suprema, the exact sparse suprema, both sides of the
sparse brackets and of the Garsia-Rodemich functional commute with these
maps.  Refining every cell into its ``2^n`` children adds cubes of zero
oscillation, so the exact suprema keep their values.  The two sides sum in
different orders, so they agree to rounding, checked at 1e-13 relative.
Adding a constant leaves every ``k >= 1`` error unchanged; on values that
stay exact under the shift, the routes that only subtract medians and
means keep every bit, and the others agree to 1e-13 relative.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscnorm.families import validate
from oscnorm.grid import CubeId, GridFunction
from oscnorm.maximal import fractional_maximal
from oscnorm.norms import (NormParams, bmo_norm, family_value, garo_norm,
                           packing_sup_norm, sparse_norm_bounds,
                           sparse_sup_exhaustive)

REL = 1e-13
# continuous values only: on tied grids the stopping-time selection and the
# argmax over the Garsia-Rodemich candidates depend on summation order
CONTINUOUS = st.sampled_from(["uniform", "lognormal"])


def _symmetries(n, j):
    """``(name, map of the values on the (2^L,) * n grid, map of one cube)``
    for the reflections along each axis, the 2D transpose and scaling by
    ``2^-j``."""
    def reflect(ax):
        def cube(c):
            coords = list(c.coords)
            coords[ax] = (1 << c.level) - 1 - coords[ax]
            return CubeId(c.level, tuple(coords))
        return f"reflect-{ax}", lambda v: np.flip(v, ax), cube

    maps = [reflect(ax) for ax in range(n)]
    if n == 2:
        maps.append(("transpose", np.transpose,
                     lambda c: CubeId(c.level, c.coords[::-1])))
    maps.append((f"scale-2^-{j}", lambda v: v * 2.0 ** -j, lambda c: c))
    return maps


def _close(got, want, scale=1.0):
    return abs(got - scale * want) <= REL * abs(scale * want)


def _values(seed, n, depth, dist):
    """The ``(2^depth,) * n`` grid of values drawn from ``dist``."""
    rng = np.random.default_rng(seed)
    size = (1 << depth,) * n
    return {"uniform": lambda: rng.uniform(0.0, 1.0, size),
            "lognormal": lambda: rng.lognormal(0.0, 1.5, size),
            "tied": lambda: rng.integers(0, 3, size).astype(float)}[dist]()


def _mapped(n, depth, values, j):
    """``(name, map of the values, mapped grid, value scale, map of one
    cube)`` for each symmetry of :func:`_symmetries`."""
    for name, vmap, cmap in _symmetries(n, j):
        g = GridFunction(n, depth, np.ascontiguousarray(vmap(values)).ravel())
        scale = 2.0 ** -j if name.startswith("scale") else 1.0
        yield name, vmap, g, scale, cmap


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([1, 2]),
       st.integers(0, 12), st.sampled_from(["uniform", "lognormal", "tied"]),
       st.integers(0, 50))
@example(0, 1, 12, "lognormal", 7)
@example(1, 2, 12, "uniform", 50)
@example(2, 2, 11, "tied", 3)
def test_tree_passes_follow_the_symmetries(seed, n, depth, dist, j):
    """``fractional_maximal``, ``jn`` (p=2), ``bmo_norm`` and exact ``sjn``
    (p=2) under reflection, the 2D transpose and scaling by ``2^-j``, on
    1D L<=12 and 2D L<=6 (the drawn ``depth`` is halved, rounding up, in
    2D).  The reflected ``sjn`` witness, evaluated on the reflected grid,
    has the value of the original."""
    depth = -(-depth // n)
    values = _values(seed, n, depth, dist)
    f = GridFunction(n, depth, values.ravel())
    maximal = {(q, lam): fractional_maximal(f, q, lam).values.values_nd
               for q in (1, 2) for lam in (0.0, n / 2)}
    jn = packing_sup_norm(f, NormParams.jn(2.0)).value
    bmo = bmo_norm(f)
    sjn_params = NormParams.sjn(2.0)
    sjn = sparse_sup_exhaustive(f, sjn_params)
    for name, vmap, g, scale, cmap in _mapped(n, depth, values, j):
        for (q, lam), want in maximal.items():
            got = fractional_maximal(g, q, lam).values.values_nd
            assert np.allclose(got, vmap(want), rtol=REL, atol=0.0), (
                name, q, lam)
        assert _close(packing_sup_norm(g, NormParams.jn(2.0)).value, jn,
                      scale), name
        assert _close(bmo_norm(g), bmo, scale), name
        got = sparse_sup_exhaustive(g, sjn_params)
        assert _close(got.value, sjn.value, scale), name
        mapped = validate([cmap(c) for c in sjn.witness.cubes], 1.0,
                          dimension=n, depth=depth)
        assert _close(family_value(g, mapped, sjn_params), sjn.value,
                      scale), name


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([1, 2]),
       st.integers(0, 12), CONTINUOUS, st.integers(0, 50))
@example(0, 1, 12, "lognormal", 7)
@example(1, 2, 12, "uniform", 50)
def test_brackets_and_garo_follow_the_symmetries(seed, n, depth, dist, j):
    """Both sides of ``sparse_norm_bounds`` for ``sjn`` and for ``svt`` at
    ``lambda = n/2`` (p=2), and both sides of ``garo_norm`` (p=2), under
    reflection, the 2D transpose and scaling by ``2^-j``, on 1D L<=12 and
    2D L<=6.  Past 15 tree nodes ``garo_norm`` takes its candidate regime;
    below, its enumeration regime (see the oracle-scale test)."""
    depth = -(-depth // n)
    values = _values(seed, n, depth, dist)
    f = GridFunction(n, depth, values.ravel())
    svt = NormParams.sv_fractional(2.0, 1, 1, n / 2, n)    # order 1/2
    functionals = {
        "sjn": lambda h: sparse_norm_bounds(h, NormParams.sjn(2.0)),
        "svt": lambda h: sparse_norm_bounds(h, svt),
        "garo": lambda h: garo_norm(h, 2.0)}
    want = {key: fn(f) for key, fn in functionals.items()}
    for name, _, g, scale, _ in _mapped(n, depth, values, j):
        for key, fn in functionals.items():
            got = fn(g)
            assert _close(got.value_lower, want[key].value_lower, scale), (
                name, key)
            assert _close(got.value_upper, want[key].value_upper, scale), (
                name, key)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([1, 2]),
       st.integers(0, 3), CONTINUOUS, st.integers(0, 50),
       st.sampled_from([(1, 1), (2, 2)]))
@example(0, 1, 3, "lognormal", 7, (1, 1))
@example(1, 2, 1, "uniform", 50, (2, 2))
def test_oracle_scale_evaluations_follow_the_symmetries(seed, n, depth,
                                                        dist, j, kq):
    """At oracle scale (1D L<=3, 2D L<=1): both sides of ``garo_norm``
    (p=2) in its enumeration regime, and exact ``svt`` at ``lambda = n/2``
    (p=2) on the family table, its value, its ``|Q|``-weighted value and
    its reflected witness scored on the reflected grid."""
    depth = min(depth, 3 // n)
    values = _values(seed, n, depth, dist)
    f = GridFunction(n, depth, values.ravel())
    params = NormParams.sv_fractional(2.0, *kq, n / 2, n)
    garo = garo_norm(f, 2.0)
    assert garo.exact
    svt = sparse_sup_exhaustive(f, params)
    for name, _, g, scale, cmap in _mapped(n, depth, values, j):
        got = garo_norm(g, 2.0)
        assert _close(got.value_lower, garo.value_lower, scale), name
        assert _close(got.value_upper, garo.value_upper, scale), name
        got = sparse_sup_exhaustive(g, params)
        assert _close(got.value, svt.value, scale), name
        assert _close(got.extras["weighted_value"],
                      svt.extras["weighted_value"], scale), name
        mapped = validate([cmap(c) for c in svt.witness.cubes],
                          params.family_order, dimension=n, depth=depth)
        assert _close(family_value(g, mapped, params), svt.value,
                      scale), name


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([1, 2]),
       st.integers(0, 12), CONTINUOUS)
@example(0, 1, 12, "lognormal")
@example(1, 2, 12, "uniform")
def test_refinement_keeps_the_exact_values(seed, n, depth, dist):
    """Each cell repeated ``2^n`` times (depth L+1, from 1D L<=12 and 2D
    L<=6): exact ``sjn`` and ``jn`` (p=2) keep their values, and the
    refined ``sjn`` bracket contains the coarse exact value."""
    depth = -(-depth // n)
    values = _values(seed, n, depth, dist)
    f = GridFunction(n, depth, values.ravel())
    fine = values
    for ax in range(n):
        fine = np.repeat(fine, 2, axis=ax)
    g = GridFunction(n, depth + 1, fine.ravel())
    sjn = sparse_sup_exhaustive(f, NormParams.sjn(2.0)).value
    jn = packing_sup_norm(f, NormParams.jn(2.0)).value
    assert _close(sparse_sup_exhaustive(g, NormParams.sjn(2.0)).value, sjn)
    assert _close(packing_sup_norm(g, NormParams.jn(2.0)).value, jn)
    bracket = sparse_norm_bounds(g, NormParams.sjn(2.0))
    assert bracket.value_lower <= sjn * (1 + REL)
    assert sjn <= bracket.value_upper * (1 + REL)


def _shiftable(seed, n, depth):
    """Values ``m / 2^20``, ``m`` an integer in ``[0, 2^20)``, on the
    ``(2^depth,) * n`` grid: shifted by an integer ``c`` with ``|c| <=
    1024`` each needs at most 31 significant bits, so every shifted value
    is exact.  Larger shifts lose bits in the ``L^1`` fits (CHANGES FOUND
    47)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2 ** 20, (1 << depth,) * n) / 2.0 ** 20


SHIFTS = st.integers(-1024, 1024)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([1, 2]),
       st.integers(0, 12), SHIFTS)
@example(0, 1, 12, 1024)
@example(1, 2, 12, -1024)
@example(2, 1, 3, 7)            # garo's enumeration regime
@example(3, 2, 2, -5)           # the same, 2D
def test_a_constant_shift_keeps_the_bits(seed, n, depth, c):
    """``f + c`` against ``f`` on 1D L<=12 and 2D L<=6: ``jn`` and
    ``bmo``, exact ``sjn`` and its witness, both sides of the ``sjn``
    bounds and of ``garo`` (both regimes) and ``v`` at ``(k, q) = (2, 2)``
    keep every bit (p=2).  Both sides of the ``sv(k=3, q=2)`` bounds agree
    to 1e-13 relative: the upper side moved by up to 8.3e-15 in
    measurement, from the cancellation in ``residual_cell_integrals`` at
    ``q = 2`` (CHANGES FOUND 58)."""
    depth = -(-depth // n)
    values = _shiftable(seed, n, depth)
    f, g = (GridFunction(n, depth, v.ravel()) for v in (values, values + c))

    def floats(h):
        sjn = sparse_norm_bounds(h, NormParams.sjn(2.0))
        garo = garo_norm(h, 2.0)
        exact = sparse_sup_exhaustive(h, NormParams.sjn(2.0))
        return {
            "jn": packing_sup_norm(h, NormParams.jn(2.0)).value,
            "bmo": bmo_norm(h),
            "v(2, 2)": packing_sup_norm(
                h, NormParams.packing(2.0, 2, 2, 0.0)).value,
            "sjn bounds lower": sjn.value_lower,
            "sjn bounds upper": sjn.value_upper,
            "garo lower": garo.value_lower,
            "garo upper": garo.value_upper,
            "sjn": exact.value,
        }, exact.witness.index

    (want, want_witness), (got, got_witness) = floats(f), floats(g)
    for key in want:
        assert got[key].hex() == want[key].hex(), key
    assert np.array_equal(got_witness, want_witness)
    sv32 = NormParams.sv(2.0, 3, 2, 0.0)
    want, got = (sparse_norm_bounds(h, sv32) for h in (f, g))
    assert _close(got.value_lower, want.value_lower), "sv(3, 2) lower"
    assert _close(got.value_upper, want.value_upper), "sv(3, 2) upper"


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([1, 2]),
       st.integers(0, 8), SHIFTS)
@example(0, 1, 8, 1024)
@example(1, 2, 8, -1024)
def test_a_constant_shift_keeps_the_l1_fits(seed, n, depth, c):
    """``v`` at ``(k, q)`` = (2, 1) and (3, 1) (p=2) of ``f + c`` agrees
    with that of ``f`` to 1e-13 relative, on 1D L<=8 and 2D L<=3 (the
    drawn ``depth`` is scaled by 3/8, rounding up, in 2D): the ``L^1``
    fits iterate in floating point from shifted starts, and moved by up to
    6.0e-15 in measurement."""
    depth = depth if n == 1 else -(-3 * depth // 8)
    values = _shiftable(seed, n, depth)
    f, g = (GridFunction(n, depth, v.ravel()) for v in (values, values + c))
    for k in (2, 3):
        params = NormParams.packing(2.0, k, 1, 0.0)
        want, got = (packing_sup_norm(h, params).value for h in (f, g))
        assert _close(got, want), k
