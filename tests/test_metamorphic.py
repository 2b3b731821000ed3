"""Metamorphic checks of the tree passes at scales no oracle reaches.

Reflecting the grid along an axis and transposing a 2D grid map dyadic
cubes to dyadic cubes of the same level, and scaling the values by
``2^-j`` scales every local error by ``2^-j``, so the fractional maximal
function, the packing suprema and the exact order-1 sparse supremum commute
with these maps.  The two sides sum children in different orders, so they
agree to rounding, checked at 1e-13 relative.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscnorm.families import validate
from oscnorm.grid import CubeId, GridFunction
from oscnorm.maximal import fractional_maximal
from oscnorm.norms import (NormParams, bmo_norm, family_value,
                           packing_sup_norm, sparse_sup_exhaustive)

REL = 1e-13


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
    rng = np.random.default_rng(seed)
    size = (1 << depth,) * n
    values = {"uniform": lambda: rng.uniform(0.0, 1.0, size),
              "lognormal": lambda: rng.lognormal(0.0, 1.5, size),
              "tied": lambda: rng.integers(0, 3, size).astype(float)}[dist]()
    f = GridFunction(n, depth, values.ravel())
    maximal = {(q, lam): fractional_maximal(f, q, lam).values.values_nd
               for q in (1, 2) for lam in (0.0, n / 2)}
    jn = packing_sup_norm(f, NormParams.jn(2.0)).value
    bmo = bmo_norm(f)
    sjn_params = NormParams.sjn(2.0)
    sjn = sparse_sup_exhaustive(f, sjn_params)
    for name, vmap, cmap in _symmetries(n, j):
        g = GridFunction(n, depth, np.ascontiguousarray(vmap(values)).ravel())
        scale = 2.0 ** -j if name.startswith("scale") else 1.0
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
