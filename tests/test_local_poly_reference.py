"""The vectorised exact L^1 residual integrators against the former per-cell
loops, kept here as the reference.

The array code must reproduce every cell integral bit for bit: the residual
feeds the certified upper bound of ``sparse_norm_bounds`` and the L^1
objective of every ``k >= 2`` fit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnorm.grid import CubeId, GridFunction, multi_indices
from oscnorm.local_poly import (_clip_halfplane, _l1_cells_1d,
                                _l1_cells_affine_2d, _polygon_moments,
                                best_fit, residual_cell_integrals)


def loop_cells_1d(f, c, exps, a):
    coef = {m: 0.0 for m in range(3)}
    for (m,), v in zip(exps, a):
        coef[m] = float(v)
    a0, a1, a2 = coef[0], coef[1], coef[2]

    def antideriv(u):
        return a0 * u + a1 * u * u / 2.0 + a2 * u ** 3 / 3.0

    vals = f.cube_values(c)
    m_cells = vals.size
    edges = np.linspace(-0.5, 0.5, m_cells + 1)
    s = c.side
    scale = max(abs(a0), abs(a1), abs(a2), 1.0)
    out = np.empty(m_cells)
    for i, v in enumerate(vals):
        u0, u1 = edges[i], edges[i + 1]
        cuts = [u0, u1]
        c2, c1, c0 = a2, a1, a0 - v
        if abs(c2) > 1e-14 * scale:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc >= 0.0:
                sq = math.sqrt(disc)
                for r in ((-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)):
                    if u0 < r < u1:
                        cuts.append(r)
        elif abs(c1) > 1e-14 * scale:
            r = -c0 / c1
            if u0 < r < u1:
                cuts.append(r)
        cuts.sort()
        acc = 0.0
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            acc += abs(v * (t1 - t0) - (antideriv(t1) - antideriv(t0)))
        out[i] = acc * s
    return out


def loop_cells_affine_2d(f, c, exps, a):
    coef = {e: 0.0 for e in ((0, 0), (0, 1), (1, 0))}
    for alpha, v in zip(exps, a):
        coef[alpha] = float(v)
    p0, pw, pu = coef[(0, 0)], coef[(0, 1)], coef[(1, 0)]
    block = f.cell_block(c)
    m_cells = block.shape[0]
    edges = np.linspace(-0.5, 0.5, m_cells + 1)
    s2 = c.side ** 2
    out = np.empty(block.size)
    idx = 0
    for i in range(m_cells):
        u0, u1 = edges[i], edges[i + 1]
        for j in range(m_cells):
            w0, w1 = edges[j], edges[j + 1]
            v = block[i, j]
            c0, cu, cw = v - p0, -pu, -pw
            area = (u1 - u0) * (w1 - w0)
            full = (c0 * area + cu * area * (u0 + u1) / 2
                    + cw * area * (w0 + w1) / 2)
            if abs(cu) + abs(cw) < 1e-15 * max(abs(c0), 1.0):
                out[idx] = abs(full) * s2
            else:
                poly = [(u0, w0), (u1, w0), (u1, w1), (u0, w1)]
                clipped = _clip_halfplane(
                    poly, lambda p: c0 + cu * p[0] + cw * p[1])
                A, Iu, Iw = _polygon_moments(clipped)
                pos = c0 * A + cu * Iu + cw * Iw
                out[idx] = abs(2.0 * pos - full) * s2
            idx += 1
    return out


def _case(rng, n, depth, k, dist):
    """A grid, a cube, the exponents and local coefficients of a fit.

    ``ties`` draws integers, so roots land on cell edges; ``near`` puts the
    cell values of the root cube close to the polynomial at the cell
    centres, so most cells hold a root and quadratics often hold two;
    ``flat`` gives slopes at rounding scale, so the 2D integrator takes some
    cells as sign-definite and clips the others.
    """
    exps = tuple(multi_indices(n, k - 1))
    size = 1 << (n * depth)
    if dist == "ties":
        values = rng.integers(-2, 3, size).astype(float)
        a = rng.integers(-2, 3, len(exps)).astype(float)
    else:
        values = rng.uniform(-1.0, 1.0, size)
        a = rng.uniform(-2.0, 2.0, len(exps))
    if dist == "flat":
        values = 100.0 * values
        a[1:] = rng.uniform(1e-14, 3e-14, len(exps) - 1)
    level = 0 if dist == "near" else int(rng.integers(0, depth + 1))
    c = CubeId(level, tuple(int(x) for x in rng.integers(0, 1 << level, n)))
    if dist == "near":
        mids = (np.arange(1 << depth) + 0.5) / (1 << depth) - 0.5
        u = np.stack(np.meshgrid(*(mids,) * n, indexing="ij"), -1)
        u = u.reshape(-1, n)
        P = sum(coef * np.prod(u ** np.array(alpha), axis=1)
                for alpha, coef in zip(exps, a))
        values = P + 0.01 * values
    return GridFunction(n, depth, values), c, exps, a


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(1, 3), st.integers(0, 6),
       st.sampled_from(["uniform", "ties", "near"]))
def test_1d_cells_match_loop(seed, k, depth, dist):
    f, c, exps, a = _case(np.random.default_rng(seed), 1, depth, k, dist)
    assert np.array_equal(_l1_cells_1d(f, c, exps, a),
                          loop_cells_1d(f, c, exps, a))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(1, 2), st.integers(0, 4),
       st.sampled_from(["uniform", "ties", "near", "flat"]))
def test_2d_affine_cells_match_loop(seed, k, depth, dist):
    f, c, exps, a = _case(np.random.default_rng(seed), 2, depth, k, dist)
    assert np.array_equal(_l1_cells_affine_2d(f, c, exps, a),
                          loop_cells_affine_2d(f, c, exps, a))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([(1, 1), (1, 2), (1, 3),
                                                      (2, 1), (2, 2)]))
def test_fitted_residuals_match_loop(seed, shape):
    """Fits as the library makes them: L2 root fits feed the residual."""
    n, k = shape
    rng = np.random.default_rng(seed)
    f = GridFunction(n, 4 // n, rng.lognormal(0.0, 1.0, 16))
    root = CubeId(0, (0,) * n)
    fit = best_fit(f, root, k, 2)
    loop = loop_cells_1d if n == 1 else loop_cells_affine_2d
    assert np.array_equal(residual_cell_integrals(f, fit, 1),
                          loop(f, root, fit.exponents, fit.local_coeffs))
