"""Vectorised local-fit kernels against the former per-cube and per-cell
loops, kept here as the reference.

The exact L^1 residual integrators must reproduce every cell integral bit
for bit: the residual feeds the certified upper bound of
``sparse_norm_bounds`` and the L^1 objective of every ``k >= 2`` fit.  The
prepared integrators a fit builds once per cube must give the bits of the
one-shot integrators at every coefficient vector, and the sparse LP
certificate the bits of the dense one.  The batched ``q = 2`` fits of a
level must reproduce the coefficients and errors of the per-cube solve bit
for bit: they feed every packing and sparse functional at ``q = 2``.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from oscnorm import local_poly
from oscnorm.grid import CubeId, GridFunction, iter_cubes, multi_indices
from oscnorm.local_poly import (_exponents, _l1_integrator, _lp_lower_bound,
                                _positive_part_moments, _subcell_design,
                                _unit_gram, best_fit, l2_level_fits,
                                residual_cell_integrals)


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


def _clip_halfplane(poly, lfun):
    """Sutherland-Hodgman clip of polygon ``poly`` to ``lfun >= 0``."""
    out = []
    m = len(poly)
    for i in range(m):
        pa, pb = poly[i], poly[(i + 1) % m]
        la, lb = lfun(pa), lfun(pb)
        if la >= 0.0:
            out.append(pa)
            if lb < 0.0:
                t = la / (la - lb)
                out.append((pa[0] + t * (pb[0] - pa[0]),
                            pa[1] + t * (pb[1] - pa[1])))
        elif lb >= 0.0:
            t = la / (la - lb)
            out.append((pa[0] + t * (pb[0] - pa[0]),
                        pa[1] + t * (pb[1] - pa[1])))
    return out


def _polygon_moments(poly):
    """(area, integral u, integral w) over a simple polygon, shoelace form."""
    A = Iu = Iw = 0.0
    m = len(poly)
    if m < 3:
        return 0.0, 0.0, 0.0
    for i in range(m):
        (u0, w0), (u1, w1) = poly[i], poly[(i + 1) % m]
        cross = u0 * w1 - u1 * w0
        A += cross
        Iu += (u0 + u1) * cross
        Iw += (w0 + w1) * cross
    return A / 2.0, Iu / 6.0, Iw / 6.0


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
    assert np.array_equal(_l1_integrator(f, c, exps)(a),
                          loop_cells_1d(f, c, exps, a))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(1, 2), st.integers(0, 4),
       st.sampled_from(["uniform", "ties", "near", "flat"]))
def test_2d_affine_cells_match_loop(seed, k, depth, dist):
    f, c, exps, a = _case(np.random.default_rng(seed), 2, depth, k, dist)
    assert np.array_equal(_l1_integrator(f, c, exps)(a),
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


# -- the vectorised half-plane clip against the one-box loop -----------------

def loop_positive_part(cc, cu, cw, u0, u1, w0, w1):
    out = np.empty(len(cc))
    for i, (c, a, b, d, e) in enumerate(zip(cc, u0, u1, w0, w1)):
        poly = [(a, d), (b, d), (b, e), (a, e)]
        clipped = _clip_halfplane(poly, lambda p: c + cu * p[0] + cw * p[1])
        A, Iu, Iw = _polygon_moments(clipped)
        out[i] = c * A + cu * Iu + cw * Iw
    return out


def _boxes(rng, kind, count=64):
    """Cells of a dyadic grid and an affine function on them.

    ``corner`` takes small dyadic slopes and puts a grid vertex on the zero
    line exactly, so ``l == 0`` at cell corners (one, two along a diagonal
    or an edge, or a whole edge); ``rounding`` takes slopes at rounding
    scale of the constant, so the corner values tie, and with a zero
    constant change sign at 1e-16 scale; ``near`` puts the zero line within
    an ulp or so of a vertex.
    """
    side = 1 << int(rng.integers(0, 5))
    edges = np.linspace(-0.5, 0.5, side + 1)
    i, j = rng.integers(0, side, count), rng.integers(0, side, count)
    u0, u1, w0, w1 = edges[i], edges[i + 1], edges[j], edges[j + 1]
    if kind == "corner":
        cu, cw = (float(x) for x in rng.integers(-4, 5, 2) / 4.0)
        vi, vj = rng.integers(0, side + 1, 2)
        cc = np.full(count, -(cu * edges[vi] + cw * edges[vj]))
        cc[::3] = -(cu * u0[::3] + cw * w1[::3])    # each box's own corner
    elif kind == "rounding":
        cc = rng.uniform(-1.0, 1.0, count)
        cu, cw = (float(x) for x in rng.uniform(-3e-16, 3e-16, 2))
        cc[::4] = 0.0
    elif kind == "near":
        cu, cw = (float(x) for x in rng.uniform(-2.0, 2.0, 2))
        cc = -(cu * u1 + cw * w0) + rng.integers(-2, 3, count) * 1e-17
    else:
        cu, cw = (float(x) for x in rng.uniform(-2.0, 2.0, 2))
        cc = rng.uniform(-1.5, 1.5, count)
    return cc, cu, cw, u0, u1, w0, w1


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["corner", "rounding", "near", "uniform"]))
def test_vectorised_clip_matches_loop(seed, kind):
    args = _boxes(np.random.default_rng(seed), kind)
    got = _positive_part_moments(*args)
    assert _bits(got) == _bits(loop_positive_part(*args))


def test_clip_covers_every_corner_pattern():
    """Lines through corners: each box of a 4x4 grid against slopes in
    {-1, 0, 1}^2 and zero lines through every grid vertex."""
    edges = np.linspace(-0.5, 0.5, 5)
    i, j = np.divmod(np.arange(16), 4)
    u0, u1, w0, w1 = edges[i], edges[i + 1], edges[j], edges[j + 1]
    for cu, cw in itertools.product((-1.0, 0.0, 1.0), repeat=2):
        for vu, vw in itertools.product(edges, repeat=2):
            cc = np.full(16, -(cu * vu + cw * vw))
            args = (cc, cu, cw, u0, u1, w0, w1)
            assert _bits(_positive_part_moments(*args)) == _bits(
                loop_positive_part(*args))


# -- prepared integrators against the one-shot calls ---------------------------

def oneshot_cells_1d(f, c, exps, a):
    coef = {m: 0.0 for m in range(3)}
    for (m,), v in zip(exps, a):
        coef[m] = float(v)
    a0, a1, a2 = coef[0], coef[1], coef[2]

    def antideriv(u):
        F = a0 * u + a1 * u * u / 2.0
        return F + a2 * np.float_power(u, 3) / 3.0 if a2 else F

    vals = f.cube_values(c)
    m_cells = vals.size
    edges = np.arange(-m_cells, m_cells + 1, 2) / (2 * m_cells)
    u0, u1 = edges[:-1], edges[1:]
    scale = max(abs(a0), abs(a1), abs(a2), 1.0)
    lo = hi = u1
    if abs(a2) > 1e-14 * scale:
        with np.errstate(invalid="ignore"):
            sq = np.sqrt(a1 * a1 - 4.0 * a2 * (a0 - vals))
        roots = ((-a1 - sq) / (2 * a2), (-a1 + sq) / (2 * a2))
        lo, hi = (np.fmin(np.fmax(r, u0), u1)
                  for r in (roots if a2 > 0 else roots[::-1]))
    elif abs(a1) > 1e-14 * scale:
        lo = np.fmin(np.fmax(-(a0 - vals) / a1, u0), u1)
    cuts = np.array([u0, lo, hi, u1])
    F = antideriv(cuts)
    pieces = np.abs(vals * (cuts[1:] - cuts[:-1]) - (F[1:] - F[:-1]))
    return (pieces[0] + pieces[1] + pieces[2]) * c.side


def oneshot_cells_quad_2d(f, c, exps, a):
    block = f.cell_block(c)
    m_cells = block.shape[0]
    r = local_poly._QUAD_RULE
    mids = (np.arange(m_cells * r) + 0.5) / (m_cells * r) - 0.5
    U = mids[:, None]
    W = mids[None, :]
    P = np.zeros((mids.size, mids.size))
    for alpha, coef in zip(exps, a):
        P += coef * U ** alpha[0] * W ** alpha[1]
    vrep = np.repeat(np.repeat(block, r, axis=0), r, axis=1)
    sub_area = c.measure / mids.size ** 2
    resid = np.abs(vrep - P) * sub_area
    resid = resid.reshape(m_cells, r, m_cells, r).sum(axis=(1, 3))
    return resid.ravel()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([(1, 2), (1, 3), (2, 2),
                                                      (2, 3)]),
       st.sampled_from(["uniform", "ties", "near", "flat"]))
def test_prepared_integrators_match_one_shot(seed, shape, dist):
    """One integrator per cube, called at many coefficient vectors as the
    simplex polish does, gives the one-shot bits at each."""
    n, k = shape
    rng = np.random.default_rng(seed)
    f, c, exps, a = _case(rng, n, 4 if n == 1 else 2, k, dist)
    integrate = _l1_integrator(f, c, exps)
    oneshot = {(1, 2): oneshot_cells_1d, (1, 3): oneshot_cells_1d,
               (2, 2): loop_cells_affine_2d,
               (2, 3): oneshot_cells_quad_2d}[shape]
    for step in range(4):
        coeffs = a + step * rng.uniform(-0.1, 0.1, len(a))
        assert _bits(integrate(coeffs)) == _bits(oneshot(f, c, exps, coeffs))


# -- the sparse LP certificate against the dense one ---------------------------

def dense_lp_lower_bound(Phi, v, mu):
    m, d = Phi.shape
    c_vec = np.concatenate([np.zeros(d), mu])
    eye = np.eye(m)
    A_ub = np.block([[Phi, -eye], [-Phi, -eye]])
    b_ub = np.concatenate([v, -v])
    bounds = [(None, None)] * d + [(0, None)] * m
    res = optimize.linprog(c_vec, A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                           method="highs")
    if not res.success:
        return 0.0
    return max(float(res.fun), 0.0)


@pytest.mark.parametrize("n, depth, k", [(1, 0, 2), (1, 3, 2), (1, 4, 3),
                                         (2, 0, 3), (2, 1, 2), (2, 2, 3)])
def test_sparse_lp_certificate_matches_dense(n, depth, k):
    rng = np.random.default_rng(100 * n + 10 * depth + k)
    exps = _exponents(n, k)
    for dist in ("uniform", "lognormal", "ties"):
        size = 1 << (n * depth)
        values = {"uniform": rng.uniform(0.0, 1.0, size),
                  "lognormal": rng.lognormal(0.0, 1.0, size),
                  "ties": rng.integers(0, 3, size).astype(float)}[dist]
        f = GridFunction(n, depth, values)
        level = int(rng.integers(0, depth + 1))
        c = CubeId(level, tuple(int(x) for x in
                                rng.integers(0, 1 << level, n)))
        for refine in (1, 2, 4):
            design = _subcell_design(f, c, exps, refine)
            assert _bits(_lp_lower_bound(*design)) == _bits(
                dense_lp_lower_bound(*design))


# -- the q = 2 fits: one batched solve per level against the per-cube solve --

def loop_local_monomial_as_global(alpha, center, side):
    """Expansion of prod_a ((x_a - c_a)/s)^{alpha_a} in plain monomials."""
    per_axis = []
    for m, c in zip(alpha, center):
        terms = {
            j: math.comb(m, j) * (-c) ** (m - j) / side ** m
            for j in range(m + 1)
        }
        per_axis.append(terms)
    out = {}
    for combo in itertools.product(*(ax.items() for ax in per_axis)):
        gamma = tuple(j for j, _ in combo)
        coef = math.prod(v for _, v in combo)
        out[gamma] = out.get(gamma, 0.0) + coef
    return out


def loop_local_to_global(exps, local_coeffs, c):
    acc = {e: 0.0 for e in exps}
    for alpha, a in zip(exps, local_coeffs):
        for gamma, coef in loop_local_monomial_as_global(
                alpha, c.center, c.side).items():
            acc[gamma] = acc.get(gamma, 0.0) + a * coef
    return np.array([acc[e] for e in exps])


def loop_local_rhs(f, c, exps):
    """b_alpha = integral_c f * u^alpha dx, one moment lookup per term."""
    table = f.moments()
    center, s = c.center, c.side
    b = np.zeros(len(exps))
    for i, alpha in enumerate(exps):
        for gamma, coef in loop_local_monomial_as_global(alpha, center,
                                                         s).items():
            b[i] += coef * table.moment(c, gamma)
    return b


def loop_fit_l2(f, c, exps):
    G = _unit_gram(exps)
    b = loop_local_rhs(f, c, exps)
    a = np.linalg.solve(G, b / c.measure)
    sq = f.moments().square_integral(c)
    proj = float(a @ b)
    err_sq = sq - proj
    if err_sq <= 64.0 * np.finfo(float).eps * max(sq, abs(proj)):
        return a, 0.0
    return a, math.sqrt(err_sq)


def _l2_grid(rng, n, depth, dist):
    """``poly`` is constant on the cubes of a random level, with block
    values from a quadratic, so every cube at or below that level holds a
    representable function and takes the zero-residual branch."""
    size = 1 << (n * depth)
    if dist == "uniform":
        return GridFunction(n, depth, rng.uniform(0.0, 1.0, size))
    if dist == "lognormal":
        return GridFunction(n, depth, rng.lognormal(0.0, 1.5, size))
    block = int(rng.integers(0, depth + 1))
    mids = (np.arange(1 << block) + 0.5) / (1 << block)
    u = np.stack(np.meshgrid(*(mids,) * n, indexing="ij"), -1).reshape(-1, n)
    exps = multi_indices(n, 2)
    coef = rng.integers(-3, 4, len(exps)).astype(float)
    P = 10.0 + sum(c * np.prod(u ** np.array(alpha), axis=1)
                   for alpha, c in zip(exps, coef))
    P = P.reshape((1 << block,) * n)
    for ax in range(n):
        P = np.repeat(P, 1 << (depth - block), axis=ax)
    return GridFunction(n, depth, P.ravel())


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([1, 2]),
       st.integers(1, 3), st.sampled_from(["uniform", "lognormal", "poly"]),
       st.data())
def test_l2_level_fits_match_per_cube_solves(seed, n, k, dist, data):
    depth = data.draw(st.integers(0, 7 if n == 1 else 4), label="depth")
    rng = np.random.default_rng(seed)
    f = _l2_grid(rng, n, depth, dist)
    exps = tuple(multi_indices(n, k - 1))
    for level in range(depth + 1):
        coeffs, errs = l2_level_fits(f, level, k)
        cubes = [c for c in iter_cubes(level, n) if c.level == level]
        assert coeffs.shape == (len(cubes), len(exps))
        for c, a, err in zip(cubes, coeffs, errs):
            ref_a, ref_err = loop_fit_l2(f, c, exps)
            assert _bits(a) == _bits(ref_a)
            assert _bits(err) == _bits(ref_err)
        # picked cubes and the one-cube call give the same bits
        pick = rng.integers(0, len(cubes), 3)
        coords = np.array([cubes[i].coords for i in pick])
        sub_a, sub_err = l2_level_fits(f, level, k, coords)
        assert _bits(sub_a) == _bits(coeffs[pick])
        assert _bits(sub_err) == _bits(errs[pick])
        fit = best_fit(f, cubes[pick[0]], k, 2)
        assert _bits(fit.local_coeffs) == _bits(coeffs[pick[0]])
        assert _bits(fit.error) == _bits(errs[pick[0]])
        assert _bits(fit.coeffs) == _bits(
            loop_local_to_global(exps, fit.local_coeffs, fit.cube))


def test_l2_level_fits_zero_residual_branch():
    """Constant blocks of level 2: every cube from level 2 down fits with
    error exactly 0, coarser cubes do not."""
    f = _l2_grid(np.random.default_rng(7), 1, 5, "poly")
    block = next(lvl for lvl in range(6)
                 if np.all(l2_level_fits(f, lvl, 1)[1] == 0.0))
    for k in (1, 2, 3):
        for level in range(block, 6):
            assert np.all(l2_level_fits(f, level, k)[1] == 0.0)
    assert block > 0 and np.any(l2_level_fits(f, block - 1, 1)[1] > 0.0)


@pytest.mark.parametrize("n, depth", [(1, 6), (2, 3)])
def test_l2_level_fits_in_blocks(n, depth, monkeypatch):
    """A level larger than one block is fitted block by block, with the
    bits of the single pass."""
    f = _l2_grid(np.random.default_rng(11), n, depth, "lognormal")
    whole = [l2_level_fits(f, depth, k) for k in (1, 2, 3)]
    monkeypatch.setattr(local_poly, "_L2_BLOCK", 5)
    for k, (a, err) in zip((1, 2, 3), whole):
        a_blocks, err_blocks = l2_level_fits(f, depth, k)
        assert _bits(a_blocks) == _bits(a)
        assert _bits(err_blocks) == _bits(err)


def test_l2_level_fits_validation():
    f = GridFunction(1, 3, np.arange(8.0))
    with pytest.raises(ValueError, match="k must lie in 1..3"):
        l2_level_fits(f, 1, 0)
    with pytest.raises(ValueError, match="level must lie in"):
        l2_level_fits(f, 4, 2)
    for bad in ([[2]], [[-1]]):
        with pytest.raises(ValueError, match="must lie in range"):
            l2_level_fits(f, 1, 2, np.array(bad))
