"""Vectorised local-fit kernels against the former per-cube and per-cell
loops, kept here as the reference.

The exact L^1 residual integrators must reproduce every cell integral bit
for bit: the residual feeds the certified upper bound of
``sparse_norm_bounds`` and the L^1 objective of every ``k >= 2`` fit.
The Newton polish of the 1D and 2D affine fits must end no higher than
the former simplex polish from the median, ``L^2`` and LP fits, kept here
as the reference, and the duality bound that certifies them must stay
below that reference's objective.  The vertex descent of the 2D quadratic
corner must reach the optimum of its 16-point midpoint rule, as HiGHS
solves it, and its bound must stay below that optimum.  The prepared
integrators a fit builds once per cube must give the bits of the one-shot
integrators at every coefficient vector (to 1e-13 relative in the 2D
quadratic corner, whose midpoint rule sums in blocks).  The former LP
certificate, kept here for those references, must reach the value of the
dense primal program, to 1e-12 relative, and its design keeps the bits of
its direct averages.
The batched ``q = 2`` fits of a level must agree with a per-cube solve on
right-hand sides summed directly in the cube's own basis (``math.fsum``) to
rounding, and the one-cube call must give the bits of the level call: they
feed every packing and sparse functional at ``q = 2``.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from oscnorm import local_poly
from oscnorm.grid import CubeId, GridFunction, iter_cubes, multi_indices
from oscnorm.local_poly import (_cell_monomials, _exponents,
                                _l1_integrator, _positive_part_moments,
                                _unit_gram, best_fit, error_levels,
                                l2_level_fits, poly_error,
                                residual_cell_integrals)


def loop_cells_1d(f, c, exps, a):
    coef = {m: 0.0 for m in range(3)}
    for (m,), v in zip(exps, a):
        coef[m] = float(v)
    a0, a1, a2 = coef[0], coef[1], coef[2]

    def antideriv(u):       # of P - a0: the constant goes into the values
        return a1 * u * u / 2.0 + a2 * u ** 3 / 3.0

    vals = f.cube_values(c)
    m_cells = vals.size
    edges = np.linspace(-0.5, 0.5, m_cells + 1)
    s = c.side
    scale = max(abs(a0), abs(a1), abs(a2))
    out = np.empty(m_cells)
    for i, v in enumerate(vals):
        u0, u1 = edges[i], edges[i + 1]
        cuts = [u0, u1]
        c2, c1, c0 = a2, a1, a0 - v
        if abs(c2) > 1e-14 * scale:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc >= 0.0:
                # the roots q / c2 and c0 / q, which do not cancel; q = 0
                # only at a double root at 0, which cuts nothing
                sq = math.sqrt(disc)
                q = -0.5 * (c1 + math.copysign(1.0, c1) * sq)
                for r in (q / c2, c0 / q if q else math.nan):
                    if u0 < r < u1:
                        cuts.append(r)
        elif abs(c1) > 1e-14 * scale:
            r = -c0 / c1
            if u0 < r < u1:
                cuts.append(r)
        cuts.sort()
        acc = 0.0
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            acc += abs((v - a0) * (t1 - t0)
                       - (antideriv(t1) - antideriv(t0)))
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
            if abs(cu) + abs(cw) <= 1e-15 * abs(c0):
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
    cells as sign-definite and clips the others; ``tiny`` scales uniform
    values and coefficients by ``2^-50``, where a threshold with an
    absolute floor would take every slope as flat.
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
    if dist == "tiny":
        values, a = 2.0 ** -50 * values, 2.0 ** -50 * a
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
       st.sampled_from(["uniform", "ties", "near", "tiny"]))
def test_1d_cells_match_loop(seed, k, depth, dist):
    f, c, exps, a = _case(np.random.default_rng(seed), 1, depth, k, dist)
    assert np.array_equal(_l1_integrator(f.cell_block(c), c.side, exps)(a),
                          loop_cells_1d(f, c, exps, a))


@pytest.mark.parametrize("a1", [0.0, -0.0])
@pytest.mark.parametrize("a2", [0.75, -0.75])
def test_1d_double_root_at_zero_matches_loop(a1, a2):
    """With ``a1 = +-0`` on the cells whose value is ``a0``, ``v - P =
    -a2 u^2`` has a double root at 0, where the second root ``-c0 / q`` is
    ``0 / 0``: those cells, and the cells with two roots, match the loop
    bit for bit whichever the signs of ``a1`` and ``a2``."""
    f = GridFunction(1, 3, [3.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 1.0])
    c, exps = CubeId(0, (0,)), _exponents(1, 3)
    a = np.array([2.0, a1, a2])
    assert np.array_equal(_l1_integrator(f.cell_block(c), c.side, exps)(a),
                          loop_cells_1d(f, c, exps, a))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(1, 2), st.integers(0, 4),
       st.sampled_from(["uniform", "ties", "near", "flat", "tiny"]))
def test_2d_affine_cells_match_loop(seed, k, depth, dist):
    f, c, exps, a = _case(np.random.default_rng(seed), 2, depth, k, dist)
    assert np.array_equal(_l1_integrator(f.cell_block(c), c.side, exps)(a),
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
    """The moments ``(A, Iu, Iw)`` of each clipped box, stacked."""
    out = np.empty((3, len(cc)))
    for i, (c, a, b, d, e) in enumerate(zip(cc, u0, u1, w0, w1)):
        poly = [(a, d), (b, d), (b, e), (a, e)]
        clipped = _clip_halfplane(poly, lambda p: c + cu * p[0] + cw * p[1])
        out[:, i] = _polygon_moments(clipped)
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
    got, _ = _positive_part_moments(*args)
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
            assert _bits(_positive_part_moments(*args)[0]) == _bits(
                loop_positive_part(*args))


# -- prepared integrators against the one-shot calls ---------------------------

def oneshot_cells_1d(f, c, exps, a):
    coef = {m: 0.0 for m in range(3)}
    for (m,), v in zip(exps, a):
        coef[m] = float(v)
    a0, a1, a2 = coef[0], coef[1], coef[2]

    def antideriv(u):       # of P - a0: the constant goes into the values
        F = a1 * u * u / 2.0
        return F + a2 * np.float_power(u, 3) / 3.0 if a2 else F

    vals = f.cube_values(c)
    m_cells = vals.size
    edges = np.arange(-m_cells, m_cells + 1, 2) / (2 * m_cells)
    u0, u1 = edges[:-1], edges[1:]
    scale = max(abs(a0), abs(a1), abs(a2))
    lo = hi = u1
    if abs(a2) > 1e-14 * scale:
        with np.errstate(invalid="ignore", divide="ignore"):
            sq = np.sqrt(a1 * a1 - 4.0 * a2 * (a0 - vals))
            q = -0.5 * (a1 + math.copysign(1.0, a1) * sq)
            roots = (q / a2, (a0 - vals) / q)
        lo, hi = (np.fmin(np.fmax(r, u0), u1)
                  for r in (np.fmin(*roots), np.fmax(*roots)))
    elif abs(a1) > 1e-14 * scale:
        lo = np.fmin(np.fmax(-(a0 - vals) / a1, u0), u1)
    cuts = np.array([u0, lo, hi, u1])
    F = antideriv(cuts)
    pieces = np.abs((vals - a0) * (cuts[1:] - cuts[:-1]) - (F[1:] - F[:-1]))
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
    simplex polish does, gives the bits of a freshly prepared integrator at
    each, and the one-shot integrals: bit for bit where the integrals are
    closed form, to 1e-13 relative per cell for the midpoint rule of the 2D
    quadratic corner, which sums its subcells in an order of its own."""
    n, k = shape
    rng = np.random.default_rng(seed)
    f, c, exps, a = _case(rng, n, 4 if n == 1 else 2, k, dist)
    integrate = _l1_integrator(f.cell_block(c), c.side, exps)
    oneshot = {(1, 2): oneshot_cells_1d, (1, 3): oneshot_cells_1d,
               (2, 2): loop_cells_affine_2d,
               (2, 3): oneshot_cells_quad_2d}[shape]
    for step in range(8):
        coeffs = a + step * rng.uniform(-0.1, 0.1, len(a))
        got = integrate(coeffs)
        assert _bits(got) == _bits(_l1_integrator(f.cell_block(c), c.side, exps)(coeffs))
        if shape == (2, 3):
            np.testing.assert_allclose(got, oneshot(f, c, exps, coeffs),
                                       rtol=1e-13, atol=0.0)
        else:
            assert _bits(got) == _bits(oneshot(f, c, exps, coeffs))


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_quadratic_integrator_bits_do_not_depend_on_its_block(depth,
                                                              monkeypatch):
    """Blocks of one cell row, of three cell rows (a ragged last block from
    depth 2 on) and of the whole cube give the bits of the default block."""
    rng = np.random.default_rng(depth)
    for dist in ("uniform", "ties", "near", "flat"):
        f, c, exps, a = _case(rng, 2, depth, 3, dist)
        size = f.cell_block(c).shape[0] * local_poly._QUAD_RULE
        want = _l1_integrator(f.cell_block(c), c.side, exps)(a)
        for budget in (1, 3 * local_poly._QUAD_RULE * size, 2 ** 40):
            monkeypatch.setattr(local_poly, "_SUBCELL_BUDGET", budget)
            assert _bits(_l1_integrator(f.cell_block(c), c.side, exps)(a)) == _bits(want)
        monkeypatch.undo()


# -- the former LP certificate against the dense primal program ---------------

def subcell_design(f, c, exps, refine):
    """Design for the cell-averaged objective on an optionally refined grid.

    Returns ``(Phi, v, mu)``: ``Phi[i, j]`` is the average of ``u^{alpha_j}``
    over subcell ``i``, ``v`` repeats the cell values onto subcells, ``mu``
    is the (common) subcell measure.  ``refine = 1`` reproduces the grid
    cells.
    """
    n = f.dimension
    m = (1 << (f.depth - c.level)) * refine
    monom = _cell_monomials(m, n, max((max(a) for a in exps), default=0))
    # an average is the integral over a subcell of measure m^-n, a power of
    # two, so the scaling is exact
    Phi = np.column_stack([monom(alpha) for alpha in exps]) * m ** n
    block = f.cell_block(c)
    for ax in range(n):
        block = np.repeat(block, refine, axis=ax)
    return Phi, block.ravel().astype(np.float64), c.measure / m ** n


def lp_lower_bound(Phi, v, mu):
    """Exact minimum of the (refined) cell-averaged L1 objective over all
    polynomials -- a certified lower bound for the true infimum, by
    Jensen's inequality on each subcell -- as the dual ``mu * max {v @ y :
    Phi.T @ y = 0, |y| <= 1}`` (subcell measure ``mu``), which ``y = 0``
    makes feasible and the box bounded, and a minimizer: the multipliers
    of ``Phi.T @ y = 0``, negated."""
    res = optimize.linprog(-v, A_eq=Phi.T, b_eq=np.zeros(Phi.shape[1]),
                           bounds=(-1.0, 1.0), method="highs")
    if not res.success:
        return 0.0, None
    return max(-float(res.fun), 0.0) * mu, -res.eqlin.marginals


def dense_lp_lower_bound(Phi, v, mu):
    """``min sum mu * t`` over ``|v - Phi a| <= t``: the primal program, with
    its ``(2m, d + m)`` constraint matrix built densely."""
    m, d = Phi.shape
    c_vec = np.concatenate([np.zeros(d), np.full(m, mu)])
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
def test_dual_lp_certificate_matches_dense_primal(n, depth, k):
    """Strong duality: the ``d``-row dual reaches the primal optimum, and
    the coefficients it returns attain it on the relaxation."""
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
            design = subcell_design(f, c, exps, refine)
            primal = dense_lp_lower_bound(*design)
            bound, coeffs = lp_lower_bound(*design)
            assert bound == pytest.approx(
                primal, rel=1e-12, abs=1e-15), (dist, refine)
            Phi, v, mu = design
            assert mu * np.abs(v - Phi @ coeffs).sum() == pytest.approx(
                primal, rel=1e-12, abs=1e-15), (dist, refine)



def direct_subcell_averages(m, n, exps):
    """The certificate's design with each average of ``u^j`` divided by
    ``(j + 1) / m`` directly and the 2D columns outer products of
    averages."""
    edges = np.linspace(-0.5, 0.5, m + 1)
    avg = [(edges[1:] ** (j + 1) - edges[:-1] ** (j + 1)) / ((j + 1) / m)
           for j in range(3)]
    cols = []
    for alpha in exps:
        col = avg[alpha[0]]
        if n == 2:
            col = np.multiply.outer(col, avg[alpha[1]]).ravel()
        cols.append(col)
    return np.column_stack(cols)


@pytest.mark.parametrize("n, k", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_subcell_design_has_the_bits_of_direct_averages(n, k):
    """An average is the cell integral times ``m^n``, a power of two, so
    scaling the integrals gives the bits of dividing directly."""
    exps = _exponents(n, k)
    for depth in range(0, 12 // n):
        f = GridFunction(n, depth, np.zeros(1 << (n * depth)))
        for refine in (1, 2, 4, 8):
            Phi, _, mu = subcell_design(f, CubeId(0, (0,) * n), exps, refine)
            m = (1 << depth) * refine
            assert _bits(Phi) == _bits(direct_subcell_averages(m, n, exps))
            assert mu == 1.0 / m ** n

# -- the Newton polish against the former simplex polish ----------------------

def simplex_l1_objective(f, c, k):
    """The objective the former ``q = 1, k >= 2`` fit reached: the best of
    the median, ``L^2`` and certificate-LP fits, polished by Nelder-Mead.
    The simplex's tolerances are absolute, so where the spread of the
    values on the cube is below ``0.5`` it runs on the values multiplied by
    the power of two that brings the spread into ``[0.5, 1)``, and the
    objective, which scales with them, is scaled back; both scalings are
    exact.  A spread of ``0.5`` or more is left as it is, so the tolerances
    never loosen."""
    vals = f.cube_values(c)
    spread = float(vals.max() - vals.min())
    scale = max(1.0, 2.0 ** -math.frexp(spread)[1]) if spread else 1.0
    f = GridFunction(f.dimension, f.depth, f.values * scale)
    exps = _exponents(f.dimension, k)
    integrate = _l1_integrator(f.cell_block(c), c.side, exps)

    def objective(a):
        return integrate(a).sum()

    median = np.zeros(len(exps))
    median[0] = best_fit(f, c, 1, 1).local_coeffs[0]
    starts = [median, best_fit(f, c, k, 2).local_coeffs]
    cells = f.cube_values(c).size
    refine = 8 if f.dimension == 1 else 4
    while cells * refine ** f.dimension > 8192 and refine > 1:
        refine //= 2
    lp_local = lp_lower_bound(*subcell_design(f, c, exps, refine))[1]
    if lp_local is not None:
        starts.append(lp_local)
    objs = [objective(a) for a in starts]
    res = optimize.minimize(objective, starts[int(np.argmin(objs))],
                            method="Nelder-Mead",
                            options={"maxiter": 400 * len(exps),
                                     "xatol": 1e-10, "fatol": 1e-13})
    return min(min(objs), float(res.fun)) / scale


OFFSET = 1e12
SWEEP = ("uniform", "lognormal", "ties", "blocky", "offset")
# 1D L=1, k=3, lognormal: the Newton fit, called directly on these two
# cells, ends with a quadratic coefficient of ~1e-14 against a linear one
# of 0.17, where ``(-a1 +- sq) / (2 a2)`` cancels
# (``test_certificate_stays_sound_where_a_root_cancels``)
CANCELLING_ROOT = (1, 1, 3, "lognormal")


def _sweep_grid(rng, n, depth, dist):
    """One grid of the sweep; every distribution is drawn each time, so
    the draws of a shape do not depend on which one is used."""
    size = 1 << (n * depth)
    return GridFunction(n, depth, {
        "uniform": rng.uniform(0.0, 1.0, size),
        "lognormal": rng.lognormal(0.0, 1.5, size),
        "ties": rng.integers(0, 3, size).astype(float),
        "blocky": np.repeat(rng.uniform(0.0, 1.0, max(size // 4, 1)),
                            min(size, 4)),
        "offset": rng.uniform(0.0, 1.0, size) + OFFSET}[dist])


def _record_dual_bounds(monkeypatch):
    """The duality bounds ``best_fit`` computes, in call order."""
    bounds = []
    real = local_poly._dual_lower_bound

    def record(*args, **kwargs):
        bounds.append(real(*args, **kwargs))
        return bounds[-1]

    monkeypatch.setattr(local_poly, "_dual_lower_bound", record)
    return bounds


@pytest.mark.parametrize("n, depth, k", [(1, d, k) for d in range(1, 9)
                                         for k in (2, 3)]
                         + [(2, d, 2) for d in range(1, 6)])
def test_newton_fit_is_no_worse_than_the_simplex(n, depth, k, monkeypatch):
    """On uniform, lognormal, tied and blocky values the Newton fit ends at
    most 1e-12 relative above the former simplex polish.  With the values
    moved by 1e12 the constant of any fit is a multiple of ulp(1e12) =
    2^-13, and one ulp moves the objective by up to ``|Q| * 2^-13``: the
    two fits may land on neighbouring multiples, so that is the slack.

    The certificate is sound and, on uniform and lognormal values, tight:
    its duality bound is at most the simplex's objective (to 1e-12
    relative; the bound needs no slack, as it bounds the infimum over all
    real coefficients), the factor is at most 1 + 1e-6, and it is finite
    on every grid."""
    rng = np.random.default_rng(1000 * n + 10 * depth + k)
    root = CubeId(0, (0,) * n)
    bounds = _record_dual_bounds(monkeypatch)
    for dist in SWEEP:
        f = _sweep_grid(rng, n, depth, dist)
        want = simplex_l1_objective(f, root, k)
        slack = root.measure * 2.0 ** -13 if dist == "offset" else 0.0
        bounds.clear()
        fit = best_fit(f, root, k, 1)
        assert poly_error(f, root, k, 1) == fit.error, dist
        assert fit.error <= want * (1 + 1e-12) + slack, dist
        factor = fit.near_best_factor
        print(f"{dist}: factor - 1 = {factor - 1.0:.2e}")
        if not bounds:          # a zero objective, certified as it is
            assert factor == 1.0 and fit.error <= 1e-14 * want, dist
            continue
        assert len(bounds) == 1 and factor == max(fit.error / bounds[0], 1.0)
        assert bounds[0] <= want * (1 + 1e-12), dist
        if dist in ("uniform", "lognormal"):
            assert factor <= 1 + 1e-6, dist
        assert factor < math.inf and not fit.approximate, dist


def midpoint_dual_bound(f, c, exps, a, points=1 << 14):
    """The duality bound at local coefficients ``a`` by the midpoint rule on
    about ``points`` subcells: ``y`` the sign of ``f - P`` at each midpoint,
    ``Pi y`` its discrete projection, and ``int (f - P) (y - Pi y)`` over
    ``1 + sum |coef| 2^-|alpha|``."""
    n = f.dimension
    block = f.cell_block(c)
    r = max(1, round(points ** (1 / n) / block.shape[0]))
    size = block.shape[0] * r
    mids = (np.arange(size) + 0.5) / size - 0.5
    grids = np.meshgrid(*(mids,) * n, indexing="ij")
    for ax in range(n):
        block = np.repeat(block, r, axis=ax)
    mono = [np.prod([g ** e for g, e in zip(grids, alpha)], axis=0)
            for alpha in exps]
    resid = block - sum(coef * u for coef, u in zip(a, mono))
    y = np.sign(resid)
    coef = np.linalg.solve(_unit_gram(exps), [np.mean(y * u) for u in mono])
    proj = sum(cc * u for cc, u in zip(coef, mono))
    reach = 2.0 ** -np.array([sum(alpha) for alpha in exps])
    return (c.measure * np.mean(resid * (y - proj))
            / (1.0 + np.abs(coef) @ reach))


@pytest.mark.parametrize("n, k", [(1, 2), (1, 3), (2, 2)])
def test_dual_bound_matches_a_midpoint_reference_away_from_the_fit(n, k):
    """At coefficients far from the fit, where ``Pi y`` is large, the bound
    is the midpoint rule's to 1e-3 of the objective, and still at most
    ``E``; where ``P`` misses the values, ``y`` is constant, ``h = 0`` and
    the bound is 0."""
    rng = np.random.default_rng(10 * n + k)
    root = CubeId(0, (0,) * n)
    exps = _exponents(n, k)
    reach = 2.0 ** -np.array([sum(alpha) for alpha in exps])
    for depth in (1, 3, 5) if n == 1 else (1, 2, 3):
        f = GridFunction(n, depth, rng.uniform(0.0, 1.0, 1 << (n * depth)))
        integrate = _l1_integrator(f.cell_block(root), root.side, exps)
        E = poly_error(f, root, k, 1)
        for _ in range(5):
            a = rng.uniform(-1.0, 1.0, len(exps))
            a[0] = rng.uniform(-0.5, 1.5)
            cells, g, _ = integrate(a, True)
            obj = cells.sum()
            bound = local_poly._dual_lower_bound(
                f.cell_block(root), root.side, exps, a, obj, g, reach)
            assert abs(bound - midpoint_dual_bound(f, root, exps, a)) \
                <= 1e-3 * obj
            assert bound <= E * (1 + 1e-12)


def test_certificate_stays_sound_where_a_root_cancels(monkeypatch):
    """Where the quadratic coefficient of a 1D fit is ~1e-13 of the linear
    one, the root formula ``(-a1 +- sq) / (2 a2)`` cancels: the cuts
    missed the sign changes and the objective read 0.0243316212, below an
    LP lower bound of the infimum on 2,048 subcells per cell,
    0.0243316580, with a factor of 1.009.  The roots ``q / a2`` and ``-c0
    / q`` do not cancel: the objective is at or above both that bound and
    its own certified one, and the factor is tight.

    The grid has two cells, which ``best_fit`` fits in closed form, so the
    Newton fit is called directly, from the lower median and ``L^2``
    starts of the level kernels; it ends at ``a2 / a1`` about 8e-14.  The
    closed form lies between the LP bound and the Newton fit."""
    n, depth, k, dist = CANCELLING_ROOT
    rng = np.random.default_rng(1000 * n + 10 * depth + k)
    for skipped in SWEEP[:SWEEP.index(dist)]:
        _sweep_grid(rng, n, depth, skipped)
    f = _sweep_grid(rng, n, depth, dist)
    root = CubeId(0, (0,))
    exps = _exponents(n, k)
    block = f.cell_block(root)
    median = np.zeros(len(exps))
    median[0] = block.min()
    bounds = _record_dual_bounds(monkeypatch)
    a, error, factor, _ = local_poly._fit_l1(
        block, root.side, exps, median, l2_level_fits(f, 0, k)[0][0], True)
    infimum_lb = lp_lower_bound(*subcell_design(f, root, exps, 2048))[0]
    print(f"a2 / a1 {a[2] / a[1]!r}, error {error!r}, LP bound "
          f"{infimum_lb!r}, factor {factor!r}")
    assert 0.0 < abs(a[2]) <= 1e-12 * abs(a[1])
    assert error >= infimum_lb
    assert error >= bounds[0]
    assert 1.0 <= factor <= 1 + 1e-6
    assert infimum_lb <= best_fit(f, root, k, 1).error <= error * (1 + 1e-15)


@pytest.mark.parametrize("seed", [1083, 2083])
def test_newton_fit_crosses_heavy_tails(seed):
    """From the ``L^2`` fit of lognormal values the minimum lies many cell
    crossings away.  The exact Hessian sees only the cells a step starts
    in: on it, plain Levenberg steps stopped 7e-6 and 4e-6 high on these
    1D L=8, k=3 fits, and with tangent steps but no band, seed 1083 still
    stops high."""
    f = GridFunction(1, 8, np.random.default_rng(seed).lognormal(0.0, 1.5, 256))
    root = CubeId(0, (0,))
    want = simplex_l1_objective(f, root, 3)
    assert poly_error(f, root, 3, 1) <= want * (1 + 1e-12)


# -- 1D two-cell cubes in closed form ------------------------------------------

def _doubles(lo, hi):
    """Multiples of ``2^-52`` in ``[lo, hi]``, as ``default_rng().uniform``
    draws them: no subnormal, so scaling by ``2^-j`` stays exact."""
    return st.integers(round(lo * 2 ** 52), round(hi * 2 ** 52)).map(
        lambda i: i * 2.0 ** -52)


_UNIFORM = _doubles(0.0, 1.0)
_LOGNORMAL = st.floats(-4.0, 4.0).map(lambda z: math.exp(1.5 * z))
_SIGNED = _doubles(-2.0, 2.0)
TWO_CELLS = st.one_of(
    st.tuples(_UNIFORM, _UNIFORM), st.tuples(_LOGNORMAL, _LOGNORMAL),
    st.tuples(_SIGNED, _SIGNED),
    st.one_of(_UNIFORM, _LOGNORMAL, _SIGNED).map(lambda v: (v, v)),
    st.tuples(_UNIFORM, _UNIFORM).map(lambda ab: (ab[0] + OFFSET,
                                                  ab[1] + OFFSET)))


def _two_cell_grid(values, depth, position):
    """A 1D grid of ``depth`` whose level ``depth - 1`` cubes all hold
    ``values``, and the cube at ``position`` of that level."""
    f = GridFunction(1, depth, np.tile(values, 1 << (depth - 1)))
    return f, CubeId(depth - 1, (position % (1 << (depth - 1)),))


def exact_line_objective(values, c, s, side):
    """``int_Q |f - c - s u|`` in ``Fraction`` arithmetic on the cube of
    ``side`` whose two cells hold ``values``: the roots ``(v - c) / s``
    of the line are rational."""
    total = Fraction(0)
    for v, (u0, u1) in zip(values, ((Fraction(-1, 2), Fraction(0)),
                                    (Fraction(0), Fraction(1, 2)))):
        g0, g1 = (Fraction(v) - c - s * u for u in (u0, u1))
        if g0 * g1 < 0:     # the line crosses the value inside the cell
            r = u0 + g0 / (g0 - g1) * (u1 - u0)
            total += (abs(g0) * (r - u0) + abs(g1) * (u1 - r)) / 2
        else:
            total += abs(g0 + g1) / 2 * (u1 - u0)
    return total * Fraction(side)


@settings(max_examples=60, deadline=None)
@given(TWO_CELLS, st.integers(1, 5), st.integers(0, 31), st.integers(0, 60))
def test_two_cell_fits_are_the_closed_form(values, depth, position, j):
    """On a 1D cube of two cells ``E_2 = E_3 = (sqrt 2 - 1) |b - a| |Q| /
    2``.  The error lies within 1e-12 relative of the former simplex
    polish on the values moved to ``(0, b - a)`` and scaled by a power of
    two to ``|b - a|`` in ``[0.5, 1)``, on the unit cube: neither map moves
    ``E`` but by the scale, and the simplex's tolerances are absolute
    (on ``(0, 2^-52)`` it stopped 0.6% high).  It lies within 4 ulps of
    the exact objective of the reported line, taken at the exact midpoint
    ``(a + b) / 2``: where that is no double (an offset of 1e12, or values
    an ulp apart) no double constant attains the optimum, and the reported
    constant is the midpoint correctly rounded, whose objective is no
    lower.  ``E_3`` has the bits of ``E_2``, and ``E_2 < E_1`` wherever
    ``a != b``.  Values scaled by ``2^-j`` give ``2^-j`` times the errors,
    exactly, and the certified factor lies in ``[1, 1 + 1e-12]``."""
    f, cube = _two_cell_grid(values, depth, position)
    a, b = values
    side = cube.side
    fits = {k: best_fit(f, cube, k, 1) for k in (2, 3)}
    error = fits[2].error
    assert fits[3].error == error
    assert error == poly_error(f, cube, 2, 1) == poly_error(f, cube, 3, 1)
    e1 = poly_error(f, cube, 1, 1)
    assert (error < e1) if a != b else (error == e1 == 0.0)
    scale = 2.0 ** -math.frexp(b - a)[1]
    unit = GridFunction(1, 1, [0.0, (b - a) * scale])
    want = simplex_l1_objective(unit, CubeId(0, (0,)), 2)
    assert abs(error * scale / side - want) <= 1e-12 * want
    ulp = float(np.spacing(error)) if error else 0.0
    mid = (Fraction(a) + Fraction(b)) / 2
    for k, fit in fits.items():
        c, s = fit.local_coeffs[:2]
        assert list(fit.local_coeffs[2:]) == [0.0] * (k - 2)
        assert c == float(mid)
        exact = exact_line_objective(values, mid, Fraction(s), side)
        assert abs(Fraction(error) - exact) <= 4 * Fraction(ulp), k
        assert error <= exact_line_objective(values, Fraction(c),
                                             Fraction(s), side) + 4 * ulp
        assert 1.0 <= fit.near_best_factor <= 1 + 1e-12, k
        assert not fit.approximate
    scaled, _ = _two_cell_grid(np.multiply(values, 2.0 ** -j), depth,
                               position)
    for k in (2, 3):
        assert poly_error(scaled, cube, k, 1) == 2.0 ** -j * error
        assert error_levels(scaled, k, 1)[depth - 1][0] == 2.0 ** -j * error


def test_two_cell_levels_take_no_starts_and_no_fit(monkeypatch):
    """A level of two-cell cubes is fitted in one vectorised step: it calls
    neither level kernel for starts, nor the ``L^1`` integrator, nor the
    Newton polish; the certificate of a single cube is one integrator
    call and one duality bound."""
    calls = []
    for name in ("median_deviations", "l2_level_fits", "_fit_l1",
                 "_l1_cells_1d", "_newton_polish", "_dual_lower_bound"):
        real = getattr(local_poly, name)
        monkeypatch.setattr(local_poly, name,
                            lambda *args, _real=real, _name=name, **kw:
                            calls.append(_name) or _real(*args, **kw))
    f = GridFunction(1, 6, np.random.default_rng(6).lognormal(0.0, 1.5, 64))
    for k in (2, 3):
        level = local_poly._level_fits(f, 5, k, 1)
        assert calls == [] and level[1].shape == (32,)
        assert np.isnan(level[2]).all() and not level[3].any()
        fit = best_fit(f, CubeId(5, (7,)), k, 1)
        assert calls == ["_l1_cells_1d", "_dual_lower_bound"]
        assert fit.error == level[1][7]
        calls.clear()


# -- the vertex descent of the quadratic corner against HiGHS -----------------

def midpoint_lp_optimum(f, c, exps, rule=16):
    """The minimum of the ``rule``-point midpoint objective over the
    quadratics, by HiGHS on its L1-Linf dual, with the values moved by
    their median first (an offset of 1e12 defeats HiGHS's tolerances)."""
    block = f.cell_block(c)
    size = block.shape[0] * rule
    mids = (np.arange(size) + 0.5) / size - 0.5
    u, w = np.meshgrid(mids, mids, indexing="ij")
    Phi = np.column_stack([(u ** i * w ** j).ravel() for i, j in exps])
    v = np.repeat(np.repeat(block - np.median(block), rule, axis=0), rule,
                  axis=1).ravel()
    res = optimize.linprog(-v, A_eq=Phi.T, b_eq=np.zeros(len(exps)),
                           bounds=(-1.0, 1.0), method="highs")
    assert res.success
    return max(-float(res.fun), 0.0) * c.measure / size ** 2


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_quadratic_corner_reaches_the_midpoint_lp_optimum(depth, monkeypatch):
    """Root and subcube fits of the 2D quadratic corner on the sweep's
    values: the objective is HiGHS's optimum of the 16-point midpoint LP to
    1e-9 relative, and the duality bound never exceeds it by more than
    1e-12 relative.  With the values moved by 1e12 the constant is a
    multiple of ulp(1e12) = 2^-13, which may cost ``|Q| * 2^-13``.  At
    depth 4 the root's 16-point rule fills the whole subcell budget,
    65,536 subcells; there the tied values alone are fitted."""
    rng = np.random.default_rng(depth)
    exps = _exponents(2, 3)
    bounds = _record_dual_bounds(monkeypatch)
    grids = []
    descent = local_poly._vertex_descent
    monkeypatch.setattr(local_poly, "_vertex_descent",
                        lambda block, rule, *args: grids.append(
                            (block.shape[0] * rule) ** 2)
                        or descent(block, rule, *args))
    cubes = [CubeId(0, (0, 0))] + ([CubeId(1, (1, 0))]
                                   if 1 < depth < 4 else [])
    for dist in SWEEP if depth < 4 else ("ties",):
        f = _sweep_grid(rng, 2, depth, dist)
        for cube in cubes:
            want = midpoint_lp_optimum(f, cube, exps)
            bounds.clear()
            fit = best_fit(f, cube, 3, 1)
            assert poly_error(f, cube, 3, 1) == fit.error, dist
            slack = cube.measure * 2.0 ** -13 if dist == "offset" else 0.0
            assert abs(fit.error - want) <= 1e-9 * want + slack, dist
            if not bounds:      # a zero objective, certified as it is
                assert fit.error == 0.0 and fit.near_best_factor == 1.0
                continue
            assert bounds[0] <= want * (1 + 1e-12), dist
            assert 1.0 <= fit.near_best_factor < math.inf, dist
            assert fit.approximate, dist
    if depth == 4:
        assert max(grids) == local_poly._SUBCELL_BUDGET


# -- the q = 2 fits: one batched solve per level against direct sums --------

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
    """b_alpha = integral_c f * u^alpha dx: one ``math.fsum`` over the
    cells of ``c``, each with its exact local integral of ``u^alpha``."""
    block = f.cell_block(c)
    edges = np.linspace(-0.5, 0.5, block.shape[0] + 1)
    b = np.zeros(len(exps))
    for i, alpha in enumerate(exps):
        b[i] = math.fsum(
            block[idx] * c.measure * math.prod(
                (edges[j + 1] ** (m + 1) - edges[j] ** (m + 1)) / (m + 1)
                for j, m in zip(idx, alpha))
            for idx in np.ndindex(*block.shape))
    return b


def loop_fit_l2(f, c, exps):
    """The coefficients and ``E^2`` of the projection, with ``f^2`` summed
    by ``math.fsum``."""
    G = _unit_gram(exps)
    b = loop_local_rhs(f, c, exps)
    a = np.linalg.solve(G, b / c.measure)
    sq = math.fsum(v * v * f.cell_measure for v in f.cube_values(c))
    return a, sq - float(a @ b), sq


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
            ref_a, ref_err_sq, sq = loop_fit_l2(f, c, exps)
            # E^2 is a difference of two terms of size ||f||^2: compare it
            # there, where the zero-residual branch also lands
            assert abs(err * err - ref_err_sq) <= 1e-13 * sq
            rms = math.sqrt(sq / c.measure)
            np.testing.assert_allclose(a, ref_a, rtol=0, atol=1e-11 * rms)
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
