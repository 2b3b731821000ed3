"""Best local polynomial approximation on dyadic cubes.

For a grid function ``f``, a cube ``Q`` and ``k >= 1``, the local error is

    E_k(f; Q)_q = inf { ||f - m||_{L^q(Q)} : m polynomial, total degree <= k-1 }

with ``q in {1, 2}``.  ``k = 0`` is the approximate-by-zero convention,
``E_0(f; Q)_q = ||f||_{L^q(Q)}``, used by the packing identity for plain
``L^p`` norms.

Solvers
-------
* ``q = 2``: exact orthogonal projection.  Fits use the scaled monomial basis
  ``u^alpha`` with ``u = (x - center(Q)) / side(Q)``, whose Gram matrix on a
  cube is ``|Q|`` times a fixed well-conditioned matrix, so one small solve
  per cube suffices and the error comes out of the Pythagorean identity.
* ``q = 1, k = 1``: the minimizing constant is a median of the cell values
  (equal weights on a dyadic cube); the LOWER median is taken so results are
  deterministic.  The objective is evaluated exactly.
* ``q = 1, k >= 2``: IRLS (weight floor 1e-12, relative objective decrease
  below 1e-10, at most 200 iterations) refined by a direct simplex polish of
  the exact objective, with the best of {median fit, L2 fit, IRLS} as the
  starting point.  ``near_best_factor`` is certified against a linear-program
  lower bound: replacing ``|f - m|`` by per-subcell averages can only shrink
  the objective (Jensen), and the minimum of that relaxation over all
  polynomials is an LP solved exactly by HiGHS.

Exactness of objectives: piecewise-constant minus polynomial is integrated in
closed form (1D: sign changes from root splitting; 2D affine: half-plane
clipping with polygon moments).  The single non-closed-form corner -- 2D
residuals against quadratic polynomials -- uses a fixed composite midpoint
rule and is flagged through ``approximate``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .grid import CubeId, GridFunction, multi_indices

__all__ = ["PolyFit", "best_fit", "scaled_error", "convention_exponent",
           "mean_oscillation"]

IRLS_WEIGHT_FLOOR = 1e-12
IRLS_REL_TOL = 1e-10
IRLS_MAX_ITER = 200
_POLISH_CELL_CAP = 1024
_QUAD_RULE = 16  # midpoint subdivisions per cell axis, 2D quadratic corner


@dataclass(frozen=True)
class PolyFit:
    """A fitted local polynomial and its certified error.

    ``coeffs`` are coefficients on the plain monomial basis ``x^alpha``
    (``exponents`` lists the multi-indices).  ``local_coeffs`` are the same
    polynomial on the cube-scaled basis ``((x - center)/side)^alpha`` and are
    the numerically preferred representation.  ``near_best_factor >= 1`` is a
    certified bound on ``error / E_k(f;Q)_q``; it is 1 for the exact routes
    (q=2, or q=1 with k<=1).  ``approximate`` marks results whose objective
    involved quadrature or a non-converged IRLS loop.
    """

    cube: CubeId
    degree_bound: int
    q: int
    exponents: tuple[tuple[int, ...], ...]
    coeffs: np.ndarray
    local_coeffs: np.ndarray
    error: float
    near_best_factor: float
    approximate: bool = False

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the polynomial at points in global coordinates, shape (m, n)."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        u = (pts - np.asarray(self.cube.center)) / self.cube.side
        out = np.zeros(pts.shape[0])
        for alpha, c in zip(self.exponents, self.local_coeffs):
            term = np.full(pts.shape[0], c)
            for ax, m in enumerate(alpha):
                if m:
                    term = term * u[:, ax] ** m
            out += term
        return out


def best_fit(f: GridFunction, c: CubeId, k: int, q: int) -> PolyFit:
    """Best (or certified nearly best) degree-(k-1) fit of ``f`` on ``c``.

    ``k`` ranges over 0..3 (0 = compare against the zero polynomial).
    """
    _check_kq(k, q)
    f.check_cube(c)
    if k == 0:
        err = f.moments().abs_pow_integral(c, q) ** (1.0 / q)
        return PolyFit(c, 0, q, (), np.zeros(0), np.zeros(0), err, 1.0)
    exps = tuple(multi_indices(f.dimension, k - 1))
    if q == 2:
        local, err = _fit_l2(f, c, exps)
        factor, approx = 1.0, False
    elif k == 1:
        local, err = _fit_median(f, c)
        factor, approx = 1.0, False
    else:
        local, err, factor, approx = _fit_l1(f, c, exps, certify=True)
    return PolyFit(c, k, q, exps, _local_to_global(exps, local, c), local,
                   err, factor, approx)


def poly_error(f: GridFunction, c: CubeId, k: int, q: int) -> float:
    """E_k(f;c)_q without the near-best certificate (cheaper for k>=2, q=1)."""
    _check_kq(k, q)
    f.check_cube(c)
    if k == 0:
        return f.moments().abs_pow_integral(c, q) ** (1.0 / q)
    exps = tuple(multi_indices(f.dimension, k - 1))
    if q == 2:
        return _fit_l2(f, c, exps)[1]
    if k == 1:
        return _fit_median(f, c)[1]
    return _fit_l1(f, c, exps, certify=False)[1]


def scaled_error(f: GridFunction, c: CubeId, k: int, q: int, lam: float,
                 convention: str = "SV") -> float:
    """``|c|^e * E_k(f;c)_q``, ``e`` set by :func:`convention_exponent`."""
    e = convention_exponent(convention, lam, q, f.dimension)
    return c.measure ** e * poly_error(f, c, k, q)


def convention_exponent(convention: str, lam: float, q: int,
                        dimension: int) -> float:
    """The exponent ``e`` of the scaled error ``|Q|^e * E_k(f;Q)_q``.

    convention "V":  e = lam/n - 1/q      convention "SV": e = lam/(n*q) - 1/q
    The two agree when q = 1 or lam = 0.
    """
    if convention == "V":
        return lam / dimension - 1.0 / q
    if convention == "SV":
        return lam / (dimension * q) - 1.0 / q
    raise ValueError(f"convention must be 'V' or 'SV', got {convention!r}")


def mean_oscillation(f: GridFunction, c: CubeId) -> float:
    """``(1/|c|) integral_c |f - f_c|`` with ``f_c`` the mean; exact."""
    block = f.cube_values(c)
    return float(np.mean(np.abs(block - block.mean())))


def _check_kq(k: int, q: int) -> None:
    if not 0 <= k <= 3:
        raise ValueError(f"k must lie in 0..3, got {k}")
    if q not in (1, 2):
        raise ValueError(f"q must be 1 or 2, got {q}")


# -- exact L2 projection ---------------------------------------------------

def _unit_gram(exps: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Gram matrix of u^alpha on the unit box [-1/2, 1/2)^n."""
    def g(m: int) -> float:
        return 0.0 if m % 2 else 0.5 ** m / (m + 1)

    d = len(exps)
    G = np.empty((d, d))
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            G[i, j] = math.prod(g(ai + bi) for ai, bi in zip(a, b))
    return G


def _local_rhs(f: GridFunction, c: CubeId,
               exps: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """b_alpha = integral_c f * u^alpha dx, from raw moments of f."""
    table = f.moments()
    center, s = c.center, c.side
    b = np.zeros(len(exps))
    for i, alpha in enumerate(exps):
        for gamma, coef in _local_monomial_as_global(alpha, center, s).items():
            b[i] += coef * table.moment(c, gamma)
    return b


def _local_monomial_as_global(alpha: tuple[int, ...], center: tuple[float, ...],
                              side: float) -> dict[tuple[int, ...], float]:
    """Expansion of prod_a ((x_a - c_a)/s)^{alpha_a} in plain monomials."""
    per_axis = []
    for m, c in zip(alpha, center):
        terms = {
            j: math.comb(m, j) * (-c) ** (m - j) / side ** m
            for j in range(m + 1)
        }
        per_axis.append(terms)
    out: dict[tuple[int, ...], float] = {}
    for combo in itertools.product(*(ax.items() for ax in per_axis)):
        gamma = tuple(j for j, _ in combo)
        coef = math.prod(v for _, v in combo)
        out[gamma] = out.get(gamma, 0.0) + coef
    return out


def _local_to_global(exps, local_coeffs, c: CubeId) -> np.ndarray:
    acc: dict[tuple[int, ...], float] = {e: 0.0 for e in exps}
    for alpha, a in zip(exps, local_coeffs):
        for gamma, coef in _local_monomial_as_global(alpha, c.center, c.side).items():
            acc[gamma] = acc.get(gamma, 0.0) + a * coef
    return np.array([acc[e] for e in exps])


def _fit_l2(f, c, exps):
    G = _unit_gram(exps)
    b = _local_rhs(f, c, exps)
    a = np.linalg.solve(G, b / c.measure)
    sq = f.moments().square_integral(c)
    proj = float(a @ b)
    err_sq = sq - proj
    # the subtraction cancels completely when f is representable; anything
    # at rounding scale of the operands is noise, not a residual
    if err_sq <= 64.0 * np.finfo(float).eps * max(sq, abs(proj)):
        return a, 0.0
    return a, math.sqrt(err_sq)


# -- exact L1 constant (lower median) --------------------------------------

def _fit_median(f, c):
    vals = np.sort(f.cube_values(c))
    med = float(vals[(vals.size - 1) // 2])
    err = float(np.abs(vals - med).sum()) * f.cell_measure
    return np.array([med]), err


# -- L1 fits for k >= 2 ----------------------------------------------------

def _subcell_design(f: GridFunction, c: CubeId, exps, refine: int):
    """Design for the cell-averaged objective on an optionally refined grid.

    Returns ``(Phi, v, mu)``: ``Phi[i, j]`` is the average of ``u^{alpha_j}``
    over subcell ``i``, ``v`` repeats the cell values onto subcells, ``mu``
    is the subcell measure.  ``refine = 1`` reproduces the grid cells.
    """
    n = f.dimension
    s_cells = 1 << (f.depth - c.level)
    m = s_cells * refine
    edges = np.linspace(-0.5, 0.5, m + 1)
    max_m = max((max(a) for a in exps), default=0)
    avg = [
        (edges[1:] ** (mm + 1) - edges[:-1] ** (mm + 1)) / ((mm + 1) / m)
        for mm in range(max_m + 1)
    ]
    cols = []
    for alpha in exps:
        col = avg[alpha[0]]
        if n == 2:
            col = np.multiply.outer(col, avg[alpha[1]]).ravel()
        cols.append(col)
    Phi = np.column_stack(cols)
    block = f.cell_block(c)
    for ax in range(n):
        block = np.repeat(block, refine, axis=ax)
    v = block.ravel().astype(np.float64)
    mu = c.measure / m ** n
    return Phi, v, np.full(v.size, mu)


def _irls(Phi, v, mu, a0):
    """Reweighted least squares for the cell-averaged L1 objective."""
    a = a0.copy()
    sqmu = np.sqrt(mu)

    def objective(coef):
        return float(mu @ np.abs(v - Phi @ coef))

    best, best_obj = a.copy(), objective(a)
    prev = best_obj
    converged = False
    for _ in range(IRLS_MAX_ITER):
        r = v - Phi @ a
        w = sqmu / np.sqrt(np.maximum(np.abs(r), IRLS_WEIGHT_FLOOR))
        a, *_ = np.linalg.lstsq(Phi * w[:, None], v * w, rcond=None)
        obj = objective(a)
        if obj < best_obj:
            best, best_obj = a.copy(), obj
        if abs(prev - obj) < IRLS_REL_TOL * max(prev, 1e-30):
            converged = True
            break
        prev = obj
    return best, converged


def _lp_lower_bound(Phi, v, mu) -> float:
    """Exact minimum of the (refined) cell-averaged L1 objective over all
    polynomials -- a certified lower bound for the true infimum."""
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


def _fit_l1(f, c, exps, certify):
    cells = f.cube_values(c).size
    Phi, v, mu = _subcell_design(f, c, exps, refine=1)

    def objective(a):
        return _l1_residual_cells(f, c, exps, a).sum()

    # candidate fits: previous-degree exact fit keeps E_k monotone in k
    med_local = np.zeros(len(exps))
    med_local[exps.index((0,) * f.dimension)] = _fit_median(f, c)[0][0]
    l2_local = _fit_l2(f, c, exps)[0]
    irls_local, converged = _irls(Phi, v, mu, l2_local)
    candidates = [med_local, l2_local, irls_local]
    objs = [objective(a) for a in candidates]
    best_i = int(np.argmin(objs))
    a_best, obj_best = candidates[best_i], objs[best_i]

    # a zero objective is already the infimum; skip polish and certificate
    scale = max(float(np.abs(v).max(initial=0.0)), 1.0)
    if obj_best <= 1e-14 * scale * c.measure:
        return a_best, obj_best, 1.0 if certify else math.nan, False

    if cells <= _POLISH_CELL_CAP:
        res = optimize.minimize(objective, a_best, method="Nelder-Mead",
                                options={"maxiter": 400 * len(exps),
                                         "xatol": 1e-10, "fatol": 1e-13})
        if res.fun < obj_best:
            a_best, obj_best = res.x, float(res.fun)

    approx = (not converged) or (f.dimension == 2 and len(exps) > 3)
    if not certify:
        return a_best, obj_best, math.nan, approx

    refine = 8 if f.dimension == 1 else 4
    while cells * refine ** f.dimension > 8192 and refine > 1:
        refine //= 2
    lb = _lp_lower_bound(*_subcell_design(f, c, exps, refine=refine))
    if lb <= 1e-15 * max(obj_best, 1.0):
        factor = 1.0 if obj_best <= 1e-12 else math.inf
        approx = approx or obj_best > 1e-12
    else:
        factor = max(obj_best / lb, 1.0)
    return a_best, obj_best, factor, approx


# -- exact residual integrals ----------------------------------------------

def _l1_residual_cells(f, c, exps, local_coeffs) -> np.ndarray:
    """Per-cell ``integral |f - P| dx`` over the cells of ``c`` (flat array)."""
    if f.dimension == 1:
        return _l1_cells_1d(f, c, exps, local_coeffs)
    if all(sum(a) <= 1 for a in exps):
        return _l1_cells_affine_2d(f, c, exps, local_coeffs)
    return _l1_cells_quad_2d(f, c, exps, local_coeffs)


def _l1_cells_1d(f, c, exps, a) -> np.ndarray:
    # antiderivative coefficients of P in local coordinates
    coef = {m: 0.0 for m in range(3)}
    for (m,), v in zip(exps, a):
        coef[m] = float(v)
    a0, a1, a2 = coef[0], coef[1], coef[2]

    def antideriv(u):
        F = a0 * u + a1 * u * u / 2.0
        # a zero term only flips the sign of a zero; float_power rounds as
        # the scalar ``**`` does, the array ``**`` may not in the last bit
        return F + a2 * np.float_power(u, 3) / 3.0 if a2 else F

    vals = f.cube_values(c)
    m_cells = vals.size
    # the cell edges, exact since the cell count is a power of two
    edges = np.arange(-m_cells, m_cells + 1, 2) / (2 * m_cells)
    u0, u1 = edges[:-1], edges[1:]
    scale = max(abs(a0), abs(a1), abs(a2), 1.0)
    # per cell the cuts u0 <= lo <= hi <= u1: the roots of P(u) = v inside
    # the cell split |v - P| into signed pieces; a root outside the cell is
    # clamped to its end, where it cuts a zero-width piece worth exactly 0
    lo = hi = u1
    if abs(a2) > 1e-14 * scale:
        with np.errstate(invalid="ignore"):     # no real root: NaN
            sq = np.sqrt(a1 * a1 - 4.0 * a2 * (a0 - vals))
        roots = ((-a1 - sq) / (2 * a2), (-a1 + sq) / (2 * a2))
        lo, hi = (np.fmin(np.fmax(r, u0), u1)       # fmax maps NaN to u0
                  for r in (roots if a2 > 0 else roots[::-1]))
    elif abs(a1) > 1e-14 * scale:
        lo = np.fmin(np.fmax(-(a0 - vals) / a1, u0), u1)
    cuts = np.array([u0, lo, hi, u1])
    F = antideriv(cuts)
    pieces = np.abs(vals * (cuts[1:] - cuts[:-1]) - (F[1:] - F[:-1]))
    return (pieces[0] + pieces[1] + pieces[2]) * c.side


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


def _l1_cells_affine_2d(f, c, exps, a) -> np.ndarray:
    coef = {e: 0.0 for e in ((0, 0), (0, 1), (1, 0))}
    for alpha, v in zip(exps, a):
        coef[alpha] = float(v)
    p0, pw, pu = coef[(0, 0)], coef[(0, 1)], coef[(1, 0)]

    block = f.cell_block(c)
    m_cells = block.shape[0]
    edges = np.linspace(-0.5, 0.5, m_cells + 1)
    s2 = c.side ** 2
    cu, cw = -pu, -pw

    def signed(c0, u0, u1, w0, w1):
        """Integral over the cell of v - P = c0 + cu * u + cw * w."""
        area = (u1 - u0) * (w1 - w0)
        return (c0 * area + cu * area * (u0 + u1) / 2
                + cw * area * (w0 + w1) / 2)

    c0 = block - p0                 # rows along u, columns along w
    # where the slope is at rounding scale v - P keeps one sign in the cell;
    # those cells take |integral| in one vector pass, the others clip
    flat = abs(cu) + abs(cw) < 1e-15 * np.maximum(np.abs(c0), 1.0)
    out = np.empty(block.size)
    if flat.any():
        full = signed(c0, edges[:-1, None], edges[1:, None],
                      edges[None, :-1], edges[None, 1:])
        out[flat.ravel()] = np.abs(full[flat]) * s2
    for i, j in zip(*np.nonzero(~flat)):
        u0, u1, w0, w1 = edges[i], edges[i + 1], edges[j], edges[j + 1]
        cc = c0[i, j]
        poly = [(u0, w0), (u1, w0), (u1, w1), (u0, w1)]
        clipped = _clip_halfplane(poly, lambda p: cc + cu * p[0] + cw * p[1])
        A, Iu, Iw = _polygon_moments(clipped)
        pos = cc * A + cu * Iu + cw * Iw
        out[i * m_cells + j] = abs(2.0 * pos - signed(cc, u0, u1, w0, w1)) * s2
    return out


def _l1_cells_quad_2d(f, c, exps, a) -> np.ndarray:
    """Composite midpoint rule for 2D residuals against quadratics."""
    block = f.cell_block(c)
    m_cells = block.shape[0]
    r = _QUAD_RULE
    mids = (np.arange(m_cells * r) + 0.5) / (m_cells * r) - 0.5
    U = mids[:, None]
    W = mids[None, :]
    P = np.zeros((mids.size, mids.size))
    for alpha, coef in zip(exps, a):
        P += coef * U ** alpha[0] * W ** alpha[1]
    vrep = np.repeat(np.repeat(block, r, axis=0), r, axis=1)
    sub_area = c.measure / mids.size ** 2
    resid = np.abs(vrep - P) * sub_area
    # fold subcells back onto cells
    resid = resid.reshape(m_cells, r, m_cells, r).sum(axis=(1, 3))
    return resid.ravel()


def residual_cell_integrals(f: GridFunction, fit: PolyFit, q: int) -> np.ndarray:
    """Per finest cell of ``fit.cube``: ``integral_cell |f - P|^q dx``.

    q=2 is closed-form via monomial integrals; q=1 delegates to the exact
    piecewise integrators (quadrature only in the 2D quadratic corner).
    Returned flat, row-major over the cells of ``fit.cube``.
    """
    if fit.degree_bound == 0:
        vals = f.cube_values(fit.cube)
        return np.abs(vals) ** q * f.cell_measure
    if q == 1:
        return _l1_residual_cells(f, fit.cube, fit.exponents, fit.local_coeffs)
    vals = f.cube_values(fit.cube)
    pint, p2int = _poly_cell_integrals(f, fit.cube, fit.exponents,
                                       fit.local_coeffs)
    out = vals * vals * f.cell_measure - 2.0 * vals * pint + p2int
    return np.maximum(out, 0.0)


def _poly_cell_integrals(f, c, exps, a):
    """(integral_cell P dx, integral_cell P^2 dx) for every cell of ``c``."""
    n = f.dimension
    m_cells = 1 << (f.depth - c.level)
    edges = np.linspace(-0.5, 0.5, m_cells + 1)
    max_m = 2 * max((max(alpha) for alpha in exps), default=0)
    seg = [
        (edges[1:] ** (mm + 1) - edges[:-1] ** (mm + 1)) / (mm + 1)
        for mm in range(max_m + 1)
    ]
    vol = c.side ** n

    def monom(alpha):
        col = seg[alpha[0]]
        if n == 2:
            col = np.multiply.outer(col, seg[alpha[1]]).ravel()
        return col

    pint = np.zeros(m_cells ** n)
    for alpha, coef in zip(exps, a):
        pint += coef * monom(alpha)
    p2int = np.zeros(m_cells ** n)
    for (al, ca), (be, cb) in itertools.product(zip(exps, a), repeat=2):
        gamma = tuple(x + y for x, y in zip(al, be))
        p2int += ca * cb * monom(gamma)
    return pint * vol, p2int * vol
