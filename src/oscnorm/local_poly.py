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
  cube is ``|Q|`` times a fixed well-conditioned matrix, and the error comes
  out of the Pythagorean identity.  :func:`l2_level_fits` fits every cube of
  one level in one pass: right-hand sides from strided rectangle sums of the
  moment table, one stacked solve against the fixed matrix.  A single cube
  is its one-row call, with the same bits.
* ``q = 1, k = 1``: the minimizing constant is a median of the cell values
  (equal weights on a dyadic cube); the LOWER median is taken so results are
  deterministic.  The objective is evaluated exactly.
* ``q = 1, k >= 2``: IRLS (weight floor 1e-12, relative objective decrease
  below 1e-10, at most 200 iterations) refined by a direct simplex polish of
  the exact objective, with the best of {median fit, L2 fit, IRLS} as the
  starting point.  The objective is an integrator prepared once per cube
  (cell values, edges, quadrature grids), so each simplex step pays for the
  arithmetic alone.  ``near_best_factor`` is certified against a
  linear-program lower bound: replacing ``|f - m|`` by per-subcell averages
  can only shrink the objective (Jensen), and the minimum of that
  relaxation over all polynomials is an LP solved exactly by HiGHS, given
  its constraint matrix in sparse form (``O(m)`` memory for ``m``
  subcells).  The functionals of :mod:`oscnorm.norms` run these fits once
  per cube of a grid and hold the errors on the grid.

Exactness of objectives: piecewise-constant minus polynomial is integrated in
closed form (1D: sign changes from root splitting; 2D affine: half-plane
clipping with polygon moments, all cells of a cube at once).  The single
non-closed-form corner -- 2D residuals against quadratic polynomials -- uses
a fixed composite midpoint rule and is flagged through ``approximate``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, sparse

from .grid import CubeId, GridFunction, multi_indices

__all__ = ["PolyFit", "best_fit", "l2_level_fits", "scaled_error",
           "convention_exponent", "mean_oscillation"]

IRLS_WEIGHT_FLOOR = 1e-12
IRLS_REL_TOL = 1e-10
IRLS_MAX_ITER = 200
_POLISH_CELL_CAP = 1024
_QUAD_RULE = 16  # midpoint subdivisions per cell axis, 2D quadratic corner
_CLIP_BLOCK = 4096  # cells per vectorised half-plane clip, 2D affine residual
_NOISE = 64.0 * np.finfo(float).eps  # relative size of a zero L2 residual
# cubes per batched L2 solve: the temporaries take ~400 bytes per cube, so a
# level of a 4M-cell grid is fitted in blocks of ~27 MB, not at once
_L2_BLOCK = 1 << 16


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
    exps = _exponents(f.dimension, k)
    if q == 2:
        local, err = _fit_l2(f, c, k)
        factor, approx = 1.0, False
    elif k == 1:
        local, err = _fit_median(f, c)
        factor, approx = 1.0, False
    else:
        local, err, factor, approx = _fit_l1(f, c, k, certify=True)
    return PolyFit(c, k, q, exps, _local_to_global(exps, local, c), local,
                   err, factor, approx)


def poly_error(f: GridFunction, c: CubeId, k: int, q: int) -> float:
    """E_k(f;c)_q without the near-best certificate (cheaper for k>=2, q=1)."""
    _check_kq(k, q)
    f.check_cube(c)
    if k == 0:
        return f.moments().abs_pow_integral(c, q) ** (1.0 / q)
    if q == 2:
        return _fit_l2(f, c, k)[1]
    if k == 1:
        return _fit_median(f, c)[1]
    return _fit_l1(f, c, k, certify=False)[1]


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


@functools.lru_cache(maxsize=None)
def _exponents(dimension: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The multi-indices of degree ``<= k - 1``, graded order."""
    return tuple(multi_indices(dimension, k - 1))


def _check_kq(k: int, q: int) -> None:
    if not 0 <= k <= 3:
        raise ValueError(f"k must lie in 0..3, got {k}")
    if q not in (1, 2):
        raise ValueError(f"q must be 1 or 2, got {q}")


# -- exact L2 projection ---------------------------------------------------

def l2_level_fits(f: GridFunction, level: int, k: int,
                  coords: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``q = 2`` fits of degree ``k - 1`` (``k`` in 1..3) on cubes of
    one ``level``, in one pass.

    ``coords`` (shape ``(m, n)``, entries in ``range(2**level)``) picks the
    cubes, by default every cube of the level in breadth-first order.
    Returns the coefficients on the local basis ``u^alpha``, ``alpha`` in
    ``multi_indices(n, k - 1)``, shape ``(m, d)``, and the errors
    ``E_k(f;Q)_2``, shape ``(m,)``.
    """
    if not 1 <= k <= 3:
        raise ValueError(f"k must lie in 1..3, got {k}")
    if not 0 <= level <= f.depth:
        raise ValueError(f"level must lie in [0, {f.depth}], got {level}")
    n = f.dimension
    whole_level = coords is None
    if whole_level:
        coords = np.indices((1 << level,) * n).reshape(n, -1).T
    if len(coords) > _L2_BLOCK:
        fits = [l2_level_fits(f, level, k, coords[i:i + _L2_BLOCK])
                for i in range(0, len(coords), _L2_BLOCK)]
        return tuple(np.concatenate(part) for part in zip(*fits))
    if (coords >> level).any():
        raise ValueError(f"cube coordinates must lie in range(2**{level})")
    # a whole level takes its rectangle sums by strided slices
    sums = f.moments().level_l2_sums(level, k - 1,
                                      None if whole_level else coords)
    sq, mom = sums[0], sums[1:]
    exps = _exponents(n, k)
    scale, power, order = _expansion(exps, level)
    pw = _center_powers(coords, level)
    # b_alpha = integral f u^alpha dx from the raw moments; the terms are
    # added one at a time in ``order``, never by a reduction that picks its
    # own order, so a cube's bits do not depend on the batch it is in
    b = np.zeros((len(coords), len(exps)))
    for j in order:
        coef = scale[:, j] * pw[0][:, power[0, :, j]]
        for ax in range(1, n):
            coef *= pw[ax][:, power[ax, :, j]]
        b += coef * mom[j][:, None]
    B = b[..., None]
    a = np.linalg.solve(_unit_gram(exps)[None], B / 2.0 ** (-level * n))
    # a stacked matmul takes each a.b as one BLAS dot, as a 1-D ``a @ b``
    # does; einsum sums in an order of its own
    proj = (a.transpose(0, 2, 1) @ B)[:, 0, 0]
    err_sq = sq - proj
    # the subtraction cancels completely when f is representable; anything
    # at rounding scale of the operands is noise, not a residual
    noise = err_sq <= _NOISE * np.maximum(sq, np.abs(proj))
    return a[..., 0], np.sqrt(np.where(noise, 0.0, err_sq))


@functools.lru_cache(maxsize=None)
def _unit_gram(exps: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Gram matrix of u^alpha on the unit box [-1/2, 1/2)^n."""
    def g(m: int) -> float:
        return 0.0 if m % 2 else 0.5 ** m / (m + 1)

    d = len(exps)
    G = np.empty((d, d))
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            G[i, j] = math.prod(g(ai + bi) for ai, bi in zip(a, b))
    G.flags.writeable = False
    return G


@functools.lru_cache(maxsize=None)
def _expansion(exps: tuple[tuple[int, ...], ...], level: int):
    """``prod_a ((x_a - c_a)/s)^{alpha_a}`` in plain monomials ``x^gamma``
    on cubes of side ``s = 2**-level``, as
    ``scale[i, j] * prod_a (-c_a)^power[a, i, j]`` with ``alpha = exps[i]``
    and ``gamma = exps[j]``.

    ``scale`` is the binomial factor over ``s^|alpha|`` (0 unless
    ``gamma <= alpha``); ``order`` lists the ``gamma`` positions
    lexicographically, the order of the binomial expansion axis by axis.
    Every coefficient is exact (dyadic centers, degree <= 2), so only the
    order of the sums decides the bits of what is built from them.
    """
    d, n = len(exps), len(exps[0])
    scale = np.zeros((d, d))
    power = np.zeros((n, d, d), dtype=np.intp)
    for i, alpha in enumerate(exps):
        for j, gamma in enumerate(exps):
            if all(g <= a for g, a in zip(gamma, alpha)):
                scale[i, j] = (math.prod(map(math.comb, alpha, gamma))
                               / 2.0 ** (-level * sum(alpha)))
                power[:, i, j] = np.subtract(alpha, gamma)
    scale.flags.writeable = power.flags.writeable = False
    return scale, power, tuple(sorted(range(d), key=exps.__getitem__))


def _center_powers(coords: np.ndarray, level: int) -> np.ndarray:
    """``(-center)^e`` for ``e = 0, 1, 2``, shape ``(n, m, 3)``, of the cubes
    ``coords`` of one level; exact, since the centers are dyadic."""
    neg = (coords.T + 0.5) * -2.0 ** -level
    pw = np.empty(neg.shape + (3,))
    pw[..., 0] = 1.0
    pw[..., 1] = neg
    pw[..., 2] = neg * neg
    return pw


def _local_to_global(exps, local_coeffs, c: CubeId) -> np.ndarray:
    """Plain-monomial coefficients, summed over ``alpha`` in ``exps`` order."""
    scale, power, _ = _expansion(exps, c.level)
    pw = _center_powers(np.array([c.coords]), c.level)[:, 0]
    coef = scale * np.prod([p[e] for p, e in zip(pw, power)], axis=0)
    out = np.zeros(len(exps))
    for a, row in zip(local_coeffs, coef):
        out += a * row
    return out


def _fit_l2(f, c, k):
    """The one-cube call of :func:`l2_level_fits`."""
    a, err = l2_level_fits(f, c.level, k, np.array([c.coords]))
    return a[0], float(err[0])


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
    # [[Phi, -I], [-Phi, -I]] without its zeros: the matrix linprog makes of
    # the dense block, in O(m) memory instead of O(m^2)
    P = sparse.csc_matrix(Phi)
    eye = sparse.eye(m, format="csc")
    A_ub = sparse.bmat([[P, -eye], [-P, -eye]], format="csc")
    b_ub = np.concatenate([v, -v])
    bounds = [(None, None)] * d + [(0, None)] * m
    res = optimize.linprog(c_vec, A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                           method="highs")
    if not res.success:
        return 0.0
    return max(float(res.fun), 0.0)


def _fit_l1(f, c, k, certify):
    exps = _exponents(f.dimension, k)
    cells = f.cube_values(c).size
    Phi, v, mu = _subcell_design(f, c, exps, refine=1)
    integrate = _l1_integrator(f, c, exps)

    def objective(a):
        return integrate(a).sum()

    # candidate fits: previous-degree exact fit keeps E_k monotone in k
    med_local = np.zeros(len(exps))
    med_local[exps.index((0,) * f.dimension)] = _fit_median(f, c)[0][0]
    l2_local = _fit_l2(f, c, k)[0]
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

def _l1_integrator(f, c, exps):
    """``a -> integral_cell |f - P| dx`` for every cell of ``c`` (flat),
    ``P`` the polynomial with local coefficients ``a``.

    Everything that does not depend on ``a`` -- the cell values, the edges,
    the quadrature grids -- is prepared here once, so a fit that evaluates
    its objective many times pays for the arithmetic alone.
    """
    if f.dimension == 1:
        return _l1_cells_1d(f.cube_values(c), c.side, exps)
    if all(sum(a) <= 1 for a in exps):
        return _l1_cells_affine_2d(f.cell_block(c), c.side, exps)
    return _l1_cells_quad_2d(f.cell_block(c), c.measure, exps)


def _l1_cells_1d(vals, side, exps):
    m_cells = vals.size
    # the cell edges, exact since the cell count is a power of two
    edges = np.arange(-m_cells, m_cells + 1, 2) / (2 * m_cells)
    u0, u1 = edges[:-1], edges[1:]

    def cells(a):
        # antiderivative coefficients of P in local coordinates
        coef = {m: 0.0 for m in range(3)}
        for (m,), v in zip(exps, a):
            coef[m] = float(v)
        a0, a1, a2 = coef[0], coef[1], coef[2]

        def antideriv(u):
            F = a0 * u + a1 * u * u / 2.0
            # a zero term only flips the sign of a zero; float_power rounds
            # as the scalar ``**`` does, the array ``**`` may not in the
            # last bit
            return F + a2 * np.float_power(u, 3) / 3.0 if a2 else F

        scale = max(abs(a0), abs(a1), abs(a2), 1.0)
        # per cell the cuts u0 <= lo <= hi <= u1: the roots of P(u) = v
        # inside the cell split |v - P| into signed pieces; a root outside
        # the cell is clamped to its end, where it cuts a zero-width piece
        # worth exactly 0
        lo = hi = u1
        if abs(a2) > 1e-14 * scale:
            with np.errstate(invalid="ignore"):     # no real root: NaN
                sq = np.sqrt(a1 * a1 - 4.0 * a2 * (a0 - vals))
            roots = ((-a1 - sq) / (2 * a2), (-a1 + sq) / (2 * a2))
            lo, hi = (np.fmin(np.fmax(r, u0), u1)   # fmax maps NaN to u0
                      for r in (roots if a2 > 0 else roots[::-1]))
        elif abs(a1) > 1e-14 * scale:
            lo = np.fmin(np.fmax(-(a0 - vals) / a1, u0), u1)
        cuts = np.array([u0, lo, hi, u1])
        F = antideriv(cuts)
        pieces = np.abs(vals * (cuts[1:] - cuts[:-1]) - (F[1:] - F[:-1]))
        return (pieces[0] + pieces[1] + pieces[2]) * side

    return cells


def _l1_cells_affine_2d(block, side, exps):
    m_cells = block.shape[0]
    edges = np.linspace(-0.5, 0.5, m_cells + 1)
    # rows along u, columns along w
    u_sum, w_sum = edges[:-1, None] + edges[1:, None], edges[:-1] + edges[1:]
    area = np.diff(edges)[:, None] * np.diff(edges)
    s2 = side ** 2

    def cells(a):
        coef = {e: 0.0 for e in ((0, 0), (0, 1), (1, 0))}
        for alpha, v in zip(exps, a):
            coef[alpha] = float(v)
        p0, pw, pu = coef[(0, 0)], coef[(0, 1)], coef[(1, 0)]
        cu, cw = -pu, -pw
        c0 = block - p0
        # the integral over each cell of v - P = c0 + cu * u + cw * w
        full = c0 * area + cu * area * u_sum / 2 + cw * area * w_sum / 2
        # where the slope is at rounding scale v - P keeps one sign in the
        # cell and the cell integral is |full|; the others are clipped
        flat = abs(cu) + abs(cw) < 1e-15 * np.maximum(np.abs(c0), 1.0)
        out = np.abs(full) * s2
        rows, cols = np.nonzero(~flat)
        # in blocks whose temporaries stay in cache
        for b in range(0, len(rows), _CLIP_BLOCK):
            i, j = rows[b:b + _CLIP_BLOCK], cols[b:b + _CLIP_BLOCK]
            pos = _positive_part_moments(c0[i, j], cu, cw, edges[i],
                                         edges[i + 1], edges[j], edges[j + 1])
            out[i, j] = np.abs(2.0 * pos - full[i, j]) * s2
        return out.ravel()

    return cells


def _positive_part_moments(cc, cu, cw, u0, u1, w0, w1):
    """``integral (cc + cu u + cw w)_+`` over each box ``[u0,u1]x[w0,w1]``.

    Clips the box (corners in the order (u0,w0), (u1,w0), (u1,w1), (u0,w1))
    to the half-plane where the affine function is ``>= 0``, edge by edge
    as Sutherland-Hodgman does, and takes the clipped polygon's area and
    first moments by the shoelace sums, vertex after vertex, so each box
    gets the bits of the one-box loop.  A clipped polygon has at most eight
    vertex slots, two per edge: the edge's first corner and a crossing.
    """
    X = (u0, u1, u1, u0)
    Y = (w0, w0, w1, w1)
    lv = [cc + cu * x + cw * y for x, y in zip(X, Y)]
    keep, px, py = [], [], []
    # lanes without a crossing divide by a zero difference; they are masked
    with np.errstate(invalid="ignore", divide="ignore"):
        for e in range(4):
            b = (e + 1) % 4
            la, lb = lv[e], lv[b]
            t = la / (la - lb)
            keep += [la >= 0.0, (la >= 0.0) != (lb >= 0.0)]
            px += [X[e], X[e] + t * (X[b] - X[e])]
            py += [Y[e], Y[e] + t * (Y[b] - Y[e])]
    keep = np.array(keep)
    slots, boxes = keep.shape
    # slot-major, ``slot * boxes + box``; a dropped slot becomes (0, 0),
    # so its cross product is a zero and a sum only ever gains +-0.0 from
    # it, which keeps the sum's bits (a running sum is never -0.0)
    px = np.where(keep, px, 0.0).ravel()
    py = np.where(keep, py, 0.0).ravel()
    # each kept slot's successor: the next kept slot, and after the last
    # one the first, as the loop closes the polygon
    succ = np.empty(keep.shape, dtype=np.intp)
    nxt = np.full(boxes, -1)
    for v in range(slots - 1, -1, -1):
        succ[v] = nxt
        nxt = np.where(keep[v], v, nxt)
    succ = np.where(succ < 0, nxt, succ) * boxes + np.arange(boxes)
    A, Iu, Iw = np.zeros((3, boxes))
    for v in range(slots):
        x0, y0 = px[v * boxes:(v + 1) * boxes], py[v * boxes:(v + 1) * boxes]
        x1, y1 = px[succ[v]], py[succ[v]]
        cross = x0 * y1 - x1 * y0
        A += cross
        Iu += (x0 + x1) * cross
        Iw += (y0 + y1) * cross
    polygon = keep.sum(axis=0) >= 3
    A = np.where(polygon, A / 2.0, 0.0)
    Iu = np.where(polygon, Iu / 6.0, 0.0)
    Iw = np.where(polygon, Iw / 6.0, 0.0)
    return cc * A + cu * Iu + cw * Iw


def _l1_cells_quad_2d(block, measure, exps):
    """Composite midpoint rule for 2D residuals against quadratics."""
    m_cells = block.shape[0]
    r = _QUAD_RULE
    mids = (np.arange(m_cells * r) + 0.5) / (m_cells * r) - 0.5
    U = [mids[:, None] ** m for m in range(3)]
    W = [mids[None, :] ** m for m in range(3)]
    vrep = np.repeat(np.repeat(block, r, axis=0), r, axis=1)
    sub_area = measure / mids.size ** 2

    def cells(a):
        P = np.zeros((mids.size, mids.size))
        for alpha, coef in zip(exps, a):
            P += coef * U[alpha[0]] * W[alpha[1]]
        resid = np.abs(vrep - P) * sub_area
        # fold subcells back onto cells
        return resid.reshape(m_cells, r, m_cells, r).sum(axis=(1, 3)).ravel()

    return cells


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
        return _l1_integrator(f, fit.cube, fit.exponents)(fit.local_coeffs)
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
