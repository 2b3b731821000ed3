"""Best local polynomial approximation on dyadic cubes.

For a grid function ``f``, a cube ``Q`` and ``k >= 1``, the local error is

    E_k(f; Q)_q = inf { ||f - m||_{L^q(Q)} : m polynomial, total degree <= k-1 }

with ``q in {1, 2}``.  ``k = 0`` is the approximate-by-zero convention,
``E_0(f; Q)_q = ||f||_{L^q(Q)}``, used by the packing identity for plain
``L^p`` norms.

Solvers
-------
One per-level table, :func:`_level_fits`, picks the route of every
``(k, q)``: :func:`error_levels` calls it once per multi-cell level (at
``k = 1, q = 1`` it runs :func:`median_sweep` instead), and a single cube
is its one-row call, with the bits of the level sweep.  The
``q = 1, k >= 2`` route fits a level of 1D two-cell cubes in closed form,
every row at once; on larger cubes it reads its starts from one call of
each level kernel per level, then still fits its rows one at a time.

* ``k = 0``: ``level_integrals`` of ``|f|^q``, on the cube's block alone.
* ``q = 2``: exact orthogonal projection.  Fits use the scaled monomial basis
  ``u^alpha`` with ``u = (x - center(Q)) / side(Q)``, whose Gram matrix on a
  cube is ``|Q|`` times a fixed well-conditioned matrix, and the error comes
  out of the Pythagorean identity.  :func:`l2_level_fits` fits every cube of
  one level in one pass over its cell blocks, the access pattern of
  :func:`median_deviations`.  Each cube's values are taken relative to its
  first cell, ``v - v_0``, which is exact for data far from 0 and moves
  ``E`` by no bit when a constant is added, and then centred on their
  mean ``m`` (the shifted data of Chan, Golub and LeVeque, Amer. Statist.
  37, 1983): with ``c = v - v_0 - m``, ``b = integral_box c u^alpha``,
  ``a = G^-1 b`` and ``E^2 = |Q| (mean(c^2) - a.b)``, and ``v_0 + m`` goes
  back into ``a_0``.  Nothing is held on the grid.
* ``q = 1, k = 1``: the minimizing constant is a median of the cell values
  (equal weights on a dyadic cube); the LOWER median is taken so results are
  deterministic.  ``|v - median|`` is summed on the sorted cells as it is,
  so nothing cancels.  :func:`median_sweep` takes every level in one pass
  up the tree: the levels whose cubes hold at most 8 cells (1D: 2, 4 and
  8; 2D: 2x2) are sorted from the level below by odd-even merge networks
  on whole columns, the coarser ones by ``np.sort``.  Its deviations have
  the bits of :func:`median_deviations`, the ``np.sort`` route a single
  cube takes, and its medians the values: the networks keep every value
  and the deviations are added in the order ``np.sum`` adds a row.  Only
  the sign of a zero median may differ, which no error sees.
* ``q = 1, k >= 2``, 1D two cells with values ``a, b``: an odd fit about
  the cube's centre is optimal, and odd quadratics are linear, so ``E_2 =
  E_3 = (sqrt 2 - 1) |b - a| |Q| / 2``, attained by the local coefficients
  ``((a + b) / 2, sqrt 2 (b - a)[, 0])`` (:func:`_two_cell_fits`).  Its
  certificate is the duality bound below at that fit.
* ``q = 1, k >= 2``, 1D (4 or more cells) and 2D affine: a
  Levenberg-damped Newton descent of the exact objective from the L2 fit
  (:func:`_newton_polish`), on the closed-form gradient ``-|Q| sum int
  sgn(v - P) u^alpha`` and Hessian ``2 |Q| int u^alpha u^beta / |grad P|``
  over the zero set of ``v - P``.
  Both come from the cuts the integrator already computes: the signed
  pieces between the roots of each cell (1D), the positive-part polygon
  moments and each cell's zero segment (2D).  The median fit, a kink of
  the objective, is compared only at the end, which keeps ``E_k``
  monotone in ``k``.  The objective is an integrator prepared once per
  cube (cell values, edges, quadrature grids), so each step pays for the
  arithmetic alone.
* ``q = 1, k = 3``, 2D (the quadratic corner): the objective is a
  midpoint rule, piecewise linear in the coefficients, and its minimum is
  an L1 regression in 6 unknowns, which a vertex descent (Barrodale and
  Roberts, :func:`_vertex_descent`) solves exactly: on the 4- and then
  the 16-point rule, each started from the fit before it, the first from
  the better of the median and L2 fits; past ``_SUBCELL_BUDGET``
  subcells the rules are coarser.  The descent's result is compared with
  the median and L2 fits on the 16-point objective.
* Every certificate of ``best_fit`` at ``q = 1, k >= 2`` is weak
  L^1-L^inf duality (:func:`_dual_lower_bound`): for bounded ``h``
  orthogonal to the polynomials, ``int f h <= E_k(f;Q)_1 ||h||_inf``,
  with ``h = y - Pi y`` and ``Pi y`` the ``L^2`` projection of ``y``.  In
  1D and 2D affine, ``y`` is the sign of ``f - P`` on the pieces the
  integrator cuts, and it costs the gradient at the fit and ``d`` rows of
  cell moments; at a smooth minimum ``Pi y = 0`` and the bound is the
  objective itself.  In the quadratic corner ``y`` is the descent's final
  dual, constant on subcells (:func:`_quad_dual_bound`): the midpoint
  rule misses ``int u^2`` and ``int w^2`` by the same amount on every
  subcell, so ``y`` is orthogonal to the quadratics on the continuum too,
  and at the exact optimum the bound is the midpoint objective itself.
* No certificate moves the fit, so ``poly_error``, which skips it, gives
  the bits of ``best_fit(..).error``.  :func:`error_levels` holds nothing
  on the grid, so each call sweeps again.

Exactness of objectives: piecewise-constant minus polynomial is integrated in
closed form (1D: sign changes from root splitting; 2D affine: half-plane
clipping with polygon moments, all cells of a cube at once).  The single
non-closed-form corner -- 2D residuals against quadratic polynomials -- uses
the composite midpoint rule on ``_QUAD_RULE`` x ``_QUAD_RULE`` subcells per
cell, and is flagged through ``approximate``; at the descent's optimum its
``error`` is, to rounding, the descent's dual bound, so a certified lower
bound of ``E_3`` as well.  It evaluates the quadratic on the subcell grid
as the separable product ``V @ (A @ V.T)`` (``V`` the midpoint powers ``1,
u, u^2``, ``A`` the 3x3 coefficient matrix, its constant folded into the
values), one block of cell rows at a time in a buffer of at most
``_SUBCELL_BUDGET`` subcell values, the descent's own bound, so no subcell
array of the whole cube is built.  As with the family-table suites, its
bits come from a BLAS product; they do not depend on the block size.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (CubeId, GridFunction, _halves, _unit_moment,
                   multi_indices)
from .maximal import level_integrals

__all__ = ["PolyFit", "best_fit", "error_levels", "l2_level_fits",
           "median_deviations", "median_sweep", "scaled_error",
           "convention_exponent", "mean_oscillation"]

_NEWTON_STEPS = 100  # trial steps of a Newton polish, 1D and 2D affine
_QUAD_RULE = 16  # midpoint subdivisions per cell axis, 2D quadratic corner
_SUBCELL_BUDGET = 1 << 16  # subcells of a vertex descent, 2D quadratic corner
_PIVOT_CAP = 500  # pivots of a vertex descent per midpoint rule
_CLIP_BLOCK = 4096  # cells per vectorised half-plane clip, 2D affine residual
_NOISE = 64.0 * np.finfo(float).eps  # relative size of a zero L2 residual
_SQRT2_M1 = 0.41421356237309503  # sqrt(2) - 1, correctly rounded
_KEPT_AXIS_CELLS = 1 << 10  # cells per axis whose monomial integrals are kept
# cubes per pass of the L2 level fits: the coefficient map takes up to 36
# floats per cube, so a level of a 4M-cell grid is fitted in blocks of
# ~19 MB, not at once
_L2_BLOCK = 1 << 16


@dataclass(frozen=True)
class PolyFit:
    """A fitted local polynomial and its certified error.

    ``local_coeffs`` are the coefficients on the cube-scaled basis
    ``((x - center)/side)^alpha``, the numerically preferred representation;
    ``exponents`` lists the multi-indices ``alpha``, and ``coeffs`` expands
    the polynomial on the plain monomial basis ``x^alpha``, both worked out
    on each read.  ``near_best_factor >= 1`` is a
    certified bound on ``error / E_k(f;Q)_q``; it is 1 for the exact routes
    (q=2, or q=1 with k<=1).  ``approximate`` marks results whose objective
    involved quadrature, or whose positive error the certificate could not
    bound (``near_best_factor`` infinite).  In the 2D quadratic corner
    (q=1, k=3) ``error`` is the objective of the 16-point midpoint rule,
    always ``approximate``; at the rule's exact optimum the factor is 1 and
    ``error`` itself is a certified lower bound of ``E_3``.
    """

    cube: CubeId
    degree_bound: int
    q: int
    local_coeffs: np.ndarray
    error: float
    near_best_factor: float
    approximate: bool = False

    @property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        return _exponents(self.cube.dimension, self.degree_bound)

    @property
    def coeffs(self) -> np.ndarray:
        return _local_to_global(self.exponents, self.local_coeffs, self.cube)

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
    f.check_cube(c)
    local, err, factor, approx = (x[0] for x in _level_fits(
        f, c.level, k, q, np.array([c.coords]), certify=True))
    return PolyFit(c, k, q, local, float(err), float(factor), bool(approx))


def poly_error(f: GridFunction, c: CubeId, k: int, q: int) -> float:
    """E_k(f;c)_q without the near-best certificate (cheaper for k>=2, q=1)."""
    f.check_cube(c)
    return float(_level_fits(f, c.level, k, q, np.array([c.coords]))[1][0])


def error_levels(f: GridFunction, k: int, q: int) -> list[np.ndarray]:
    """``E_k(f;Q)_q`` of every cube, one flat array per level, each with
    the bits of :func:`poly_error`."""
    _check_kq(k, q)
    if k == 0:
        # one sweep up the tree: blocks per level would cost O(N L)
        dens = np.abs(f.values_nd) ** q * f.cell_measure
        return [S.ravel() ** (1.0 / q)
                for S in level_integrals(dens, f.dimension, f.depth)]
    if (k, q) == (1, 1):
        # one sweep, the finest level first; the medians are dropped
        errs = [np.multiply(dev, f.cell_measure, out=dev) for _, dev in
                median_sweep(f.values, f.dimension, f.depth)][::-1]
    else:
        errs = [_level_fits(f, lvl, k, q)[1] for lvl in range(f.depth)]
    # a one-cell cube is its own constant
    return errs + [np.zeros(f.n_cells)]


def _level_fits(f: GridFunction, level: int, k: int, q: int,
                coords: np.ndarray | None = None, certify: bool = False):
    """The ``(k, q)`` route table: the local coefficients ``(m, d)``, errors,
    near-best factors and ``approximate`` flags of the level-``level``
    cubes that ``coords`` picks (shape ``(m, n)``), by default every cube
    of the level in breadth-first order.  Only ``q = 1, k >= 2`` has
    factors other than 1 (NaN where ``certify`` is false) and flags."""
    _check_kq(k, q)
    if q == 2 and k:
        coeffs, errs = l2_level_fits(f, level, k, coords)
        return coeffs, errs, np.ones(len(errs)), np.zeros(len(errs), bool)
    n, depth = f.dimension, f.depth - level
    blocks = _cube_blocks(f.values, n, f.depth, level, coords)
    rows, exps = len(blocks), _exponents(n, k)
    coeffs = np.zeros((rows, len(exps)))
    errs, factors, approx = np.zeros(rows), np.ones(rows), np.zeros(rows, bool)
    if k == 0:
        dens = np.abs(blocks) ** q * f.cell_measure
        errs = level_integrals(dens.reshape(rows, *(1 << depth,) * n), n,
                               depth)[0].ravel() ** (1.0 / q)
    elif k == 1:
        med, dev = _sorted_deviations(np.sort(blocks, axis=-1))
        coeffs, errs = med[:, None], dev * f.cell_measure
    elif n == 1 and depth == 1:
        # two cells: the optimum in closed form, every row at once
        coeffs, errs, factors, approx = _two_cell_fits(
            blocks, 2.0 ** -level, exps, certify)
    else:
        # larger cubes: the starts in one call of each kernel, then the
        # fits row by row
        starts = np.zeros_like(coeffs)
        starts[:, 0] = median_deviations(blocks, n, depth, 0)[0][:, 0]
        l2 = l2_level_fits(f, level, k, coords)[0]
        for i, block in enumerate(blocks):
            coeffs[i], errs[i], factors[i], approx[i] = _fit_l1(
                block.reshape((1 << depth,) * n), 2.0 ** -level, exps,
                starts[i], l2[i], certify)
    return coeffs, errs, factors, approx


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
    if coords is not None and (coords >> level).any():
        raise ValueError(f"cube coordinates must lie in range(2**{level})")
    n, m_cells = f.dimension, 1 << (f.depth - level)
    blocks = _cube_blocks(f.values, n, f.depth, level, coords)
    exps = _exponents(n, k)
    gram_inv = _unit_gram_inverse(exps)
    seg = _axis_monomials(m_cells, k - 1)
    coeffs, errs = np.empty((len(blocks), len(exps))), np.empty(len(blocks))
    for i in range(0, len(blocks), _L2_BLOCK):
        part = slice(i, i + _L2_BLOCK)
        blk = blocks[part]
        # offsets from the cube's first cell are exact for data far from 0,
        # so an added constant moves no bit of ``c``; centring them leaves
        # no cancellation in the constant term of ``E^2``
        c = blk - blk[:, :1]
        mean = c.sum(axis=1, keepdims=True) / c.shape[1]
        c -= mean
        # b, a and proj are laid out (d, cubes), so their sums of d <= 6
        # terms run over a leading axis, one term after another as numpy
        # sums a short row, but on whole rows of cubes at a time
        if n == 1:
            b = np.stack([(c * seg[m]).sum(axis=1) for m, in exps])
        else:
            # one axis at a time: no (d, cells) moment matrix of the cube
            cc = c.reshape(-1, m_cells, m_cells)
            rows = {m: (cc * seg[m]).sum(axis=2) for m in {w for _, w in exps}}
            b = np.stack([(rows[w] * seg[u]).sum(axis=1) for u, w in exps])
        # elementwise products and sums only: a BLAS product rounds a
        # one-row call differently from the level's many rows
        a = (gram_inv[:, :, None] * b).sum(axis=1)
        proj = (a * b).sum(axis=0)
        sq = (c * c).sum(axis=1) / c.shape[1]
        err_sq = sq - proj
        # the subtraction cancels completely when c is a polynomial;
        # anything at rounding scale of the operands is noise, not a residual
        noise = err_sq <= _NOISE * np.maximum(sq, np.abs(proj))
        a[0] += blk[:, 0] + mean[:, 0]
        coeffs[part] = a.T
        errs[part] = np.sqrt(np.where(noise, 0.0, err_sq) * 2.0 ** (-level * n))
    return coeffs, errs


@functools.lru_cache(maxsize=None)
def _unit_gram(exps: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Gram matrix of u^alpha on the unit box [-1/2, 1/2)^n."""
    d = len(exps)
    G = np.empty((d, d))
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            G[i, j] = math.prod(_unit_moment(x + y) for x, y in zip(a, b))
    G.flags.writeable = False
    return G


@functools.lru_cache(maxsize=None)
def _unit_gram_inverse(exps: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The inverse of :func:`_unit_gram`, the map from a cube's moments
    ``integral_box c u^alpha`` to its local coefficients."""
    G_inv = np.linalg.inv(_unit_gram(exps))
    G_inv.flags.writeable = False
    return G_inv


def _local_to_global(exps, local_coeffs, c: CubeId) -> np.ndarray:
    """Plain-monomial coefficients, summed over ``alpha`` in ``exps`` order.

    ``u^alpha = prod_a ((x_a - c_a)/s)^{alpha_a}`` expands binomially into
    ``x^gamma``, ``gamma <= alpha``.  Every coefficient is exact (dyadic
    center and side, degree <= 2), so only the order of the sums decides
    the bits.
    """
    out = np.zeros(len(exps))
    for a, alpha in zip(local_coeffs, exps):
        row = [math.prod(math.comb(m, g) * (-x) ** (m - g) / c.side ** m
                         for m, g, x in zip(alpha, gamma, c.center))
               if all(g <= m for g, m in zip(gamma, alpha)) else 0.0
               for gamma in exps]
        out += a * np.array(row)
    return out


def _cube_blocks(values: np.ndarray, dimension: int, depth: int, level: int,
                 coords: np.ndarray | None = None) -> np.ndarray:
    """The cells of level-``level`` cubes as ``(..., cubes, cells)``, each
    row one cube's cells flat row-major.  ``values`` holds the cells flat
    row-major on the last axis, after any leading trial axes; ``coords``
    (shape ``(m, n)``, no leading axes) picks cubes, by default every cube
    of the level in breadth-first order."""
    lead = values.shape[:-1]
    side, cells = 1 << level, 1 << (depth - level)
    grid = values.reshape(*lead, *(side, cells) * dimension)
    if coords is not None:
        # one index per axis: the cubes' cells are read, not the level's
        picked = grid[tuple(x for c in coords.T for x in (c, slice(None)))]
        return picked.reshape(len(coords), -1)
    if dimension == 1:
        return grid
    return grid.swapaxes(-3, -2).reshape(*lead, side * side, -1)


# -- exact L1 constant (lower median) --------------------------------------

# Batcher's odd-even merge (AFIPS SJCC 1968; Knuth, TAOCP vol. 3, 5.3.4)
# of two sorted runs of 1, 2 or 4 columns laid side by side: the
# compare-exchanges, in order
_MERGES = {2: ((0, 1),),
           4: ((0, 2), (1, 3), (1, 2)),
           8: ((0, 4), (1, 5), (2, 6), (3, 7), (2, 4), (3, 5),
               (1, 2), (3, 4), (5, 6))}
# below this many cells, trial axes included, a sweep is faster on
# ``np.sort`` alone, which makes fewer numpy calls per level (measured
# crossover: 1,024 to 2,048 cells in 1D and 2D)
_NETWORK_CELLS = 1 << 11


def median_deviations(values: np.ndarray, dimension: int, depth: int,
                      level: int) -> tuple[np.ndarray, np.ndarray]:
    """The lower median of each level-``level`` cube's cell values and
    ``sum |v - median|`` over its cells, both ``(..., 2**(n*level))`` flat
    row-major.  ``values`` holds the cells flat row-major on the last axis,
    after any leading trial axes.  The deviations are summed as they are,
    so nothing cancels and an added constant moves no bit.  One level by
    ``np.sort``, on one copy of the cells (in 1D and at the 2D root
    ``_cube_blocks`` is a view of ``values``); :func:`median_sweep` gives
    every level with these bits."""
    blocks = _cube_blocks(values, dimension, depth, level)
    if np.may_share_memory(blocks, values):
        blocks = blocks.copy()
    blocks.sort(axis=-1)
    return _sorted_deviations(blocks)


def median_sweep(values: np.ndarray, dimension: int, depth: int):
    """Yield :func:`median_deviations` of every level with more than one
    cell per cube, the finest first, for finite ``values``: the deviations
    with its bits, the medians with its values.

    Each level whose cubes hold at most 8 cells (1D: 2, 4 and 8 cells; 2D:
    the 2x2 cubes) is sorted from the level below, as columns, one per
    rank (:func:`_network_level`): odd-even merge networks of
    ``np.minimum`` / ``np.maximum`` with 1, 3 and 9 compare-exchanges, and
    5 for a 2x2 cube.  The networks keep every value, so each column holds
    the values of the ``np.sort`` column, and :func:`_column_deviations`
    adds the terms in the order ``np.sum`` adds a row: the deviations keep
    their bits.  A zero median may be ``-0.0`` where ``np.sort`` gives
    ``0.0`` or the other way round, as the two order equal values apart;
    ``|v - median|`` is the same for either.  Coarser levels, and every
    level of a sweep of fewer than ``_NETWORK_CELLS`` cells, are sorted by
    ``np.sort``, a copy of their cells at a time."""
    n = dimension
    cols = [values.reshape(*values.shape[:-1], *(1 << depth,) * n)]
    for level in range(depth - 1, -1, -1):
        m = 1 << (n * (depth - level))
        if m > 8 or values.size < _NETWORK_CELLS:
            cols = None
            yield median_deviations(values, n, depth, level)
            continue
        cols = _network_level(cols, n)
        med = cols[(m - 1) // 2]
        dev = _column_deviations(cols, med)
        lead = med.shape[:-n]
        yield med.reshape(*lead, -1), dev.reshape(*lead, -1)


def _network_level(cols, dimension):
    """The sorted columns of the cubes one level up from the sorted columns
    ``cols`` of a level grid.  Each cube's ``2**n`` children, split one
    axis at a time (:func:`~oscnorm.grid._halves`), are sorted runs of
    strided views, so no child is copied; adjacent runs merge until one is
    left, the last axis first, as in the coverage DP."""
    runs = [list(cols)]
    for axis in range(-dimension, 0):
        runs = [list(half) for run in runs
                for half in zip(*(_halves(c, axis) for c in run))]
    width, cols = len(runs[0]), [c for run in runs for c in run]
    while width < len(cols):
        for base in range(0, len(cols), 2 * width):
            for i, j in _MERGES[2 * width]:
                a, b = cols[base + i], cols[base + j]
                cols[base + i], cols[base + j] = (np.minimum(a, b),
                                                  np.maximum(a, b))
        width *= 2
    return cols


def _column_deviations(cols, med):
    """``sum |c - med|`` over the sorted columns ``cols``, added as
    ``np.sum`` adds a contiguous row: left to right below 8 terms, and at 8
    numpy's pairwise block ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 +
    r7))``.  The median's own term is ``+0.0`` and is left out, which
    moves no bit of a sum of nonnegative terms."""
    def term(c):
        if c is med:
            return None
        r = np.subtract(c, med)
        return np.abs(r, out=r)

    def add(a, b):
        if a is None or b is None:
            return b if a is None else a
        a += b
        return a

    if len(cols) < 8:
        return functools.reduce(add, map(term, cols))
    pairs = [add(term(a), term(b)) for a, b in zip(cols[::2], cols[1::2])]
    return add(add(pairs[0], pairs[1]), add(pairs[2], pairs[3]))


def _sorted_deviations(srt):
    """The lower medians and deviations of the rows ``srt``, sorted on
    the last axis, which are overwritten: ``np.sum`` adds each row of
    ``|v - median|``, in the order :func:`_column_deviations` keeps."""
    med = srt[..., (srt.shape[-1] - 1) // 2].copy()
    srt -= med[..., None]
    np.abs(srt, out=srt)
    return med, srt.sum(axis=-1)


# -- L1 fits for k >= 2 ----------------------------------------------------

def _fit_l1(block, side, exps, med_local, l2_local, certify):
    """``(local_coeffs, error, near_best_factor, approximate)`` of the
    ``L^1`` fit on ``exps`` of the cube of ``side`` and cells ``block``
    (``(m,)`` or ``(m, m)``), from its median and ``L^2`` fits."""
    measure = side ** block.ndim
    integrate = _l1_integrator(block, side, exps)

    def objective(a):
        return integrate(a).sum()

    # candidate fits: previous-degree exact fit keeps E_k monotone in k
    candidates = [med_local, l2_local]
    objs = [objective(a) for a in candidates]
    best_i = int(np.argmin(objs))
    a_best, obj_best = candidates[best_i], objs[best_i]

    # a zero objective, to rounding of the values, is already the infimum;
    # skip polish and certificate
    scale = float(np.abs(block).max(initial=0.0))
    if obj_best <= 1e-14 * scale * measure:
        return a_best, obj_best, 1.0 if certify else math.nan, False

    reach = 2.0 ** -np.array([sum(alpha) for alpha in exps])
    quad = block.ndim == 2 and len(exps) > 3
    if quad:
        # exact on the finest midpoint rule that fits the subcell budget,
        # each rule warm-started from the one before
        a, warm = a_best, None
        for rule in _quad_rules(block.shape[0]):
            a, y, y_max, basis, _ = _vertex_descent(block, rule, exps, a,
                                                    warm)
            warm = basis, rule
        if (obj := objective(a)) < obj_best:
            a_best, obj_best = a, obj
        if certify:
            lb = _quad_dual_bound(block, side, exps, a, y, y_max, reach)
    else:
        # the median fit is a kink of the objective, where Newton has no
        # curvature to use: it is only compared at the end
        a_best, obj_best, g = _newton_polish(integrate, l2_local, objs[1],
                                             reach, measure)
        if objs[0] <= obj_best:
            a_best, obj_best = med_local, objs[0]
            g = integrate(med_local, True)[1] if certify else None
        if certify:
            lb = _dual_lower_bound(block, side, exps, a_best, obj_best, g,
                                   reach)

    if not certify:
        return a_best, obj_best, math.nan, quad
    factor = _certified_factor(obj_best, lb)
    return a_best, obj_best, factor, quad or factor == math.inf


def _certified_factor(obj, lb):
    """``obj / lb``, at least 1, for an objective ``obj`` and its duality
    bound ``lb``; a bound at or below rounding scale of the objective
    certifies nothing, and the factor is infinite."""
    return max(obj / lb, 1.0) if lb > 1e-15 * obj else math.inf


def _two_cell_fits(blocks, side, exps, certify):
    """``(local_coeffs, errors, near_best_factors, approximate)`` of the
    exact ``L^1`` fits on ``exps`` (``k`` = 2 or 3) of 1D cubes of ``side``
    and two cells, the rows ``(a, b)`` of ``blocks``.

    The values are odd about the cube's centre once their mean is taken
    out (``u -> -u``, ``v -> a + b - v``), and the objective is convex, so
    an odd optimal ``P - (a + b) / 2`` exists; odd quadratics are linear.
    With ``h = |b - a| / 2`` and ``P = (a + b) / 2 + s u``, a cell costs
    ``|Q| (h^2 / s + s / 8 - h / 2)``, least at ``s = 2 sqrt 2 h``, whose
    root ``u = 1 / (2 sqrt 2)`` lies inside the cell.  So ``E_2 = E_3 =
    (sqrt 2 - 1) |b - a| |Q| / 2``, here rounded three times (the constant,
    ``b - a`` and the product), and scaling the values by ``2^-j`` scales
    it exactly.

    Under ``certify`` each factor is the weak-duality bound of
    :func:`_fit_l1` at this fit, taken on the values relative to the first
    cell, ``(0, b - a)``, where the fit's constant ``(b - a) / 2`` is exact
    (with an offset of 1e12, ``(a + b) / 2`` may lie half an ulp of the
    values off the optimum, and the bound pays for that to first order);
    without it they are NaN.  A zero objective, to rounding of the values,
    is certified as it is, as in :func:`_fit_l1`.
    """
    a, b = blocks[:, 0], blocks[:, 1]
    diff = b - a
    coeffs = np.zeros((len(blocks), len(exps)))
    coeffs[:, 0] = (a + b) / 2.0
    coeffs[:, 1] = math.sqrt(2.0) * diff
    errs = _SQRT2_M1 * np.abs(diff) * (side / 2.0)
    factors = np.full(len(blocks), 1.0 if certify else math.nan)
    if certify:
        reach = 2.0 ** -np.array([sum(alpha) for alpha in exps])
        scale = np.maximum(np.abs(a), np.abs(b))
        for i in np.flatnonzero(errs > 1e-14 * scale * side):
            shifted = np.array([0.0, diff[i]])
            local = np.zeros(len(exps))
            local[:2] = diff[i] / 2.0, coeffs[i, 1]
            g = _l1_cells_1d(shifted, side, exps)(local, True)[1]
            factors[i] = _certified_factor(errs[i], _dual_lower_bound(
                shifted, side, exps, local, errs[i], g, reach))
    return coeffs, errs, factors, factors == math.inf


def _dual_lower_bound(block, side, exps, a, obj, g, reach, y_max=1.0,
                      ties=True):
    """A lower bound of ``E_k(f;Q)_1`` by weak L^1-L^inf duality on the cube
    ``Q`` of ``side`` and cells ``block``, at the fit ``P`` with local
    coefficients ``a``, objective ``obj`` and gradient ``g`` (as
    ``integrate(a, True)`` returns them).

    For bounded ``h`` orthogonal to the polynomials of degree ``<= k - 1``
    and any such ``m``, ``int f h = int (f - m) h <= ||f - m||_1 ||h||_inf``,
    so ``int (f - P) h / ||h||_inf <= E``.  Here ``h = y - Pi y`` with ``y``
    the sign of ``f - P`` on the integrator's own pieces, so ``int (f - P) y
    = obj``, and ``Pi y`` its ``L^2`` projection, whose local coefficients
    solve ``G coef = b`` with ``b = int_Q y u^alpha dx / |Q| = -g / |Q|``
    (``G`` the Gram matrix of the unit box).  ``int (f - P) Pi y`` is
    ``|Q| coef . r`` with ``r`` the residual's local moments, summed from
    the cells with the constant folded into the values (``c0 = v - a0``),
    so an offset of the values does not cancel, and ``|y| <= y_max`` and
    ``|u^alpha| <= reach[alpha] = 2^-|alpha|`` on the cube give
    ``||h||_inf <= y_max + sum |coef| reach``.  At a smooth minimum ``b =
    0`` and the bound is ``obj``; a constant fit is a kink, where ``y`` is
    free in ``[-1, 1]`` on the cells the constant matches, and is chosen
    there to make ``Pi y`` vanish where it can (:func:`_box_least_squares`),
    unless ``ties`` is false: a ``y`` given on those cells is kept.

    Rounding: the bound holds exactly for the ``y`` the computed cuts
    define, whatever the cuts are.  Rounding then enters through ``obj``, a
    sum of nonnegative terms, through ``coef . r`` and through the solve for
    ``coef``, whose residual leaves ``h`` orthogonal only to rounding; the
    minimizer's coefficients lie within a bounded multiple of
    ``obj / |Q|`` of ``a``, so that costs ``obj`` times the same relative
    error, some ``cells * eps``.  None of it depends on the scale of ``f``,
    and all of it lies orders below the ``1e-6`` at which factors are read.
    """
    measure = side ** block.ndim
    vals = block.ravel()
    monom = _cell_monomials(block.shape[0], block.ndim,
                            max(max(alpha) for alpha in exps))
    # int_cell u^alpha du over the cells of the unit box, one row per alpha
    M = np.stack([monom(alpha) for alpha in exps])
    G = _unit_gram(exps)
    b = -g / measure
    c0 = vals - a[0]
    if ties and not np.any(a[1:]):
        tie = c0 == 0.0
        if tie.any():
            Mt = M[:, tie]
            b = b + Mt @ _box_least_squares(np.linalg.solve(G, Mt),
                                            -np.linalg.solve(G, b))
    coef = np.linalg.solve(G, b)
    # int_box (f - P) u^alpha du, with P - a0 = sum_{beta != 0} a_beta u^beta
    resid = M @ c0 - G[:, 1:] @ a[1:]
    return ((obj - measure * float(coef @ resid))
            / (y_max + float(np.abs(coef) @ reach)))


def _box_least_squares(A, t, steps=50):
    """``y`` in ``[-1, 1]^T`` with ``A y`` close to ``t`` (``A`` of shape
    ``(d, T)``, ``d`` small): the minimizer of ``||A y - t||^2 + delta
    ||y||^2`` over the box, ``delta`` at ``1e-12`` of the scale of ``A A^T``.

    Its optimality conditions read ``y = clip(A^T s)`` with ``s = (t - A y)
    / delta``, the minimizer of the strongly convex, piecewise quadratic
    ``delta |s|^2 / 2 + sum huber(a_i . s) - s . t`` (``huber(x) = x^2 / 2``
    for ``|x| <= 1``, ``|x| - 1/2`` beyond), found by at most ``steps``
    Newton steps in ``d`` dimensions with a backtracking line search.
    Where ``t`` lies in ``A`` times the box, ``A y = t`` to ``delta``; any
    ``y`` the loop stops at is in the box.
    """
    delta = 1e-12 * float((A * A).sum())

    def dual(s):
        x = np.abs(A.T @ s)
        return (0.5 * delta * (s @ s) - s @ t
                + np.where(x <= 1.0, 0.5 * x * x, x - 0.5).sum())

    s = np.zeros(len(t))
    val = dual(s)
    for _ in range(steps):
        x = A.T @ s
        free = np.abs(x) < 1.0
        grad = delta * s + A @ np.clip(x, -1.0, 1.0) - t
        hess = delta * np.eye(len(t)) + A[:, free] @ A[:, free].T
        step = np.linalg.solve(hess, -grad)
        # halve the step until the dual decreases; none that moves ``s``
        # does where ``s`` is the minimizer to rounding
        while not (val_trial := dual(s + step)) < val:
            step = step / 2.0
            if (s + step == s).all():
                return np.clip(A.T @ s, -1.0, 1.0)
        s, val = s + step, val_trial
    return np.clip(A.T @ s, -1.0, 1.0)


def _quad_rules(m_cells):
    """The midpoint rules of a descent on a cube of ``m_cells`` cells per
    axis, coarse to fine: the finest rule up to ``_QUAD_RULE`` whose grid
    fits ``_SUBCELL_BUDGET`` (rule 1 if none does), after the rule 4 times
    coarser, if there is one."""
    fine = _QUAD_RULE
    while fine > 1 and (m_cells * fine) ** 2 > _SUBCELL_BUDGET:
        fine //= 2
    return (fine // 4, fine) if fine >= 4 else (fine,)


def _midpoint_powers(size):
    """``V = [1, u, u^2]`` at the ``size`` subcell midpoints of the unit
    axis ``[-1/2, 1/2)``, shape ``(size, 3)``."""
    return _powers((np.arange(size) + 0.5) / size - 0.5, 3)


def _vertex_descent(block, rule, exps, a, warm=None):
    """Exact minimizer of the midpoint objective ``sum_s |v_s - P(m_s)|``
    over the quadratics ``P`` (local coefficients in ``exps`` order), on the
    ``M = m * rule`` subcells per axis of the cells ``block`` (``m x m``),
    started from the coefficients ``a``.

    A vertex is a basis ``B`` of ``d = 6`` subcells where ``P`` matches the
    values, with ``Phi_B`` (the rows ``phi(m_s) = m_s^alpha``) invertible.
    Its dual ``y`` is ``sgn r`` off the basis (``r = v - P``, 0 where ``r``
    is 0 to ``1e-12`` of the largest residual) and ``z`` on it, with
    ``Phi_B^T z = -sum_{s not in B} y_s phi_s``, so ``sum_s y_s phi_s = 0``.
    With ``|z| <= 1`` it certifies the vertex: ``sum |r| = sum y r`` and
    ``sum y r' <= sum |r'|`` for every other ``P'``.  Otherwise releasing
    ``j`` with ``|z_j| > 1`` from the basis, with ``r_j`` of the sign of
    ``z_j``, is an edge on which the objective falls at slope
    ``1 - |z_j|``; :func:`_edge_step` walks it to the breakpoint at which
    the slope turns nonnegative, whose subcell enters the basis
    (Barrodale and Roberts, SIAM J. Numer. Anal. 10 (1973)).  The largest
    ``|z_j|`` leaves, entering ties go to the smallest subcell index, and
    at most ``_PIVOT_CAP`` pivots are taken.

    Tied values make degenerate vertices, with zero residuals off the
    basis, where such pivots can cycle.  There the values are perturbed
    symbolically by ``eps * xi`` (``xi`` a fixed generic weight per
    subcell, ``eps -> 0+``), which makes every vertex nondegenerate: a zero
    residual takes the sign of ``xi``'s residual once the basis
    interpolates it, and each pivot lowers the perturbed objective.  A
    degenerate vertex is optimal as it is where some ``y`` in ``[-1, 1]``
    on its zero residuals closes the dual: 0 there, or the box least
    squares of :func:`_box_least_squares`.

    A start off the vertices moves to one first, one basis subcell per
    step: each step goes down the projected subgradient within the
    directions that keep the basis matched, to the line minimum, so the
    objective never rises.  A coarser rule's basis, moved to the nearest
    subcells, is the start vertex when it is well conditioned.

    Every subcell of the grid is held, at most ``_SUBCELL_BUDGET`` of them
    (:func:`_quad_rules` picks the rule), and is its own index, flat
    row-major.  Residuals and edge directions are the separable products
    ``V A V^T`` of the midpoint powers ``V`` and the coefficient matrix
    ``A``, and the dual moments are ``V^T S V`` of the signs ``S`` on the
    grid, so no ``(M^2, d)`` design matrix is built.  The values go in
    shifted by the start's constant, so an offset cancels once, exactly,
    and not in each residual.

    Returns the vertex's coefficients, its dual ``y`` on the subcell grid
    (shape ``(M, M)``), ``max |y|``, its basis and the number of pivots;
    ``warm`` is the basis and the rule of a descent on a coarser rule.
    """
    M = block.shape[0] * rule
    V = _midpoint_powers(M)
    iu, iw = np.array(exps).T
    d = len(exps)
    ref = a[0]
    sv = np.repeat(np.repeat(block - ref, rule, axis=0), rule, axis=1).ravel()
    a = a.copy()
    a[0] -= ref

    def on_grid(x):
        """The polynomial of local coefficients ``x`` at every midpoint."""
        A = np.zeros((3, 3))
        A[iu, iw] = x
        return (V @ A @ V.T).ravel()

    def moments(s):
        """``sum_s s_s phi(m_s)`` for weights ``s`` on the grid."""
        return (V.T @ s.reshape(M, M) @ V)[iu, iw]

    def rows(basis):
        u, w = np.divmod(np.asarray(basis), M)
        return V[u][:, iu] * V[w][:, iw]

    def perturbation(index):
        """A fixed weight in ``[1/2, 3/2)`` per subcell, a splitmix64 hash
        of its index.  It follows no polynomial: a Weyl sequence ``frac(i
        g)`` is linear along a row of subcells, where a quadratic through
        three of them matched it at a fourth, and cycled."""
        z = np.asarray(index, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return 0.5 + (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    class State:
        """The residuals of ``a`` on the grid and their signs, 0 on the
        basis."""

        def __init__(self, a, basis):
            self.a = a
            self.basis = np.asarray(basis, dtype=np.intp)
            self.r = sv - on_grid(a)
            size = np.abs(self.r)
            self.zero = size <= 1e-12 * float(size.max())
            self.r[self.zero] = 0.0
            self.s = np.sign(self.r)
            self.s[self.basis] = 0.0
            self.moment = self.plain = moments(self.s)
            self.rho = None
            if len(basis) == d and self.zero.sum() > d:
                # a zero residual off the basis is eps * rho: the residual
                # of the perturbation xi once the basis interpolates it
                at = np.flatnonzero(self.zero)
                fit = on_grid(np.linalg.solve(rows(basis),
                                              perturbation(self.basis)))
                self.rho = np.zeros(M * M)
                self.rho[at] = perturbation(at) - fit[at]
                self.rho[self.basis] = 0.0
                self.s[at] = np.sign(self.rho[at])
                self.moment = moments(self.s)

        def step(self, x, slope):
            """``_edge_step`` along ``r + t P_x``.  No basis subcell is a
            breakpoint: ``P_x`` is 0 there to rounding, but at a subcell
            that leaves, which ``slope`` counts."""
            c = on_grid(x)
            top = float(np.abs(c).max())
            c[self.basis] = 0.0
            return _edge_step(self.r, c, slope, self.zero, top, self.rho)

    def to_vertex(a, basis):
        """Add basis subcells to ``basis`` until it has ``d``: each step
        goes down the steepest descent of the smooth part within the
        directions that keep the basis matched (the null space of
        ``Phi_B``), to the line minimum."""
        st = State(a, basis)
        while len(basis) < d:
            null = (np.linalg.svd(rows(basis))[2][len(basis):].T if basis
                    else np.eye(d))
            delta = null @ (null.T @ st.moment)
            if not np.abs(delta).max() > 1e-12 * np.abs(st.moment).max():
                delta = null[:, 0]
            slope = -float(st.moment @ delta)
            if slope > 0.0:
                delta, slope = -delta, -slope
            t, i = st.step(-delta, slope)
            if i is None:
                break
            basis.append(i)
            st = State(st.a + t * delta, basis)
        return st

    basis = []
    if warm is not None:
        # the subcell at (or next to) each midpoint of a coarser basis
        coarse, ratio = warm[0], rule // warm[1]
        gu, gw = np.divmod(np.asarray(coarse), M // ratio)
        near = list((gu * ratio + ratio // 2) * M + gw * ratio + ratio // 2)
        if np.linalg.cond(rows(near)) < 1e10:
            basis = near
    st = to_vertex(a, basis)
    pivots = 0
    while True:
        if len(basis) < d:          # no vertex: the signs alone
            at, y_at = np.zeros(0, dtype=np.intp), np.zeros(0)
            break
        inverse = np.linalg.inv(rows(basis))
        st = State(inverse @ sv[basis], basis)
        at = st.basis
        y_at = -st.plain @ inverse
        if st.rho is not None:
            # a degenerate vertex is optimal if some y in [-1, 1] on its
            # zero residuals closes the dual, whatever their perturbed
            # signs say: 0 off the basis, or the closest y in the box
            if not np.abs(y_at).max() > 1.0 + 1e-9:
                st.s[st.zero] = 0.0
                break
            zero_at = np.flatnonzero(st.zero)
            A = rows(zero_at).T
            # (where it closes, a few Newton steps reach it; a gap that
            # stays open is a stall, not slow convergence)
            y_zero = _box_least_squares(A, -st.plain, steps=10)
            if not (np.abs(A @ y_zero + st.plain).max()
                    > 1e-9 * np.abs(A).sum(axis=1).max()):
                at, y_at = zero_at, y_zero
                break
            y_at = -st.moment @ inverse
        excess = np.abs(y_at) - 1.0
        if not excess.max() > 1e-9 or pivots == _PIVOT_CAP:
            break
        pivots += 1
        j = int(np.argmax(excess))
        i = st.step(math.copysign(1.0, y_at[j]) * inverse[:, j],
                    -excess[j])[1]
        if i is None:
            break
        basis[j] = i
    a = st.a.copy()
    a[0] += ref
    st.s[at] = y_at
    y_max = max(1.0, float(np.abs(y_at).max(initial=0.0)))
    return a, st.s.reshape(M, M), y_max, basis, pivots


def _edge_step(r, c, slope, zero, top, rho=None):
    """The line minimum of ``t -> sum_s |r_s + t c_s|`` for ``t >= 0``
    over the subcells, whose slope at ``0+`` is ``slope`` plus ``|c_s|``
    for each zero residual: the first breakpoint at which the slope turns
    nonnegative, as ``(t, s)``, or ``(0.0, None)`` if none does.

    Crossing ``t_s = -r_s / c_s > 0`` adds ``2 |c_s|`` to the slope, a zero
    residual ``|c_s|`` at ``t = 0``.  With ``rho``, a zero residual is
    ``eps * rho_s`` instead, ``eps -> 0+``: counted in ``slope`` with the
    sign of ``rho_s``, and crossed at ``t = 0+`` if ``rho_s c_s < 0``,
    before any positive ``t`` and in the order of ``-rho_s / c_s``.  A
    subcell whose ``|c_s|`` is within ``1e-10`` of ``top``, the largest,
    is no breakpoint: it would make the basis singular.  Breakpoints are
    taken in order of ``(t, s)``, the few smallest first, and a slope
    within ``1e-9`` of its terms counts as turned: a flat edge, whose
    slope rounds to either sign, is not walked.
    """
    size = np.abs(c)
    live = size > 1e-10 * top
    if rho is None:
        cross = (r * c < 0.0) | zero
    else:
        cross = np.where(zero, rho * c < 0.0, r * c < 0.0)
    pick = np.flatnonzero(live & cross)
    t = -r[pick] / c[pick]
    gain = 2.0 * size[pick]
    tie = np.zeros(len(pick))
    at_zero = zero[pick]
    if at_zero.any():
        t[at_zero] = 0.0
        if rho is None:
            gain[at_zero] *= 0.5
        else:
            tie[at_zero] = -rho[pick[at_zero]] / c[pick[at_zero]]
    k = 32
    while True:
        if k < len(t):
            near = np.argpartition(t, k - 1)[:k]
            bound = t[near].max()
        else:
            near, bound = np.arange(len(t)), math.inf
        near = near[np.lexsort((pick[near], tie[near], t[near]))]
        # a slope at rounding scale of its terms is flat: stop there
        gained = np.cumsum(gain[near])
        turned = slope + gained >= -1e-9 * (abs(slope) + gained)
        if turned.any():
            hit = near[np.argmax(turned)]
            if t[hit] < bound:
                return float(t[hit]), int(pick[hit])
        if k >= len(t):
            return 0.0, None
        k *= 4


def _quad_dual_bound(block, side, exps, a, y, y_max, reach):
    """The duality bound of the quadratic corner from the dual ``y`` of a
    midpoint descent (shape ``(M, M)``), at its vertex ``a``, on the cube
    of ``side`` and cells ``block``.

    ``sum_s y_s phi(m_s) = 0`` holds on the continuum too, with ``y``
    constant on each subcell ``s``: the midpoint rule is exact for ``1, u,
    w, u w`` and misses ``int_s u^2`` and ``int_s w^2`` by the same ``|s|
    h^2 / 12`` on every subcell, times ``sum y_s = 0``.  So ``y`` is
    orthogonal to the quadratics, and ``sum_s y_s int_s (f - P)`` bounds
    ``E_3(f;Q)_1`` from below; :func:`_dual_lower_bound` projects ``y``
    again (``h = y - Pi y``), which absorbs the rounding of the solves and
    keeps the bound valid at any vertex where the descent stops.  At an
    exact optimum the bound is the midpoint objective itself.
    """
    M = y.shape[0]
    rule = M // block.shape[0]
    V = _midpoint_powers(M)
    iu, iw = np.array(exps).T
    A = np.zeros((3, 3))
    A[iu, iw] = a
    # int_s u^2 = |s| (m_u^2 + h^2 / 12) on the unit box, h = 1 / M
    corr = np.where((iu == 2) | (iw == 2), 1.0 / (12 * M * M), 0.0)
    quad_corr = (A[2, 0] + A[0, 2]) / (12 * M * M)
    A[0, 0] = 0.0
    c0 = np.repeat(np.repeat(block - a[0], rule, axis=0), rule, axis=1)
    resid = c0 - V @ (A @ V.T) - quad_corr
    measure = side * side
    obj = measure / (M * M) * float((y * resid).sum())
    b = ((V.T @ y @ V)[iu, iw] + corr * y.sum()) / (M * M)
    return _dual_lower_bound(block, side, exps, a, obj, -measure * b, reach,
                             y_max, ties=False)


def _newton_polish(integrate, a, obj, reach, measure):
    """Levenberg-damped Newton descent of ``phi(a) = integrate(a).sum()``
    from ``a`` (with ``phi(a) = obj``) on the cube of ``measure``, on the
    closed-form gradient and Hessian that ``integrate(a, True, band)``
    returns with the cells; ``reach[j]`` bounds ``|u^alpha_j|`` on the cube.

    ``phi`` is convex and C^1 away from the fits that match a cell's value
    on the whole cell.  Its Hessian lives on the zero set of ``v - P``: it
    sees only the cells a step starts in, and is 0 where no cell is
    crossed.  So each step solves ``(H + mu I) step = -g`` on the Hessian of
    ``phi`` smoothed over ``|v - P| < band / 2`` (where the integrator has
    one), with ``band`` half the reach of the step before, the mean
    residual at the start.  Only a strict decrease of the exact objective
    is taken; ``mu`` shrinks by 5 after one and grows by 8 after a
    rejection, which also tries the point where the tangents of ``phi``
    along the step meet: the kink that stopped it.  A coefficient the step
    cannot move is held.  The descent stops when no coefficient moves, or
    when the decrease the exact Hessian promises is at rounding scale of
    the objective.  Returns the fit, its objective and its gradient.
    """
    n_coef = len(a)
    eye = np.eye(n_coef)
    band = obj / measure
    _, g, H = integrate(a, True, band)
    curvature = np.trace(H) / n_coef
    mu = 1e-3 * curvature if curvature > 0.0 else float(np.abs(g).max())
    for _ in range(_NEWTON_STEPS):
        # a floor keeps H + mu I invertible where H is singular
        mu = max(mu, 1e-14 * np.trace(H) / n_coef)
        if not mu > 0.0:        # g = H = 0: already the minimum
            break
        damped = H + mu * eye
        step = np.linalg.solve(damped, -g)
        held = a + step == a
        if held.all():
            break
        if held.any():
            free = ~held
            step = np.zeros(n_coef)
            step[free] = np.linalg.solve(damped[np.ix_(free, free)], -g[free])
        promised = -(g @ step) - 0.5 * (step @ H @ step)
        if not promised > 1e-16 * obj:
            if band == 0.0:
                break
            band = 0.0
            _, g, H = integrate(a, True, band)
            continue
        reached = 0.5 * float(np.abs(step) @ reach)
        trial = a + step
        cells, g_trial, H_trial = integrate(trial, True, reached)
        obj_trial = cells.sum()
        if obj_trial < obj:
            mu *= 0.2
        else:
            mu *= 8.0
            slopes = g @ step, g_trial @ step
            if not slopes[1] > slopes[0]:
                continue
            t = (obj_trial - obj - slopes[1]) / (slopes[0] - slopes[1])
            if not 0.0 < t < 1.0:
                continue
            reached *= t
            trial = a + t * step
            cells, g_trial, H_trial = integrate(trial, True, reached)
            obj_trial = cells.sum()
            if not obj_trial < obj:
                continue
        a, obj, g, H, band = trial, obj_trial, g_trial, H_trial, reached
    return a, obj, g


# -- exact residual integrals ----------------------------------------------

def _l1_integrator(block, side, exps):
    """``a -> integral_cell |f - P| dx`` for every cell of a cube of
    ``side`` (flat), ``block`` its cell values (``(m,)`` in 1D, ``(m, m)``
    in 2D) and ``P`` the polynomial with local coefficients ``a``.

    Everything that does not depend on ``a`` -- the cell values, the edges,
    the quadrature grids -- is prepared here once, so a fit that evaluates
    its objective many times pays for the arithmetic alone.
    """
    if block.ndim == 1:
        return _l1_cells_1d(block, side, exps)
    if all(sum(a) <= 1 for a in exps):
        return _l1_cells_affine_2d(block, side, exps)
    return _l1_cells_quad_2d(block, side * side, exps)


def _l1_cells_1d(vals, side, exps):
    m_cells = vals.size
    # the cell edges, exact since the cell count is a power of two
    edges = np.arange(-m_cells, m_cells + 1, 2) / (2 * m_cells)
    u0, u1 = edges[:-1], edges[1:]
    degrees = [m for (m,) in exps]
    top = 2 * degrees[-1]

    def roots(c0, a1, a2, scale):
        """The cuts ``lo <= hi`` of every cell, the roots of ``P(u) = v``
        inside it, and ``|P'|`` there.  A root outside the cell is clamped
        to its end, where it cuts a zero-width piece."""
        lo = hi = u1
        slope = math.inf
        if abs(a2) > 1e-14 * scale:
            # no real root: NaN; a double root at 0 (a1 = c0 = 0): q = 0
            with np.errstate(invalid="ignore", divide="ignore"):
                sq = np.sqrt(a1 * a1 + 4.0 * a2 * c0)
                # the roots of a2 u^2 + a1 u - c0 as q / a2 and -c0 / q:
                # a1 and sgn(a1) sq never cancel, as -a1 +- sq can
                q = -0.5 * (a1 + math.copysign(1.0, a1) * sq)
                lower, upper = q / a2, -c0 / q
                if not a1:
                    # |q| >= |a1| / 2, so only here can a double root at 0
                    # (q = c0 = 0) make the second root -c0 / q NaN
                    upper = np.where(np.isnan(upper), lower, upper)
            # q / a2 is the lower root where a1 and a2 have one sign; fmax
            # maps the NaN of a cell without a root to u0
            if math.copysign(1.0, a1) * a2 < 0.0:
                lower, upper = upper, lower
            lo, hi = (np.fmin(np.fmax(r, u0), u1) for r in (lower, upper))
            slope = sq          # P'(root) = a1 + 2 a2 root = +-sq
        elif abs(a1) > 1e-14 * scale:
            lo = np.fmin(np.fmax(c0 / a1, u0), u1)
            slope = abs(a1)
        return lo, hi, slope

    def sign_moments(cuts, sgn):
        """``sum int sgn(v - P) u^p`` over the cells, ``p = 0..top``, from
        the sign on each piece: each cut's power enters once, weighted by
        the sign change across it (a zero-width piece's sign cancels)."""
        turn = np.zeros((4,) + sgn.shape[1:])
        turn[0], turn[1:3], turn[3] = -sgn[0], sgn[:2] - sgn[1:], sgn[2]
        powers = _powers(cuts.ravel(), top + 2)[:, 1:]
        return turn.ravel() @ powers / np.arange(1, top + 2)

    def cells(a, grad=False, band=0.0):
        coef = {m: 0.0 for m in range(3)}
        for (m,), v in zip(exps, a):
            coef[m] = float(v)
        a0, a1, a2 = coef[0], coef[1], coef[2]
        # the constant goes into the values, so no cut difference carries
        # it: v - P = c0 - (a1 u + a2 u^2)
        c0 = vals - a0

        def antideriv(u):
            F = a1 * u * u / 2.0
            # a zero term only flips the sign of a zero; float_power rounds
            # as the scalar ``**`` does, the array ``**`` may not in the
            # last bit
            return F + a2 * np.float_power(u, 3) / 3.0 if a2 else F

        scale = max(abs(a0), abs(a1), abs(a2))
        # per cell the cuts u0 <= lo <= hi <= u1 split |v - P| into pieces
        # of one sign; a zero-width piece is worth exactly 0
        lo, hi, slope = roots(c0, a1, a2, scale)
        cuts = np.array([u0, lo, hi, u1])
        F = antideriv(cuts)
        signed = c0 * (cuts[1:] - cuts[:-1]) - (F[1:] - F[:-1])
        pieces = np.abs(signed)
        out = (pieces[0] + pieces[1] + pieces[2]) * side
        if not grad:
            return out
        g = -side * sign_moments(cuts, np.sign(signed))[degrees]
        if band > 0.0:
            # the Hessian of the objective smoothed over |v - P| < band/2:
            # the difference quotient of the sign moments in the constant,
            # with each piece's sign read at its midpoint
            power = 0.0
            for shift in (-band / 2, band / 2):
                cut = np.array([u0, *roots(c0 + shift, a1, a2, scale)[:2], u1])
                mid = (cut[1:] + cut[:-1]) / 2
                sgn = np.sign(c0 + shift - (a1 + a2 * mid) * mid)
                power = sign_moments(cut, sgn) - power
            power /= band
        else:
            # 2 sum u*^p / |P'(u*)| over the roots u* inside a cell
            with np.errstate(divide="ignore"):   # a double root: no weight
                weight = np.broadcast_to(1.0 / slope, u0.shape)
            root = np.array([lo, hi])
            weight = np.where((u0 < root) & (root < u1) & np.isfinite(weight),
                              weight, 0.0)
            power = 2.0 * (weight.ravel() @ _powers(root.ravel(), top + 1))
        H = side * power[np.add.outer(degrees, degrees)]
        return out, g, H

    return cells


def _powers(x, columns):
    """``np.vander(x, columns, increasing=True)``, bits and layout, one
    running product per column instead of along each short row."""
    out = np.empty((x.size, columns))
    out[:, 0] = 1.0
    for j in range(1, columns):
        np.multiply(out[:, j - 1], x, out=out[:, j])
    return out


def _l1_cells_affine_2d(block, side, exps):
    m_cells = block.shape[0]
    edges = np.linspace(-0.5, 0.5, m_cells + 1)
    # rows along u, columns along w
    u_sum, w_sum = edges[:-1, None] + edges[1:, None], edges[:-1] + edges[1:]
    area = np.diff(edges)[:, None] * np.diff(edges)
    s2 = side ** 2
    # the cell moments int_cell u^alpha, alpha = (0,0), (1,0), (0,1)
    moments = np.stack(np.broadcast_arrays(area, area * u_sum / 2,
                                           area * w_sum / 2))
    slot = {(0, 0): 0, (1, 0): 1, (0, 1): 2}
    order = [slot[alpha] for alpha in exps]
    # H[x, y] is the line integral of u^(x + y): an index into the
    # quadratics of ``_segment_quadratics``
    quadratic = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    pairs = [[quadratic.index((x[0] + y[0], x[1] + y[1])) for y in exps]
             for x in exps]

    def cells(a, grad=False, band=0.0):
        # the Hessian is always the exact one: ``band`` is not used
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
        flat = abs(cu) + abs(cw) <= 1e-15 * np.abs(c0)
        out = np.abs(full) * s2
        rows, cols = np.nonzero(~flat)
        if grad:
            # int sgn(v - P) u^alpha: the signed cell moments where v - P
            # keeps one sign, else twice the positive part's moments less
            # the cell's; the Hessian integrates u^alpha u^beta / |grad P|
            # along each cell's zero segment
            signs = np.where(flat, np.sign(full), 0.0)
            g = (moments * signs).sum(axis=(1, 2))
            segment = np.zeros(6)
        # in blocks whose temporaries stay in cache
        for b in range(0, len(rows), _CLIP_BLOCK):
            i, j = rows[b:b + _CLIP_BLOCK], cols[b:b + _CLIP_BLOCK]
            mom, ends = _positive_part_moments(c0[i, j], cu, cw, edges[i],
                                               edges[i + 1], edges[j],
                                               edges[j + 1])
            pos = c0[i, j] * mom[0] + cu * mom[1] + cw * mom[2]
            out[i, j] = np.abs(2.0 * pos - full[i, j]) * s2
            if grad:
                g += (2.0 * mom - moments[:, i, j]).sum(axis=1)
                segment += _segment_quadratics(*ends)
        if not grad:
            return out.ravel()
        # a zero slope leaves every cell flat, with no zero segment
        slope = math.hypot(cu, cw)
        H = segment[pairs] * (2.0 * s2 / slope) if slope else segment[pairs]
        return out.ravel(), -s2 * g[order], H

    return cells


def _segment_quadratics(ua, wa, ub, wb):
    """``int 1, u, w, u^2, u w, w^2 ds`` summed over the segments from
    ``(ua, wa)`` to ``(ub, wb)``, by Simpson's rule, which is exact for
    these quadratics."""
    um, wm = (ua + ub) / 2.0, (wa + wb) / 2.0
    third = np.hypot(ub - ua, wb - wa) / 6.0
    return np.array([
        (third * (fa + 4.0 * fm + fb)).sum()
        for fa, fm, fb in (
            (1.0, 1.0, 1.0), (ua, um, ub), (wa, wm, wb),
            (ua * ua, um * um, ub * ub), (ua * wa, um * wm, ub * wb),
            (wa * wa, wm * wm, wb * wb))])


def _positive_part_moments(cc, cu, cw, u0, u1, w0, w1):
    """The area and first moments ``(A, Iu, Iw)`` of the part of each box
    ``[u0,u1]x[w0,w1]`` where ``cc + cu u + cw w >= 0``, stacked, and the
    ends ``(ua, wa, ub, wb)`` of each box's zero segment (both ``(0, 0)``
    in a box the zero line misses).  ``integral (cc + cu u + cw w)_+`` is
    ``cc * A + cu * Iu + cw * Iw``.

    Clips the box (corners in the order (u0,w0), (u1,w0), (u1,w1), (u0,w1))
    to the half-plane where the affine function is ``>= 0``, edge by edge
    as Sutherland-Hodgman does, and takes the clipped polygon's area and
    first moments by the shoelace sums, vertex after vertex, so each box
    gets the bits of the one-box loop.  A clipped polygon has at most eight
    vertex slots, two per edge: the edge's first corner and a crossing.
    The zero line crosses at most two edges of a box.
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
    # the first and the last crossing slot of each box (a dropped slot
    # holds (0, 0), so a box without a crossing gets a zero segment)
    cross = keep[1::2]
    first = np.argmax(cross, axis=0)
    last = 3 - np.argmax(cross[::-1], axis=0)
    cx, cy = px.reshape(slots, boxes)[1::2], py.reshape(slots, boxes)[1::2]
    lanes = np.arange(boxes)
    ends = (cx[first, lanes], cy[first, lanes], cx[last, lanes],
            cy[last, lanes])
    return np.stack([A, Iu, Iw]), ends


def _l1_cells_quad_2d(block, measure, exps):
    """Composite midpoint rule for 2D residuals against quadratics.

    On the ``M = m * _QUAD_RULE`` subcell midpoints of each axis, with
    ``V = [1, u, u^2]`` (shape ``(M, 3)``) and ``A[i, j]`` the coefficient
    of ``u^i w^j``, the polynomial is the separable product
    ``P = V @ (A @ V.T)``.  It is filled by BLAS into one buffer of at most
    ``_SUBCELL_BUDGET`` subcell values (or one cell row, if that is more),
    one block of cell rows at a time; each block subtracts the cell values
    in place, takes ``abs`` in place, and folds every cell by its subcell
    rows, then by its subcell columns.  No full subcell array is ever built.
    """
    m_cells = block.shape[0]
    r = _QUAD_RULE
    size = m_cells * r
    V = _midpoint_powers(size)
    sub_area = measure / size ** 2
    step = max(1, _SUBCELL_BUDGET // (r * size))  # cell rows per block
    buf = np.empty(min(step, m_cells) * r * size)

    def cells(a):
        A = np.zeros((3, 3))
        for (i, j), coef in zip(exps, a):
            A[i, j] = coef
        # the constant goes into the values, so an offset cancels there,
        # exactly, and not in each subcell
        c0 = block - A[0, 0]
        A[0, 0] = 0.0
        right = A @ V.T
        out = np.empty((m_cells, m_cells))
        for i0 in range(0, m_cells, step):
            i1 = min(i0 + step, m_cells)
            P = buf[:(i1 - i0) * r * size].reshape(-1, r, size)
            np.matmul(V[i0 * r:i1 * r], right, out=P.reshape(-1, size))
            # each cell's value less the constant, repeated along its
            # subcell columns
            P -= np.repeat(c0[i0:i1], r, axis=1)[:, None, :]
            np.abs(P, out=P)
            out[i0:i1] = P.sum(axis=1).reshape(i1 - i0, m_cells, r).sum(axis=2)
        # the subcell area is a power of two, so scaling the sums is exact
        out *= sub_area
        return out.ravel()

    return cells


def residual_cell_integrals(f: GridFunction, fit: PolyFit, q: int) -> np.ndarray:
    """Per finest cell of ``fit.cube``: ``integral_cell |f - P|^q dx``.

    q=2 is closed-form via monomial integrals; q=1 delegates to the exact
    piecewise integrators (quadrature only in the 2D quadratic corner).
    Returned flat, row-major over the cells of ``fit.cube``.
    """
    if fit.degree_bound <= 1:
        # a constant (0 at k = 0) needs no cuts: |v - a0|^q on each cell
        a0 = fit.local_coeffs[0] if fit.degree_bound else 0.0
        out = f.cube_values(fit.cube) - a0
        np.abs(out, out=out)
        out **= q
        out *= f.cell_measure
        return out
    if q == 1:
        return _l1_integrator(f.cell_block(fit.cube), fit.cube.side,
                              fit.exponents)(fit.local_coeffs)
    # the fit's constant goes into the values and ``P - a0`` is integrated,
    # so no term carries ``a0`` and nothing cancels for data far from 0
    c0 = f.cube_values(fit.cube) - fit.local_coeffs[0]
    terms = list(zip(fit.exponents[1:], fit.local_coeffs[1:]))
    monom = _cell_monomials(1 << (f.depth - fit.cube.level), f.dimension,
                            2 * max(max(alpha) for alpha, _ in terms))
    # integral_cell (P - a0) dx and integral_cell (P - a0)^2 dx
    pint, p2int = np.zeros(c0.size), np.zeros(c0.size)
    for alpha, coef in terms:
        pint += coef * monom(alpha)
    for (al, ca), (be, cb) in itertools.product(terms, repeat=2):
        p2int += ca * cb * monom(tuple(x + y for x, y in zip(al, be)))
    vol = fit.cube.measure
    out = c0 * c0 * f.cell_measure - 2.0 * c0 * (pint * vol) + p2int * vol
    return np.maximum(out, 0.0)


def _cell_monomials(m: int, n: int, top: int):
    """``alpha -> integral_cell u^alpha du`` over each of the ``m^n`` cells
    of the unit box ``[-1/2, 1/2)^n``, flat row-major, for multi-indices
    ``alpha`` with entries ``<= top``."""
    seg = _axis_monomials(m, top)

    def monom(alpha):
        col = seg[alpha[0]]
        if n == 2:
            col = np.multiply.outer(col, seg[alpha[1]]).ravel()
        return col

    return monom


def _axis_monomials(m: int, top: int) -> tuple[np.ndarray, ...]:
    """``integral_cell u^j du`` over each of the ``m`` cells of
    ``[-1/2, 1/2)``, one read-only array per ``j <= top``.  Kept for
    ``m <= _KEPT_AXIS_CELLS``, where working them out costs more than the
    small fits that read them."""
    if m <= _KEPT_AXIS_CELLS:
        return _kept_axis_monomials(m, top)
    return _axis_monomials_of(m, top)


@functools.lru_cache(maxsize=None)
def _kept_axis_monomials(m: int, top: int) -> tuple[np.ndarray, ...]:
    return _axis_monomials_of(m, top)


def _axis_monomials_of(m: int, top: int) -> tuple[np.ndarray, ...]:
    edges = np.arange(-m, m + 1, 2) / (2 * m)  # exact: ``m`` is a power of 2
    # powers by products: up to the cube they are exact for m <= 2**16,
    # the floats libm ``pow`` gives at ~30x the time
    powers = _powers(edges, top + 2).T[1:]
    seg = tuple((e[1:] - e[:-1]) / (j + 1) for j, e in enumerate(powers))
    for x in seg:
        x.flags.writeable = False
    return seg
