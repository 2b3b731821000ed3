"""Oscillation norms over packings and sparse families of dyadic cubes.

Every functional here is a supremum of an ``L^p`` aggregate of scaled local
polynomial-approximation errors

    scaled(Q) = |Q|^e * E_k(f; Q)_q

over a class of cube families (see :mod:`oscnorm.families`), taken level by
level from the kernels of :mod:`oscnorm.local_poly`, whose one-cube calls
give the same bits.  Three evaluation regimes are provided:

* ``packing_sup_norm`` -- exact at every scale.  Over antichains the summands
  are independent, so the supremum is a max-weight-antichain dynamic program
  on the cube tree with weights ``scaled(Q)^p |Q|``.
* ``sparse_sup_exhaustive`` -- exact by enumeration, oracle scale only
  (at most 15 tree nodes).  On a sparse family the core sets ``E_Q`` are
  disjoint, so the family's value is ``(sum scaled(Q)^p |E_Q|)^{1/p}``; the
  ``|Q|``-weighted variant is reported alongside.
* ``sparse_norm_bounds`` -- certified interval at any scale.  The upper bound
  is ``2 ||M_{q,lam}(f - P)||_p`` where ``P`` is the degree-(k-1) least
  squares fit on the root: for any cell x in a core set ``E_Q`` the summand
  ``scaled(Q)`` is dominated pointwise by the fractional maximal function of
  the residual, and the core sets are disjoint, giving the factor-2 form of
  the sparse domination bound.  The lower bound evaluates explicit families:
  the stopping-time family of the residual density, the finest packing, and
  all singletons.

The Garsia-Rodemich functional, decreasing rearrangements, weak-``L^p``, the
Luxemburg ``L log L`` norm, and ``sup(f** - f*)`` round out the toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .families import (SUBSET_NODE_CAP, CubeFamily, cz_family, family_tables,
                       validate_index)
# imported for its name alone: perfbench/tracer.py binds
# ``oscnorm.norms.validate``; the code here calls ``validate_index``
from .families import validate  # noqa: F401
from .grid import (CubeId, GridFunction, cube_measures, iter_cubes,
                   level_offsets, tree_size)
from .local_poly import (best_fit, convention_exponent, l2_level_fits,
                         median_deviations, poly_error,
                         residual_cell_integrals)
from .maximal import chain_max, level_integrals, lp_norm, refine, sibling_sums

__all__ = [
    "NormParams",
    "NormReport",
    "packing_sup_norm",
    "sparse_sup_exhaustive",
    "sparse_norm_bounds",
    "garo_norm",
    "bmo_norm",
    "Rearrangement",
    "rearrangement",
    "RIFunctionals",
    "ri_functionals",
    "scaled_error_levels",
    "packing_dp",
    "llogl_rows",
]


@dataclass(frozen=True)
class NormParams:
    """Parameter tuple selecting a functional.

    ``family_class`` is ``"packing"`` or ``"sparse"``;
    ``family_order`` is the sparseness order (1 for the plain sparse class,
    ``1 - lam/n`` for the fractional refinement).
    """

    k: int = 1
    q: int = 1
    lam: float = 0.0
    p: float = 2.0
    convention: str = "V"
    family_class: str = "packing"
    family_order: float | None = None

    # -- the named functionals -------------------------------------------

    @classmethod
    def jn(cls, p: float) -> NormParams:
        return cls(k=1, q=1, lam=0.0, p=p, convention="V",
                   family_class="packing")

    @classmethod
    def bmo(cls) -> NormParams:
        return cls.jn(math.inf)

    @classmethod
    def riesz(cls, p: float) -> NormParams:
        """k=0: compare against the zero polynomial; recovers ||f||_p."""
        return cls(k=0, q=1, lam=0.0, p=p, convention="V",
                   family_class="packing")

    @classmethod
    def packing(cls, p: float, k: int, q: int, lam: float) -> NormParams:
        """General packing sup at smoothness k, integrability q, weight lam."""
        return cls(k=k, q=q, lam=lam, p=p, convention="V",
                   family_class="packing")

    @classmethod
    def sjn(cls, p: float) -> NormParams:
        return cls(k=1, q=1, lam=0.0, p=p, convention="SV",
                   family_class="sparse", family_order=1.0)

    @classmethod
    def sv(cls, p: float, k: int, q: int, lam: float) -> NormParams:
        return cls(k=k, q=q, lam=lam, p=p, convention="SV",
                   family_class="sparse", family_order=1.0)

    @classmethod
    def sv_fractional(cls, p: float, k: int, q: int, lam: float,
                      dimension: int) -> NormParams:
        """Supremum over families sparse of order 1 - lam/n."""
        return cls(k=k, q=q, lam=lam, p=p, convention="SV",
                   family_class="sparse", family_order=1.0 - lam / dimension)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k, "q": self.q, "lambda": self.lam,
            "p": "inf" if math.isinf(self.p) else self.p,
            "convention": self.convention,
            "family_class": self.family_class,
            "family_order": self.family_order,
        }


@dataclass(frozen=True)
class NormReport:
    params: NormParams
    value_lower: float
    value_upper: float
    exact: bool
    witness: CubeFamily | None
    extras: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        if not self.exact:
            raise ValueError("norm is only bracketed; use value_lower/upper")
        return self.value_lower

    def to_json_dict(self) -> dict:
        return {
            "value_lower": self.value_lower,
            "value_upper": self.value_upper,
            "exact": self.exact,
            "params": self.params.to_json_dict(),
            "witness": None if self.witness is None
            else self.witness.to_json_dict(),
            "dyadic": True,
            **self.extras,
        }


# -- scaled local errors, level by level -------------------------------------

def scaled_error_levels(f: GridFunction, params: NormParams) -> list[np.ndarray]:
    """``scaled(Q)`` for every cube, one flat array per level."""
    n, L = f.dimension, f.depth
    e = convention_exponent(params.convention, params.lam, params.q, n)
    k, q = params.k, params.q
    if k == 0:
        dens = np.abs(f.values_nd) ** q * f.cell_measure
        errs = [S.ravel() ** (1.0 / q) for S in level_integrals(dens, n, L)]
    elif k == 1 and q == 1:
        errs = [median_deviations(f.values, n, L, lvl)[1] * f.cell_measure
                for lvl in range(L + 1)]
    elif q == 2:
        errs = [l2_level_fits(f, lvl, k)[1] for lvl in range(L + 1)]
    else:
        errs = _fit_error_levels(f, k, q)
    return [(2.0 ** (-n * lvl)) ** e * err for lvl, err in enumerate(errs)]


def _fit_error_levels(f: GridFunction, k: int,
                      q: int) -> tuple[np.ndarray, ...]:
    """``E_k(f;Q)_q`` by one fit per cube, one read-only flat array per
    level.

    Built on first use per ``(k, q)`` and held on ``f``, so the functionals
    of one grid share one sweep of fits whatever their ``p``, ``lam`` or
    convention.  This is the only data held on a grid.  The other routes
    are vectorised passes over the level's cell blocks and are not held:
    kept alive through their callers, their arrays raise the peak memory
    of the large-grid functionals for little time saved.
    """
    held = f._error_levels.get((k, q))
    if held is None:
        n, L = f.dimension, f.depth
        flat = np.array([poly_error(f, c, k, q) for c in iter_cubes(L, n)])
        flat.flags.writeable = False
        held = tuple(np.split(flat, level_offsets(L, n)[1:-1]))
        f._error_levels[k, q] = held
    return held


def _scaled_flat(f: GridFunction, params: NormParams) -> np.ndarray:
    """Scaled errors in breadth-first cube order."""
    return np.concatenate(scaled_error_levels(f, params))


# -- packing supremum ---------------------------------------------------------

def packing_sup_norm(f: GridFunction, params: NormParams) -> NormReport:
    """Exact supremum over dyadic packings (antichains) by tree DP.

    Ties between a cube and its descendants resolve to the shallower cube, so
    witnesses are deterministic.  ``p = inf`` degenerates to the max of the
    scaled error over all cubes (the BMO case for k=1, q=1, lam=0).
    """
    if params.family_class != "packing":
        raise ValueError("packing_sup_norm needs family_class='packing'")
    return _packing_sup(f, params, scaled_error_levels(f, params))


def _packing_sup(f: GridFunction, params: NormParams,
                 scaled: list[np.ndarray]) -> NormReport:
    """:func:`packing_sup_norm` from the levels of
    ``scaled_error_levels(f, params)``."""
    n, L = f.dimension, f.depth
    offsets = level_offsets(L, n)
    if math.isinf(params.p):
        per_level_max = [lvl.max() for lvl in scaled]
        value = float(max(per_level_max))
        lvl = int(np.argmax(per_level_max))
        members = offsets[lvl:lvl + 1] + np.argmax(scaled[lvl])
    else:
        p = params.p
        weights = [
            lvl_scaled ** p * 2.0 ** (-n * lvl)
            for lvl, lvl_scaled in enumerate(scaled)
        ]
        total, child_sums = packing_dp(weights, n)
        value = float(total) ** (1.0 / p)
        # witness: top-down over cubes not yet covered, each taking itself
        # when its own weight ties or beats its children's best
        picks = []
        free = np.ones((1,) * n, dtype=bool)
        for lvl in range(L):
            take = free & (weights[lvl] >= child_sums[lvl]).reshape(free.shape)
            picks.append(offsets[lvl] + np.flatnonzero(take))
            free = refine(free & ~take, n)
        picks.append(offsets[L] + np.flatnonzero(free))
        members = np.concatenate(picks)
    witness = validate_index(members, "packing", dimension=n, depth=L)
    assert isinstance(witness, CubeFamily)
    return NormReport(params, value, value, True, witness)


def packing_dp(weights: list[np.ndarray],
               dimension: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Max-weight antichain of the cube tree, batched over leading axes.

    ``weights[l]`` holds the level-``l`` cube weights flat row-major,
    ``(..., 2**(n*l))``.  Returns the best antichain total per tree, before
    any root is taken, and for each level ``l < L`` the sum of the best
    totals below every cube's children, shaped like ``weights[l]``.
    """
    best = weights[-1]
    child_sums: list[np.ndarray] = []
    for lvl in range(len(weights) - 2, -1, -1):
        w = weights[lvl]
        grid = best.reshape(*w.shape[:-1], *(2 << lvl,) * dimension)
        kids = sibling_sums(grid, dimension).reshape(w.shape)
        child_sums.append(kids)
        best = np.maximum(w, kids)
    return best[..., 0], child_sums[::-1]


def bmo_norm(f: GridFunction) -> float:
    return packing_sup_norm(f, NormParams.bmo()).value


# -- sparse suprema -----------------------------------------------------------

def _order_key(params: NormParams):
    if params.family_class == "sparse":
        return 1.0 if params.family_order is None else params.family_order
    raise ValueError(
        f"sparse evaluation needs a sparse family class, got "
        f"{params.family_class!r}")


def sparse_sup_exhaustive(f: GridFunction, params: NormParams) -> NormReport:
    """Exact sparse supremum by full family enumeration (<= 15 tree nodes).

    Reports the core-set form as the value and the ``|Q|``-weighted variant
    in ``extras["weighted_value"]``.  The witness is the first maximising
    family in bitmask order.
    """
    try:
        tables = family_tables(f.dimension, f.depth, _order_key(params))
    except ValueError as exc:
        raise ValueError(
            f"{exc}; use sparse_norm_bounds at this scale") from None
    scaled = _scaled_flat(f, params)
    if math.isinf(params.p):
        member = tables.cube_meas > 0
        fam_core = np.where(member, scaled[None, :], 0.0).max(axis=1)
        fam_weighted = fam_core
    else:
        sp = scaled ** params.p
        fam_core = (tables.core_meas @ sp) ** (1.0 / params.p)
        fam_weighted = (tables.cube_meas @ sp) ** (1.0 / params.p)
    row = int(np.argmax(fam_core))
    value = float(fam_core[row])
    witness = validate_index(np.flatnonzero(tables.cube_meas[row]),
                             _order_key(params), dimension=f.dimension,
                             depth=f.depth)
    assert isinstance(witness, CubeFamily)
    return NormReport(params, value, value, True, witness,
                      extras={"weighted_value": float(fam_weighted.max())})


def family_value(f: GridFunction, family: CubeFamily, params: NormParams,
                 scaled_flat: np.ndarray | None = None) -> float:
    """Core-set value of one family: ``(sum scaled(Q)^p |E_Q|)^{1/p}``."""
    if scaled_flat is None:
        scaled_flat = _scaled_flat(f, params)
    vals = scaled_flat[family.index]
    if math.isinf(params.p):
        return float(vals.max())
    core = family.core_counts * 2.0 ** (-family.dimension * family.depth)
    return float((vals ** params.p @ core) ** (1.0 / params.p))


def sparse_norm_bounds(f: GridFunction, params: NormParams) -> NormReport:
    """Certified interval for a sparse norm at any scale.

    Upper: ``2 ||M_{q,lam}(f - P)||_p`` with ``P`` the least-squares fit on
    the root cube; exact residual integrals feed the maximal function, so the
    bound is the theorem's factor-2 inequality evaluated without slack.
    Lower: the best of (a) the stopping-time family of the residual density,
    (b) the finest packing, (c) every singleton family.
    """
    n, L = f.dimension, f.depth
    root = CubeId(0, (0,) * n)
    fit = best_fit(f, root, params.k, 2 if params.k >= 1 else params.q)
    r_cells = residual_cell_integrals(f, fit, params.q)
    r_nd = r_cells.reshape(f.values_nd.shape)

    mvals = chain_max(level_integrals(r_nd, n, L), n, params.q, params.lam)
    upper = 2.0 * lp_norm(GridFunction(n, L, mvals.ravel()), params.p)

    scaled = _scaled_flat(f, params)
    order = _order_key(params)

    candidates: list[CubeFamily] = []
    density = GridFunction(n, L, (r_cells / f.cell_measure) ** (1.0 / params.q))
    stopping = cz_family(density, 2.0)
    if order == 1.0:
        candidates.append(stopping)
    else:
        # the stopping-time family is sparse(1); thinner classes may reject it
        revalidated = validate_index(stopping.index, order, dimension=n,
                                     depth=L)
        if isinstance(revalidated, CubeFamily):
            candidates.append(revalidated)
    offsets = level_offsets(L, n)
    finest = validate_index(np.arange(offsets[L], offsets[L + 1]), order,
                            dimension=n, depth=L)
    if isinstance(finest, CubeFamily):
        candidates.append(finest)

    lower = -math.inf
    witness = None
    for fam in candidates:
        val = family_value(f, fam, params, scaled)
        if val > lower:
            lower, witness = val, fam
    # singletons are sparse of every order: no children at all
    meas = cube_measures(L, n)
    if math.isinf(params.p):
        single_vals = scaled
    else:
        single_vals = (scaled ** params.p * meas) ** (1.0 / params.p)
    best_single = int(np.argmax(single_vals))
    if float(single_vals[best_single]) > lower:
        lower = float(single_vals[best_single])
        single = validate_index(np.array([best_single]), order, dimension=n,
                                depth=L)
        assert isinstance(single, CubeFamily)
        witness = single

    lower = max(lower, 0.0)
    return NormReport(params, lower, upper, False, witness,
                      extras={"reference_fit_error": fit.error})


# -- Garsia-Rodemich functional ----------------------------------------------

def garo_norm(f: GridFunction, p: float) -> NormReport:
    """sup over packings of ``sum_i E_1(f;Q_i)_1 / (sum_i |Q_i|)^{1/p'}``.

    Exact by enumeration at oracle scale (<= 15 tree nodes); beyond that the
    maximum over single cubes, full levels, and the packing-DP witness is a
    certified lower bound, with the packing JN value as upper bound (Hoelder
    applied per packing shows the ratio never exceeds it).
    """
    if p <= 1:
        raise ValueError(f"the functional needs p > 1, got {p}")
    n, L = f.dimension, f.depth
    params = NormParams.jn(p)
    # E_1(f;Q)_1 per cube = scaled error of the JN parameters times |Q|;
    # one sweep of the medians serves the ratios and the JN upper bound
    scaled_levels = scaled_error_levels(f, params)
    meas = cube_measures(L, n)
    errors = np.concatenate(scaled_levels) * meas
    pprime_inv = 1.0 if math.isinf(p) else 1.0 - 1.0 / p

    def ratio(member_idx: np.ndarray) -> float:
        num = float(errors[member_idx].sum())
        den = float(meas[member_idx].sum()) ** pprime_inv
        return num / den

    jn_report = _packing_sup(f, params, scaled_levels)
    jn_value = jn_report.value
    if tree_size(L, n) <= SUBSET_NODE_CAP:
        tables = family_tables(n, L, "packing")
        member = tables.cube_meas > 0
        nums = member @ errors
        dens = (member @ meas) ** pprime_inv
        ratios = nums / dens
        row = int(np.argmax(ratios))
        value = float(ratios[row])
        witness = validate_index(np.flatnonzero(member[row]), "packing",
                                 dimension=n, depth=L)
        assert isinstance(witness, CubeFamily)
        return NormReport(params, value, value, True, witness,
                          extras={"jn_value": jn_value})

    # candidates in order: singletons, full levels, the DP witness; a later
    # one replaces the best only when strictly larger
    offsets = level_offsets(L, n)
    single_den = np.repeat(
        [(2.0 ** (-n * lvl)) ** pprime_inv for lvl in range(L + 1)],
        np.diff(offsets))
    singles = errors / single_den
    best = int(np.argmax(singles))
    best_val, best_members = float(singles[best]), np.array([best])
    levels = [np.arange(offsets[lvl], offsets[lvl + 1])
              for lvl in range(L + 1)]
    for idxs in (*levels, jn_report.witness.index):
        val = ratio(idxs)
        if val > best_val:
            best_val, best_members = val, idxs
    witness = validate_index(best_members, "packing", dimension=n, depth=L)
    assert isinstance(witness, CubeFamily)
    # when the best candidate attains the upper bound the sandwich is a proof
    exact = float(best_val) == jn_value
    return NormReport(params, float(best_val), jn_value, exact, witness,
                      extras={"jn_value": jn_value})


# -- rearrangement-invariant functionals ---------------------------------------

@dataclass(frozen=True)
class Rearrangement:
    """Decreasing rearrangement of ``|f|`` as a step function.

    ``f*`` is constant on blocks of measure ``block``; ``f**(t)`` is the
    running average ``(1/t) integral_0^t f*``, evaluated exactly.
    """

    values: np.ndarray  # sorted decreasing
    block: float

    def star(self, t: float) -> float:
        """Right-continuous ``f*`` on [0, 1)."""
        if not 0.0 <= t < 1.0:
            raise ValueError(f"f* is defined on [0,1), got t={t}")
        return float(self.values[int(t / self.block)])

    def star_left(self, t: float) -> float:
        """Left limit ``f*(t-)`` on (0, 1]."""
        if not 0.0 < t <= 1.0:
            raise ValueError(f"left limits exist on (0,1], got t={t}")
        return float(self.values[math.ceil(t / self.block) - 1])

    def starstar(self, t: float) -> float:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"f** is defined on (0,1], got t={t}")
        full = int(t / self.block)
        partial = t - full * self.block
        acc = float(self.values[:full].sum()) * self.block
        if partial > 0 and full < self.values.size:
            acc += float(self.values[full]) * partial
        return acc / t


def rearrangement(f: GridFunction) -> Rearrangement:
    vals = np.sort(np.abs(f.values))[::-1].copy()
    return Rearrangement(vals, f.cell_measure)


@dataclass(frozen=True)
class RIFunctionals:
    """Rearrangement functionals of ``source``; ``bds`` and ``llogl`` are
    computed on first read, so callers that never read them never pay, and
    take no part in equality or ``repr``."""

    weak_lp: float
    source: GridFunction = field(repr=False, compare=False)

    @cached_property
    def bds(self) -> float:
        return _bds(rearrangement(self.source))

    @cached_property
    def llogl(self) -> float:
        return _luxemburg_llogl(self.source)


def ri_functionals(f: GridFunction, p: float) -> RIFunctionals:
    """weak-L^p, Luxemburg L log L, and sup(f** - f*) of one grid function.

    weak_lp = sup_t t^{1/p} f*(t), attained as t approaches block right
    endpoints.  llogl uses the Young function ``Phi(t) = t log(e + t)`` and
    bisection to 1e-10 relative, run when ``llogl`` is first read.  bds evaluates
    ``f**(t) - f*(t+)`` at block endpoints and midpoints (f* right-continuous;
    at t=1 the left limit) -- exhaustive for step functions since f** - f*
    decreases between consecutive jumps -- when ``bds`` is first read.
    """
    if p <= 1:
        raise ValueError(f"weak-L^p needs p > 1, got {p}")
    r = rearrangement(f)
    rights = (np.arange(r.values.size) + 1) * r.block
    weak = float((rights ** (1.0 / p) * r.values).max())
    return RIFunctionals(weak, f)


def _bds(r: Rearrangement) -> float:
    """sup(f** - f*) at the ``2m`` block midpoints and right endpoints.

    All points come from one prefix sum: ``block`` is a power of two, so
    every point falls exactly on a block midpoint or right endpoint.  The
    sum reaches ``m * max f*``; where that could overflow, the values are
    scaled by an exact power of two first, and the gap scaled back.
    """
    b, v = r.block, r.values
    m = v.size
    scale = 1.0
    if v[0] > np.finfo(float).max / (2 * m):
        scale = math.ldexp(1.0, -m.bit_length())
        v = v * scale
    # f**(t) = (block * (sum of the first j values) + f*(t) * partial) / t
    rights = (np.arange(m) + 1) * b
    through = np.cumsum(v)                           # sum of v[:j + 1]
    before = np.concatenate(([0.0], through[:-1]))   # sum of v[:j]
    mids = (np.arange(m) + 0.5) * b
    mid_gap = (before * b + v * (0.5 * b)) / mids - v
    after = np.append(v[1:], v[-1])     # f*(t+); the left limit at t = 1
    end_gap = through * b / rights - after
    return max(0.0, float(mid_gap.max()), float(end_gap.max())) / scale


def _luxemburg_llogl(f: GridFunction) -> float:
    return float(llogl_rows(f.values[None, :], f.cell_measure)[0])


_HALF_MAX = float(np.finfo(np.float64).max) / 2.0


def llogl_rows(values: np.ndarray, cell_measure: float) -> np.ndarray:
    """Luxemburg ``L log L`` norm, Young function ``t log(e + t)``, of each
    row of ``values`` by one lockstep bisection.

    Each row takes the steps of a bisection of its own: double ``hi`` from
    ``max |row|`` while the integral at ``hi`` exceeds 1, halve ``lo`` from
    ``hi`` while the integral at ``lo`` is at most 1 (stopping below
    1e-300), then bisect until ``hi - lo <= 1e-10 * hi`` or 200 midpoints,
    and return ``hi``.  The stop is relative, so the gauge of ``s * row``
    is ``s`` times the gauge of ``row`` to 1e-10 at any scale.  So each row has the bits of the one-row call.  Every
    step integrates all rows, so the grid is never copied: the doubling
    and halving update only the rows still at that stage, and a row's
    result is taken at the step its bracket closes.  The bracket stays
    below half the float maximum, where ``lo + hi`` cannot overflow;
    larger values raise ``ValueError``.
    """
    v = np.abs(values)
    out = np.zeros(v.shape[0])
    rows = np.flatnonzero((v > 0).any(axis=1))
    if rows.size < v.shape[0]:
        v = v[rows]

    def integral(mu: np.ndarray) -> np.ndarray:
        x = v / mu[:, None]
        y = x + math.e
        np.log(y, out=y)
        x *= y
        return x.sum(axis=1) * cell_measure

    hi = np.maximum(v.max(axis=1), 1e-300)
    grow = np.ones(rows.size, bool)
    while True:
        if (hi > _HALF_MAX).any():
            raise ValueError("the L log L gauge overflows: values are too "
                             "close to the float limit")
        grow &= integral(hi) > 1.0
        if not grow.any():
            break
        hi[grow] *= 2.0
    # the integral at lo = hi is the one that ended the doubling
    lo = 0.5 * hi
    halve = lo >= 1e-300
    while halve.any():
        halve &= integral(lo) <= 1.0
        lo[halve] *= 0.5
        halve &= lo >= 1e-300
    pending = np.ones(rows.size, bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        big = integral(mid) > 1.0
        lo = np.where(big, mid, lo)
        hi = np.where(big, hi, mid)
        done = pending & (hi - lo <= 1e-10 * hi)
        if done.any():
            out[rows[done]] = hi[done]
            pending &= ~done
            if not pending.any():
                return out
    out[rows[pending]] = hi[pending]
    return out
