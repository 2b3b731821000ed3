"""Oscillation norms over packings and sparse families of dyadic cubes.

Every functional here is a supremum of an ``L^p`` aggregate of scaled local
polynomial-approximation errors

    scaled(Q) = |Q|^e * E_k(f; Q)_q

over a class of cube families (see :mod:`oscnorm.families`), taken level by
level from the kernels of :mod:`oscnorm.local_poly`, whose one-cube calls
give the same bits; ``NormParams.family_order`` alone names the class, and
each functional checks it on entry.  Three evaluation regimes are provided:

* ``packing_sup_norm`` -- exact at every scale.  Over antichains the summands
  are independent, so the supremum is a max-weight-antichain dynamic program
  on the cube tree with weights ``scaled(Q)^p |Q|``.
* ``sparse_sup_exhaustive`` -- exact.  On a sparse family the core sets
  ``E_Q`` are disjoint, so the family's value is
  ``(sum scaled(Q)^p |E_Q|)^{1/p}``; the ``|Q|``-weighted variant is
  reported alongside.  Order 1 runs on a coverage DP over the cube tree
  (``sparse_sup_dp``, one binary axis split per merge step) up to
  ``SPARSE_DP_CELLS`` = 2^16 cells, thinner orders on family enumeration
  (at most 15 tree nodes).
* ``sparse_norm_bounds`` -- interval at any scale.  The upper bound is
  ``2 ||M_{q,lam}(f - P)||_p`` where ``P`` is the degree-(k-1) least
  squares fit on the root: for any cell x in a core set ``E_Q`` the summand
  ``scaled(Q)`` is dominated pointwise by the fractional maximal function of
  the residual, and the core sets are disjoint, giving the factor-2 form of
  the sparse domination bound.  The residual integrals are exact except in
  the 2D quadratic corner (``q = 1``, ``k = 3``), where a midpoint rule
  gives them and the upper bound is not certified.  The lower bound
  evaluates explicit families: the stopping-time family of the residual
  density, the finest packing, and all singletons.

The Garsia-Rodemich functional, decreasing rearrangements, weak-``L^p``, the
Luxemburg ``L log L`` norm, and ``sup(f** - f*)`` round out the toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .families import (CubeFamily, FamilyTables, _class_of, checked,
                       cz_family, enumerable, family_tables, finest_family,
                       validate_index)
# imported for its name alone: perfbench/tracer.py binds
# ``oscnorm.norms.validate``; the code here calls ``checked`` and
# ``validate_index``
from .families import validate  # noqa: F401
from .grid import (CubeId, GridFunction, _halves, _join, cube_measures,
                   level_offsets)
from .local_poly import (PolyFit, best_fit, convention_exponent, error_levels,
                         residual_cell_integrals)
# imported for its name alone: perfbench/tracer.py binds
# ``oscnorm.norms.poly_error``; the code here calls ``error_levels``
from .local_poly import poly_error  # noqa: F401
from .maximal import lp_norm, maximal_cells, refine, sibling_sums
# imported for their names alone: perfbench/tracer.py binds them here; the
# code here calls ``maximal_cells``
from .maximal import chain_max, level_integrals  # noqa: F401

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
    "sparse_sup_dp",
    "SPARSE_DP_CELLS",
    "llogl_rows",
]


@dataclass(frozen=True)
class NormParams:
    """Parameter tuple selecting a functional.

    ``family_order`` names the family class: ``None`` for packings, or a
    sparseness order in ``(0, 1]`` (1 for the plain sparse class,
    ``1 - lam/n`` for the fractional refinement).  ``family_class`` and
    ``convention`` (``"V"`` or ``"SV"``) are read off it.
    """

    k: int = 1
    q: int = 1
    lam: float = 0.0
    p: float = 2.0
    family_order: float | None = None

    def __post_init__(self):
        if not self.p >= 1.0:       # also refuses nan
            raise ValueError(f"p must be >= 1 or inf, got {self.p}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam}")

    @property
    def family_class(self) -> str:
        return "packing" if self.family_order is None else "sparse"

    @property
    def convention(self) -> str:
        return "V" if self.family_order is None else "SV"

    # -- the named functionals -------------------------------------------

    @classmethod
    def jn(cls, p: float) -> NormParams:
        return cls.packing(p, 1, 1, 0.0)

    @classmethod
    def bmo(cls) -> NormParams:
        return cls.jn(math.inf)

    @classmethod
    def riesz(cls, p: float) -> NormParams:
        """k=0: compare against the zero polynomial; recovers ||f||_p."""
        return cls.packing(p, 0, 1, 0.0)

    @classmethod
    def packing(cls, p: float, k: int, q: int, lam: float) -> NormParams:
        """General packing sup at smoothness k, integrability q, weight lam."""
        return cls(k=k, q=q, lam=lam, p=p)

    @classmethod
    def sjn(cls, p: float) -> NormParams:
        return cls.sv(p, 1, 1, 0.0)

    @classmethod
    def sv(cls, p: float, k: int, q: int, lam: float) -> NormParams:
        return cls(k=k, q=q, lam=lam, p=p, family_order=1.0)

    @classmethod
    def sv_fractional(cls, p: float, k: int, q: int, lam: float,
                      dimension: int) -> NormParams:
        """Supremum over families sparse of order 1 - lam/n."""
        if not 0.0 <= lam < dimension:
            raise ValueError(f"lambda must lie in [0, {dimension}), got {lam}")
        return cls(k=k, q=q, lam=lam, p=p, family_order=1.0 - lam / dimension)

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
    """A bracket ``[value_lower, value_upper]`` of a functional, exact when
    its sides meet.  Both sides are finite."""

    params: NormParams
    value_lower: float
    value_upper: float
    witness: CubeFamily | None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.value_lower)
                and math.isfinite(self.value_upper)):
            raise ValueError("the result is not finite: the computation "
                             "overflows near the float limit")

    @property
    def exact(self) -> bool:
        return self.value_lower == self.value_upper

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
    """``scaled(Q)`` for every cube, one flat array per level: the errors
    of :func:`~oscnorm.local_poly.error_levels`, scaled by ``|Q|^e``."""
    n = f.dimension
    e = convention_exponent(params.convention, params.lam, params.q, n)
    return _scaled_levels(error_levels(f, params.k, params.q), n, e)


def _scaled_levels(errors: list[np.ndarray], dimension: int,
                   exponent: float) -> list[np.ndarray]:
    """``|Q|^exponent E(Q)`` from one error array per level, cubes on the
    last axis after any leading axes."""
    return [(2.0 ** (-dimension * lvl)) ** exponent * err
            for lvl, err in enumerate(errors)]


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
    value, weights, child_sums = _packing_value(scaled, n, params.p)
    if math.isinf(params.p):
        per_level_max = [lvl.max() for lvl in scaled]
        lvl = int(np.argmax(per_level_max))
        members = offsets[lvl:lvl + 1] + np.argmax(scaled[lvl])
    else:
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
    witness = checked(members, "packing", dimension=n, depth=L)
    return NormReport(params, value, value, witness)


def _packing_value(scaled: list[np.ndarray], n: int, p: float):
    """The packing supremum at ``p`` from the levels of
    ``scaled_error_levels``, with the tree DP's level weights and child
    sums (both ``None`` at ``p = inf``, where it is the largest entry)."""
    if math.isinf(p):
        return float(max(lvl.max() for lvl in scaled)), None, None
    weights = _packing_weights(scaled, n, p)
    total, child_sums = packing_dp(weights, n)
    return float(total) ** (1.0 / p), weights, child_sums


def _packing_weights(scaled: list[np.ndarray], n: int,
                     p: float) -> list[np.ndarray]:
    """The tree DP's level weights ``scaled(Q)^p |Q|``, any leading axes."""
    return [lvl_scaled ** p * 2.0 ** (-n * lvl)
            for lvl, lvl_scaled in enumerate(scaled)]


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

SPARSE_DP_CELLS = 1 << 16   # cells up to which the order-1 coverage DP runs


def _require_dp_scale(dimension: int, depth: int) -> None:
    """Refuse a tree past the coverage DP's cell cap: its merges are
    quadratic in the cell count."""
    cells = 1 << (dimension * depth)
    if cells > SPARSE_DP_CELLS:
        raise ValueError(f"the order-1 coverage DP runs up to "
                         f"{SPARSE_DP_CELLS} cells, got {cells}")


def _maxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (max,+) convolution along the first axis,
    ``out[c] = max over i + j = c of a[i] + b[j]``, over the trailing axes
    the two share: one pass per entry of ``b``, each over whichever axis
    is longer, the count or the trailing ones.  Every entry is one float
    sum of the two, so the route does not change the result, and a split
    can be found again by equality."""
    la, lb = len(a), len(b)
    rest = a.shape[1:]
    if a[0].size < la:
        # few cubes, many counts: one contiguous row per cube
        a = a.reshape(la, -1).T.copy()
        b = b.reshape(lb, -1).T
        out = np.full((len(a), la + lb - 1), -np.inf)
        tmp = np.empty_like(a)
        for j in range(lb):
            np.add(a, b[:, j:j + 1], out=tmp)
            np.maximum(out[:, j:j + la], tmp, out=out[:, j:j + la])
        return out.T.reshape(la + lb - 1, *rest)
    a = np.ascontiguousarray(a)     # children are strided views
    out = np.full((la + lb - 1, *rest), -np.inf)
    tmp = np.empty_like(a)
    for j in range(lb):
        np.add(a, b[j], out=tmp)
        np.maximum(out[j:j + la], tmp, out=out[j:j + la])
    return out


def _coverage_pass(scores: list[np.ndarray], dimension: int,
                   penalised: bool, keep: bool) -> tuple[np.ndarray, list]:
    """One bottom-up pass of :func:`sparse_sup_dp`: the best total per
    tree, in measure units, with ``- s(R) c`` in ``V(R)`` when
    ``penalised``.  With ``keep`` it also returns, per level from the root
    down, what :func:`_coverage_witness` reads: each axis split's halves
    and merge, axis 0 first (its merge ``H'``, none at the root), the
    second half's terms of ``V``, whether each cube is taken when all its
    cells are covered, and how many cells its first half then covers.

    ``H`` holds the covered-cell count on its first axis, then the
    leading axes of ``scores`` and the level's grid, so every merge step
    and every maximum over the count runs on whole slabs of cubes.  The
    children merge by halving the grid one axis at a time, the last axis
    first (in 2D ``c00+c01`` and ``c10+c11``), down to two halves ``x``
    and ``y`` along axis 0 of ``half`` cells each, and ``V`` needs no
    merge of them: ``max_{c <= half} (H'[c] - s c)`` is the best of
    ``x[i] - s i + y[j] - s j`` over ``i + j <= half``, which is
    ``x[i] - s i`` plus a running maximum of the ``y`` terms.  So the
    root, whose ``H'`` no parent reads, merges only along its last axes.
    """
    n, depth = dimension, len(scores) - 1
    lead = scores[0].shape[:-1]
    H = np.zeros((2, *lead, *(1 << depth,) * n))
    H[1] = scores[depth].reshape(H.shape[1:])
    top = H[1]                  # the root alone, at depth 0
    trail = []
    for lvl in range(depth - 1, -1, -1):
        M = 1 << (n * (depth - lvl))
        half = M // 2
        steps = []
        for axis in range(-1, -n, -1):
            x, y = _halves(H, axis)
            H = _maxplus(x, y)
            steps.append((x, y, H))
        x, y = _halves(H, -n)       # half + 1 counts each
        s = scores[lvl].reshape(*lead, *(1 << lvl,) * n)
        xs, ys = x, y
        if penalised:
            cost = np.arange(half + 1.0).reshape(-1, *(1,) * s.ndim) * s
            xs, ys = x - cost, y - cost
        # i cells covered under x and the best of at most half - i under y
        terms = xs + np.maximum.accumulate(ys, axis=0)[::-1]
        V = s * M + terms.max(axis=0)
        full = x[-1] + y[-1]        # H'[M]: every cell covered
        top = np.maximum(full, V)
        Hp = None
        if lvl:
            Hp = _maxplus(x, y)
            Hp[M] = top
            H = Hp
        if keep:
            steps.append((x, y, Hp))
            trail.append((steps[::-1], ys, V >= full, terms.argmax(axis=0)))
    # covering one more cell never lowers a total, so H_root[M] is the best
    return top.reshape(lead) * 2.0 ** (-n * depth), trail[::-1]


def _split(x: np.ndarray, y: np.ndarray, z: np.ndarray,
           c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undo one merge ``z`` of ``x`` and ``y`` along the count axis, per
    cube of ``c``: counts ``(i, c - i)`` for the first ``i`` with
    ``x[i] + y[c - i] == z[c]``, searched only below the full count."""
    a = np.full_like(c, len(x) - 1)
    b = np.full_like(c, len(y) - 1)
    rest = c < a + b                # all covered needs no search
    if rest.any():
        c = c[rest]
        x, y, z = x[:, rest], y[:, rest], z[:, rest]
        j = c - np.arange(len(x))[:, None]
        ok = (j >= 0) & (j < len(y))
        cand = x + np.take_along_axis(y, np.clip(j, 0, len(y) - 1), axis=0)
        hit = ok & (cand == np.take_along_axis(z, c[None], axis=0))
        first = hit.argmax(axis=0)
        if not hit[first, np.arange(c.size)].all():
            raise AssertionError("a merged total has no split")
        a[rest], b[rest] = first, c - first
    return a, b


def _coverage_witness(trail: list, dimension: int,
                      depth: int) -> np.ndarray:
    """The members of a family attaining the core total of one tree, top
    down from the root with all its cells covered.  A cube whose cells are
    all covered is taken where the pass took it; its halves along axis 0
    then cover the first best ``i`` and the first best count within
    ``half - i``.  Every other split is undone as it was merged, axis 0
    first, and the halves' counts interleaved back along its axis."""
    n = dimension
    offsets = level_offsets(depth, n)
    want = np.full((1,) * n, 1 << (n * depth))
    picks = []
    for lvl, (steps, ys, take, pick) in enumerate(trail):
        member = (want == 1 << (n * (depth - lvl))) & take
        picks.append(offsets[lvl] + np.flatnonzero(member))
        for axis, (x, y, z) in enumerate(steps, -n):
            a, b = _split(x, y, z, want)
            if axis == -n:
                a[member] = pick[member]
                room = np.arange(len(y))[:, None] <= len(y) - 1 - a[member]
                b[member] = np.where(room, ys[:, member],
                                     -np.inf).argmax(axis=0)
            want = _join(a, b, axis)
    picks.append(offsets[depth] + np.flatnonzero(want == 1))
    return np.concatenate(picks)


def sparse_sup_dp(scores: list[np.ndarray], dimension: int, *,
                  weighted: bool = True, witness: bool = False):
    """Order-1 sparse suprema by a coverage DP, batched over leading axes.

    ``scores[l]`` holds ``s(Q) = scaled(Q)^p`` of the level-``l`` cubes,
    nonnegative (a negative or NaN one is refused), flat row-major,
    ``(..., 2**(n*l))``; a tree holding an infinite score totals ``+inf``,
    and the other rows keep their bits.  A family's core total
    ``sum s(Q)|E_Q|`` is the integral of ``s`` of the smallest member over
    each covered cell.  In finest-cell units, ``H_R[c]`` is the best total
    of a sparse family inside ``R`` whose top members cover ``c`` cells,
    ``[0, s]`` at a finest cell; ``H'_R`` is the (max,+) convolution of
    the children's, by binary splits one grid axis at a time, the last
    first;
    ``V(R) = s(R) M + max_{c <= M/2} (H'_R[c] - s(R) c)`` is the best
    total with ``R`` a member, whose ``M`` cells its children cover at
    most half of; and ``H_R`` is ``H'_R`` with
    ``H_R[M] = max(H'_R[M], V(R))``.  The ``|Q|``-weighted total
    ``sum s(Q)|Q|`` drops ``- s(R) c``.

    Returns ``(core, weighted, members)``: per tree the best core total
    and, when ``weighted``, the best ``|Q|``-weighted total, in measure
    units before any root is taken; and, with ``witness`` on one tree
    (1-D levels), the ascending breadth-first members of a family
    attaining ``core``.  Ties go to the shallower cube: ``R`` is taken
    when ``V(R) >= H'_R[M]`` (so an all-zero tree gets the root alone),
    and other ties to the first best split as the witness undoes the
    splits, axis 0 first.  Each row has the bits of its one-row call.

    The merges are quadratic in the cell count, and general (max,+)
    convolution has no known strongly subquadratic algorithm (Cygan,
    Mucha, Wegrzycki and Wlodarczyk, ACM TALG 15(1), 2019), so the DP
    stops at ``SPARSE_DP_CELLS`` cells.
    """
    depth = len(scores) - 1
    _require_dp_scale(dimension, depth)
    if not all(lvl.min() >= 0 for lvl in scores):     # NaN fails too
        raise ValueError("the coverage DP needs nonnegative scores, got a "
                         "negative or NaN one")
    if witness and scores[0].ndim != 1:
        raise ValueError("a witness is rebuilt for one tree at a time")
    # a tree with an infinite score totals +inf (that cube alone); the
    # pass sees 0 there, since ``0 * inf`` and ``inf - inf`` give NaN
    infinite = None
    if any(lvl.max() == np.inf for lvl in scores):
        infinite = np.any([np.isinf(lvl).any(axis=-1) for lvl in scores],
                          axis=0)
        scores = [np.where(np.isinf(lvl), 0.0, lvl) for lvl in scores]
    core, trail = _coverage_pass(scores, dimension, True, witness)
    wtd = (_coverage_pass(scores, dimension, False, False)[0] if weighted
           else None)
    if infinite is not None:
        core = np.where(infinite, np.inf, core)[()]
        wtd = None if wtd is None else np.where(infinite, np.inf, wtd)[()]
    members = None
    if witness:
        if not np.isfinite(core):
            raise ValueError("the sparse total is not finite: the scores "
                             "overflow near the float limit")
        members = _coverage_witness(trail, dimension, depth)
    return core, wtd, members


def _order_key(params: NormParams) -> float:
    """The sparseness order of ``params``, checked before any work."""
    order = params.family_order
    if order is None or order == "packing":     # a class, not an order
        raise ValueError("sparse evaluation needs a sparseness order in "
                         f"(0, 1], got {order or 'packing'!r}")
    return _class_of(order)[1]


def sparse_sup_exhaustive(f: GridFunction, params: NormParams) -> NormReport:
    """Exact sparse supremum: order 1 by :func:`sparse_sup_dp` (up to
    ``SPARSE_DP_CELLS`` cells), thinner orders by full family enumeration
    (<= 15 tree nodes).

    Reports the core-set form as the value and the ``|Q|``-weighted variant
    in ``extras["weighted_value"]``.  At ``p = inf`` both are the largest
    scaled error, with its first cube alone as the witness; otherwise the
    witness is the DP's, or the first maximising family in bitmask order.
    """
    tables, scaled = _sparse_setup(f, params)
    n, L, p = f.dimension, f.depth, params.p
    if math.isinf(p):
        # every singleton is sparse of every order
        best = int(np.argmax(scaled))
        value = weighted = float(scaled[best])
        members = np.array([best])
    elif tables is None:
        scores = [lvl ** p for lvl in _levels(scaled, n, L)]
        core, wtd, members = sparse_sup_dp(scores, n, witness=True)
        value, weighted = float(core) ** (1.0 / p), float(wtd) ** (1.0 / p)
    else:
        fam_core = (tables.core_meas @ scaled ** p) ** (1.0 / p)
        row = int(np.argmax(fam_core))
        value = float(fam_core[row])
        weighted = float(((tables.cube_meas @ scaled ** p)
                          ** (1.0 / p)).max())
        members = np.flatnonzero(tables.cube_meas[row])
    witness = checked(members, params.family_order, dimension=n, depth=L)
    return NormReport(params, value, value, witness,
                      extras={"weighted_value": weighted})


def _levels(scaled: np.ndarray, dimension: int,
            depth: int) -> list[np.ndarray]:
    """Breadth-first ``scaled`` split into its levels on the last axis
    (views)."""
    offsets = level_offsets(depth, dimension).tolist()
    return [scaled[..., a:b] for a, b in zip(offsets, offsets[1:])]


def _sparse_setup(f: GridFunction, params: NormParams
                  ) -> tuple[FamilyTables | None, np.ndarray]:
    """The ``p``-independent half of :func:`sparse_sup_exhaustive`: the
    family table of a thinner class (``None`` at order 1, which the
    coverage DP evaluates) and the scaled errors, breadth-first.  The
    scale is checked before the error sweep."""
    order = _order_key(params)
    try:
        if order == 1.0:
            _require_dp_scale(f.dimension, f.depth)
            tables = None
        else:
            tables = family_tables(f.dimension, f.depth, order)
    except ValueError as exc:       # the order passed: only the scale fails
        raise ValueError(f"{exc}; use sparse_norm_bounds (--mode bounds) "
                         "at this scale") from None
    return tables, _scaled_flat(f, params)


def _sparse_sup(f: GridFunction, scaled: np.ndarray,
                ps: tuple[float, ...]) -> list[float]:
    """The values of :func:`sparse_sup_exhaustive` at order 1 at each
    ``p`` of ``ps``, without witnesses, from the scaled errors of
    :func:`_sparse_setup`: one :func:`sparse_sup_dp` call over the finite
    ``p``."""
    finite = [p for p in ps if not math.isinf(p)]
    values = {math.inf: float(scaled.max())}
    if finite:
        scores = np.stack([scaled ** p for p in finite])
        core = sparse_sup_dp(_levels(scores, f.dimension, f.depth),
                             f.dimension, weighted=False)[0]
        values.update((p, float(c) ** (1.0 / p))
                      for p, c in zip(finite, core))
    return [values[p] for p in ps]


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
    """Interval for a sparse norm at any scale.

    Upper: ``2 ||M_{q,lam}(f - P)||_p`` with ``P`` the least-squares fit on
    the root cube.  Exact residual integrals feed the maximal function, so
    the bound is the theorem's factor-2 inequality evaluated without slack,
    except in the 2D quadratic corner (``q = 1``, ``k = 3``): there the
    integrals come from the 16-point midpoint rule, which can fall below
    them, and the bound is not certified.
    Lower: the best of (a) the stopping-time family of the residual density,
    (b) the finest packing, (c) every singleton family.
    """
    order = _order_key(params)      # before any work
    setup = _bounds_setup(f, params, _scaled_flat(f, params))
    lower, upper, best = _bounds_at(f, setup, params.p)
    if isinstance(best, int):
        best = checked(np.array([best]), order, dimension=f.dimension,
                       depth=f.depth)
    return NormReport(params, lower, upper, best,
                      extras={"reference_fit_error": setup.fit.error})


@dataclass(frozen=True)
class _BoundsSetup:
    """The ``p``-independent half of :func:`sparse_norm_bounds`."""

    params: NormParams
    fit: PolyFit                  # the root fit P
    maximal: GridFunction         # M_{q,lam}(f - P), cell by cell
    scaled: np.ndarray            # scaled errors, breadth-first
    candidates: tuple[CubeFamily, ...]


def _bounds_setup(f: GridFunction, params: NormParams,
                  scaled: np.ndarray) -> _BoundsSetup:
    """Root fit, maximal function and candidate families, held with
    ``scaled``, the flat ``scaled_error_levels(f, params)``."""
    n, L = f.dimension, f.depth
    root = CubeId(0, (0,) * n)
    fit = best_fit(f, root, params.k, 2 if params.k >= 1 else params.q)
    r_cells = residual_cell_integrals(f, fit, params.q)
    mvals = maximal_cells(r_cells, n, L, params.q, params.lam)
    order = params.family_order     # the caller's _order_key checked it

    density = (r_cells / f.cell_measure) ** (1.0 / params.q)
    if not np.isfinite(density).all():
        raise ValueError("the residual overflows near the float limit")
    density = GridFunction(n, L, density)   # the array is freed here
    stopping = cz_family(density, 2.0)
    if order != 1.0:
        # the stopping-time family is sparse(1); thinner classes may reject it
        stopping = validate_index(stopping.index, order, dimension=n, depth=L)
    candidates = (stopping,) if isinstance(stopping, CubeFamily) else ()
    # at k >= 1 every finest cell is fitted exactly, so the finest packing
    # scores 0 and could not set the lower side
    if scaled[-(1 << (n * L)):].any():
        candidates += (finest_family(n, L, order),)
    return _BoundsSetup(params, fit, GridFunction(n, L, mvals), scaled,
                        candidates)


def _bounds_at(f: GridFunction, setup: _BoundsSetup,
               p: float) -> tuple[float, float, CubeFamily | int | None]:
    """``(lower, upper, best)`` of :func:`sparse_norm_bounds` at ``p``:
    ``best`` is the candidate family attaining ``lower``, or the cube
    number of the singleton that does."""
    upper = 2.0 * lp_norm(setup.maximal, p)
    params = replace(setup.params, p=p)
    scaled = setup.scaled
    lower = -math.inf
    best: CubeFamily | int | None = None
    for fam in setup.candidates:
        val = family_value(f, fam, params, scaled)
        if val > lower:
            lower, best = val, fam
    # singletons are sparse of every order: no children at all
    if math.isinf(p):
        single_vals = scaled
    else:
        meas = cube_measures(f.depth, f.dimension)
        single_vals = (scaled ** p * meas) ** (1.0 / p)
    best_single = int(np.argmax(single_vals))
    if float(single_vals[best_single]) > lower:
        lower, best = float(single_vals[best_single]), best_single
    return max(lower, 0.0), upper, best


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
    if enumerable(n, L):
        tables = family_tables(n, L, "packing")
        member = tables.cube_meas > 0
        nums = member @ errors
        dens = (member @ meas) ** pprime_inv
        ratios = nums / dens
        row = int(np.argmax(ratios))
        value = float(ratios[row])
        witness = checked(np.flatnonzero(member[row]), "packing",
                          dimension=n, depth=L)
        return NormReport(params, value, value, witness,
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
    witness = checked(best_members, "packing", dimension=n, depth=L)
    # when the best candidate attains the upper bound the sandwich is a
    # proof, and the report reads exact
    return NormReport(params, float(best_val), jn_value, witness,
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
    if not p > 1:       # also refuses nan
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
