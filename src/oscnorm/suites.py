"""Seeded verification suites with deterministic JSON reports.

Each suite draws reproducible random grids, evaluates a family of norm
relations, and reports aggregates plus named pass/fail assertions.  All the
heavy lifting runs on stacked value matrices (one row per trial), so suites
stay fast enough to act as calibration runs with thousands of grids.

The rows go through the library's own kernels (``sweep_errors``, the
one-pass error sweep of ``error_levels``; ``maximal_cells``, ``lp_rows``,
``packing_dp`` on the library's packing weights, ``sparse_sup_dp``,
``llogl_rows``), which take any leading trial axes and give each row the
bits of the single-grid call.  ``_packing_rows`` and ``_sparse_rows`` root
the DP totals: on stacked rows as arrays, on one tree as NumPy scalars,
which round like the library's Python floats.  Wherever a suite wants
only the order-1 sparse maximum of a row, the coverage DP gives it;
``embedding-chain`` checks the DP against the enumerated families on its
first trials.  ``sv-equivalence`` still works grid by grid, since its
``L^1``, ``k = 2`` errors are one fit per cube: per trial and ``(k, q)``
it sweeps the scaled errors once and reads the library's three
functionals off them, the bounds and the sparse suprema at all three
``p`` in one call each, with no witnesses.

The per-family checks (``sparse-jn``'s two-sided comparison,
``sobolev-chain``'s ``core-below-weighted`` and ``sequence-embedding``)
and the thinner orders of ``fractional-sv`` multiply the rows against an
oracle family table, in row blocks of about ``_CHUNK_BUDGET`` floats, so
each product stays in cache.  ``_run_blocks`` splits the blocks into one
contiguous run per CPU the process may use and works the runs on as many
threads; each block writes only its own rows.  On these rows a row's bits
do not depend on the block it falls in (see ``_chunks`` and
``_right_factor``), nor on the thread that multiplies it, so the reports
do not either.
The products are sums of p-th powers, and the suites reduce them as such:
a row maximum is taken before its ``1/p`` root, which is monotone, so the
root of the maximum has the bits of the maximum of the roots.  A
root-space violation count (``a > b + 1e-12``) first clears the entries
whose p-th powers meet the bound exactly and roots only the rest
(``_root_violations``); a block whose roots could exceed ``_ROOT_CAP``
is counted in root space whole.  The counts are those of the all-roots
check by construction.

Reports serialize with sorted keys; rerunning a suite with the same
configuration yields a byte-identical file.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .families import SUBSET_NODE_CAP, enumerable, family_tables
from .generate import _batch_args, batch_uniform, log_singularity
from .grid import _CELL_BITS, GridFunction, _check_cells
from .maximal import lp_norm, lp_rows, maximal_cells, maximal_opnorm_bound
from .local_poly import median_deviations, sweep_errors
from .norms import (NormParams, _bounds, _levels, _packing_weights,
                    _scaled_flat, _scaled_levels, bmo_norm, llogl_rows,
                    packing_dp, packing_sup_norm, sparse_sup_dp)
# imported for their names alone: perfbench/tracer.py binds them here;
# sv-equivalence calls the routines under them instead, and no suite calls
# the other two
from .norms import (garo_norm, ri_functionals,  # noqa: F401
                    sparse_norm_bounds, sparse_sup_exhaustive)

__all__ = ["SUITE_NAMES", "SuiteConfig", "SuiteReport", "run_suite"]

SUITE_NAMES = ("riesz", "sparse-jn", "sv-equivalence", "fractional-sv",
               "jn-extrapolation", "sobolev-chain", "embedding-chain")

_MAX_ROWS = 20
_CHUNK_BUDGET = 65_536  # floats per family-table block: ~0.5 MB, cache-sized
_ROOT_CAP = 64.0        # largest root a power-space clearance is trusted at


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    dimension: int = 1
    depth: int = 2
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}; "
                             f"options: {', '.join(SUITE_NAMES)}")
        # a NumPy integer is kept as a Python int, which JSON can write
        args = _batch_args(self.dimension, self.depth, self.seed, self.trials)
        for name, value in zip(("dimension", "depth", "seed", "trials"), args):
            object.__setattr__(self, name, value)
        _check_cells(self.dimension, self.depth)

    def to_json_dict(self) -> dict:
        return {"suite": self.suite, "dimension": self.dimension,
                "depth": self.depth, "trials": self.trials,
                "seed": self.seed, "generator": (
                    "log-singularity" if self.suite == "jn-extrapolation"
                    else "uniform-iid")}


@dataclass(frozen=True)
class SuiteReport:
    config: SuiteConfig
    aggregates: dict
    assertions: tuple[dict, ...]
    rows: tuple[dict, ...] = ()

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "suite": self.config.suite,
            "config": self.config.to_json_dict(),
            "aggregates": self.aggregates,
            "assertions": list(self.assertions),
            "rows": list(self.rows),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        """Strict JSON: a non-finite field raises ``ValueError``."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"


def _assertion(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


# -- batched helpers (one row per trial) -------------------------------------

def _packing_rows(scaled: list[np.ndarray], n: int, p: float):
    """Per row, the packing supremum at a finite ``p`` from one scaled-error
    array per level, cubes on the last axis, with the library's weights:
    a NumPy scalar for one tree, which roots like Python's ``**``."""
    total = packing_dp(_packing_weights(scaled, n, p), n)[0][()]
    return total ** (1.0 / p)


def _sparse_rows(scaled: list[np.ndarray], n: int,
                 ps: tuple[float, ...]) -> list:
    """Per finite ``p`` of ``ps``, the order-1 sparse supremum of each row
    from one scaled-error array per level, cubes on the last axis, by one
    :func:`sparse_sup_dp` call over a leading ``p`` axis (none for one
    ``p``, where stacking would only copy): a NumPy scalar for one tree,
    which roots like Python's ``**``."""
    stacked = len(ps) > 1
    scores = [np.stack([lvl ** p for p in ps]) if stacked else lvl ** ps[0]
              for lvl in scaled]
    core = sparse_sup_dp(scores, n, weighted=False)[0]
    return [c ** (1.0 / p) for c, p in zip(core if stacked else [core], ps)]


def _require_oracle_scale(suite: str, n: int, L: int) -> None:
    if not enumerable(n, L):
        raise ValueError(
            f"{suite} runs at oracle scale (<= {SUBSET_NODE_CAP} tree nodes)")


def _require_subdivided(suite: str, L: int) -> None:
    """Refuse depth 0: on a one-cell grid every oscillation is 0, so the
    suite's ratios would be 0/0."""
    if L < 1:
        raise ValueError(f"{suite} needs depth >= 1; on a one-cell grid "
                         "every oscillation is 0")


def _chunks(trials: int, width: int):
    """Row blocks of about ``_CHUNK_BUDGET`` floats at ``width`` per row.

    A block has one row only when the batch does: BLAS multiplies a lone
    row by its matrix-vector route, whose sums round differently from the
    matrix-matrix route that every row of a larger block takes, so a row's
    bits do not depend on where the blocks fall.
    """
    step = max(2, _CHUNK_BUDGET // max(width, 1))
    starts = list(range(0, trials, step))
    if len(starts) > 1 and trials - starts[-1] == 1:
        starts.pop()        # fold a lone last row into the block before it
    yield from zip(starts, starts[1:] + [trials])


def _right_factor(table: np.ndarray, trials: int) -> np.ndarray:
    """``table.T`` as the right factor of the block products of a
    ``trials``-row batch.  Laid out contiguously it makes each block's
    matrix-matrix product ~2x faster than the strided view does, and on
    the suites' rows it rounds alike (arbitrary rows can round
    differently).  A one-row batch takes the matrix-vector route, which
    rounds differently with that layout, so it keeps the view."""
    return table.T if trials == 1 else np.ascontiguousarray(table.T)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # a platform without CPU affinity
        return os.cpu_count() or 1


def _run_blocks(body, trials: int, width: int) -> list:
    """``body(t0, t1)`` on every block of ``_chunks(trials, width)``, the
    results in block order.

    The blocks are split into one contiguous run per CPU (no more runs than
    blocks); this thread works through the first run and one thread per
    other run works through the rest, so a block's product is the one the
    serial loop makes and ``body`` writes only its own rows.  Each thread
    runs in a copy of this context, which carries NumPy's ``errstate``.
    After every thread has finished, the exception of the earliest failing
    run is raised."""
    blocks = list(_chunks(trials, width))
    workers = min(_cpus(), len(blocks))
    runs = [blocks[len(blocks) * i // workers:len(blocks) * (i + 1) // workers]
            for i in range(workers)]
    results: list = [None] * workers
    errors: list = [None] * workers

    def work(i: int) -> None:
        try:
            results[i] = [body(t0, t1) for t0, t1 in runs[i]]
        except BaseException as exc:    # raised again after the join
            errors[i] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(work, i)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return [r for run in results for r in run]


def _table_max(rows: np.ndarray, factor: np.ndarray, p: float) -> np.ndarray:
    """Per row, the largest entry of ``(rows @ factor) ** (1/p)``, rooted
    after the maximum."""
    out = np.empty(rows.shape[0])

    def block(t0: int, t1: int) -> None:
        out[t0:t1] = (rows[t0:t1] @ factor).max(axis=1)
    _run_blocks(block, rows.shape[0], factor.shape[1])
    return out ** (1.0 / p)


def _root_violations(lhs: np.ndarray, r: float, rhs: np.ndarray, s: float,
                     bound: np.ndarray, capped: bool,
                     scale: float = 1.0) -> int:
    """The number of entries with ``lhs ** r > scale * rhs ** s + 1e-12``,
    rooting only the entries that ``lhs <= bound`` leaves undecided.

    ``bound`` is the right side in power space, with no tolerance: ``rhs``
    itself for ``A <= B``, ``2 * rhs`` for ``B <= 2A`` (``scale = 2^r``),
    ``rhs ** 3`` as a product for ``Wq <= Wp^3`` (``s = 3r``).  ``capped``
    says that every entry of the block meeting it has a left root below
    ``2 * _ROOT_CAP = 128`` (the callers read this off the block maxima).

    Why a cleared entry is never a violation: let ``x <= y`` be the exact
    roots of the two sides (``bound`` is exact or one product of three,
    whose two roundings shrink under the root).  The computed ``x'`` and
    ``y'`` (``pow`` and the product by ``scale``) are each within a few
    ulps of ``x`` and ``y``, and since ``y >= x``, ``x' - y'`` is at most
    a few ulps of ``x``; below 128, ten ulps are 2.8e-13.  Adding 1e-12 to
    ``y'`` loses at most half an ulp.  So ``x' <= y' + 1e-12`` and the
    check would not count the entry.  The undecided entries run the check
    itself, so the count equals that of the check on every entry.  Above
    the cap the ulps are no longer small against the tolerance, so an
    uncapped block runs the check on every entry.
    """
    if capped:
        left = lhs > bound
        if not left.any():
            return 0
        lhs, rhs = lhs[left], rhs[left]
    return int(np.count_nonzero(lhs ** r > scale * rhs ** s + 1e-12))


# -- the suites ---------------------------------------------------------------

def _suite_riesz(cfg: SuiteConfig) -> SuiteReport:
    """Packing supremum with the approximation-by-zero convention recovers
    the plain L^p norm exactly."""
    n, L = cfg.dimension, cfg.depth
    V = batch_uniform(n, L, cfg.seed, cfg.trials)
    cell_meas = 2.0 ** (-n * L)
    p_list = (1.0, 2.0, 4.0)
    max_rel = 0.0
    rows = []
    scaled = _scaled_levels(sweep_errors(V, n, L, 0, 1), n, -1.0)
    for p in p_list:
        packing = _packing_rows(scaled, n, p)
        direct = lp_rows(V, p, cell_meas)
        rel = np.abs(packing - direct) / np.maximum(direct, 1e-300)
        max_rel = max(max_rel, float(rel.max()))
        for t in range(min(cfg.trials, _MAX_ROWS // len(p_list) + 1)):
            rows.append({"trial": t, "p": p, "packing": float(packing[t]),
                         "lp": float(direct[t]), "rel_err": float(rel[t])})
    # cross-check the batched dynamic program against the library on a few
    spot = 0.0
    for t in range(min(cfg.trials, 3)):
        f = GridFunction(n, L, V[t])
        rep = packing_sup_norm(f, NormParams.riesz(2.0))
        spot = max(spot, abs(rep.value - lp_norm(f, 2.0)))
    asserts = (
        _assertion("riesz-identity", max_rel <= 1e-10,
                   f"max relative gap {max_rel:.3e} over "
                   f"{cfg.trials} grids x p in {p_list}"),
        _assertion("batched-matches-library", spot <= 1e-12,
                   f"spot-check gap {spot:.3e}"),
    )
    return SuiteReport(cfg, {"max_rel_err": max_rel, "p_list": list(p_list)},
                       asserts, tuple(rows[:_MAX_ROWS]))


def _suite_sparse_jn(cfg: SuiteConfig) -> SuiteReport:
    """Factor-2 sparse domination, the two-sided core/weighted comparison,
    maximal-over-norm calibration ratios, and the L log L ratio at p=1."""
    n, L = cfg.dimension, cfg.depth
    _require_subdivided("sparse-jn", L)
    _require_oracle_scale("sparse-jn", n, L)
    V = batch_uniform(n, L, cfg.seed, cfg.trials)
    T = V.shape[0]
    cell_meas = 2.0 ** (-n * L)
    tables = family_tables(n, L, 1.0)
    n_fam = tables.core_meas.shape[0]
    e1 = sweep_errors(V, n, L, 1, 1)
    scaled = np.concatenate(_scaled_levels(e1, n, -1.0), axis=1)
    # |f - m| integrated over each cell, m the root median (a zero m of
    # either sign gives the same bits)
    r_cells = np.abs(V - median_deviations(V, n, L, 0)[0]) * cell_meas
    mx = maximal_cells(r_cells, n, L, 1, 0.0)

    p_list = (1.0, 2.0, 4.0)
    factor_two_viol = 0
    two_sided_viol = 0
    max_excess = 0.0
    ratio_max: dict[str, float] = {}
    sjn_by_p: dict[float, np.ndarray] = {}
    core_t = _right_factor(tables.core_meas, T)
    cube_t = _right_factor(tables.cube_meas, T)
    for p in p_list:
        sp = scaled ** p
        mx_p = lp_rows(mx, p, cell_meas)
        bound = 2.0 * mx_p
        r = 1.0 / p
        core_max = np.empty(T)

        def block(t0: int, t1: int) -> int:
            # p-th powers of the core and |Q|-weighted values
            core = sp[t0:t1] @ core_t
            wted = sp[t0:t1] @ cube_t
            core_max[t0:t1] = core.max(axis=1)
            # a cleared entry's root is at most 2^{1/p} times the core max
            capped = core_max[t0:t1].max() <= _ROOT_CAP ** p
            return (_root_violations(core, r, wted, r, wted, capped)
                    + _root_violations(wted, r, core, r, 2.0 * core, capped,
                                       scale=2.0 ** r))
        two_sided_viol += sum(_run_blocks(block, T, n_fam))
        core_max **= r
        sjn_by_p[p] = core_max
        excess = core_max - bound
        factor_two_viol += int((excess > 1e-10).sum())
        max_excess = max(max_excess, float(excess.max()))
        ratio_max[f"p={p:g}"] = float((mx_p / (p * core_max)).max())

    mean = V.mean(axis=1)
    n_ll = min(T, 500)   # the llogl fields cover the first 500 trials
    llogl = llogl_rows(V[:n_ll] - mean[:n_ll, None], cell_meas)
    lr = sjn_by_p[1.0][:n_ll] / llogl
    rows = [{"trial": t, "sjn_p2": float(sjn_by_p[2.0][t]),
             "llogl_ratio": float(lr[t])} for t in range(min(T, _MAX_ROWS))]
    asserts = (
        _assertion("factor-two-upper", factor_two_viol == 0,
                   f"{factor_two_viol} violations, worst excess "
                   f"{max_excess:.3e} over {T} grids x p in {p_list}"),
        _assertion("core-weighted-two-sided", two_sided_viol == 0,
                   f"{two_sided_viol} violations over {n_fam} families"),
        _assertion("llogl-ratio-finite",
                   bool(np.isfinite(lr).all() and (lr > 0).all()),
                   f"ratio range [{float(lr.min()):.6g}, {float(lr.max()):.6g}]"),
    )
    aggregates = {
        "families": int(n_fam),
        "factor_two_violations": int(factor_two_viol),
        "two_sided_violations": int(two_sided_viol),
        "maximal_over_p_sjn_max": ratio_max,
        "llogl_trials": int(n_ll),
        "llogl_ratio_min": float(lr.min()),
        "llogl_ratio_max": float(lr.max()),
    }
    return SuiteReport(cfg, aggregates, asserts, tuple(rows))


def _suite_sv_equivalence(cfg: SuiteConfig) -> SuiteReport:
    """Factor-2 upper bound and packing-below-sparse across (k, q) choices.

    Per trial and ``(k, q)`` one sweep of scaled errors serves
    ``sparse_sup_exhaustive``, ``sparse_norm_bounds`` and
    ``packing_sup_norm`` (at ``lam = 0`` the packing's ``V`` exponent is
    the ``SV`` one, ``-1/q``).  ``_sparse_rows`` and ``norms._bounds``
    take the three ``p`` in one call each, so the bounds build their root
    fit, maximal function and candidate families once.  With
    ``_packing_rows`` per ``p`` they give the three functionals' values,
    bit for bit, without building witnesses.
    """
    n, L = cfg.dimension, cfg.depth
    _require_oracle_scale("sv-equivalence", n, L)
    V = batch_uniform(n, L, cfg.seed, cfg.trials)
    kq_list = ((1, 1), (2, 2), (3, 2), (2, 1))
    p_list = (1.0, 2.0, 4.0)
    per = max(1, cfg.trials // len(kq_list))
    viol_upper = 0
    viol_pack = 0
    checks = 0
    worst = -math.inf
    rows = []
    for i, (k, q) in enumerate(kq_list):
        count = min(per, 40) if (k >= 2 and q == 1) else per
        # p is passed to each evaluation; these params do not set it
        sv_params = NormParams.sv(math.inf, k, q, 0.0)
        for t in range(count):
            f = GridFunction(n, L, V[(i * per + t) % cfg.trials])
            scaled = _scaled_flat(f, sv_params)
            _, bounds = _bounds(f, sv_params, scaled, p_list)
            # at lam = 0 the V and SV exponents are both -1/q
            levels = _levels(scaled, n, L)
            svs = _sparse_rows(levels, n, p_list)
            for p, sv, (lower, upper, _) in zip(p_list, svs, bounds):
                pk = _packing_rows(levels, n, p)
                checks += 1
                gap = sv - upper
                worst = max(worst, gap)
                if gap > 1e-10:
                    viol_upper += 1
                if pk > sv + 1e-12:
                    viol_pack += 1
                if len(rows) < _MAX_ROWS:
                    rows.append({"k": k, "q": q, "p": p, "sv": sv,
                                 "upper": upper, "lower": lower,
                                 "packing": pk})
                if not (lower <= sv + 1e-10):
                    viol_upper += 1
    asserts = (
        _assertion("factor-two-upper", viol_upper == 0,
                   f"{viol_upper} violations in {checks} checks, worst "
                   f"excess {worst:.3e}"),
        _assertion("packing-below-sparse", viol_pack == 0,
                   f"{viol_pack} violations in {checks} checks"),
    )
    return SuiteReport(cfg, {"checks": checks, "worst_excess": float(worst)},
                       asserts, tuple(rows))


def _suite_fractional_sv(cfg: SuiteConfig) -> SuiteReport:
    """Order-(1 - lam/n) refinement: thinner families only lower the value,
    and the factor-2 fractional-maximal bound stays exact."""
    n, L = cfg.dimension, cfg.depth
    _require_oracle_scale("fractional-sv", n, L)
    V = batch_uniform(n, L, cfg.seed, cfg.trials)
    T = V.shape[0]
    cell_meas = 2.0 ** (-n * L)
    e1 = sweep_errors(V, n, L, 1, 1)
    mean = V.mean(axis=1)
    r_cells = np.abs(V - mean[:, None]) * cell_meas
    p_list = (1.0, 2.0, 4.0)
    lam_list = (0.0, n / 2.0)
    viol_nest = 0
    viol_upper = 0
    aggregates: dict = {"p_list": list(p_list), "lambda_list": list(lam_list)}
    rows = []
    for lam in lam_list:
        # at lam = 0 the order is 1, which the coverage DP evaluates
        order = 1.0 - lam / n
        frac_t = None if order == 1.0 else _right_factor(
            family_tables(n, L, order).core_meas, T)
        scaled = _scaled_levels(e1, n, lam / n - 1.0)
        flat = np.concatenate(scaled, axis=1)
        mx = maximal_cells(r_cells, n, L, 1, lam)
        for p in p_list:
            sv = _sparse_rows(scaled, n, (p,))[0]
            svt = sv if frac_t is None else _table_max(flat ** p, frac_t, p)
            bound = 2.0 * lp_rows(mx, p, cell_meas)
            viol_nest += int((svt > sv + 1e-12).sum())
            viol_upper += int((svt > bound + 1e-10).sum())
            if lam > 0 and p == 2.0:
                aggregates["tight_margin_p2"] = float((bound - svt).min())
            for t in range(min(T, 3)):
                if len(rows) < _MAX_ROWS:
                    rows.append({"trial": t, "lambda": lam, "p": p,
                                 "svt": float(svt[t]), "sv": float(sv[t]),
                                 "bound": float(bound[t])})
    asserts = (
        _assertion("fractional-below-plain", viol_nest == 0,
                   f"{viol_nest} violations over {T} grids"),
        _assertion("factor-two-upper", viol_upper == 0,
                   f"{viol_upper} violations over {T} grids"),
    )
    return SuiteReport(cfg, aggregates, asserts, tuple(rows))


def _suite_jn_extrapolation(cfg: SuiteConfig) -> SuiteReport:
    """Growth of ||f - avg||_p against p * BMO for the logarithmic
    singularity, at the configured depth and two levels finer."""
    if cfg.dimension != 1:
        raise ValueError("the log-singularity comparison is 1-dimensional")
    if cfg.depth + 2 > _CELL_BITS:      # before the first grid is built
        raise ValueError(f"jn-extrapolation takes depth <= {_CELL_BITS - 2}:"
                         " it also evaluates depth + 2")
    if cfg.depth < 4:
        # the ratios still converge below depth 4: 0.618 -> 0.697 from
        # depth 2 to 4 exceeds the 5% growth that depth-stability allows
        raise ValueError("jn-extrapolation needs depth >= 4; below it the "
                         "ratios are still converging")
    p_list = (2.0, 4.0, 8.0, 16.0)
    depths = (cfg.depth, cfg.depth + 2)
    ratios: dict[int, list[float]] = {}
    decay_viol = 0
    decay_pairs = 0
    for L in depths:
        f = log_singularity(L)
        bmo = bmo_norm(f)
        g = GridFunction(1, L, f.values - float(np.mean(f.values)))
        ratios[L] = [lp_norm(g, p) / (p * bmo) for p in p_list]
        # dyadic distribution decay: mass above j*BMO drops geometrically
        cell = 2.0 ** (-L)
        absg = np.abs(g.values)
        masses = []
        j = 1
        while True:
            mu = float((absg > j * bmo).sum() * cell)
            if mu <= 0:
                break
            masses.append(mu)
            j += 1
        for a, b in zip(masses, masses[1:]):
            if b >= 4 * cell:
                decay_pairs += 1
                if b > 0.9 * a:
                    decay_viol += 1
    coarse, fine = depths
    max_coarse = max(ratios[coarse])
    max_fine = max(ratios[fine])
    mono_ok = all(
        ratios[L][i + 1] <= 1.05 * ratios[L][i]
        for L in depths for i in range(len(p_list) - 1)
    )
    asserts = (
        _assertion("depth-stability", max_fine <= 1.05 * max_coarse,
                   f"max ratio {max_fine:.6g} at L={fine} vs "
                   f"{max_coarse:.6g} at L={coarse}"),
        _assertion("nonincreasing-in-p", mono_ok,
                   f"ratios {[round(r, 6) for r in ratios[fine]]} at L={fine}"),
        _assertion("geometric-decay", decay_viol == 0,
                   f"{decay_viol} of {decay_pairs} threshold steps decayed "
                   "slower than 0.9"),
    )
    aggregates = {
        "p_list": list(p_list),
        "ratios": {str(L): ratios[L] for L in depths},
        "max_ratio_coarse": max_coarse,
        "max_ratio_fine": max_fine,
    }
    return SuiteReport(cfg, aggregates, asserts)


def _suite_sobolev_chain(cfg: SuiteConfig) -> SuiteReport:
    """Each link of the fractional-maximal / sparse-norm / L^p chain at
    (lam, p, q) = (1/2, 4/3, 4), exact links with zero violations."""
    if cfg.dimension != 1:
        raise ValueError("the chain is calibrated in dimension 1")
    n, L = 1, cfg.depth
    _require_subdivided("sobolev-chain", L)
    _require_oracle_scale("sobolev-chain", n, L)
    lam, p, q = 0.5, 4.0 / 3.0, 4.0
    V = batch_uniform(n, L, cfg.seed, cfg.trials)
    T = V.shape[0]
    cell_meas = 2.0 ** (-n * L)
    tables = family_tables(n, L, 1.0)
    e1 = sweep_errors(V, n, L, 1, 1)
    # |Q|^{lam/n - 1} E_1 and |Q|^{-1} E_1 raised to the link exponents
    sq = np.concatenate(_scaled_levels(e1, n, lam / n - 1.0), axis=1) ** q
    scaled = _scaled_levels(e1, n, -1.0)
    sp = np.concatenate(scaled, axis=1) ** p
    mean = V.mean(axis=1)
    r_cells = np.abs(V - mean[:, None]) * cell_meas
    m_lam_q = lp_rows(maximal_cells(r_cells, n, L, 1, lam), q, cell_meas)
    m_zero_p = lp_rows(maximal_cells(r_cells, n, L, 1, 0.0), p, cell_meas)
    fp = lp_rows(V - mean[:, None], p, cell_meas)

    viol = {name: 0 for name in
            ("core-below-weighted", "sequence-embedding",
             "sv-below-fractional-maximal", "sjn-below-maximal",
             "sjn-upper-via-doob")}
    sv_core = np.empty(T)
    wted_p_max = np.empty(T)
    core_t = _right_factor(tables.core_meas, T)
    cube_t = _right_factor(tables.cube_meas, T)

    def block(t0: int, t1: int) -> tuple[int, int]:
        # q-th and p-th powers of the core and |Q|-weighted values
        cq = sq[t0:t1] @ core_t
        wq = sq[t0:t1] @ cube_t
        wp = sp[t0:t1] @ cube_t
        sv_core[t0:t1] = cq.max(axis=1)
        wted_p_max[t0:t1] = wp.max(axis=1)
        # a cleared entry's root is at most the largest root of cq or wp
        capped = (sv_core[t0:t1].max() <= _ROOT_CAP ** q
                  and wted_p_max[t0:t1].max() <= _ROOT_CAP ** p)
        # wq <= wp  is  Wq <= Wp^{q/p} = Wp^3 in power space
        return (_root_violations(cq, 1.0 / q, wq, 1.0 / q, wq, capped),
                _root_violations(wq, 1.0 / q, wp, 1.0 / p, wp * wp * wp,
                                 capped))
    counts = _run_blocks(block, T, tables.core_meas.shape[0])
    viol["core-below-weighted"] += sum(c for c, _ in counts)
    viol["sequence-embedding"] += sum(e for _, e in counts)
    sv_core **= 1.0 / q
    sjn_core = _sparse_rows(scaled, n, (p,))[0]
    wted_p_max **= 1.0 / p
    viol["sv-below-fractional-maximal"] += int(
        (sv_core > m_lam_q + 1e-10).sum())
    viol["sjn-below-maximal"] += int((sjn_core > m_zero_p + 1e-10).sum())
    doob = 2.0 ** (1.0 / p) * maximal_opnorm_bound(p) * fp
    viol["sjn-upper-via-doob"] += int((wted_p_max > doob + 1e-10).sum())

    k_maximal = float((m_lam_q / sv_core).max())
    k_lp = float((fp / sjn_core).max())
    rows = [{"trial": t, "sv_core": float(sv_core[t]),
             "m_lam_q": float(m_lam_q[t]), "sjn_core": float(sjn_core[t]),
             "fp": float(fp[t])} for t in range(min(T, _MAX_ROWS))]
    asserts = tuple(
        _assertion(name, count == 0, f"{count} violations over {T} grids")
        for name, count in viol.items()
    )
    aggregates = {
        "lambda": lam, "p": p, "q": q,
        "k_maximal_over_sv": k_maximal,
        "k_lp_over_sjn": k_lp,
    }
    return SuiteReport(cfg, aggregates, asserts, tuple(rows))


def _suite_embedding_chain(cfg: SuiteConfig) -> SuiteReport:
    """garo <= packing JN <= sparse JN exactly, with weak-L^p / garo
    calibration ratios."""
    n, L = cfg.dimension, cfg.depth
    _require_subdivided("embedding-chain", L)
    _require_oracle_scale("embedding-chain", n, L)
    V = batch_uniform(n, L, cfg.seed, cfg.trials)
    T = V.shape[0]
    cell_meas = 2.0 ** (-n * L)
    pack = family_tables(n, L, "packing")
    sparse = family_tables(n, L, 1.0)
    member = (pack.cube_meas > 0).astype(np.float64)
    fam_meas = pack.cube_meas.sum(axis=1)
    e1 = sweep_errors(V, n, L, 1, 1)
    e1_flat = np.concatenate(e1, axis=1)
    scaled = _scaled_levels(e1, n, -1.0)
    # the first trials' rows of every sparse family, by the library's table
    spot_rows = np.concatenate(scaled, axis=1)[:3]
    mean = V.mean(axis=1)
    resid_sorted = np.sort(np.abs(V - mean[:, None]), axis=1)[:, ::-1]
    rights = (np.arange(V.shape[1]) + 1) * cell_meas

    p_list = (1.5, 2.0, 4.0)
    viol_garo = 0
    viol_sjn = 0
    weak_over_garo: dict[str, float] = {}
    rows = []
    nums = e1_flat @ member.T
    spot = 0.0
    for p in p_list:
        dens = fam_meas ** (1.0 - 1.0 / p)
        garo = (nums / dens).max(axis=1)
        jn = _packing_rows(scaled, n, p)
        sjn = _sparse_rows(scaled, n, (p,))[0]
        # the coverage DP against the enumerated families
        enum = ((spot_rows ** p @ sparse.core_meas.T).max(axis=1)
                ** (1.0 / p))
        spot = max(spot, float(np.abs(sjn[:3] - enum).max()))
        viol_garo += int((garo > jn + 1e-12).sum())
        viol_sjn += int((jn > sjn + 1e-12).sum())
        weak = (resid_sorted * rights ** (1.0 / p)).max(axis=1)
        weak_over_garo[f"p={p:g}"] = float((weak / garo).max())
        for t in range(min(T, 3)):
            if len(rows) < _MAX_ROWS:
                rows.append({"trial": t, "p": p, "garo": float(garo[t]),
                             "jn": float(jn[t]), "sjn": float(sjn[t]),
                             "weak": float(weak[t])})
    asserts = (
        _assertion("garo-below-jn", viol_garo == 0,
                   f"{viol_garo} violations over {T} grids x p in {p_list}"),
        _assertion("jn-below-sjn", viol_sjn == 0,
                   f"{viol_sjn} violations over {T} grids x p in {p_list}"),
        _assertion("batched-matches-library", spot <= 1e-12,
                   f"sjn gap {spot:.3e} on the first {min(T, 3)} grids "
                   f"x p in {p_list}"),
    )
    aggregates = {
        "p_list": list(p_list),
        "packings": int(pack.core_meas.shape[0]),
        "weak_over_garo_max": weak_over_garo,
    }
    return SuiteReport(cfg, aggregates, asserts, tuple(rows))


_SUITES = {
    "riesz": _suite_riesz,
    "sparse-jn": _suite_sparse_jn,
    "sv-equivalence": _suite_sv_equivalence,
    "fractional-sv": _suite_fractional_sv,
    "jn-extrapolation": _suite_jn_extrapolation,
    "sobolev-chain": _suite_sobolev_chain,
    "embedding-chain": _suite_embedding_chain,
}


def run_suite(config: SuiteConfig) -> SuiteReport:
    return _SUITES[config.suite](config)
