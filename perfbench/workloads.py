"""The benchmark's workloads: generated inputs, op mixes and output checks.

Every input is drawn from the benchmark's own PCG64 stream seeded by the
workload seed; ``oscnorm.generate`` is not used.  The program sees only the
generated grids (as JSON files or ``GridFunction`` values), plus ``--seed``
for the verification suites, which draw their own grids by design.

An op is timed from the call into oscnorm until it returns.  Its check runs
afterwards, outside the timed region, and compares the output against a
reference built independently of the code under test.  Bracket outputs are
read through ``value_lower`` / ``value_upper`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oscnorm
import oscnorm.cli
import oscnorm.local_poly
import oscnorm.norms

REL_TOL = 1e-12


@dataclass
class Op:
    """One timed call.  ``run`` returns an opaque result; ``check`` turns it
    into (output bytes, None) or (output bytes, failure reason)."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bytes, str | None]]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    min_cycles: int
    bracket_ratios: list[float] = field(default_factory=list)
    near_best: list[float] = field(default_factory=list)
    reports: dict[str, str] = field(default_factory=dict)  # config -> sha256

    def same_report(self, config: str, data: bytes) -> str | None:
        """Byte-identity of repeated suite configs within one run."""
        digest = hashlib.sha256(data).hexdigest()
        first = self.reports.setdefault(config, digest)
        return None if first == digest else f"report of {config} changed"


def rng_for(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, tag])))


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = oscnorm.cli.main(argv)
    return rc, err.getvalue()


def _read_cli_output(result, path: str) -> tuple[bytes, str | None]:
    rc, err = result
    if rc != 0:
        return b"", f"exit code {rc}: {err.strip()[-200:]}"
    with open(path, "rb") as fh:
        return fh.read(), None


def _write_grid(path: str, dimension: int, depth: int,
                values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dimension": dimension, "depth": depth,
                   "values": values.tolist()}, fh)


# -- independent references ------------------------------------------------

def _blocks(values: np.ndarray, dimension: int, depth: int,
            level: int) -> np.ndarray:
    """Cell values grouped by level-``level`` cube, one row per cube."""
    side, s = 1 << level, 1 << (depth - level)
    if dimension == 1:
        return values.reshape(side, s)
    nd = values.reshape(side, s, side, s)
    return nd.transpose(0, 2, 1, 3).reshape(side * side, s * s)


def ref_bmo(values: np.ndarray, dimension: int, depth: int) -> float:
    """max over dyadic cubes of the mean |f - lower median| on the cube."""
    best = 0.0
    for level in range(depth + 1):
        b = np.sort(_blocks(values, dimension, depth, level), axis=1)
        med = b[:, (b.shape[1] - 1) // 2]
        best = max(best, float(np.abs(b - med[:, None]).mean(axis=1).max()))
    return best


def ref_weak_lp(values: np.ndarray, p: float) -> float:
    """sup_t t^{1/p} f*(t) of the step function, at the block endpoints."""
    srt = np.sort(np.abs(values))[::-1]
    t = np.arange(1, srt.size + 1) / srt.size
    return float((t ** (1.0 / p) * srt).max())


def ref_sjn_upper(values: np.ndarray, dimension: int, depth: int) -> float:
    """2 ||M_{1,0}(f - mean f)||_2, the factor-2 sparse bound at k=1."""
    g = oscnorm.GridFunction(dimension, depth, values - values.mean())
    return 2.0 * oscnorm.lp_norm(
        oscnorm.fractional_maximal(g, 1, 0.0).values, 2.0)


# -- deep-grid ----------------------------------------------------------------

DEEP_SIZES = ((1, 16), (2, 8))


def deep_grid(seed: int, work: str, sizes=DEEP_SIZES) -> Workload:
    """In-process ``oscnorm compute`` at headline scale on a uniform-iid and
    a lognormal (sigma 1.5) grid per dimension."""
    rng = rng_for(seed, "deep-grid")
    grids = []
    for dimension, depth in sizes:
        for dist in ("uniform", "lognormal"):
            n = 1 << (dimension * depth)
            values = (rng.uniform(0.0, 1.0, n) if dist == "uniform"
                      else rng.lognormal(0.0, 1.5, n))
            tag = f"{dimension}d-{dist}"
            path = os.path.join(work, f"deep-{tag}.json")
            _write_grid(path, dimension, depth, values)
            grids.append((tag, path, dimension, depth, values))
    _warm_compute(work)
    wl = Workload("deep-grid", [], min_cycles=1)
    for grid in grids:
        wl.ops.extend(_deep_ops(wl, work, *grid))
    return wl


_COMPUTE_OPS = (
    ("sjn", ["--norm", "sjn", "--p", "2", "--mode", "bounds"]),
    ("jn", ["--norm", "jn", "--p", "2"]),
    ("bmo", ["--norm", "bmo"]),
    ("garo", ["--norm", "garo", "--p", "2", "--mode", "bounds"]),
    ("weaklp", ["--norm", "weaklp", "--p", "2"]),
)


def _warm_compute(work: str) -> None:
    """First calls of every compute path on tiny grids (lazy imports,
    first-use allocations) so the timed ops start warm."""
    rng = np.random.default_rng(0)
    for dimension, depth in ((1, 4), (2, 2)):
        path = os.path.join(work, f"warm-{dimension}d.json")
        _write_grid(path, dimension, depth,
                    rng.uniform(0.0, 1.0, 1 << (dimension * depth)))
        for _, args in _COMPUTE_OPS:
            _cli(["compute", "--input", path, *args,
                  "--out", os.path.join(work, "warm-out.json")])


def _deep_ops(wl: Workload, work: str, tag: str, path: str, dimension: int,
              depth: int, values: np.ndarray) -> list[Op]:
    seen: dict[str, tuple] = {}   # this cycle's (lower, upper) per op
    refs: dict[str, float] = {}   # references, built once on first check

    def ref(name, fn):
        if name not in refs:
            refs[name] = fn()
        return refs[name]

    def make(name, args, judge):
        out = os.path.join(work, f"out-{tag}-{name}.json")
        argv = ["compute", "--input", path, *args, "--out", out]

        def check(result):
            data, err = _read_cli_output(result, out)
            if err:
                return data, err
            payload = json.loads(data)
            lo, hi = payload["value_lower"], payload["value_upper"]
            if not lo <= hi:
                return data, f"value_lower {lo} > value_upper {hi}"
            seen[name] = (lo, hi)
            return data, judge(lo, hi)

        def run():
            seen.pop(name, None)
            return _cli(argv)

        return Op(f"{name}/{tag}", run, check)

    def sjn(lo, hi):
        want = ref("sjn", lambda: ref_sjn_upper(values, dimension, depth))
        if _rel_gap(hi, want) > REL_TOL:
            return f"sjn upper {hi!r} != reference {want!r}"
        if lo <= 0:
            return f"sjn lower bound {lo!r} is not positive"
        wl.bracket_ratios.append(hi / lo)
        return None

    def exact(name, lo, hi):
        return None if lo == hi else f"{name} exact value has {lo} != {hi}"

    def jn(lo, hi):
        if "sjn" not in seen:
            return "no sjn result to compare with"
        sjn_hi = seen["sjn"][1]
        if hi > sjn_hi * (1 + REL_TOL):
            return f"jn {hi!r} above the sjn upper bound {sjn_hi!r}"
        return exact("jn", lo, hi)

    def bmo(lo, hi):
        want = ref("bmo", lambda: ref_bmo(values, dimension, depth))
        if _rel_gap(hi, want) > REL_TOL:
            return f"bmo {hi!r} != reference {want!r}"
        return exact("bmo", lo, hi)

    def garo(lo, hi):
        if "jn" not in seen:
            return "no jn result to compare with"
        jn_value = seen["jn"][1]
        if _rel_gap(hi, jn_value) > REL_TOL:
            return f"garo upper {hi!r} != jn value {jn_value!r}"
        return None

    def weaklp(lo, hi):
        want = ref("weaklp", lambda: ref_weak_lp(values, 2.0))
        if _rel_gap(hi, want) > REL_TOL:
            return f"weak-L^2 {hi!r} != reference {want!r}"
        return exact("weaklp", lo, hi)

    judges = {"sjn": sjn, "jn": jn, "bmo": bmo, "garo": garo,
              "weaklp": weaklp}
    return [make(name, args, judges[name]) for name, args in _COMPUTE_OPS]


# -- local-fits ---------------------------------------------------------------

PACK_SIZES = ((1, 12), (2, 6))
FIT_SIZES = ((1, 6), (2, 3))
FIT_DRAWS = 2
SV_TRIALS = 8


def local_fits(seed: int, work: str, pack_sizes=PACK_SIZES,
               fit_sizes=FIT_SIZES, sv_trials=SV_TRIALS) -> Workload:
    """Per-cube polynomial fits: the L2 route through packing suprema at
    k=2,3 and the L1 route through root best_fit and the sv-equivalence
    suite."""
    rng = rng_for(seed, "local-fits")
    pack = [(d, L, rng.uniform(0.0, 1.0, 1 << (d * L))) for d, L in pack_sizes]
    fits = [(d, L, rng.uniform(0.0, 1.0, 1 << (d * L)))
            for d, L in fit_sizes for _ in range(FIT_DRAWS)]
    wl = Workload("local-fits", [], min_cycles=3)
    _warm_fits()
    _cli(["verify", "--suite", "sv-equivalence", "--dim", "1", "--depth", "3",
          "--trials", "1", "--seed", str(seed),
          "--out", os.path.join(work, "warm-report.json")])
    for d, L, values in pack:
        wl.ops.extend(_packing_ops(d, L, values))
    for i, (d, L, values) in enumerate(fits):
        for k in (2, 3):
            wl.ops.append(_best_fit_op(wl, f"{d}d-L{L}-{i}", d, L, values, k))
    for suite_seed in (seed, seed + 1):
        wl.ops.append(_verify_op(wl, work, "sv-equivalence", 1, 3, sv_trials,
                                 suite_seed, collect_brackets=True))
    return wl


def _warm_fits() -> None:
    rng = np.random.default_rng(0)
    f = oscnorm.GridFunction(1, 3, rng.uniform(0.0, 1.0, 8))
    for k in (2, 3):
        oscnorm.norms.packing_sup_norm(f, oscnorm.NormParams.packing(
            2.0, k, 2, 0.0))
    for d, L in ((1, 2), (2, 1)):
        g = oscnorm.GridFunction(d, L, rng.uniform(0.0, 1.0, 1 << (d * L)))
        oscnorm.local_poly.best_fit(g, oscnorm.CubeId(0, (0,) * d), 3, 1)


def _report_bytes(report) -> bytes:
    return json.dumps(report.to_json_dict(), sort_keys=True).encode()


def _packing_ops(d: int, L: int, values: np.ndarray) -> list[Op]:
    tag = f"{d}d-L{L}"
    last: dict[int, float] = {}

    def make(k):
        params = oscnorm.NormParams.packing(2.0, k, 2, 0.0)

        def run():
            last.pop(k, None)
            f = oscnorm.GridFunction(d, L, values)
            return oscnorm.norms.packing_sup_norm(f, params)

        def check(rep):
            data = _report_bytes(rep)
            lo, hi = rep.value_lower, rep.value_upper
            if not 0.0 <= lo <= hi:
                return data, f"bad bracket [{lo}, {hi}]"
            last[k] = hi
            if k == 3:
                if 2 not in last:
                    return data, "no k=2 packing to compare with"
                if hi > last[2] * (1 + 1e-9):
                    return data, (f"packing k=3 {hi!r} above k=2 "
                                  f"{last[2]!r}")
            return data, None

        return Op(f"pack-k{k}/{tag}", run, check)

    return [make(2), make(3)]


def _best_fit_op(wl: Workload, tag: str, d: int, L: int, values: np.ndarray,
                 k: int) -> Op:
    root = oscnorm.CubeId(0, (0,) * d)

    def run():
        f = oscnorm.GridFunction(d, L, values)
        return oscnorm.local_poly.best_fit(f, root, k, 1)

    def check(fit):
        data = json.dumps({"error": fit.error,
                           "near_best_factor": fit.near_best_factor,
                           "coeffs": [float(c) for c in fit.local_coeffs],
                           "approximate": fit.approximate}).encode()
        if not (math.isfinite(fit.error) and fit.error >= 0.0):
            return data, f"fit error {fit.error!r} is not finite and >= 0"
        factor = fit.near_best_factor
        if not 1.0 <= factor < math.inf:
            return data, f"near_best_factor {factor!r} not in [1, inf)"
        wl.near_best.append(factor)
        return data, None

    return Op(f"best_fit-k{k}/{tag}", run, check)


def _verify_op(wl: Workload, work: str, suite: str, dim: int, depth: int,
               trials: int, seed: int, collect_brackets=False) -> Op:
    config = f"{suite}-{dim}d-L{depth}-t{trials}-s{seed}"
    out = os.path.join(work, f"report-{config}.json")
    argv = ["verify", "--suite", suite, "--dim", str(dim), "--depth",
            str(depth), "--trials", str(trials), "--seed", str(seed),
            "--out", out]

    def check(result):
        data, err = _read_cli_output(result, out)
        if err:
            return data, err
        err = wl.same_report(config, data)
        if err is None and collect_brackets:
            for row in json.loads(data)["rows"]:
                if row["lower"] <= 0:
                    return data, f"bracket lower bound {row['lower']!r} <= 0"
                wl.bracket_ratios.append(row["upper"] / row["lower"])
        return data, err

    return Op(f"verify/{suite}-{dim}d-L{depth}", lambda: _cli(argv), check)


# -- oracle-suites ----------------------------------------------------------------

ORACLE_CONFIGS = (
    ("sparse-jn", 1, 3, 2000),
    ("fractional-sv", 1, 3, 2000),
    ("sobolev-chain", 1, 3, 2000),
    ("embedding-chain", 1, 3, 2000),
    ("riesz", 1, 12, 50),
    ("riesz", 2, 6, 50),
    ("sparse-jn", 2, 1, 2000),
    ("jn-extrapolation", 1, 14, 1),
)


def oracle_suites(seed: int, work: str, configs=ORACLE_CONFIGS) -> Workload:
    """In-process ``oscnorm verify``, each op writing its report."""
    wl = Workload("oracle-suites", [], min_cycles=5)
    for suite, dim, depth, trials in configs:
        # one trial per config fills the process-lifetime family tables
        _cli(["verify", "--suite", suite, "--dim", str(dim), "--depth",
              str(depth), "--trials", "1", "--seed", str(seed),
              "--out", os.path.join(work, "warm-report.json")])
        wl.ops.append(_verify_op(wl, work, suite, dim, depth, trials, seed))
    return wl


WORKLOADS = {
    "deep-grid": deep_grid,
    "local-fits": local_fits,
    "oracle-suites": oracle_suites,
}
