"""oscnorm benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload deep-grid --seed 1 --seconds 20 --trace 0

Load model: closed loop, one client.  The next op starts when the previous
one has returned and its output has been checked; the op mix of the
workload (see ``workloads.py``) runs in whole cycles until at least
``--seconds`` have passed and at least the workload's minimum number of
cycles is done, so every run measures the same mix.  Op latencies are
calibrated against a fixed kernel timed around each op (``Calibration``).
BLAS/OpenMP pools are pinned to one thread before numpy is imported.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
loop with span recorders around every layer boundary (``tracer.py``) and
prints the per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout; without it the run exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3          # fresh processes timed per run for setup_s
SETUP_TIMEOUT_S = 120
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10            # samples a tail percentile must have beyond it
KERNEL_REF_S = 0.0134      # Calibration.kernel() on the reference box
WORKLOAD_NAMES = ("deep-grid", "local-fits", "oracle-suites")

END_TO_END = {             # name: (unit, better)
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "bracket_ratio": ("ratio", "lower"),
    "near_best_max": ("ratio", "lower"),
}


# -- statistics ------------------------------------------------------------------

def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples, in
    integer arithmetic (p has at most one decimal)."""
    return max(1, -(-round(p * 10) * n // 1000))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile whose nearest rank among ``n`` samples
    leaves at least MIN_BEYOND samples beyond it."""
    best = None
    for p in LADDER:
        if n - rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-th percentile: a Beta-weighted
    mean of all order statistics.  An op mix has gaps between the latencies
    of its op types; the plain sample quantile jumps across such a gap when
    two ops swap ranks, this estimate moves smoothly."""
    import numpy
    from scipy.special import betainc
    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n = ordered.size
    q = p / 100.0
    cdf = betainc(q * (n + 1), (1.0 - q) * (n + 1), numpy.arange(n + 1) / n)
    return float(numpy.diff(cdf) @ ordered)


# -- measurement ---------------------------------------------------------------------

class Calibration:
    """A fixed kernel of interpreter and numpy work owned by the benchmark.

    The CPU speed of a shared box drifts by 20% and more over seconds.  The
    kernel is timed right before and right after every op; scaling the op's
    latency by ``KERNEL_REF_S`` over their mean expresses it in seconds of
    the reference box, which removes most of that drift while leaving every
    change in the program's own speed in full.
    """

    def __init__(self):
        import numpy
        self._np = numpy
        self._data = numpy.random.default_rng(0).uniform(size=20_000)

    def kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for j in range(150_000):
            acc += j * j
        for _ in range(5):
            self._np.sort(self._data)
        return time.perf_counter() - t0


def measure(wl, seconds: float, tracer=None, cal=None) -> dict:
    """Run whole cycles of ``wl.ops`` until ``seconds`` have passed and
    ``wl.min_cycles`` are done.  Returns raw and calibrated latencies,
    failures and output digests."""
    cal = cal or Calibration()
    raw: list[float] = []
    latencies: list[float] = []
    by_kind: dict[str, list[float]] = {}
    failures: list[tuple[str, str]] = []
    digests: dict[str, str] = {}
    start = time.perf_counter()
    cycles = 0
    k_before = cal.kernel()
    while cycles < wl.min_cycles or time.perf_counter() - start < seconds:
        for op in wl.ops:
            op_id = f"{cycles}:{op.kind}"
            if tracer is not None:
                tracer.begin_op(op_id, op.kind)
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            k_after = cal.kernel()
            scaled = dt * KERNEL_REF_S / (0.5 * (k_before + k_after))
            k_before = k_after
            data = b""
            if error is None:
                try:
                    data, error = op.check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            raw.append(dt)
            latencies.append(scaled)
            by_kind.setdefault(op.kind, []).append(scaled)
            digests[op_id] = hashlib.sha256(data).hexdigest()
            if error is not None:
                failures.append((op_id, error))
        cycles += 1
    return {"raw": raw, "latencies": latencies, "by_kind": by_kind,
            "failures": failures, "digests": digests, "cycles": cycles}


def end_to_end(wl, m: dict, setup_samples: list[float]) -> dict:
    lat = m["latencies"]
    p = tail_percentile(wl.min_cycles * len(wl.ops))
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * harrell_davis(lat, 50.0),
        "op_tail_ms": 1e3 * harrell_davis(lat, p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        # 1.0 where the workload has no bracket / no L1 fit: its values
        # are exact and its fits take exact routes
        "bracket_ratio": statistics.median(wl.bracket_ratios)
        if wl.bracket_ratios else 1.0,
        "near_best_max": max(wl.near_best) if wl.near_best else 1.0,
    }


def _timed_setup(workload: str, seed: int, cal: Calibration) -> float:
    """Calibrated wall time of a fresh process that only sets up:
    interpreter start, imports, input generation and file writing, warm
    caches."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    k_before = cal.kernel()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S,
                          check=False)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed: "
                           + proc.stderr.decode(errors="replace")[-400:])
    return dt * KERNEL_REF_S / (0.5 * (k_before + cal.kernel()))


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# -- entry point ------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit (used to time setup_s)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "oscnorm" / "__init__.py").is_file():
        print(f"error: no oscnorm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    WORK.mkdir(exist_ok=True)

    cal = None if args.setup_only else Calibration()
    setup_samples = [] if args.trace or args.setup_only else [
        _timed_setup(args.workload, args.seed, cal)
        for _ in range(SETUP_SAMPLES)]

    t0 = time.perf_counter()
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, str(WORK))
    own_setup = time.perf_counter() - t0
    if args.setup_only:
        return 0

    m = measure(wl, args.seconds, tracer, cal)
    lat, raw, failures = m["latencies"], m["raw"], m["failures"]
    env = environment()
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {len(lat)} ops "
          f"in {m['cycles']} cycle(s); op time {sum(raw):.3f} s wall, "
          f"{sum(lat):.3f} s calibrated; in-process set-up {own_setup:.3f} s")
    print("loop: closed, one client; op mix per cycle: "
          + ", ".join(op.kind for op in wl.ops))
    for kind, times in m["by_kind"].items():
        print(f"  {kind:34s} median {1e3 * statistics.median(times):10.2f} "
              f"ms  x{len(times)}")
    for op_id, reason in failures:
        print(f"FAIL {op_id}: {reason}")
    print("env: " + json.dumps(env, sort_keys=True))

    if tracer is None:
        values = end_to_end(wl, m, setup_samples)
        units = END_TO_END
        p = tail_percentile(wl.min_cycles * len(wl.ops))
        print(f"op_p50_ms and op_tail_ms are Harrell-Davis estimates; the tail "
              f"is p{p:g} of {len(lat)} samples "
              f"({len(lat) - rank(p, len(lat))} beyond its nearest rank)")
        print("setup_s samples: "
              + ", ".join(f"{s:.3f}" for s in setup_samples))
        print(f"uncalibrated: ops_per_s {len(raw) / sum(raw):.6g} 1/s, "
              f"op_p50_ms {1e3 * statistics.median(raw):.6g} ms")
        print(f"fail_ratio = {len(failures) / len(lat):.6g} ratio "
              f"({len(failures)}/{len(lat)})")
    else:
        tracer.uninstall()
        tracer.write(str(WORK / f"trace-{wl.name}.jsonl"))
        values = tracing.layer_metrics(tracer.spans, tracer.wrapped)
        # comparable with the untraced run's ops_per_s: the difference is
        # the tracing overhead
        values["trace.ops_per_s"] = len(lat) / sum(lat)
        units = tracing.LAYER_METRICS
        absent = sorted(k for k, v in values.items() if v is None)
        if absent or tracer.missing:
            print("absent (binding gone): " + ", ".join(absent)
                  + " | missing bindings: " + ", ".join(tracer.missing))
    metrics = {}
    for name, (unit, _) in units.items():
        if values.get(name) is None:
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit}")
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "cycles": m["cycles"], "env": env, "failures": failures,
              "raw_s": raw, "calibrated_s": lat, "setup_s": setup_samples,
              "kinds": [op.kind for op in wl.ops],
              "metrics": metrics}
    with open(WORK / f"run-{wl.name}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not failures, "attempted": len(lat),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
