"""Tests of the benchmark itself (not of oscnorm).

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import fractions
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oscnorm.cli  # noqa: E402
import oscnorm.families  # noqa: E402
import oscnorm.norms  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def tiny(name: str, work: str) -> workloads.Workload:
    """The workload's op mix on small inputs, so the test stays quick."""
    if name == "deep-grid":
        wl = workloads.deep_grid(3, work, sizes=((1, 5), (2, 3)))
    elif name == "local-fits":
        wl = workloads.local_fits(3, work, pack_sizes=((1, 4), (2, 2)),
                                  fit_sizes=((1, 3), (2, 2)), sv_trials=4)
    else:
        wl = workloads.oracle_suites(3, work, configs=(
            ("sparse-jn", 1, 2, 40), ("embedding-chain", 1, 2, 40),
            ("riesz", 2, 3, 5), ("jn-extrapolation", 1, 8, 1)))
    wl.min_cycles = 2
    return wl


# -- statistics ------------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected
    if expected is not None:
        assert n - run.rank(expected, n) >= run.MIN_BEYOND
        assert run.rank(expected, n) == math.ceil(
            fractions.Fraction(str(expected)) * n / 100)


def test_harrell_davis():
    assert run.harrell_davis([2.0] * 7, 75.0) == pytest.approx(2.0)
    assert run.harrell_davis([5.0, 1.0, 4.0, 2.0, 3.0], 50.0) == \
        pytest.approx(3.0)
    # two op types with a gap: swapping the two middle ranks moves the
    # estimate only a little
    low, high = [1.0] * 10, [3.0] * 10
    a = run.harrell_davis(low[:-1] + [1.2] + high, 50.0)
    b = run.harrell_davis(low[:-1] + high[:1] + [1.2] + high[1:], 50.0)
    assert abs(a - b) < 0.3 < 2.0
    assert run.harrell_davis(low + high, 75.0) > run.harrell_davis(
        low + high, 50.0)


# -- span arithmetic ---------------------------------------------------------------------

def _fake_layer(monkeypatch):
    """A module whose functions call each other through module globals,
    like oscnorm's layers, timed by a clock that ticks once per read."""
    mod = types.ModuleType("fakelayer")

    def leaf(family):
        return family

    def middle(family):
        return mod.leaf(family), mod.leaf(family)

    mod.leaf, mod.middle = leaf, middle
    monkeypatch.setitem(sys.modules, "fakelayer", mod)
    ticks = iter(range(1000))
    bindings = (
        ("families.validate", "fakelayer", "leaf", tracing._count_validate),
        ("families.cz_family", "fakelayer", "middle", None),
    )
    return mod, tracing.Tracer(bindings, clock=lambda: next(ticks))


def test_self_time_is_span_minus_children(monkeypatch):
    mod, tr = _fake_layer(monkeypatch)
    tr.install()
    tr.begin_op("0:x", "x")          # t=0
    mod.middle([1, 2, 3])            # middle 1..6, leaves 2..3 and 4..5
    tr.end_op()                      # t=7
    tr.uninstall()
    assert [s.name for s in tr.spans] == [
        "op", "families.cz_family", "families.validate", "families.validate"]
    assert [(s.start, s.end) for s in tr.spans] == [
        (0, 7), (1, 6), (2, 3), (4, 5)]
    assert tracing.self_times(tr.spans) == [2, 3, 1, 1]
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 1]
    assert all(s.op == "0:x" for s in tr.spans)
    m = tracing.layer_metrics(tr.spans, tr.wrapped)
    assert m["families.validate.s"] == 2
    assert m["families.validate.calls"] == 2
    assert m["families.validate.members"] == 6
    assert m["families.cz_family.s"] == 5
    assert m["trace.spans"] == 4
    assert m["local_poly.share_of_ops"] is None   # no binding installed


def test_same_name_nesting_counts_once():
    spans = [tracing.Span("op", 0, 10, op="0:x"),
             tracing.Span("norms.ri_functionals", 1, 9, 0, "0:x"),
             tracing.Span("norms.ri_functionals", 2, 5, 1, "0:x")]
    m = tracing.layer_metrics(spans, {"norms.ri_functionals"})
    assert m["norms.ri_functionals.s"] == 8
    assert tracing.self_times(spans) == [2, 5, 3]


def test_setup_spans_only_feed_family_tables():
    spans = [tracing.Span("families.family_tables", 0, 4, count=9,
                          tag="1,1,1.0"),
             tracing.Span("families.validate", 4, 6, count=3),
             tracing.Span("op", 6, 8, op="0:x")]
    m = tracing.layer_metrics(
        spans, {"families.family_tables", "families.validate"})
    assert m["families.family_tables.s"] == 4
    assert m["families.family_tables.accept_ratio"] == 9 / 7
    assert m["families.validate.s"] == 0


def test_missing_binding_reports_absent_and_does_not_crash():
    bindings = tuple(b for b in tracing.BINDINGS
                     if b[0] != "families.validate")
    bindings += (("families.validate", "oscnorm.families",
                  "no_such_function", None),
                 ("families.validate", "oscnorm.no_such_module", "x", None))
    tr = tracing.Tracer(bindings)
    tr.install()
    try:
        assert oscnorm.families.validate is not None
    finally:
        tr.uninstall()
    assert tr.missing == ["oscnorm.families:no_such_function",
                          "oscnorm.no_such_module:x"]
    m = tracing.layer_metrics(tr.spans, tr.wrapped)
    assert m["families.validate.s"] is None
    assert m["families.validate.us_per_member"] is None
    assert m["families.cz_family.s"] == 0
    assert set(m) | {"trace.ops_per_s"} == set(tracing.LAYER_METRICS)


def test_uninstall_restores_every_binding():
    before = {(mod, path): tracing._resolve(mod, path)[2]
              for _, mod, path, _ in tracing.BINDINGS}
    tr = tracing.Tracer()
    tr.install()
    assert not tr.missing
    assert oscnorm.norms.validate is not before[("oscnorm.norms",
                                                 "validate")]
    tr.uninstall()
    for (mod, path), raw in before.items():
        assert tracing._resolve(mod, path)[2] is raw


# -- workloads ----------------------------------------------------------------------------

@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_leaves_outputs_byte_identical(name, tmp_path):
    plain = run.measure(tiny(name, str(tmp_path)), 0.0)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = run.measure(tiny(name, str(tmp_path)), 0.0, tr)
    finally:
        tr.uninstall()
    assert plain["failures"] == [] and traced["failures"] == []
    assert traced["digests"] == plain["digests"]
    empty = run.hashlib.sha256(b"").hexdigest()
    assert empty not in plain["digests"].values()
    m = tracing.layer_metrics(tr.spans, tr.wrapped)
    assert None not in m.values()
    assert m["trace.spans"] > len(traced["latencies"])


def test_checks_catch_a_wrong_output(monkeypatch, tmp_path):
    real = oscnorm.cli.ri_functionals

    def off_by_a_bit(f, p):
        ri = real(f, p)
        return dataclasses.replace(ri, weak_lp=ri.weak_lp * (1 + 1e-9))

    monkeypatch.setattr(oscnorm.cli, "ri_functionals", off_by_a_bit)
    m = run.measure(tiny("deep-grid", str(tmp_path)), 0.0)
    failed = {op_id.split(":")[1].split("/")[0] for op_id, _ in m["failures"]}
    assert failed == {"weaklp"}
    assert len(m["failures"]) == 2 * 4


def test_workload_inputs_follow_the_seed(tmp_path):
    a = workloads.rng_for(5, "deep-grid").uniform(size=4)
    b = workloads.rng_for(5, "deep-grid").uniform(size=4)
    c = workloads.rng_for(6, "deep-grid").uniform(size=4)
    assert (a == b).all() and not (a == c).all()


# -- the benchmark definition ---------------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_without_program_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
