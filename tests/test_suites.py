"""Verification suites: small-scale runs, determinism, and config handling."""

import json
import tracemalloc

import numpy as np
import pytest

from oscnorm import suites
from oscnorm.families import family_tables
from oscnorm.generate import batch_uniform
from oscnorm.local_poly import median_deviations
from oscnorm.suites import SUITE_NAMES, SuiteConfig, SuiteReport, run_suite


def _small(suite):
    presets = {
        "riesz": dict(dimension=1, depth=3, trials=25),
        "sparse-jn": dict(dimension=1, depth=2, trials=25),
        "sv-equivalence": dict(dimension=1, depth=2, trials=5),
        "fractional-sv": dict(dimension=1, depth=2, trials=10),
        "jn-extrapolation": dict(dimension=1, depth=4, trials=1),
        "sobolev-chain": dict(dimension=1, depth=2, trials=25),
        "embedding-chain": dict(dimension=1, depth=2, trials=25),
    }
    return SuiteConfig(suite=suite, **presets[suite])


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suite_passes_small(suite):
    report = run_suite(_small(suite))
    for a in report.assertions:
        print(f"[{'PASS' if a['passed'] else 'FAIL'}] {suite}/{a['name']}: "
              f"{a['detail']}")
    assert report.passed
    assert report.assertions      # every suite asserts something


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_reports_are_byte_identical(suite):
    a = run_suite(_small(suite)).to_json()
    b = run_suite(_small(suite)).to_json()
    assert a == b


def test_report_schema():
    report = run_suite(_small("riesz"))
    d = json.loads(report.to_json())
    assert d["schema"] == 1
    assert d["suite"] == "riesz"
    assert d["config"]["trials"] == 25
    assert isinstance(d["passed"], bool)
    for a in d["assertions"]:
        assert set(a) == {"name", "passed", "detail"}
    # sorted keys all the way down
    assert list(d) == sorted(d)


def test_riesz_2d():
    report = run_suite(SuiteConfig(suite="riesz", dimension=2, depth=2,
                                   trials=25))
    assert report.passed
    assert report.aggregates["max_rel_err"] <= 1e-10


def test_sparse_jn_2d():
    report = run_suite(SuiteConfig(suite="sparse-jn", dimension=2, depth=1,
                                   trials=25))
    assert report.passed
    assert report.aggregates["factor_two_violations"] == 0


def test_seed_changes_aggregates():
    a = run_suite(SuiteConfig(suite="riesz", depth=3, trials=10, seed=0))
    b = run_suite(SuiteConfig(suite="riesz", depth=3, trials=10, seed=1))
    # identical structure, different draws
    assert set(a.aggregates) == set(b.aggregates)
    assert a.to_json() != b.to_json()


def test_config_validation():
    with pytest.raises(ValueError, match="unknown suite"):
        SuiteConfig(suite="no-such-suite")
    with pytest.raises(ValueError, match="trials"):
        SuiteConfig(suite="riesz", trials=0)
    with pytest.raises(ValueError, match="dimension must be 1 or 2"):
        SuiteConfig(suite="riesz", dimension=3)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        SuiteConfig(suite="riesz", depth=-1)


@pytest.mark.parametrize("field", ["dimension", "depth", "trials"])
@pytest.mark.parametrize("value", [True, False, 2.0])
def test_config_rejects_non_integer_sizes(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SuiteConfig(suite="riesz", **{field: value})


def test_extrapolation_accepts_log_singularity():
    report = run_suite(SuiteConfig(suite="jn-extrapolation", dimension=1,
                                   depth=4, trials=1))
    assert report.passed
    assert report.to_json_dict()["config"]["generator"] == "log-singularity"
    ratios = report.aggregates["ratios"]          # per-depth ratio lists
    assert set(ratios) == {"4", "6"}
    for per_p in ratios.values():
        assert len(per_p) == len(report.aggregates["p_list"])


def test_sobolev_chain_constants_are_sane():
    report = run_suite(_small("sobolev-chain"))
    # the equivalence constants stay within the regime seen at calibration
    assert 1.0 <= report.aggregates["k_maximal_over_sv"] <= 2.0
    assert 1.0 <= report.aggregates["k_lp_over_sjn"] <= 4.0


def test_failed_assertion_marks_report(monkeypatch):
    report = run_suite(_small("riesz"))
    bad = SuiteReport(report.config, report.aggregates,
                      report.assertions + (
                          {"name": "forced", "passed": False, "detail": "x"},))
    assert not bad.passed
    assert json.loads(bad.to_json())["passed"] is False


def test_sv_equivalence_fits_each_cube_once(monkeypatch):
    """The suite calls three functionals at three p per trial; the L^1,
    k=2 fits run once per cube of a trial: 2 trials x 15 cubes."""
    from oscnorm import local_poly
    calls = []
    fit_l1 = local_poly._fit_l1
    monkeypatch.setattr(local_poly, "_fit_l1", lambda *args, **kw:
                        calls.append(args) or fit_l1(*args, **kw))
    report = run_suite(SuiteConfig(suite="sv-equivalence", dimension=1,
                                   depth=3, trials=8, seed=901))
    assert all(a["passed"] for a in report.assertions)
    assert len(calls) == 30


@pytest.mark.parametrize("suite", ("sparse-jn", "fractional-sv",
                                   "sobolev-chain", "embedding-chain"))
def test_table_suites_work_in_small_blocks(suite):
    """2,000 trials against the 4,870-family table of 1D L=3 stay under
    32 MB of traced peak; full-size products took 62-184 MB."""
    # build the process-lifetime family tables outside the measurement
    run_suite(SuiteConfig(suite=suite, dimension=1, depth=3, trials=1))
    tracemalloc.start()
    try:
        report = run_suite(SuiteConfig(suite=suite, dimension=1, depth=3,
                                       trials=2000, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 32 * 2 ** 20


def _table_rows(seed, trials):
    """``(|Q|^{-1} E_1)^{4/3}`` rows at 1D L=3, as the table suites build
    them."""
    V = batch_uniform(1, 3, seed, trials)
    e1 = [median_deviations(V, 1, 3, lvl)[1] * 0.125 for lvl in range(4)]
    return suites._scaled_flat_e1(e1, 1, -1.0) ** (4.0 / 3.0)


@pytest.mark.parametrize("trials", (1, 2, 14, 40, 200))
@pytest.mark.parametrize("budget", (1, 7 * 4870, 65_536, 4_000_000))
def test_block_products_have_the_bits_of_one_product(trials, budget,
                                                     monkeypatch):
    """Blocked products against the 4,870-family table have the bits of
    one product over the whole batch, with no lone-row block."""
    monkeypatch.setattr(suites, "_CHUNK_BUDGET", budget)
    table = family_tables(1, 3, 1.0).core_meas
    rows = _table_rows(trials, trials)
    blocks = list(suites._chunks(trials, table.shape[0]))
    assert [t0 for t0, _ in blocks] == [0] + [t1 for _, t1 in blocks[:-1]]
    assert blocks[-1][1] == trials
    assert trials == 1 or min(t1 - t0 for t0, t1 in blocks) >= 2
    factor = suites._right_factor(table, trials)
    got = np.vstack([rows[t0:t1] @ factor for t0, t1 in blocks])
    assert np.array_equal(got, rows @ table.T)
