"""Verification suites: small-scale runs, determinism, and config handling."""

import json

import numpy as np
import pytest

from oscnorm.suites import SUITE_NAMES, SuiteConfig, SuiteReport, run_suite


def _small(suite):
    presets = {
        "riesz": dict(dimension=1, depth=3, trials=25),
        "sparse-jn": dict(dimension=1, depth=2, trials=25),
        "sv-equivalence": dict(dimension=1, depth=2, trials=5),
        "fractional-sv": dict(dimension=1, depth=2, trials=10),
        "jn-extrapolation": dict(dimension=1, depth=4, trials=1,
                                 generator="log-singularity"),
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
    with pytest.raises(ValueError, match="uniform-iid"):
        run_suite(SuiteConfig(suite="riesz", generator="step"))


@pytest.mark.parametrize("field", ["dimension", "depth", "trials"])
@pytest.mark.parametrize("value", [True, False, 2.0])
def test_config_rejects_non_integer_sizes(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SuiteConfig(suite="riesz", **{field: value})


def test_extrapolation_accepts_log_singularity():
    report = run_suite(SuiteConfig(suite="jn-extrapolation", dimension=1,
                                   depth=4, trials=1,
                                   generator="log-singularity"))
    assert report.passed
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
