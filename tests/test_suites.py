"""Verification suites: small-scale runs, determinism, and config handling."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_config_takes_numpy_integers_as_ints():
    """NumPy integers are normalised, so the report is the plain-int one."""
    got = run_suite(SuiteConfig("riesz", 1, 2, np.int64(3), np.int64(4)))
    want = run_suite(SuiteConfig("riesz", 1, 2, 3, 4))
    assert got.to_json() == want.to_json()
    assert type(got.config.trials) is int and type(got.config.seed) is int


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


@pytest.mark.parametrize("seed,reason", [
    (-1, "seed must be >= 0"),
    (True, "seed must be an integer"),
    (1.5, "seed must be an integer"),
])
def test_config_rejects_bad_seed(seed, reason):
    with pytest.raises(ValueError, match=reason):
        SuiteConfig(suite="riesz", seed=seed)


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
    """The suite evaluates three functionals at three p per trial; the
    L^1, k=2 fits run once per cube of 4 or more cells of a trial (a
    two-cell cube is fitted in closed form, a one-cell cube by its
    constant): 2 trials x 3 cubes."""
    from oscnorm import local_poly
    calls = []
    fit_l1 = local_poly._fit_l1
    monkeypatch.setattr(local_poly, "_fit_l1", lambda *args, **kw:
                        calls.append(args) or fit_l1(*args, **kw))
    report = run_suite(SuiteConfig(suite="sv-equivalence", dimension=1,
                                   depth=3, trials=8, seed=901))
    assert all(a["passed"] for a in report.assertions)
    assert len(calls) == 6


def test_sv_equivalence_sets_up_once_per_trial_and_kq(monkeypatch):
    """The root fit and the stopping-time family of the bounds are built
    once per trial and (k, q), not once per p: 8 trials give 2 trials for
    each of 4 (k, q), so 8 calls each."""
    from oscnorm import norms
    counts = {"best_fit": 0, "cz_family": 0}
    for name in counts:
        def counted(*args, _name=name, _func=getattr(norms, name), **kw):
            counts[_name] += 1
            return _func(*args, **kw)
        monkeypatch.setattr(norms, name, counted)
    report = run_suite(SuiteConfig(suite="sv-equivalence", dimension=1,
                                   depth=3, trials=8, seed=901))
    assert report.passed
    assert counts == {"best_fit": 8, "cz_family": 8}


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


def test_report_refuses_non_finite_fields():
    report = run_suite(_small("riesz"))
    bad = SuiteReport(report.config, {"ratio": float("nan")}, ())
    with pytest.raises(ValueError):
        bad.to_json()


@pytest.mark.parametrize("p", (1.0, 4.0 / 3.0, 1.5, 2.0, 4.0))
@pytest.mark.parametrize("trials", (1, 2, 14, 200))
def test_table_max_has_the_bits_of_root_then_max(p, trials):
    """The maximum is rooted after the reduction; ``pow`` is monotone, so
    that is the maximum of the rooted entries, bit for bit."""
    table = family_tables(1, 3, 1.0).core_meas
    rows = _table_rows(trials, trials) ** (0.75 * p)  # ~(|Q|^-1 E_1)^p
    factor = suites._right_factor(table, trials)
    want = ((rows @ factor) ** (1.0 / p)).max(axis=1)
    assert np.array_equal(suites._table_max(rows, factor, p), want)


def _two_sided_counts(A, B, p, step):
    """The two ``sparse-jn`` checks on ``A`` (core) and ``B`` (weighted)
    p-th powers, in row blocks of ``step`` with the suite's cap, through
    ``_root_violations``."""
    r = 1.0 / p
    total = 0
    for t0 in range(0, A.shape[0], step):
        a, b = A[t0:t0 + step], B[t0:t0 + step]
        capped = a.max() <= suites._ROOT_CAP ** p
        total += suites._root_violations(a, r, b, r, b, capped)
        total += suites._root_violations(b, r, a, r, 2.0 * a, capped,
                                         scale=2.0 ** r)
    return total


def _near_bound_powers(seed, T, F, p, log_root):
    """``(A, B)``: p-th powers of core and weighted values near the suite's
    bounds ``A <= B <= 2A``: exact ties ``B == 2A`` (zero and non-zero) and
    ``B == A``, entries inside, and roots one ulp either side of the 1e-12
    tolerance of both checks.  Roots are about ``10 ** log_root``."""
    rng = np.random.default_rng(seed)
    r = 1.0 / p
    a = 10.0 ** (log_root + rng.uniform(-1, 1, (T, F)))
    kind = rng.integers(0, 7, (T, F))
    A = a ** p
    B = np.where(kind == 0, 2.0 * A, A * rng.uniform(1, 2, (T, F)))
    B = np.where(kind == 1, A, B)
    A = np.where(kind == 2, 0.0, A)
    B = np.where(kind == 2, 0.0, B)
    # the root of B (or A) placed one ulp off the tolerance of a check
    ra = A ** r
    off = np.where(rng.integers(0, 2, (T, F)) == 1, np.inf, -np.inf)
    over_two = np.nextafter(2.0 ** r * ra + 1e-12, off) ** p
    B = np.where(kind == 3, over_two, B)
    over_one = np.nextafter(B ** r + 1e-12, off) ** p
    A = np.where(kind == 4, over_one, A)
    return A, B


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 16 - 1),
       st.sampled_from((1.0, 4.0 / 3.0, 1.5, 2.0, 4.0)),
       st.integers(1, 12), st.integers(1, 40), st.integers(1, 12),
       st.sampled_from((-4.0, -1.0, 0.0, 1.5, 3.0, 6.0)))
def test_power_space_count_is_the_root_space_count(seed, p, T, F, step,
                                                   log_root):
    """Cleared entries, undecided ones and whole uncapped blocks add up to
    the check on every rooted entry, in one-row and ragged blocks too."""
    A, B = _near_bound_powers(seed, T, F, p, log_root)
    r = 1.0 / p
    core, wted = A ** r, B ** r
    want = (np.count_nonzero(core > wted + 1e-12)
            + np.count_nonzero(wted > 2.0 ** r * core + 1e-12))
    assert _two_sided_counts(A, B, p, step) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(1, 12), st.integers(1, 40),
       st.sampled_from((-3.0, 0.0, 1.0, 2.0, 5.0)))
def test_power_space_embedding_count_is_the_root_space_count(seed, T, F,
                                                             log_root):
    """``sobolev-chain``'s ``Wq <= Wp^3`` clearance at (p, q) = (4/3, 4)."""
    p, q = 4.0 / 3.0, 4.0
    rng = np.random.default_rng(seed)
    wp = 10.0 ** (log_root + rng.uniform(-1, 1, (T, F)))
    off = np.where(rng.integers(0, 2, (T, F)) == 1, np.inf, -np.inf)
    wq = np.where(rng.integers(0, 2, (T, F)) == 1,
                  wp * rng.uniform(0.5, 1.0, (T, F)),
                  np.nextafter(wp + 1e-12, off))
    Wp, Wq = wp ** p, wq ** q
    capped = (Wq.max() <= suites._ROOT_CAP ** q
              and Wp.max() <= suites._ROOT_CAP ** p)
    got = suites._root_violations(Wq, 1.0 / q, Wp, 1.0 / p, Wp * Wp * Wp,
                                  capped)
    want = np.count_nonzero(Wq ** (1.0 / q) > Wp ** (1.0 / p) + 1e-12)
    assert got == want


def test_uncapped_block_counts_ties_in_root_space():
    """Fourth roots near 1e6: ``B == 2A`` is a tie in power space, but the
    rooted check counts some of those entries, so the block is counted
    whole."""
    roots = 10.0 ** (6.0 + np.random.default_rng(7).uniform(-1, 1, (20, 40)))
    A = roots ** 4.0
    B = 2.0 * A
    want = np.count_nonzero(B ** 0.25 > 2.0 ** 0.25 * A ** 0.25 + 1e-12)
    assert want > 0
    assert _two_sided_counts(A, B, 4.0, 20) == want


class _NoRoots(np.ndarray):
    def __pow__(self, other):
        raise AssertionError("a cleared entry was rooted")


@pytest.mark.parametrize("p", (1.0, 4.0 / 3.0, 2.0, 4.0))
def test_exact_ties_are_cleared_without_a_root(p):
    """``B == 2A`` (half of the suite's entries), ``B == A`` and zero rows
    meet the power-space bounds exactly, with no margin, so a capped block
    of them roots nothing."""
    rng = np.random.default_rng(5)
    A = rng.uniform(0, 1, (6, 50)) ** p
    A[2] = 0.0
    for B in (2.0 * A, A.copy()):
        a, b = A.view(_NoRoots), B.view(_NoRoots)
        assert suites._root_violations(a, 1 / p, b, 1 / p, b, True) == 0
        assert suites._root_violations(b, 1 / p, a, 1 / p, 2.0 * A, True,
                                       scale=2.0 ** (1 / p)) == 0


ORACLE_SUITES = ("sparse-jn", "sv-equivalence", "fractional-sv",
                 "sobolev-chain", "embedding-chain")


@pytest.mark.parametrize("suite, dim, depth", [
    (suite, dim, depth) for suite in ORACLE_SUITES
    for dim, depth in ((1, 4), (2, 2))
    if dim == 1 or suite != "sobolev-chain"])   # that chain is 1D only
def test_verify_refuses_an_oracle_suite_past_the_cap(capsys, suite, dim,
                                                     depth):
    """31 and 21 tree nodes are past the 15 of the family tables: each
    oracle suite exits 2 with its own one-line refusal, and no report."""
    from oscnorm.cli import main
    code = main(["verify", "--suite", suite, "--dim", str(dim),
                 "--depth", str(depth), "--trials", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: {suite} runs at oracle scale (<= 15 tree nodes)"]
