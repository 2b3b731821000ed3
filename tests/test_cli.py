"""Command-line interface: round trips, exit codes, deterministic output."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnorm.cli import _NORM_KEYS, _emit, main
from oscnorm.families import CubeFamily, validate_index
from oscnorm.grid import GridFunction, cube_index, tree_size
from oscnorm.suites import SUITE_NAMES


@pytest.fixture
def step_file(tmp_path):
    path = tmp_path / "step.json"
    path.write_text(json.dumps(
        {"dimension": 1, "depth": 1, "values": [0.0, 1.0]}))
    return str(path)


@pytest.fixture
def deep_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(
        {"dimension": 1, "depth": 4, "values": rng.uniform(0, 1, 16).tolist()}))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_jn(step_file, capsys):
    code, out, _ = _run(capsys, [
        "compute", "--input", step_file, "--norm", "jn", "--p", "1"])
    assert code == 0
    d = json.loads(out)
    assert d["value_lower"] == pytest.approx(0.5)
    assert d["exact"] is True
    assert d["witness"]["cubes"] == [{"level": 0, "coords": [0]}]
    assert d["params"]["p"] == 1.0


def test_compute_bmo(step_file, capsys):
    code, out, _ = _run(capsys, [
        "compute", "--input", step_file, "--norm", "bmo"])
    assert code == 0
    d = json.loads(out)
    assert d["value_lower"] == pytest.approx(0.5)
    assert d["params"]["p"] == "inf"


def test_compute_sjn_bounds_mode(step_file, capsys):
    code, out, _ = _run(capsys, [
        "compute", "--input", step_file, "--norm", "sjn", "--p", "1",
        "--mode", "bounds"])
    assert code == 0
    d = json.loads(out)
    assert d["value_lower"] == pytest.approx(0.5)
    assert d["value_upper"] == pytest.approx(1.0)
    assert d["exact"] is False


def test_compute_exact_refuses_large_tree(deep_file, capsys):
    code, _, err = _run(capsys, [
        "compute", "--input", deep_file, "--norm", "sjn"])
    assert code == 2
    assert "bounds" in err
    # bounds mode succeeds on the same input
    code2, out, _ = _run(capsys, [
        "compute", "--input", deep_file, "--norm", "sjn", "--mode", "bounds"])
    assert code2 == 0
    d = json.loads(out)
    assert d["value_lower"] <= d["value_upper"]


def test_compute_garo_exact_refuses_large_tree(deep_file, capsys):
    """On 31 tree nodes the Garsia-Rodemich value is only bracketed."""
    code, out, err = _run(capsys, [
        "compute", "--input", deep_file, "--norm", "garo", "--mode", "exact"])
    assert code == 2 and out == ""
    errors = _error_lines(err)
    assert len(errors) == 1 and "--mode bounds" in errors[0]


def test_compute_svt_uses_grid_dimension(step_file, capsys):
    code, out, _ = _run(capsys, [
        "compute", "--input", step_file, "--norm", "svt",
        "--lambda", "0.5", "--p", "2"])
    assert code == 0
    d = json.loads(out)
    assert d["params"]["family_order"] == pytest.approx(0.5)


def test_compute_svt_bounds_on_2d_grid(tmp_path, capsys):
    path = tmp_path / "grid2d.json"
    path.write_text(json.dumps(
        {"dimension": 2, "depth": 2,
         "values": np.random.default_rng(3).uniform(0, 1, 16).tolist()}))
    code, out, _ = _run(capsys, [
        "compute", "--input", str(path), "--norm", "svt",
        "--lambda", "0.5", "--mode", "bounds"])
    assert code == 0
    d = json.loads(out)
    assert d["params"]["family_order"] == 0.75      # 1 - lambda / n
    assert d["value_lower"] <= d["value_upper"]


@pytest.mark.parametrize("dimension,lam", [(1, "1"), (1, "1.5"), (1, "-1"),
                                           (2, "2")])
def test_compute_svt_rejects_lambda_out_of_range(tmp_path, capsys, dimension,
                                                  lam):
    """The order 1 - lambda/n must lie in (0, 1]: lambda outside [0, n)
    is refused before any evaluation, with one line naming lambda."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"dimension": dimension, "depth": 1,
                                "values": [0.0, 1.0, 3.0, 2.0][:2 ** dimension]}))
    code, out, err = _run(capsys, [
        "compute", "--input", str(path), "--norm", "svt", f"--lambda={lam}"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "lambda" in err and "Traceback" not in err


def test_compute_rejects_non_square_2d_values(tmp_path, capsys):
    """A (2, 8) list of 16 values is not a 4x4 grid."""
    path = tmp_path / "grid2d.json"
    path.write_text(json.dumps(
        {"dimension": 2, "depth": 2,
         "values": np.arange(16.0).reshape(2, 8).tolist()}))
    code, out, err = _run(capsys, [
        "compute", "--input", str(path), "--norm", "bmo"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "shape (2, 8)" in err


@pytest.mark.parametrize("key,value", [("dimension", True),
                                       ("depth", False)])
def test_compute_rejects_boolean_sizes(tmp_path, capsys, key, value):
    grid = {"dimension": 1, "depth": 1, "values": [0.0, 1.0]}
    grid[key] = value
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(grid))
    code, out, err = _run(capsys, [
        "compute", "--input", str(path), "--norm", "jn"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "integers" in err and "Traceback" not in err


@pytest.mark.parametrize("values,reason", [
    pytest.param("[1" + "0" * 400 + ", 0]", "not valid JSON",
                 id="401-digit-int"),       # overflows a double
    ("[1e400, 0]", "not valid JSON"),
    ("[NaN, 0]", "not valid JSON"),
    ("[Infinity, 0]", "not valid JSON"),
    ("[-Infinity, 0]", "not valid JSON"),
    ('["1", "2"]', "numbers"),
    ("[true, false]", "numbers"),
    ("[null, 1]", "numbers"),
    ("[0.5, true]", "numbers"),
    ("[[0, 1]]", "shape (1, 2)"),
])
@pytest.mark.parametrize("command", ["compute", "maximal"])
def test_cli_refuses_values_that_are_not_numbers(tmp_path, capsys, values,
                                                 reason, command):
    """Anything in ``values`` but a finite JSON number exits 2 with one
    ``error:`` line: no traceback, and no coercion of strings, booleans or
    null to floats."""
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 1, "depth": 1, "values": %s}' % values)
    argv = [command, "--input", str(path)]
    code, out, err = _run(capsys, argv + (["--norm", "bmo"]
                                          if command == "compute" else []))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert reason in err and "Traceback" not in err


def test_compute_ri_functionals(step_file, capsys):
    code, out, _ = _run(capsys, [
        "compute", "--input", step_file, "--norm", "weaklp", "--p", "2"])
    assert code == 0
    assert json.loads(out)["value_lower"] == pytest.approx(math.sqrt(0.5))
    code, out, _ = _run(capsys, [
        "compute", "--input", step_file, "--norm", "llogl"])
    assert code == 0
    assert json.loads(out)["value_lower"] > 0
    code, _, err = _run(capsys, [
        "compute", "--input", step_file, "--norm", "weaklp", "--p", "1"])
    assert code == 2 and "p > 1" in err


def test_compute_missing_file(capsys):
    code, _, err = _run(capsys, [
        "compute", "--input", "/nonexistent/grid.json", "--norm", "jn"])
    assert code == 2
    assert "error:" in err


def test_compute_writes_out_file(step_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, [
        "compute", "--input", step_file, "--norm", "garo", "--p", "2",
        "--out", str(out_path)])
    assert code == 0 and out == ""
    d = json.loads(out_path.read_text())
    assert d["value_lower"] == pytest.approx(0.5)


def test_maximal_round_trip(step_file, capsys):
    code, out, _ = _run(capsys, [
        "maximal", "--input", step_file, "--q", "1", "--lambda", "0.0"])
    assert code == 0
    d = json.loads(out)
    assert d["values"] == pytest.approx([0.5, 1.0])
    assert d["dimension"] == 1 and d["depth"] == 1
    # output is a valid grid-function payload modulo the extra keys
    g = GridFunction(d["dimension"], d["depth"], d["values"])
    assert g.values.tolist() == d["values"]


@pytest.mark.parametrize("dimension,depth", [(1, 6), (2, 3)])
@pytest.mark.parametrize("q,lam", [(1, 0.0), (2, 0.5)])
def test_maximal_writes_the_stdlib_encoders_bytes(tmp_path, capsys, dimension,
                                                  depth, q, lam):
    """The spliced ``values`` list reads byte for byte as the stdlib's
    indented encoder writes the payload, on grids with ``-0.0``, a
    subnormal and values near the float limit."""
    from oscnorm.maximal import fractional_maximal
    rng = np.random.default_rng(dimension * 10 + q)
    values = rng.normal(0, 1, 1 << (dimension * depth))
    big = 1.7976931348623157e308 if q == 1 else 1.3407807929942596e154
    values[:4] = -0.0, 5e-324, big / 64, -big / 80   # the sums stay finite
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(
        {"dimension": dimension, "depth": depth, "values": values.tolist()}))
    code, out, _ = _run(capsys, [
        "maximal", "--input", str(path), "--q", str(q), "--lambda", str(lam)])
    assert code == 0
    res = fractional_maximal(GridFunction(dimension, depth, values), q, lam)
    payload = {"schema": 1, "input": str(path), "q": q, "lambda": lam,
               "dimension": dimension, "depth": depth,
               "values": res.values.values.tolist()}
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_emit_splices_float_arrays_as_the_stdlib_encoder_writes_them():
    signed = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 0.1,
                       1e16, 1.7976931348623157e308,
                       -1.7976931348623157e308])
    for values in (signed, signed[:1], np.zeros(0)):
        payload = {"a": 1, "values": values, "z": [0.5]}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit(payload, None)
        want = {**payload, "values": values.tolist()}
        assert out.getvalue() == json.dumps(want, sort_keys=True,
                                            indent=2) + "\n"
    with pytest.raises(ValueError, match="not finite"):
        _emit({"values": np.array([0.0, np.inf])}, None)


def test_maximal_rejects_bad_lambda(step_file, capsys):
    code, _, err = _run(capsys, [
        "maximal", "--input", step_file, "--lambda", "1.5"])
    assert code == 2
    assert "lambda" in err


def test_verify_round_trip(tmp_path, capsys):
    out_path = tmp_path / "suite.json"
    code, _, err = _run(capsys, [
        "verify", "--suite", "riesz", "--depth", "3", "--trials", "10",
        "--out", str(out_path)])
    assert code == 0
    assert "[PASS] riesz: riesz-identity" in err
    d = json.loads(out_path.read_text())
    assert d["passed"] is True and d["schema"] == 1


def test_verify_stdout_and_determinism(capsys):
    argv = ["verify", "--suite", "sparse-jn", "--trials", "10"]
    code_a, out_a, _ = _run(capsys, argv)
    code_b, out_b, _ = _run(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b                 # byte-identical reports
    assert json.loads(out_a)["suite"] == "sparse-jn"


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2            # argparse choices failure


@pytest.mark.parametrize("argv,reason", [
    (["--depth", "-1"], "depth must be >= 0"),
    # the guard fires before NumPy is asked for the 13 GB batch
    (["--dim", "2", "--depth", "12"], "limit 4194304"),
])
def test_verify_rejects_bad_sizes(capsys, argv, reason):
    code, out, err = _run(capsys, ["verify", "--suite", "riesz", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and reason in err
    assert err.count("\n") == 1          # one line, no traceback


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_rejects_negative_seed(capsys, suite):
    code, out, err = _run(capsys, ["verify", "--suite", suite,
                                   "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"   # no traceback


@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.parametrize("dim", ["1", "2"])
def test_verify_depth_0_writes_strict_json_or_exits_2(capsys, suite, dim):
    """A one-cell grid has no oscillation: a suite either reports on it in
    strict JSON or refuses it in one line."""
    code, out, err = _run(capsys, ["verify", "--suite", suite, "--dim", dim,
                                   "--depth", "0", "--trials", "5"])
    assert "Traceback" not in err
    if code == 0:
        d = json.loads(out, parse_constant=_no_constant)
        assert d["passed"] is True
    else:
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_never_fails_at_its_defaults(capsys, suite):
    """At its CLI defaults every suite passes, or refuses the depth in one
    line: ``jn-extrapolation`` needs depth 4, where its 5% depth-stability
    bound starts to hold."""
    code, out, err = _run(capsys, ["verify", "--suite", suite])
    if suite == "jn-extrapolation":
        assert (code, out) == (2, "")
        assert err == ("error: jn-extrapolation needs depth >= 4; below it "
                       "the ratios are still converging\n")
    else:
        assert code == 0, err
        assert json.loads(out)["passed"] is True


def test_parser_rejects_bad_p(step_file):
    with pytest.raises(SystemExit):
        main(["compute", "--input", step_file, "--norm", "jn", "--p", "0.5"])


def test_parser_accepts_inf(step_file, capsys):
    code, out, _ = _run(capsys, [
        "compute", "--input", step_file, "--norm", "jn", "--p", "inf"])
    assert code == 0
    assert json.loads(out)["params"]["p"] == "inf"


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


@pytest.mark.parametrize("norm", _NORM_KEYS)
@pytest.mark.parametrize("p", ["2", "inf"])
@pytest.mark.parametrize("mode", ["exact", "bounds"])
@pytest.mark.parametrize("dimension", [1, 2])
def test_compute_reports_are_strict_json(tmp_path, capsys, norm, p, mode,
                                         dimension):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(
        {"dimension": dimension, "depth": 3 - dimension,
         "values": [0.1, 2.0, 0.5, 3.0]}))
    code, out, _ = _run(capsys, [
        "compute", "--input", str(path), "--norm", norm, "--p", p,
        "--mode", mode])
    assert code == 0
    d = json.loads(out, parse_constant=_no_constant)
    assert d["value_lower"] <= d["value_upper"]


@pytest.mark.parametrize("argv,flag", [
    (["--norm", "jn", "--p", "nan"], "--p"),
    (["--norm", "weaklp", "--p", "NaN"], "--p"),
    (["--norm", "v", "--lambda", "nan"], "--lambda"),
    (["--norm", "sv", "--k", "2", "--q", "1", "--lambda", "nan",
      "--mode", "bounds"], "--lambda"),
    (["--norm", "jn", "--lambda", "inf"], "--lambda"),
    (["--norm", "svt", "--lambda=-inf"], "--lambda"),
])
def test_compute_rejects_non_finite_flags(step_file, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--input", step_file, *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and f"argument {flag}:" in errors[0]
    assert "Traceback" not in captured.err


# -- the report writer -----------------------------------------------------

@st.composite
def witnesses(draw):
    """None, an empty family, a singleton, or a random member set repaired
    into a valid family by dropping each cube ``validate_index`` reports."""
    shape = draw(st.sampled_from([(1, 0), (1, 4), (2, 0), (2, 2), (2, 3)]))
    n, depth = shape
    what = draw(st.sampled_from(["none", "empty", "singleton", "random"]))
    if what == "none":
        return None
    if what == "empty":
        empty = np.zeros(0, dtype=np.int64)
        return CubeFamily(n, depth, "packing", None, empty, empty, empty)
    nodes = tree_size(depth, n)
    members = ([draw(st.integers(0, nodes - 1))] if what == "singleton"
               else sorted(draw(st.sets(st.integers(0, nodes - 1),
                                        min_size=1))))
    order = draw(st.sampled_from(["packing", "weak", 0.5, 1.0]))
    index = np.array(members, dtype=np.int64)
    while True:
        fam = validate_index(index, order, dimension=n, depth=depth)
        if isinstance(fam, CubeFamily):
            return fam
        index = index[index != cube_index(fam.cube, n)]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(witnesses(), st.text(), FINITE,
       st.dictionaries(st.sampled_from(["aa", "jn_value", "reference_fit_error",
                                        "weighted_value", "zz"]), FINITE))
def test_emit_matches_stdlib_encoder(witness, input_path, value, extras):
    payload = {"schema": 1, "norm": "jn", "input": input_path,
               "value_lower": value, "value_upper": 1e16, "exact": False,
               "params": {"p": "inf", "lambda": 1e-05, "family_order": None},
               "dyadic": True, "witness": None, **extras}
    want = json.dumps(
        {**payload, "witness": None if witness is None
         else witness.to_json_dict()}, sort_keys=True, indent=2) + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload, None, witness)
    assert out.getvalue() == want


# -- values at the float limit, through ``python -m oscnorm`` -----------------
# A subprocess with a timeout, so that a gauge that never returns fails the
# test instead of stalling the run, and so that the overflow RuntimeWarnings
# the norms raise on such input stay out of the test process.

NEAR_FLOAT_MAX = {"dimension": 1, "depth": 1, "values": [1.7e308, 1.7e308]}


@pytest.fixture
def huge_file(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(NEAR_FLOAT_MAX))
    return str(path)


def _subprocess_env():
    """The environment with this checkout's ``src`` on ``PYTHONPATH``."""
    import oscnorm
    src = os.path.dirname(os.path.dirname(oscnorm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _run_module(argv):
    return subprocess.run([sys.executable, "-m", "oscnorm", *argv],
                          capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)


def test_cli_import_and_sjn_compute_leave_scipy_unloaded(step_file, tmp_path):
    """No route of the library needs scipy: neither importing the CLI, nor
    an ``sjn`` compute, nor a certified ``L^1`` fit in 1D (``k = 2, 3``)
    or 2D (``k = 2, 3``), nor an uncertified 2D quadratic one, nor a ``v``
    compute at ``k = 3, q = 1`` on a 2D grid loads it."""
    grid = tmp_path / "grid2d.json"
    grid.write_text(json.dumps({"dimension": 2, "depth": 2, "values":
                                np.random.default_rng(0).uniform(
                                    0.0, 1.0, 16).tolist()}))
    script = (
        "import contextlib, io, sys\n"
        "import oscnorm.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = oscnorm.cli.main(['compute', '--input', sys.argv[1],\n"
        "                             '--norm', 'sjn', '--p', '2'])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'compute'\n"
        "import numpy as np\n"
        "from oscnorm import CubeId, GridFunction, best_fit\n"
        "from oscnorm.local_poly import poly_error\n"
        "rng = np.random.default_rng(0)\n"
        "for n, k in ((1, 2), (1, 3), (2, 2), (2, 3)):\n"
        "    f = GridFunction(n, 6 // n, rng.uniform(0.0, 1.0, 64))\n"
        "    fit = best_fit(f, CubeId(0, (0,) * n), k, 1)\n"
        "    assert 1.0 <= fit.near_best_factor < 1.000001, (n, k)\n"
        "assert poly_error(f, CubeId(1, (0, 1)), 3, 1) > 0.0\n"
        "assert 'scipy' not in sys.modules, 'best_fit'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = oscnorm.cli.main(['compute', '--input', sys.argv[2],\n"
        "                             '--norm', 'v', '--k', '3',\n"
        "                             '--q', '1'])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'compute v'\n")
    proc = subprocess.run([sys.executable, "-c", script, step_file, str(grid)],
                          capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


def _declared_dependencies():
    """The distribution names of ``[project] dependencies`` in
    ``pyproject.toml``, normalised."""
    tomllib = pytest.importorskip("tomllib")
    import oscnorm
    root = os.path.dirname(os.path.dirname(os.path.dirname(oscnorm.__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9._-]+", r)[0].lower().replace("_", "-")
            for r in requirements}


def test_cli_loads_only_declared_dependencies(tmp_path):
    """Importing the CLI and running one ``compute`` loads no third-party
    package but those ``pyproject.toml`` declares; anything loaded before
    the import (by ``.pth`` files at start-up) is not counted."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"dimension": 1, "depth": 6, "values":
                                np.random.default_rng(0).uniform(
                                    0.0, 1.0, 64).tolist()}))
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io\n"
        "import oscnorm.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = oscnorm.cli.main(['compute', '--input', sys.argv[1],\n"
        "                             '--norm', 'sjn', '--p', '2',\n"
        "                             '--mode', 'bounds'])\n"
        "assert code == 0, code\n"
        "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "from importlib.metadata import packages_distributions\n"
        "owners = packages_distributions()\n"
        "print(' '.join(sorted({d for top in new\n"
        "                       for d in owners.get(top, ())})))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(grid)],
                          capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {d.lower().replace("_", "-") for d in proc.stdout.split()}
    loaded.discard("oscnorm")     # the library itself, when installed
    declared = _declared_dependencies()
    assert loaded <= declared, sorted(loaded - declared)
    assert {"numpy", "orjson"} <= loaded


def test_library_imports_no_scipy():
    """No module of the library imports scipy, at the top or inside a
    function: scipy is only a test dependency."""
    import ast
    import oscnorm
    package = os.path.dirname(oscnorm.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [node.module or ""]
            else:
                continue
            assert not any(r.split(".")[0] == "scipy" for r in roots), name


def _error_lines(stderr):
    return [ln for ln in stderr.splitlines() if ln.startswith("error:")]


def test_compute_llogl_near_float_limit_exits_2(huge_file):
    proc = _run_module(["compute", "--input", huge_file, "--norm", "llogl"])
    assert proc.returncode == 2 and proc.stdout == ""
    errors = _error_lines(proc.stderr)
    assert len(errors) == 1 and "float limit" in errors[0]


@pytest.mark.parametrize("norm", _NORM_KEYS)
def test_compute_near_float_limit_writes_json_or_exits_2(huge_file, norm):
    """Sums of these values overflow.  The median route sums deviations
    from the median, and the ``L^2`` fit under the sparse brackets takes
    each cube's values relative to its first cell, so the oscillation norms
    read the zero oscillation of a constant; weak-L^p never sums.  The
    ``L log L`` gauge has a non-finite value, which JSON cannot hold:
    stderr is the one ``error:`` line, with no warning before it."""
    proc = _run_module(["compute", "--input", huge_file, "--norm", norm,
                        "--mode", "bounds"])
    if norm != "llogl":
        assert proc.returncode == 0 and proc.stderr == ""
        d = json.loads(proc.stdout, parse_constant=_no_constant)
        want = 1.7e308 if norm == "weaklp" else 0.0
        assert d["value_lower"] == d["value_upper"] == want
    else:
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines == _error_lines(proc.stderr)


def test_compute_weaklp_near_float_limit_is_silent(huge_file):
    """weak-L^p never sums the values, so nothing overflows on the way."""
    proc = _run_module(["compute", "--input", huge_file, "--norm", "weaklp"])
    assert proc.returncode == 0 and proc.stderr == ""


def test_maximal_near_float_limit_exits_2(huge_file):
    proc = _run_module(["maximal", "--input", huge_file, "--q", "2"])
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines == _error_lines(proc.stderr)
    assert "finite" in lines[0]
