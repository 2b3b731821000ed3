"""Dyadic grid plumbing: cube ids, moments, JSON round trips."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnorm.grid import (CubeId, GridFunction, average, children, cube_index,
                          iter_cubes, moment, multi_indices, tree_size)


def test_children_1d():
    got = children(CubeId(0, (0,)))
    assert got == [CubeId(1, (0,)), CubeId(1, (1,))]


def test_children_2d_quadrants():
    got = children(CubeId(0, (0, 0)))
    assert len(got) == 4
    assert sum(c.measure for c in got) == pytest.approx(1.0, abs=0)
    # row-major: axis 0 slowest
    assert got == [CubeId(1, (0, 0)), CubeId(1, (0, 1)),
                   CubeId(1, (1, 0)), CubeId(1, (1, 1))]


def test_children_finest_level_errors():
    with pytest.raises(ValueError, match="finest"):
        children(CubeId(2, (0,)), 2)


def test_cube_geometry():
    c = CubeId(2, (1,))
    assert c.side == 0.25
    assert c.measure == 0.25
    assert c.lower == (0.25,)
    assert c.center == (0.375,)
    assert c.parent() == CubeId(1, (0,))
    assert c.ancestor(0) == CubeId(0, (0,))
    assert CubeId(0, (0,)).contains(c)
    assert not c.contains(CubeId(2, (2,)))


def test_cube_validation():
    with pytest.raises(ValueError):
        CubeId(1, (2,))          # coord out of range
    with pytest.raises(ValueError):
        CubeId(-1, (0,))
    with pytest.raises(ValueError):
        CubeId(0, (0,)).parent()  # root has no parent


def test_cube_needs_an_axis():
    with pytest.raises(ValueError, match="at least one axis"):
        CubeId(0, ())


@pytest.mark.parametrize("level", [-1, 3])
def test_ancestor_level_out_of_range(level):
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\]"):
        CubeId(2, (1,)).ancestor(level)


def test_contains_refuses_another_dimension():
    with pytest.raises(ValueError, match="different dimensions"):
        CubeId(0, (0,)).contains(CubeId(0, (0, 0)))


def test_contains_is_false_for_a_coarser_cube():
    assert not CubeId(1, (0,)).contains(CubeId(0, (0,)))
    assert not CubeId(2, (0, 1)).contains(CubeId(1, (0, 0)))


def test_iter_cubes_and_index_round_trip():
    for n in (1, 2):
        cubes = list(iter_cubes(3 if n == 1 else 2, n))
        assert len(cubes) == tree_size(3 if n == 1 else 2, n)
        for i, c in enumerate(cubes):
            assert cube_index(c, n) == i


def test_tree_size_values():
    assert tree_size(3, 1) == 15
    assert tree_size(5, 1) == 63
    assert tree_size(2, 2) == 21


def test_average_and_moment_examples():
    f = GridFunction(1, 1, [0.0, 1.0])
    root = CubeId(0, (0,))
    assert average(f, root) == pytest.approx(0.5)
    # integral of x * f over [0,1): f is 1 on [1/2, 1) -> 3/8
    assert moment(f, root, (1,)) == pytest.approx(0.375, abs=1e-15)
    g = GridFunction(2, 1, [1.0, 2.0, 3.0, 4.0])
    assert average(g, CubeId(1, (1, 0))) == pytest.approx(3.0)
    assert average(g, CubeId(0, (0, 0))) == pytest.approx(2.5)


def test_moment_against_direct_quadrature():
    rng = np.random.default_rng(5)
    f = GridFunction(1, 3, rng.uniform(-1, 1, 8))
    c = CubeId(1, (1,))
    for m in range(5):
        edges = np.linspace(0, 1, 9)
        exact = sum(
            v * (edges[i + 1] ** (m + 1) - edges[i] ** (m + 1)) / (m + 1)
            for i, v in enumerate(f.values) if edges[i] >= 0.5 - 1e-12
        )
        got = moment(f, c, (m,))
        print(f"m={m}: moment={got:.12f} direct={exact:.12f}")
        assert got == pytest.approx(exact, abs=1e-14)


def test_moment_on_finest_cells_against_fractions():
    """On small cells far from 0 the per-cell monomial factor does not
    cancel: sampled finest cells of a depth-16 grid, orders 1-4."""
    depth = 16
    rng = np.random.default_rng(3)
    f = GridFunction(1, depth, rng.uniform(0.0, 1.0, 1 << depth))
    cells = rng.integers(0, 1 << depth, 200)
    for i in (*cells, (1 << depth) - 1):
        c = CubeId(depth, (int(i),))
        a, b = Fraction(int(i), 1 << depth), Fraction(int(i) + 1, 1 << depth)
        for m in range(1, 5):
            exact = (Fraction(float(f.values[i]))
                     * (b ** (m + 1) - a ** (m + 1)) / (m + 1))
            got = Fraction(moment(f, c, (m,)))
            assert abs(got - exact) <= abs(exact) * 1e-15, (int(i), m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 4), st.integers(0, 1))
def test_moment_additivity(seed, order, lvl):
    """Integral over a cube equals the sum over its children."""
    rng = np.random.default_rng(seed)
    f = GridFunction(1, 2, rng.uniform(-3, 3, 4))
    c = CubeId(lvl, (0,))
    total = sum(moment(f, k, (order,)) for k in children(c, 2))
    assert moment(f, c, (order,)) == pytest.approx(total, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_moment_additivity_2d(seed):
    rng = np.random.default_rng(seed)
    f = GridFunction(2, 2, rng.uniform(-3, 3, 16))
    root = CubeId(0, (0, 0))
    for alpha in ((0, 0), (1, 0), (1, 1), (2, 2)):
        total = sum(moment(f, k, alpha) for k in children(root, 2))
        assert moment(f, root, alpha) == pytest.approx(total, abs=1e-12)


def test_multi_indices_graded():
    idx = multi_indices(2, 2)
    assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    totals = [sum(a) for a in idx]
    assert totals == sorted(totals)


def test_gridfunction_validation():
    with pytest.raises(ValueError):
        GridFunction(1, 2, [1.0, 2.0, 3.0])     # wrong length
    with pytest.raises(ValueError):
        GridFunction(1, 1, [1.0, float("nan")])
    with pytest.raises(ValueError):
        GridFunction(3, 1, [0.0] * 8)           # unsupported dimension


def test_gridfunction_refuses_a_negative_depth():
    with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
        GridFunction(1, -1, [0.0])


def test_2d_values_must_be_square():
    """A 2-D array is read as the grid only in its own shape: any other
    shape with the right count is refused, not raveled."""
    flat = np.arange(16.0)
    f = GridFunction(2, 2, flat.reshape(4, 4))
    assert f.values.tobytes() == GridFunction(2, 2, flat).values.tobytes()
    for shape in ((2, 8), (8, 2), (1, 16)):
        with pytest.raises(ValueError, match=r"need 16 cell values .* got "
                           rf"array of shape \({shape[0]}, {shape[1]}\)"):
            GridFunction(2, 2, flat.reshape(shape))


def test_gridfunction_fields_are_its_inputs():
    """Nothing derived is held on a grid."""
    names = [fl.name for fl in dataclasses.fields(GridFunction)]
    assert names == ["dimension", "depth", "values"]


def test_gridfunction_values_read_only():
    f = GridFunction(1, 1, [1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 7.0


def test_json_round_trip(tmp_path):
    f = GridFunction(2, 1, [1.0, 2.0, 3.0, 4.0])
    path = tmp_path / "f.json"
    path.write_text(f.to_json())
    g = GridFunction.from_file(str(path))
    assert g.dimension == 2 and g.depth == 1
    assert np.array_equal(g.values, f.values)

    blob = json.loads(f.to_json())
    assert set(blob) == {"dimension", "depth", "values"}


def test_from_json_errors():
    with pytest.raises(ValueError, match="missing keys"):
        GridFunction.from_json(json.dumps({"depth": 1, "values": [0, 1]}))
    with pytest.raises(ValueError, match="values"):
        GridFunction.from_json(json.dumps(
            {"dimension": 1, "depth": 1, "values": "abc"}))
    with pytest.raises(ValueError, match="JSON"):
        GridFunction.from_json("not json {")


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"grid"', "null"])
def test_from_json_refuses_a_non_object(text):
    with pytest.raises(ValueError, match="must be an object"):
        GridFunction.from_json(text)


@pytest.mark.parametrize("alpha, match", [
    ((1,), "has 1 axes, grid has 2"),
    ((0, 0, 0), "has 3 axes, grid has 2"),
    ((1, -1), "must be nonnegative"),
])
def test_moment_refuses_a_bad_multi_index(alpha, match):
    f = GridFunction(2, 1, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=match):
        moment(f, CubeId(0, (0, 0)), alpha)


def _parse_both(texts):
    """``from_json`` and the stdlib's ``json.loads`` on one grid holding
    the decimal strings ``texts``; both as uint64 bit patterns."""
    doc = '{"dimension": 1, "depth": %d, "values": [%s]}' % (
        (len(texts) - 1).bit_length(), ",".join(texts))
    got = GridFunction.from_json(doc).values
    want = np.asarray(json.loads(doc)["values"], dtype=np.float64)
    return got.view(np.uint64), want.view(np.uint64)


def _pad(texts):
    """``texts`` padded with ``"0"`` to a power-of-two length."""
    return texts + ["0"] * ((1 << (len(texts) - 1).bit_length()) - len(texts))


def test_from_json_keeps_the_bits_of_json_loads():
    """Every decimal parses to the double ``json.loads`` gives: random bit
    patterns (subnormals, both zeros, both float limits) written
    shortest, to 17 and to 25 digits, exact decimal midpoints between
    adjacent doubles (the ties of round-half-even, among them integers
    past ``2**64``), ``2**53 + 1``, and ``1e-400``, which underflows to
    ``0.0``."""
    from decimal import Decimal, localcontext
    rng = np.random.default_rng(2024)
    doubles = rng.integers(0, 1 << 64, 1024, dtype=np.uint64).view(np.float64)
    doubles = np.concatenate([
        doubles[np.isfinite(doubles)],
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         2.225073858507201e-308, 1.7976931348623157e308,
         -1.7976931348623157e308]]).tolist()
    texts = [t for x in doubles for t in (repr(x), f"{x:.17g}", f"{x:.24e}")]
    with localcontext() as ctx:
        ctx.prec = 1200           # exact: a midpoint has < 800 digits
        for x in doubles[:1024] + [1.0, 2.0 ** 64, 1.5e300, 5e-324]:
            up = np.nextafter(x, np.inf)
            if np.isfinite(up):
                texts.append(str((Decimal(x) + Decimal(float(up))) / 2))
    texts += ["9007199254740993", "-9007199254740993", "1e-400", "-1e-400",
              "18446744073709551615", "18446744073709551616",
              "-9223372036854775809", "1" + "0" * 308]
    got, want = _parse_both(_pad(texts))
    assert np.array_equal(got, want)
    assert got[texts.index("9007199254740993")] == np.float64(2.0 ** 53).view(
        np.uint64)
    assert got[texts.index("1e-400")] == 0
    assert got[texts.index("-1e-400")] == np.float64(-0.0).view(np.uint64)


def test_from_json_accepts_square_rows_in_2d():
    rows = np.arange(16.0).reshape(4, 4)
    f = GridFunction.from_json(json.dumps(
        {"dimension": 2, "depth": 2, "values": rows.tolist()}))
    assert np.array_equal(f.values, rows.ravel())


@pytest.mark.parametrize("values,match", [
    (["1", "2"], "numbers"),
    ([True, False], "numbers"),
    ([None, 1], "numbers"),
    ([1.0, [2.0]], "numbers"),
    ([[0, 1], [2, None]], "numbers"),
    ([[0, 1], [2, 3, 4]], "differ in length"),
    ({"a": 1}, "numbers"),
])
def test_from_json_refuses_what_is_not_a_number(values, match):
    with pytest.raises(ValueError, match=match):
        GridFunction.from_json(json.dumps(
            {"dimension": 1, "depth": 1, "values": values}))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400",
                                     "1" + "0" * 400])
def test_from_json_refuses_non_finite_literals_as_invalid_json(literal):
    with pytest.raises(ValueError, match="not valid JSON"):
        GridFunction.from_json(
            '{"dimension": 1, "depth": 1, "values": [0, %s]}' % literal)


def test_integral_matches_mean_of_cells():
    rng = np.random.default_rng(11)
    vals = rng.uniform(0, 1, 16)
    f = GridFunction(2, 2, vals)
    assert f.integral() == pytest.approx(vals.mean(), abs=1e-15)


def test_cell_block_view():
    f = GridFunction(2, 2, np.arange(16.0))
    block = f.cell_block(CubeId(1, (0, 1)))
    assert block.shape == (2, 2)
    assert np.array_equal(block, f.values_nd[0:2, 2:4])
