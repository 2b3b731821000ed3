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
from oscnorm.norms import _fit_error_levels


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


def test_replace_builds_its_own_tables():
    """Error levels derived from the values are never carried to new
    values."""
    f = GridFunction(1, 2, [1.0, 2.0, 3.0, 4.0])
    assert f.integral() == 2.5
    held = _fit_error_levels(f, 2, 1)
    zeros = dataclasses.replace(f, values=np.zeros(4))
    assert zeros.integral() == 0.0
    assert zeros._error_levels == {}
    assert not np.concatenate(_fit_error_levels(zeros, 2, 1)).any()
    assert _fit_error_levels(f, 2, 1) is held
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(f, _error_levels=f._error_levels)


def test_derived_tables_are_not_arguments():
    with pytest.raises(TypeError):
        GridFunction(1, 2, np.zeros(4), {})
    with pytest.raises(TypeError):
        GridFunction(1, 2, np.zeros(4), _error_levels={})
