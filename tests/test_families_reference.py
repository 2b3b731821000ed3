"""The array family core against the per-cube loops it replaced.

``loop_validate`` (a structure build over dicts of cubes followed by
per-member checks) and ``loop_cz_members`` (the queue walk of the stopping
time) are the former implementations, kept as references.  The arithmetic
is unchanged, so members, children, core cells, core measures and the first
violation must agree exactly, and so must every row of the batched family
tables.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnorm.families import (COMPARE_TOL, CubeFamily, SparsityViolation,
                              cz_family, family_tables, validate)
from oscnorm.grid import CubeId, GridFunction, children, cube_index, iter_cubes
from oscnorm.maximal import level_integrals

ORDERS = ("packing", 0.5, 1.0)
SHAPES = ((1, 1), (1, 2), (1, 3), (1, 5), (2, 1), (2, 2), (2, 3))


# -- the loop references ---------------------------------------------------------

def _cells_of(cube, depth):
    s = 1 << (depth - cube.level)
    if cube.dimension == 1:
        start = cube.coords[0] * s
        return np.arange(start, start + s)
    side = 1 << depth
    rows = np.arange(cube.coords[0] * s, (cube.coords[0] + 1) * s)
    cols = np.arange(cube.coords[1] * s, (cube.coords[1] + 1) * s)
    return (rows[:, None] * side + cols[None, :]).ravel()


def _build_structure(cubes, dimension, depth):
    members = sorted(set(cubes), key=lambda c: cube_index(c, dimension))
    member_set = set(members)
    children_map = {c: [] for c in members}
    for c in members:
        walk = c
        while walk.level > 0:
            walk = walk.parent()
            if walk in member_set:
                children_map[walk].append(c)
                break
    core_cells = {}
    for c in members:
        cells = _cells_of(c, depth)
        kids = children_map[c]
        if kids:
            taken = np.concatenate([_cells_of(k, depth) for k in kids])
            cells = np.setdiff1d(cells, taken, assume_unique=True)
        core_cells[c] = tuple(int(i) for i in cells)
    return members, {c: tuple(k) for c, k in children_map.items()}, core_cells


def loop_validate(cubes, order, dimension, depth):
    """(members, children_map, core_cells, kind, order) or a violation."""
    return loop_classify(_build_structure(cubes, dimension, depth), order,
                         dimension, depth)


def loop_classify(structure, order, dimension, depth):
    """The per-member checks of :func:`loop_validate` on a built
    structure."""
    members, children_map, core_cells = structure
    if order == "packing":
        for c in members:
            if children_map[c]:
                return SparsityViolation(
                    c, "packing (pairwise non-nested)",
                    float(len(children_map[c])), 0.0)
        kind, order_val = "packing", None
    else:
        t = float(order)
        for c in members:
            lhs = sum(k.measure ** t for k in children_map[c])
            rhs = 0.5 * c.measure ** t
            if lhs > rhs + COMPARE_TOL:
                return SparsityViolation(c, f"sparse(order {t:g})", lhs, rhs)
        kind, order_val = "sparse", t
    return tuple(members), children_map, core_cells, kind, order_val


def loop_cz_members(g, factor):
    n, depth = g.dimension, g.depth
    integrals = level_integrals(g.values_nd * g.cell_measure, n, depth)

    def avg(cube):
        if n == 1:
            return float(integrals[cube.level][cube.coords[0]]) / cube.measure
        return float(integrals[cube.level][cube.coords]) / cube.measure

    members = []

    def select(cube):
        members.append(cube)
        threshold = factor * avg(cube)
        if cube.level >= depth:
            return
        queue = list(children(cube, depth))
        while queue:
            cand = queue.pop(0)
            if avg(cand) > threshold:
                select(cand)
            elif cand.level < depth:
                queue.extend(children(cand, depth))

    select(CubeId(0, (0,) * n))
    return members


# -- comparison ----------------------------------------------------------------

def assert_same(got, want):
    if isinstance(want, SparsityViolation):
        assert isinstance(got, SparsityViolation)
        assert (got.cube, got.condition) == (want.cube, want.condition)
        assert (got.lhs, got.rhs) == (want.lhs, want.rhs)
        return
    members, children_map, core_cells, kind, order = want
    assert isinstance(got, CubeFamily)
    assert (got.kind, got.order) == (kind, order)
    assert got.cubes == members
    assert got.children_map == children_map
    assert got.core_cells == core_cells
    cell = 2.0 ** (-got.dimension * got.depth)
    for c in members:
        assert got.core_measure(c) == len(core_cells[c]) * cell


def random_family(seed, dimension, depth):
    """A nonempty random member list: a Bernoulli subset of the tree, or
    part of one level (a packing), with duplicates and shuffled order."""
    rng = np.random.default_rng(seed)
    cubes = list(iter_cubes(depth, dimension))
    if rng.random() < 0.25:
        lvl = int(rng.integers(0, depth + 1))
        pool = [c for c in cubes if c.level == lvl]
        picked = [c for c in pool if rng.random() < 0.6] or pool[:1]
    else:
        density = rng.choice([0.05, 0.2, 0.5, 0.9])
        picked = [c for c in cubes if rng.random() < density]
        picked = picked or [cubes[int(rng.integers(0, len(cubes)))]]
    picked = picked + picked[:int(rng.integers(0, 3))]
    return [picked[i] for i in rng.permutation(len(picked))]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(SHAPES),
       st.sampled_from(ORDERS))
def test_validate_matches_loop_reference(seed, shape, order):
    n, depth = shape
    cubes = random_family(seed, n, depth)
    assert_same(validate(cubes, order, dimension=n, depth=depth),
                loop_validate(cubes, order, n, depth))


def _density(seed, n, depth, dist):
    rng = np.random.default_rng(seed)
    size = 1 << (n * depth)
    if dist == "lognormal":
        return rng.lognormal(0.0, 1.5, size)
    if dist == "spikes":      # mostly zero: deep stopping chains
        return np.where(rng.random(size) < 0.05, rng.exponential(50.0, size),
                        0.0)
    return rng.integers(0, 4, size).astype(float)   # ties at the threshold


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(1, 1), (1, 4), (1, 8), (2, 1), (2, 3), (2, 4)]),
       st.sampled_from(["lognormal", "spikes", "integers"]),
       st.sampled_from([1.5, 2.0, 3.0]))
def test_cz_family_matches_queue_reference(seed, shape, dist, factor):
    n, depth = shape
    g = GridFunction(n, depth, _density(seed, n, depth, dist))
    members = loop_cz_members(g, factor)
    want = loop_validate(members, 1.0, n, depth)
    if isinstance(want, SparsityViolation):
        # factor < 2 can leave sparse(1); both must refuse alike
        with pytest.raises(ValueError) as exc:
            cz_family(g, factor)
        assert str(want) in str(exc.value)
        return
    got = cz_family(g, factor)
    assert_same(got, want)
    for order in ORDERS:
        assert_same(validate(got.cubes, order, dimension=n, depth=depth),
                    loop_validate(members, order, n, depth))


# -- family tables ---------------------------------------------------------------

TABLE_ORDERS = ("packing", 1.0, 0.75, 0.5, 0.25)


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 3), (2, 1)])
def test_family_tables_match_loop_classifier(shape):
    """Every nonempty member set of the tree, classified one at a time by
    the loop reference (one structure build per mask, checked for each
    order), rebuilds the batched tables row for row."""
    n, depth = shape
    cubes = list(iter_cubes(depth, n))
    nodes = len(cubes)
    cell = 2.0 ** (-n * depth)
    want = {order: ([], [], []) for order in TABLE_ORDERS}
    for mask in range(1, 1 << nodes):
        members = [cubes[i] for i in range(nodes) if mask >> i & 1]
        structure = _build_structure(members, n, depth)
        for order in TABLE_ORDERS:
            got = loop_classify(structure, order, n, depth)
            if isinstance(got, SparsityViolation):
                continue
            _, _, core_cells, _, _ = got
            core, meas = np.zeros(nodes), np.zeros(nodes)
            for c in members:
                core[cube_index(c, n)] = len(core_cells[c]) * cell
                meas[cube_index(c, n)] = c.measure
            masks, core_rows, cube_rows = want[order]
            masks.append(mask)
            core_rows.append(core)
            cube_rows.append(meas)
    for order in TABLE_ORDERS:
        tab = family_tables(n, depth, order)
        masks, core_rows, cube_rows = want[order]
        assert tab.masks.tolist() == masks
        assert np.array_equal(tab.core_meas, np.array(core_rows))
        assert np.array_equal(tab.cube_meas, np.array(cube_rows))
