"""Cube families: validation, enumeration, stopping times, antichain totals."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnorm.families import (SUBSET_NODE_CAP, CubeFamily, SparsityViolation,
                              checked, cz_family, enumerable, family_tables,
                              validate, validate_index)
from oscnorm.grid import (CubeId, GridFunction, cube_index, iter_cubes,
                          level_offsets, tree_size)
from oracles import (_enumerate_antichains, antichain_value_max,
                     enumerate_families)

ROOT = CubeId(0, (0,))
LEFT = CubeId(1, (0,))
RIGHT = CubeId(1, (1,))


# -- validate ----------------------------------------------------------------

def test_validate_half_child_at_order_half():
    out = validate([ROOT, LEFT], 0.5, dimension=1, depth=1)
    assert isinstance(out, SparsityViolation)
    assert out.cube == ROOT
    assert out.lhs == pytest.approx(2.0 ** -0.5)   # 0.7071...
    assert out.rhs == pytest.approx(0.5)
    assert "sparse(order 0.5)" in str(out)
    assert "0.707" in str(out)


def test_validate_half_child_at_order_one():
    # at order 1 the same family sits exactly on the boundary
    out = validate([ROOT, LEFT], 1.0, dimension=1, depth=1)
    assert isinstance(out, CubeFamily)
    assert out.kind == "sparse" and out.order == 1.0


def test_validate_packing_rejects_nesting():
    out = validate([ROOT, LEFT], "packing", dimension=1, depth=1)
    assert isinstance(out, SparsityViolation)
    assert "packing" in out.condition


def test_checked_raises_one_line_where_a_built_family_breaks_its_class():
    """A root with its child is no packing: ``checked`` raises where
    ``validate_index`` returns the violation, with its text on one line,
    and returns the same family where the class holds."""
    nested = np.array([0, 1])
    want = validate_index(nested, "packing", dimension=1, depth=1)
    assert isinstance(want, SparsityViolation)
    with pytest.raises(ValueError) as exc:
        checked(nested, "packing", dimension=1, depth=1)
    assert str(want) in str(exc.value) and "\n" not in str(exc.value)
    got = checked(nested, 1.0, dimension=1, depth=1)
    want = validate_index(nested, 1.0, dimension=1, depth=1)
    assert got.order == want.order == 1.0
    for name in ("index", "parent", "core_counts"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("members", [
    np.array([1, 1]),       # once classified as cube 1 twice
    np.array([3, 1]),       # once kept out of order
    np.array([], dtype=np.int64),   # these three once raised IndexError
    np.array([99]), np.array([-1]),
    np.array([0.0, 1.0]), np.array([[0, 1]]), [0, 1],
    np.array([0, 1], dtype=np.uint64)], ids=repr)
@pytest.mark.parametrize("call", [validate_index, checked])
def test_malformed_index_is_refused_before_it_is_classified(members, call):
    """Members must be a nonempty 1-D signed integer array, strictly
    ascending and inside the tree (7 nodes at 1D L=2); anything else is
    refused with one line, not classified or left to an ``IndexError``."""
    with pytest.raises(ValueError) as exc:
        call(members, 1.0, dimension=1, depth=2)
    assert str(exc.value) == ("a cube family must be a nonempty 1-D signed "
                              "integer array of strictly ascending cube "
                              "numbers in [0, 7)")


def test_validate_weak():
    """Weak sparseness is order 1; ``"weak"`` is not a class name."""
    assert isinstance(
        validate([ROOT, LEFT], 1.0, dimension=1, depth=1), CubeFamily)
    out = validate([ROOT, LEFT, RIGHT], 1.0, dimension=1, depth=1)
    assert isinstance(out, SparsityViolation)
    assert out.cube == ROOT       # its core is empty
    with pytest.raises(ValueError, match=r"in \(0, 1\], got weak$"):
        validate([ROOT], "weak", dimension=1, depth=1)


def test_validate_rejects_bad_input():
    with pytest.raises(ValueError, match="nonempty"):
        validate([], 1.0, dimension=1, depth=1)
    with pytest.raises(ValueError, match="order"):
        validate([ROOT], 0.0, dimension=1, depth=1)
    with pytest.raises(ValueError, match="order"):
        validate([ROOT], 1.5, dimension=1, depth=1)
    with pytest.raises(ValueError, match="dimension"):
        validate([CubeId(0, (0, 0))], 1.0, dimension=1, depth=1)
    with pytest.raises(ValueError, match="finer"):
        validate([CubeId(2, (0,))], 1.0, dimension=1, depth=1)


def test_singletons_pass_every_class():
    for depth in (1, 2):
        for c in iter_cubes(depth, 1):
            for order in ("packing", 0.25, 1.0):
                out = validate([c], order, dimension=1, depth=depth)
                assert isinstance(out, CubeFamily), (c, order)


def test_duplicate_members_collapse():
    fam = validate([ROOT, ROOT], "packing", dimension=1, depth=1)
    assert isinstance(fam, CubeFamily)
    assert fam.cubes == (ROOT,)


def test_core_cells_partition_members():
    fam = validate([ROOT, LEFT], 1.0, dimension=1, depth=2)
    assert isinstance(fam, CubeFamily)
    assert fam.core_cells[ROOT] == (2, 3)
    assert fam.core_cells[LEFT] == (0, 1)
    assert fam.core_measure(ROOT) == pytest.approx(0.5)
    assert fam.children_map[ROOT] == (LEFT,)


# -- enumeration -------------------------------------------------------------

@pytest.mark.parametrize("depth,order,count", [
    (1, "packing", 4), (2, "packing", 25),
    (1, 1.0, 6), (2, 1.0, 65),
])
def test_enumeration_counts_1d(depth, order, count):
    fams = list(enumerate_families(depth, 1, order))
    print(f"depth={depth} order={order}: {len(fams)} families")
    assert len(fams) == count
    masks = {tuple(f.cubes) for f in fams}
    assert len(masks) == len(fams)      # no duplicates


def test_packings_are_sparse_of_every_order():
    for fam in enumerate_families(2, 1, "packing"):
        for order in (0.25, 0.5, 1.0):
            out = validate(fam.cubes, order, dimension=1, depth=2)
            assert isinstance(out, CubeFamily)


@pytest.mark.parametrize("n, depth", [(1, 0), (1, 1), (1, 5), (2, 0), (2, 3)])
@pytest.mark.parametrize("order", [1.0, 0.5, 0.25])
def test_finest_family_is_the_validated_finest_level(n, depth, order):
    """The finest level, as ``checked`` builds it for the finest-packing
    candidate of ``sparse_norm_bounds``, lies in every class, with no
    parents and each member's own cell as its core set."""
    offsets = level_offsets(depth, n)
    index = np.arange(offsets[depth], offsets[depth + 1])
    got = checked(index, order, dimension=n, depth=depth)
    assert (got.kind, got.order) == ("sparse", order)
    assert np.array_equal(got.index, index)
    assert (got.parent == -1).all() and (got.core_counts == 1).all()


def test_sparse_orders_nest_upward():
    """order s <= t implies every sparse(s) family is sparse(t)."""
    by_order = {
        t: {tuple(f.cubes) for f in enumerate_families(2, 1, t)}
        for t in (0.25, 0.5, 1.0)
    }
    assert by_order[0.25] <= by_order[0.5] <= by_order[1.0]
    print("enumerated sizes:",
          {t: len(s) for t, s in sorted(by_order.items())})
    # and the inclusions are strict at this depth
    assert len(by_order[0.25]) < len(by_order[1.0])


def test_enumeration_count_2d():
    fams = list(enumerate_families(1, 2, "packing"))
    # 4 leaf singletons, 11 other leaf subsets, root alone
    assert len(fams) == 16


def test_antichain_generator_matches_subset_scan():
    via_subsets = {
        tuple(f.cubes) for f in enumerate_families(3, 1, "packing")}
    via_walk = {
        tuple(sorted(m, key=lambda c: cube_index(c, 1)))
        for m in (f.cubes for f in _enumerate_antichains(3, 1))
    }
    assert via_walk == via_subsets
    assert len(via_subsets) == 676


@pytest.mark.parametrize("n, depth", [(1, 0), (1, 3), (1, 4), (2, 1),
                                      (2, 2)])
def test_family_tables_refuse_exactly_where_the_tree_is_not_enumerable(
        n, depth):
    """``enumerable`` is the subset cap, and ``family_tables`` builds a
    table exactly where it holds."""
    assert enumerable(n, depth) == (tree_size(depth, n) <= SUBSET_NODE_CAP)
    if enumerable(n, depth):
        assert family_tables(n, depth, "packing").masks.size
    else:
        with pytest.raises(ValueError, match="^oracle scale exceeded: "
                           f"{tree_size(depth, n)} nodes > 15$"):
            family_tables(n, depth, "packing")


def test_enumeration_large_scale_dispatch():
    # 31 nodes: subset scan refuses, packings stream from the walker
    with pytest.raises(ValueError, match="scale"):
        list(enumerate_families(4, 1, 1.0))
    first = list(itertools.islice(enumerate_families(4, 1, "packing"), 50))
    assert len(first) == 50
    assert all(isinstance(f, CubeFamily) for f in first)


# -- stopping time -----------------------------------------------------------

def test_stopping_time_spike():
    g = GridFunction(1, 2, [4.0, 0.0, 0.0, 0.0])
    fam = cz_family(g, 2.0)
    assert fam.cubes == (ROOT, CubeId(2, (0,)))


def test_stopping_time_flat_density():
    g = GridFunction(1, 2, np.ones(4))
    fam = cz_family(g, 2.0)
    assert fam.cubes == (ROOT,)


def test_stopping_time_validation():
    g = GridFunction(1, 1, [1.0, 0.0])
    with pytest.raises(ValueError, match="factor"):
        cz_family(g, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        cz_family(GridFunction(1, 1, [-1.0, 1.0]))


def test_stopping_time_refuses_a_nan_factor():
    g = GridFunction(1, 1, [1.0, 0.0])
    with pytest.raises(ValueError,
                       match="stopping factor must exceed 1, got nan"):
        cz_family(g, float("nan"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([(1, 3), (2, 2)]),
       st.sampled_from([2.0, 3.0]))
def test_stopping_time_always_sparse_order_one(seed, shape, factor):
    n, depth = shape
    rng = np.random.default_rng(seed)
    g = GridFunction(n, depth, rng.exponential(1.0, 2 ** (n * depth)))
    fam = cz_family(g, factor)
    assert fam.kind == "sparse" and fam.order == 1.0
    # re-validate from the raw member list as a second opinion
    out = validate(fam.cubes, 1.0, dimension=n, depth=depth)
    assert isinstance(out, CubeFamily)


def test_stopping_time_respects_factor():
    # two spikes; factor 8 stops earlier than factor 2
    g = GridFunction(1, 3, [8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 8.0])
    f2 = cz_family(g, 2.0)
    f8 = cz_family(g, 8.0)
    assert len(f8.cubes) <= len(f2.cubes)
    assert ROOT in f8.cubes


# -- antichain totals ---------------------------------------------------------

@pytest.mark.parametrize("depth", [1, 2, 3])
def test_antichain_value_against_enumeration(depth):
    index_sets = [
        [cube_index(c, 1) for c in fam.cubes]
        for fam in enumerate_families(depth, 1, "packing")
    ]
    rng = np.random.default_rng(depth)
    for _ in range(10):
        w = rng.uniform(0, 1, tree_size(depth, 1))
        got = antichain_value_max(w, 1, depth)
        want = max(w[idx].sum() for idx in index_sets)
        assert got == pytest.approx(want, abs=1e-12)


def test_antichain_value_maximal_only_mode():
    """At 63 nodes the totals table keeps only maximal antichains; a direct
    bottom-up max DP is an independent check."""
    rng = np.random.default_rng(77)
    depth = 5
    w = rng.uniform(0, 1, tree_size(depth, 1))

    def dp(cube):
        own = w[cube_index(cube, 1)]
        if cube.level == depth:
            return own
        lo = cube.coords[0] * 2
        return max(own, sum(dp(CubeId(cube.level + 1, (lo + j,)))
                            for j in (0, 1)))

    assert antichain_value_max(w, 1, depth) == pytest.approx(
        dp(ROOT), abs=1e-12)


def test_antichain_value_validation():
    with pytest.raises(ValueError, match="weights"):
        antichain_value_max(np.ones(5), 1, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        antichain_value_max(-np.ones(7), 1, 2)
    with pytest.raises(ValueError, match="scale"):
        antichain_value_max(np.ones(tree_size(6, 1)), 1, 6)


# -- cached tables ------------------------------------------------------------

def test_family_tables_consistency():
    tab = family_tables(1, 2, 1.0)
    assert tab.core_meas.shape == (65, 7)
    cubes = list(iter_cubes(2, 1))
    for row in range(tab.core_meas.shape[0]):
        members = tab.family_cubes(row)
        fam = validate(members, 1.0, dimension=1, depth=2)
        assert isinstance(fam, CubeFamily)
        for j, c in enumerate(cubes):
            if c in fam.cubes:
                assert tab.cube_meas[row, j] == pytest.approx(c.measure)
                assert tab.core_meas[row, j] == pytest.approx(
                    fam.core_measure(c))
            else:
                assert tab.cube_meas[row, j] == 0.0
                assert tab.core_meas[row, j] == 0.0


def test_family_tables_cached():
    assert family_tables(1, 2, "packing") is family_tables(1, 2, "packing")


@pytest.mark.parametrize("order", [-0.5, 0.0, 1.5, float("nan")])
def test_family_tables_refuses_a_bad_order_before_enumerating(order):
    """The order is checked as ``validate_index`` checks it, before any
    table is built: nothing is cached, so a second call raises again."""
    from oscnorm.norms import NormParams, sparse_sup_exhaustive
    before = family_tables.cache_info()
    message = r"sparseness order must lie in \(0, 1\]"
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            family_tables(1, 2, order)
    params = NormParams(family_order=order)
    with pytest.raises(ValueError, match=message):
        sparse_sup_exhaustive(GridFunction(1, 2, [0.0, 1.0, 3.0, 2.0]),
                              params)
    after = family_tables.cache_info()
    assert after.currsize == before.currsize and after.hits == before.hits


def test_to_json_dict_round_trip():
    fam = validate([ROOT, LEFT], 1.0, dimension=1, depth=2)
    d = fam.to_json_dict()
    back = [CubeId(c["level"], tuple(c["coords"])) for c in d["cubes"]]
    assert tuple(back) == fam.cubes
    assert d["kind"] == "sparse" and d["order"] == 1.0
