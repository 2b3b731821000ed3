"""The order-1 coverage DP against exhaustive enumeration, its batching,
the bracket of ``sparse_norm_bounds`` and its witnesses."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnorm.families import checked
from oscnorm.grid import GridFunction, cube_measures, tree_size
from oscnorm.norms import (NormParams, family_value, scaled_error_levels,
                           sparse_norm_bounds, sparse_sup_dp,
                           sparse_sup_exhaustive)
from oracles import enumerate_families

ORACLE_SHAPES = [(n, depth) for n in (1, 2) for depth in range(4)
                 if tree_size(depth, n) <= 15]
P_LIST = (1.0, 1.5, 2.0, 4.0, math.inf)


def _grid(n, depth, kind, seed):
    rng = np.random.default_rng([n, depth, seed])
    size = 1 << (n * depth)
    values = {"uniform": lambda: rng.uniform(0.0, 1.0, size),
              "lognormal": lambda: rng.lognormal(0.0, 1.5, size),
              "integer": lambda: rng.integers(0, 3, size).astype(float)}
    return GridFunction(n, depth, values[kind]())


@lru_cache(maxsize=None)
def _oracle_matrices(n, depth):
    """Core and cube measures of every sparse(1) family of the oracle's
    own subset scan, one row per family."""
    fams = list(enumerate_families(depth, n, 1.0))
    nodes = tree_size(depth, n)
    core = np.zeros((len(fams), nodes))
    member = np.zeros((len(fams), nodes), dtype=bool)
    for row, fam in enumerate(fams):
        core[row, fam.index] = fam.core_counts * 2.0 ** (-n * depth)
        member[row, fam.index] = True
    return core, member, member * cube_measures(depth, n)


def _enumerated(f, params):
    """The core and ``|Q|``-weighted suprema over the enumerated families."""
    core, member, cube = _oracle_matrices(f.dimension, f.depth)
    scaled = np.concatenate(scaled_error_levels(f, params))
    if math.isinf(params.p):
        best = float(np.where(member, scaled, 0.0).max())
        return best, best
    sp = scaled ** params.p
    return ((core @ sp).max() ** (1.0 / params.p),
            (cube @ sp).max() ** (1.0 / params.p))


@pytest.mark.parametrize("n, depth", ORACLE_SHAPES)
@pytest.mark.parametrize("kind", ["uniform", "lognormal", "integer"])
def test_dp_equals_the_enumeration_on_every_oracle_shape(n, depth, kind):
    """Value and weighted value at every p, on the oracle's families, for
    the plain and a smoother order-1 functional; every witness is a
    sparse family whose value is the reported one."""
    worst = 0.0
    for seed in range(6):
        f = _grid(n, depth, kind, seed)
        for p in P_LIST:
            for params in (NormParams.sjn(p), NormParams.sv(p, 2, 2, 0.0)):
                rep = sparse_sup_exhaustive(f, params)
                value, weighted = _enumerated(f, params)
                for got, want in ((rep.value, value),
                                  (rep.extras["weighted_value"], weighted)):
                    gap = abs(got - want) / max(want, 1e-300)
                    worst = max(worst, gap)
                    assert gap <= 1e-12, (seed, p, params.k, got, want)
                assert abs(family_value(f, rep.witness, params)
                           - rep.value) <= 1e-12 * max(rep.value, 1e-300)
    print(f"worst relative gap {worst:.2e}")


@pytest.mark.parametrize("n, depth", [(1, 0), (1, 3), (2, 1), (1, 8),
                                      (2, 4)])
def test_an_all_zero_grid_gets_the_root_alone(n, depth):
    """Every family ties at 0; the shallower cube wins, so the witness is
    nonempty: the root, with no children."""
    f = GridFunction(n, depth, np.zeros(1 << (n * depth)))
    for p in (1.0, 2.0, math.inf):
        rep = sparse_sup_exhaustive(f, NormParams.sjn(p))
        assert rep.value == rep.extras["weighted_value"] == 0.0
        assert rep.witness.index.tolist() == [0]


@pytest.mark.parametrize("n, depth", [(1, 5), (2, 3), (1, 10), (2, 5)])
def test_batched_rows_have_the_bits_of_one_row_calls(n, depth):
    """A stack of trees gives each row the bits of its own call, on both
    merge routes (few cubes with long counts, many cubes with short)."""
    rng = np.random.default_rng(depth)
    scores = [rng.lognormal(0.0, 1.0, (2, 3, 1 << (n * lvl)))
              for lvl in range(depth + 1)]
    core, weighted, _ = sparse_sup_dp(scores, n)
    assert core.shape == weighted.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            one = sparse_sup_dp([s[i, j] for s in scores], n)
            assert one[0].tobytes() == core[i, j].tobytes()
            assert one[1].tobytes() == weighted[i, j].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, d) for d in range(1, 11)]
                       + [(2, d) for d in range(1, 6)]),
       st.sampled_from(["uniform", "lognormal", "integer"]),
       st.integers(0, 2 ** 16 - 1), st.sampled_from([1.0, 2.0, 4.0]))
def test_dp_lies_inside_the_bounds_bracket(shape, kind, seed, p):
    n, depth = shape
    f = _grid(n, depth, kind, seed)
    params = NormParams.sjn(p)
    exact = sparse_sup_exhaustive(f, params)
    bracket = sparse_norm_bounds(f, params)
    assert bracket.value_lower <= exact.value * (1 + 1e-12)
    assert exact.value <= bracket.value_upper * (1 + 1e-12)
    assert exact.value <= exact.extras["weighted_value"] * (1 + 1e-12)


@pytest.mark.parametrize("n, depth", [(1, 6), (1, 9), (2, 3), (2, 5)])
@pytest.mark.parametrize("kind", ["uniform", "lognormal", "integer"])
def test_the_witness_is_sparse_and_attains_the_value(n, depth, kind):
    for seed in range(3):
        f = _grid(n, depth, kind, seed)
        for params in (NormParams.sjn(1.0), NormParams.sjn(2.0),
                       NormParams.sv(3.0, 2, 2, 0.0)):
            rep = sparse_sup_exhaustive(f, params)
            fam = checked(rep.witness.index, 1.0, dimension=n, depth=depth)
            assert abs(family_value(f, fam, params) - rep.value) <= (
                1e-12 * rep.value)


@pytest.mark.parametrize("n, depth, want", [(1, 16, "0.288023"),
                                            (2, 8, "0.271135")])
def test_exact_at_the_cell_cap(n, depth, want):
    """The headline grids of 65,536 cells read their exact values, with a
    witness that attains them."""
    f = GridFunction(n, depth, np.random.default_rng(0).uniform(
        0.0, 1.0, 1 << (n * depth)))
    params = NormParams.sjn(2.0)
    rep = sparse_sup_exhaustive(f, params)
    assert rep.exact and f"{rep.value:.6f}" == want
    assert abs(family_value(f, rep.witness, params) - rep.value) <= (
        1e-12 * rep.value)


def test_a_witness_needs_one_tree():
    scores = [np.ones((2, 1)), np.ones((2, 2))]
    with pytest.raises(ValueError, match="one tree at a time"):
        sparse_sup_dp(scores, 1, witness=True)


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_negative_or_nan_scores_are_refused(bad):
    """A negative score would make one finest cell alone beat the root's
    family, and NaN compares false everywhere: both are refused."""
    scores = [np.array([bad]), np.array([bad, bad])]
    with pytest.raises(ValueError, match="nonnegative scores"):
        sparse_sup_dp(scores, 1, witness=True)
    scores = [np.ones(1), np.array([1.0, bad]), np.ones(4)]
    with pytest.raises(ValueError, match="nonnegative scores"):
        sparse_sup_dp(scores, 1)


def test_an_infinite_score_above_the_finest_level_totals_inf():
    """``0 * inf`` in the pass's penalty gave NaN here; the cube alone
    totals ``+inf``, weighted too."""
    core, weighted, _ = sparse_sup_dp([np.array([np.inf]),
                                       np.array([1.0, 1.0])], 1)
    assert core == weighted == math.inf


@pytest.mark.parametrize("n, depth", [(1, 4), (2, 2)])
@pytest.mark.parametrize("level", ["root", "middle", "finest"])
def test_a_tree_holding_an_infinite_score_totals_inf(n, depth, level):
    """Wherever the infinite score sits, the best total is ``+inf``, on
    both passes, and the witness path refuses it."""
    rng = np.random.default_rng(depth)
    scores = [rng.lognormal(0.0, 1.0, 1 << (n * lvl))
              for lvl in range(depth + 1)]
    lvl = {"root": 0, "middle": depth // 2, "finest": depth}[level]
    scores[lvl][-1] = np.inf
    core, weighted, _ = sparse_sup_dp(scores, n)
    assert core == weighted == math.inf
    with pytest.raises(ValueError, match="not finite"):
        sparse_sup_dp(scores, n, witness=True)


@pytest.mark.parametrize("n, depth", [(1, 5), (2, 3)])
def test_one_infinite_row_leaves_the_finite_rows_their_bits(n, depth):
    """In a batch, the tree with an infinite score totals ``+inf`` and
    every finite tree keeps the bits of its one-row call."""
    rng = np.random.default_rng(depth)
    scores = [rng.lognormal(0.0, 1.0, (4, 1 << (n * lvl)))
              for lvl in range(depth + 1)]
    scores[1][2, 0] = np.inf
    core, weighted, _ = sparse_sup_dp(scores, n)
    assert core[2] == weighted[2] == math.inf
    for row in (0, 1, 3):
        one = sparse_sup_dp([s[row] for s in scores], n)
        assert one[0].tobytes() == core[row].tobytes()
        assert one[1].tobytes() == weighted[row].tobytes()
