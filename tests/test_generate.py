"""Deterministic generators: reproducibility and exact profiles."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from oscnorm.generate import (GENERATOR_NAMES, batch_uniform, generate,
                              log_singularity, rng_for)
from oscnorm.grid import CubeId, GridFunction


def test_uniform_reproducible():
    a = generate("uniform-iid", 1, 3, seed=5, trial=9)
    b = generate("uniform-iid", 1, 3, seed=5, trial=9)
    assert np.array_equal(a.values, b.values)
    c = generate("uniform-iid", 1, 3, seed=5, trial=10)
    assert not np.array_equal(a.values, c.values)
    d = generate("uniform-iid", 1, 3, seed=6, trial=9)
    assert not np.array_equal(a.values, d.values)


def test_uniform_range_and_shape():
    f = generate("uniform-iid", 2, 2, seed=0)
    assert f.values.shape == (16,)
    assert np.all((0 <= f.values) & (f.values < 1))


def test_step_1d():
    f = generate("step", 1, 2)
    assert f.values.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_step_2d_splits_along_first_axis():
    f = generate("step", 2, 1)
    # row-major: first row of cells is the x0 < 1/2 half
    assert f.values.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert f.integral() == pytest.approx(0.5)


def test_indicator():
    f = generate("indicator", 1, 2)
    assert f.values.tolist() == [1.0, 0.0, 0.0, 0.0]
    g = generate("indicator", 2, 1)
    assert g.values.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_log_singularity_exact_averages():
    f = log_singularity(2)
    # integral of log(1/x) over [a,b] = (x - x log x) |_a^b
    def anti(x):
        return x - x * math.log(x) if x > 0 else 0.0
    for i in range(4):
        a, b = i / 4, (i + 1) / 4
        want = (anti(b) - anti(a)) * 4
        assert f.values[i] == pytest.approx(want, abs=1e-14)
    # total mass of log(1/x) on [0,1) is exactly 1
    assert f.integral() == pytest.approx(1.0, abs=1e-14)
    assert f.values[0] > f.values[1] > f.values[2] > f.values[3]


def test_log_singularity_growth_with_depth():
    # first-cell average grows like log(2^L), unbounded but integrable
    v6 = log_singularity(6).values[0]
    v8 = log_singularity(8).values[0]
    assert v8 > v6 > 0
    assert v8 - v6 == pytest.approx(2 * math.log(2), abs=1e-12)


def test_log_singularity_rejects_2d():
    with pytest.raises(ValueError, match="1-dimensional"):
        generate("log-singularity", 2, 2)


def test_custom_file_round_trip(tmp_path):
    path = tmp_path / "grid.json"
    payload = {"dimension": 1, "depth": 1, "values": [0.25, 0.75]}
    path.write_text(json.dumps(payload))
    f = generate("custom-file", 1, 1, path=str(path))
    assert f.values.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError, match="path"):
        generate("custom-file", 1, 1)


def test_unknown_generator():
    with pytest.raises(ValueError, match="unknown generator"):
        generate("gaussian", 1, 1)


def test_generator_names_frozen():
    assert GENERATOR_NAMES == (
        "uniform-iid", "step", "log-singularity", "indicator", "custom-file")


@pytest.mark.parametrize("seed", [
    0, 2**32 - 1,
    2**32,          # two entropy words
    2**64 + 3,
    2**130 + 5,     # five words: SeedSequence's extra mixing loop runs
])
@pytest.mark.parametrize("dimension,depth,trials", [
    (1, 0, 1), (1, 0, 2),           # one cell
    (2, 1, 1), (2, 1, 2),
    (1, 3, 2000),
    (1, 12, 50),
])
def test_batch_matches_per_trial_generation(seed, dimension, depth, trials):
    mat = batch_uniform(dimension, depth, seed, trials)
    n_cells = 1 << (dimension * depth)
    assert mat.shape == (trials, n_cells)
    rows = range(trials) if trials <= 50 else (0, trials // 2, trials - 1)
    for t in rows:
        want = rng_for(seed, t).uniform(0.0, 1.0, n_cells)
        assert mat[t].tobytes() == want.tobytes()


@pytest.mark.parametrize("seed,reason", [
    (-1, "seed must be >= 0"),
    (True, "seed must be an integer"),
    (1.5, "seed must be an integer"),
])
def test_batch_refuses_bad_seed(seed, reason):
    with pytest.raises(ValueError, match=reason):
        batch_uniform(1, 2, seed, 3)


def test_batch_refuses_past_cell_limit():
    # 65 grids of 2**16 cells: one grid over the 2**22-cell limit
    with pytest.raises(ValueError, match="limit 4194304"):
        batch_uniform(1, 16, 0, 65)


@pytest.mark.parametrize("make", [
    lambda: batch_uniform(1, 100_000, 0, 1),
    lambda: batch_uniform(2, 12, 0, 1),
    lambda: log_singularity(23),
    lambda: log_singularity(100_000),
])
def test_huge_depths_are_refused_before_the_shift(make):
    """The cap's exponent is compared first: no ``2**(n L)`` is built,
    allocated or written into the message."""
    with pytest.raises(ValueError, match=r"2\*\*\d+ cells \(limit 4194304\)$"):
        make()


@pytest.mark.parametrize("kind, dimension, depth", [
    ("indicator", 2, 12), ("uniform-iid", 1, 100_000), ("step", 1, 30)])
def test_generate_checks_the_cell_cap_before_it_allocates(kind, dimension,
                                                          depth):
    """The cap line comes before any array: under 1 MB is traced."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=r"2\*\*\d+ cells \(limit 4194304\)$"):
            generate(kind, dimension, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_generate_dispatches_the_log_singularity():
    got = generate("log-singularity", 1, 3)
    assert got.values.tobytes() == log_singularity(3).values.tobytes()


def test_rng_stream_independence():
    # distinct trials give distinct streams even with equal seeds
    a = rng_for(0, 1).uniform(size=4)
    b = rng_for(0, 2).uniform(size=4)
    assert not np.array_equal(a, b)
