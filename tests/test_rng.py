"""Randomness services: pinned generator, uniform draws for one stream and
for a stack of runs, Levy steps, permutations."""

import numpy as np
import pytest

from evoclust.rng import (LevyParams, RngStream, levy_step, permute,
                          stream_for_run, uniform_matrix, uniform_stack)

# Reference draws for PCG64 seed 42 / seed 123; these freeze the generator
# choice itself, not just our wrappers.
PCG64_SEED42_RANDOM5 = [0.7739560485559633, 0.4388784397520523,
                        0.8585979199113825, 0.6973680290593639,
                        0.09417734788764953]
PCG64_SEED42_NORMAL3 = [0.30471707975443135, -1.0399841062404955,
                        0.7504511958064572]
PCG64_SEED123_PERM10 = [7, 4, 0, 2, 1, 5, 6, 8, 3, 9]


def test_generator_is_pinned():
    assert isinstance(RngStream(0).generator.bit_generator, np.random.PCG64)


def test_reference_sequence_uniform():
    rng = RngStream(42)
    draws = [rng.generator.random() for _ in range(5)]
    assert draws == pytest.approx(PCG64_SEED42_RANDOM5, abs=0.0)


def test_reference_sequence_normal():
    rng = RngStream(42)
    draws = [rng.generator.standard_normal() for _ in range(3)]
    assert draws == pytest.approx(PCG64_SEED42_NORMAL3, abs=0.0)


def test_reference_permutation():
    assert permute(RngStream(123), 10).tolist() == PCG64_SEED123_PERM10


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    RngStream(2**64 - 1)  # top of the valid range


def test_stream_for_run_offsets_seed():
    assert stream_for_run(100, 3).seed == 103
    assert stream_for_run(2**64 - 1, 1).seed == 0  # wraps
    a = stream_for_run(5, 0).generator.random(4)
    b = RngStream(5).generator.random(4)
    assert np.array_equal(a, b)


def test_uniform_bounds_and_scaling():
    rng = RngStream(1)
    draws = uniform_matrix(rng, -3.0, 7.0, (2000,))
    assert draws.min() >= -3.0 and draws.max() < 7.0
    assert abs(draws.mean() - 2.0) < 0.2
    with pytest.raises(ValueError):
        uniform_matrix(RngStream(0), 1.0, 0.0, (1,))


def test_uniform_degenerate_interval():
    assert np.all(uniform_matrix(RngStream(0), 4.0, 4.0, (3,)) == 4.0)


def test_uniform_matrix_shape_and_vector_bounds():
    rng = RngStream(2)
    m = uniform_matrix(rng, np.array([0.0, 10.0]), np.array([1.0, 20.0]), (500, 2))
    assert m.shape == (500, 2)
    assert m[:, 0].min() >= 0.0 and m[:, 0].max() < 1.0
    assert m[:, 1].min() >= 10.0 and m[:, 1].max() < 20.0
    with pytest.raises(ValueError):
        uniform_matrix(rng, 5.0, 4.0, (2, 2))


def test_uniform_stack_layer_is_each_streams_matrix():
    """Layer r of a stack holds what ``uniform_matrix`` draws from a fresh
    copy of stream r, whatever the other layers draw."""
    seeds = [3, 8, 3]
    low, up = np.array([-1.0, 0.0, 5.0]), np.array([1.0, 0.0, 9.0])
    stack = uniform_stack([RngStream(s) for s in seeds], low, up, (4, 3))
    assert stack.shape == (3, 4, 3)
    for layer, seed in zip(stack, seeds):
        assert np.array_equal(layer, uniform_matrix(RngStream(seed), low, up, (4, 3)))
    assert np.all(stack[..., 1] == 0.0)
    with pytest.raises(ValueError):
        uniform_stack([RngStream(0)], up, low, (1, 3))


def test_levy_params_validation():
    with pytest.raises(ValueError):
        LevyParams(alpha=1.0)
    with pytest.raises(ValueError):
        LevyParams(alpha=2.5)
    with pytest.raises(ValueError):
        LevyParams(scale=-0.1)
    LevyParams(alpha=2.0, scale=0.0)


def test_levy_zero_scale_is_zero():
    rng = RngStream(9)
    assert levy_step(rng, LevyParams(alpha=1.5, scale=0.0)) == 0.0


def test_levy_alpha2_is_gaussian():
    """At the stability boundary the step collapses to a scaled normal:
    sample kurtosis near 3 and no heavy tail."""
    rng = RngStream(11)
    xs = np.array([levy_step(rng, LevyParams(alpha=2.0, scale=1.0))
                   for _ in range(20000)])
    z = (xs - xs.mean()) / xs.std()
    kurtosis = float((z**4).mean())
    assert abs(kurtosis - 3.0) < 0.1
    assert np.abs(xs).max() < 6.0


def test_levy_low_alpha_heavy_tail():
    """Near alpha = 1 occasional steps dwarf the typical one."""
    rng = RngStream(13)
    xs = np.abs([levy_step(rng, LevyParams(alpha=1.001, scale=1.0))
                 for _ in range(20000)])
    assert np.max(xs) > 50 * np.median(xs)


def test_levy_scale_is_linear():
    a = levy_step(RngStream(7), LevyParams(1.5, 1.0))
    b = levy_step(RngStream(7), LevyParams(1.5, 2.5))
    assert b == pytest.approx(2.5 * a, rel=1e-12)


def test_permutation_uniformity():
    """Chi-square check that element 0 lands uniformly across positions."""
    rng = RngStream(17)
    n, trials = 6, 60000
    counts = np.zeros(n)
    for _ in range(trials):
        counts[np.where(permute(rng, n) == 0)[0][0]] += 1
    expected = trials / n
    assert np.all(np.abs(counts - expected) < 400)


def test_permutation_edge_cases():
    assert permute(RngStream(0), 0).tolist() == []
    assert permute(RngStream(0), 1).tolist() == [0]
    with pytest.raises(ValueError):
        permute(RngStream(0), -1)
