from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import GLOVE_EXACT, random_table, table_game
from royaltyshare import (
    CoalitionGame,
    EstimatorConfig,
    exact_shapley,
    permutation_sample,
    truncated_walk,
)
from royaltyshare.montecarlo import sampled_ordering


def saturating_game():
    """Worth 1 as soon as anyone joins; marginals vanish after the first player."""
    return CoalitionGame(4, lambda s: 1.0 if s else 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_permutations": 0},
        {"seed": -1},
        {"seed": 2**64},
        {"truncation_tolerance": -0.5},
        {"truncation_tolerance": float("nan")},
    ],
)
def test_estimator_config_validation(kwargs):
    with pytest.raises(ValueError):
        EstimatorConfig(**kwargs)


def test_sampled_ordering_is_deterministic_per_index():
    first = sampled_ordering(42, 3, 6)
    assert sorted(first.tolist()) == list(range(6))
    np.testing.assert_array_equal(first, sampled_ordering(42, 3, 6))
    assert any(
        not np.array_equal(first, sampled_ordering(42, j, 6)) for j in range(20) if j != 3
    )


def test_truncated_walk_requires_a_permutation():
    game = table_game(np.zeros(8))
    with pytest.raises(ValueError):
        truncated_walk(game, [0, 0, 1])


def test_full_walk_marginals_telescope():
    rng = np.random.default_rng(3)
    table = random_table(rng, 5)
    game = table_game(table)
    marginals = truncated_walk(game, [4, 2, 0, 3, 1])
    assert abs(math.fsum(marginals.tolist()) - table[-1]) <= 1e-12


def test_truncated_walk_charges_zero_after_saturation():
    game = saturating_game()
    game.evaluate(game.grand_coalition())
    before = game.eval_count
    marginals = truncated_walk(game, [2, 0, 1, 3], tolerance=1e-12)
    assert marginals[2] == 1.0
    assert marginals[0] == 0.0 and marginals[1] == 0.0 and marginals[3] == 0.0
    # one evaluation for the empty prefix, one for the first join
    assert game.eval_count - before == 2


def test_enumerated_walks_average_to_exact_values():
    rng = np.random.default_rng(7)
    for n in (3, 5):
        table = random_table(rng, n)
        game = table_game(table)
        buffers = [[] for _ in range(n)]
        for perm in itertools.permutations(range(n)):
            row = truncated_walk(game, perm)
            for i in range(n):
                buffers[i].append(float(row[i]))
        averaged = np.array([math.fsum(buf) / math.factorial(n) for buf in buffers])
        np.testing.assert_allclose(
            averaged, exact_shapley(table_game(table)).values, rtol=0, atol=1e-9
        )


def test_glove_estimate_converges(glove_game):
    report = permutation_sample(glove_game, EstimatorConfig(num_permutations=10_000, seed=0))
    np.testing.assert_allclose(report.estimate.values, GLOVE_EXACT, rtol=0, atol=0.02)
    assert report.permutations_used == 10_000
    assert np.all(report.stderr > 0) and np.all(report.stderr < 0.02)


def per_walk_reference(game, config):
    """The sampler as single walks: v(N) first when truncating, then each ordering."""
    n, m = game.n, config.num_permutations
    before = game.eval_count
    if config.truncation_tolerance > 0:
        game.evaluate(game.grand_coalition())
    matrix = np.array(
        [truncated_walk(game, sampled_ordering(config.seed, j, n), config.truncation_tolerance)
         for j in range(m)]
    )
    stderr = matrix.std(axis=0, ddof=1) / math.sqrt(m)
    return matrix.mean(axis=0), stderr, game.eval_count - before


def test_batched_sampler_matches_per_walk_reference():
    rng = np.random.default_rng(19)
    # At the positive tolerances every walk on the first table stops before
    # its first step; walks on the second stop at every position from 1 to 7.
    tables = [random_table(rng, 6), np.round(random_table(rng, 7) * 2.0) / 2.0]
    for table in tables:
        for tolerance in (0.0, 0.25, 0.6):
            config = EstimatorConfig(num_permutations=500, seed=9, truncation_tolerance=tolerance)
            report = permutation_sample(table_game(table), config)
            estimate, stderr, calls = per_walk_reference(table_game(table), config)
            np.testing.assert_array_equal(report.estimate.values, estimate)
            np.testing.assert_array_equal(report.stderr, stderr)
            assert report.oracle_calls == calls


def test_additive_game_has_zero_stderr():
    weights = [0.5, 1.5, 2.0]
    game = CoalitionGame(
        3, lambda s: math.fsum(weights[i] for i in range(3) if s & (1 << i))
    )
    report = permutation_sample(game, EstimatorConfig(num_permutations=1000, seed=1))
    np.testing.assert_array_equal(report.stderr, np.zeros(3))
    np.testing.assert_array_equal(report.estimate.values, weights)


def test_one_permutation_has_zero_stderr(glove_game):
    report = permutation_sample(glove_game, EstimatorConfig(num_permutations=1, seed=6))
    assert report.permutations_used == 1
    np.testing.assert_array_equal(report.stderr, np.zeros(3))


def test_truncation_reduces_oracle_calls():
    plain = permutation_sample(saturating_game(), EstimatorConfig(num_permutations=200, seed=2))
    truncated = permutation_sample(
        saturating_game(),
        EstimatorConfig(num_permutations=200, seed=2, truncation_tolerance=1e-12),
    )
    assert truncated.oracle_calls < plain.oracle_calls
    np.testing.assert_array_equal(plain.estimate.values, truncated.estimate.values)


def test_mc_solver_plugs_into_share_pipeline(glove_game):
    phi = permutation_sample(glove_game, EstimatorConfig(num_permutations=2000, seed=4)).estimate
    np.testing.assert_allclose(phi.values, GLOVE_EXACT, rtol=0, atol=0.05)
