from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import GLOVE_EXACT, random_table, table_game
from royaltyshare import (
    CoalitionGame,
    EstimatorConfig,
    NonFiniteError,
    PermissionGame,
    ShareVector,
    developer_split,
    exact_shapley,
    fixed_split,
    permission_shapley,
    permutation_sample,
    royalty_shares,
)


def additive_game(weights):
    return CoalitionGame(
        len(weights),
        lambda s: math.fsum(weights[i] for i in range(len(weights)) if s & (1 << i)),
    )


def test_shares_clamp_negatives():
    shares = royalty_shares(np.array([2.0, -1.0]))
    np.testing.assert_array_equal(shares.shares, [1.0, 0.0])
    assert not shares.degenerate


def test_shares_normalize_to_simplex():
    shares = royalty_shares(np.array([1.0, 3.0, 0.5, -2.0])).shares
    assert abs(math.fsum(shares.tolist()) - 1.0) <= 1e-12
    assert np.all(shares >= 0)


def test_shares_scale_invariance():
    phi = np.array([0.75, 0.25, -0.125])
    np.testing.assert_array_equal(
        royalty_shares(phi).shares, royalty_shares(4.0 * phi).shares
    )


def test_all_clamped_falls_back_to_uniform():
    shares = royalty_shares(np.array([-1.0, 0.0, -0.5]))
    assert shares.degenerate
    np.testing.assert_array_equal(shares.shares, np.full(3, 1.0 / 3.0))


def test_empty_vector_is_degenerate():
    shares = royalty_shares(np.empty(0))
    assert shares.degenerate and len(shares) == 0


def test_shares_reject_non_finite_values():
    with pytest.raises(NonFiniteError):
        royalty_shares(np.array([1.0, float("nan")]))


def test_shares_name_the_player_when_a_value_or_the_total_is_not_finite():
    with pytest.raises(NonFiniteError, match="^player 2's Shapley value is not finite"):
        royalty_shares(np.array([1.0, -2.0, -math.inf]))
    with pytest.raises(NonFiniteError, match="^the shares' total overflows: player 1's"):
        royalty_shares(np.array([1e308, 1.5e308, -1e308]))


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        float,
        st.integers(min_value=1, max_value=8),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
def test_share_properties_hold_generally(phi):
    shares = royalty_shares(phi)
    assert abs(math.fsum(shares.shares.tolist()) - 1.0) <= 1e-12
    assert np.all(shares.shares >= 0)
    assert shares.degenerate == bool(np.max(phi) <= 0)
    if not shares.degenerate:
        assert np.all(shares.shares[phi <= 0] == 0)


def test_shares_from_game_glove(glove_game):
    np.testing.assert_allclose(
        royalty_shares(exact_shapley(glove_game)).shares, GLOVE_EXACT, rtol=0, atol=1e-15
    )


def test_shares_from_game_with_mc_solver(glove_game):
    config = EstimatorConfig(num_permutations=2000, seed=8)
    shares = royalty_shares(permutation_sample(glove_game, config).estimate)
    np.testing.assert_allclose(shares.shares, GLOVE_EXACT, rtol=0, atol=0.03)


def test_shares_are_shift_invariant_across_oracles():
    # An absolute-utility oracle differs from its relative counterpart by one
    # constant on every coalition, the empty one included; shares must agree.
    table = random_table(np.random.default_rng(41), 5)
    relative = royalty_shares(exact_shapley(table_game(table)))
    absolute = royalty_shares(exact_shapley(table_game(table - 12.25)))
    np.testing.assert_allclose(relative.shares, absolute.shares, rtol=0, atol=1e-12)


def test_permission_game_requires_zero_empty_utility():
    with pytest.raises(ValueError):
        PermissionGame(CoalitionGame(2, lambda s: 1.0))


def test_permission_game_veto_structure():
    pg = PermissionGame(additive_game([2.0, 4.0]))
    aug = pg.augmented
    assert pg.developer == 2 and pg.base.n == 2
    assert aug.evaluate(0b011) == 0.0
    assert aug.evaluate(0b101) == 2.0
    assert aug.evaluate(0b111) == 6.0


def test_permission_shapley_additive_example():
    pg = PermissionGame(additive_game([2.0, 4.0]))
    phi = permission_shapley(pg)
    np.testing.assert_allclose(phi, [1.0, 2.0, 3.0], rtol=0, atol=1e-12)
    assert abs(math.fsum(phi.tolist()) - 6.0) <= 1e-9


def test_developer_split_additive_example():
    split = developer_split(PermissionGame(additive_game([2.0, 4.0])))
    assert abs(split.developer_share - 0.5) <= 1e-12
    assert abs(split.beta_data - 0.5) <= 1e-12
    np.testing.assert_allclose(
        split.owner_payout_fractions, [1.0 / 6.0, 1.0 / 3.0], rtol=0, atol=1e-12
    )
    assert not split.degenerate


def test_developer_split_fractions_sum_to_beta():
    table = random_table(np.random.default_rng(43), 4)
    table[table < 0] *= 0.1  # mostly productive owners
    split = developer_split(PermissionGame(table_game(table)))
    total = math.fsum(split.owner_payout_fractions.tolist())
    assert abs(total - split.beta_data) <= 1e-12


def test_permission_game_reuses_base_cache():
    calls = []
    table = random_table(np.random.default_rng(47), 4)

    def oracle(s):
        calls.append(s)
        return float(table[s])

    pg = PermissionGame(CoalitionGame(4, oracle))
    permission_shapley(pg)
    assert len(set(calls)) == len(calls)
    assert len(calls) <= 16


def test_monte_carlo_developer_split_agrees_with_the_exact_one():
    # Additive owners plus interactions: every Shapley value is positive, so
    # no share clamps and each share is its value over v(N), the same for the
    # exact and the sampled values, since every walk telescopes to v(N).
    weights = np.array([1.0, 2.0, 0.5, 1.5])
    members = (np.arange(16)[:, None] >> np.arange(4)) & 1
    table = members @ weights
    table += 0.25 * random_table(np.random.default_rng(59), 4)
    seen = []

    class CountedTable:
        def many(self, masks):
            seen.extend(np.asarray(masks).tolist())
            return table[np.asarray(masks, dtype=np.int64)]

    reports = []

    def solver(game):
        reports.append(permutation_sample(game, EstimatorConfig(num_permutations=3000, seed=19)))
        return reports[-1].estimate

    pg = PermissionGame(CoalitionGame(4, CountedTable()))
    sampled = developer_split(pg, solver)
    exact = developer_split(pg)
    [report] = reports
    assert report.permutations_used == 3000 and np.all(report.stderr > 0)
    phi = permission_shapley(pg)
    assert np.all(phi > 0) and np.all(report.estimate > 0)
    assert np.all(np.abs(report.estimate - phi) <= 4 * report.stderr)
    assert sampled.beta_data == 1.0 - sampled.developer_share
    np.testing.assert_array_equal(
        [*sampled.owner_payout_fractions, sampled.developer_share],
        royalty_shares(report.estimate).shares)
    np.testing.assert_array_less(
        np.abs([*sampled.owner_payout_fractions, sampled.developer_share]
               - np.array([*exact.owner_payout_fractions, exact.developer_share])),
        4 * report.stderr / table[-1] + 1e-12)
    # The sampled walks, the exact split and v(empty) all read one memo.
    assert len(seen) == len(set(seen)) <= 16


def test_fixed_split_scales_shares():
    shares = ShareVector(shares=np.array([0.25, 0.75]), degenerate=False)
    split = fixed_split(0.6, shares)
    assert split.developer_share == pytest.approx(0.4, abs=1e-15)
    np.testing.assert_allclose(split.owner_payout_fractions, [0.15, 0.45], rtol=0, atol=1e-15)


def test_fixed_split_validates_beta():
    shares = ShareVector(shares=np.array([1.0]), degenerate=False)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            fixed_split(bad, shares)


def test_fixed_split_propagates_degeneracy():
    shares = ShareVector(shares=np.array([0.5, 0.5]), degenerate=True)
    assert fixed_split(0.5, shares).degenerate


def test_augmented_game_reads_the_base_game_in_one_batch():
    table = random_table(np.random.default_rng(53), 6)
    calls = []

    class BatchTable:
        def many(self, masks):
            calls.append(len(masks))
            return table[np.asarray(masks, dtype=np.int64)]

        def __call__(self, s):
            return float(self.many([s])[0])

    def reference_augmented(base):
        dev_bit = 1 << base.n
        return CoalitionGame(
            base.n + 1, lambda s: base.evaluate(s & ~dev_bit) if s & dev_bit else 0.0)

    config = EstimatorConfig(num_permutations=300, seed=17)
    pg = PermissionGame(CoalitionGame(6, BatchTable()))
    assert calls == [1]  # v(empty), checked on construction
    report = permutation_sample(pg.augmented, config)
    assert len(calls) == 2  # every coalition holding the developer, in one batch
    expected = permutation_sample(reference_augmented(table_game(table)), config)
    assert report.estimate.tobytes() == expected.estimate.tobytes()
    assert report.stderr.tobytes() == expected.stderr.tobytes()
    assert report.oracle_calls == expected.oracle_calls
