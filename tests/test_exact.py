from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GLOVE_EXACT, random_table, table_game
from royaltyshare import (
    CoalitionGame,
    PermissionGame,
    ShapleyVector,
    TooManyPlayersError,
    exact_shapley,
    exact_shapley_by_permutations,
    loo_scores,
)
from royaltyshare.exact import exact_permission_shapley


def swap01(mask: int) -> int:
    low = mask & 0b11
    return (mask & ~0b11) | {0b00: 0b00, 0b01: 0b10, 0b10: 0b01, 0b11: 0b11}[low]


def test_glove_exact_values(glove_game):
    phi = exact_shapley(glove_game)
    assert phi.method == "stratified"
    np.testing.assert_allclose(phi.values, GLOVE_EXACT, rtol=0, atol=1e-15)
    assert glove_game.eval_count == 8


def test_glove_permutation_route(glove_game):
    phi = exact_shapley_by_permutations(glove_game)
    assert phi.method == "permutation"
    np.testing.assert_allclose(phi.values, GLOVE_EXACT, rtol=0, atol=1e-15)


def test_two_symmetric_players_split_evenly():
    game = table_game([0.0, 1.0, 1.0, 2.0])
    np.testing.assert_array_equal(exact_shapley(game).values, [1.0, 1.0])


def test_dummy_player_gets_its_constant():
    rng = np.random.default_rng(11)
    base = random_table(rng, 4)
    extended = np.concatenate([base, base + 0.5])
    phi = exact_shapley(table_game(extended))
    assert abs(phi.values[4] - 0.5) <= 1e-12


def test_additive_game_returns_weights():
    weights = [0.5, -1.25, 2.0, 0.75]
    game = CoalitionGame(
        4, lambda s: math.fsum(weights[i] for i in range(4) if s & (1 << i))
    )
    np.testing.assert_allclose(exact_shapley(game).values, weights, rtol=0, atol=1e-12)


def test_symmetric_players_match_exactly():
    rng = np.random.default_rng(17)
    table = random_table(rng, 5)
    symmetric = np.array([(table[m] + table[swap01(m)]) / 2.0 for m in range(32)])
    phi = exact_shapley(table_game(symmetric)).values
    assert phi[0] == phi[1]


def test_routes_agree_on_random_games():
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        table = random_table(rng, n)
        a = exact_shapley(table_game(table)).values
        b = exact_shapley_by_permutations(table_game(table)).values
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_nonzero_empty_utility_efficiency():
    rng = np.random.default_rng(29)
    table = random_table(rng, 4)
    table[0] = 3.0
    phi = exact_shapley(table_game(table)).values
    assert abs(math.fsum(phi) - (table[-1] - table[0])) <= 1e-9


def test_constant_shift_leaves_values_unchanged():
    rng = np.random.default_rng(31)
    table = random_table(rng, 4)
    phi = exact_shapley(table_game(table)).values
    shifted = exact_shapley(table_game(table + 10.0)).values
    np.testing.assert_allclose(phi, shifted, rtol=0, atol=1e-12)


def test_exact_limit_raises():
    game = CoalitionGame(4, lambda s: 0.0)
    with pytest.raises(TooManyPlayersError):
        exact_shapley(game, exact_limit=3)


def test_permutation_limit_raises():
    game = CoalitionGame(11, lambda s: 0.0)
    with pytest.raises(TooManyPlayersError):
        exact_shapley_by_permutations(game)


def test_loo_scores_glove(glove_game):
    np.testing.assert_array_equal(loo_scores(glove_game), [0.0, 0.0, 1.0])
    assert glove_game.eval_count == 4


def test_loo_costs_n_plus_one_evaluations():
    rng = np.random.default_rng(37)
    game = table_game(random_table(rng, 6))
    loo_scores(game)
    assert game.eval_count == 7


def test_shapley_vector_is_frozen(glove_game):
    phi = exact_shapley(glove_game)
    assert len(phi) == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        phi.method = "other"


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32))
def test_efficiency_holds_on_random_games(n, seed):
    table = random_table(np.random.default_rng(seed), n)
    phi = exact_shapley(table_game(table)).values
    v_n = table[-1]
    assert abs(math.fsum(phi) - v_n) <= 1e-9 * max(1.0, abs(v_n))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**32))
def test_linearity_of_exact_values(n, seed):
    rng = np.random.default_rng(seed)
    v, w = random_table(rng, n), random_table(rng, n)
    combo = exact_shapley(table_game(0.7 * v + 1.3 * w)).values
    parts = 0.7 * exact_shapley(table_game(v)).values + 1.3 * exact_shapley(table_game(w)).values
    np.testing.assert_allclose(combo, parts, rtol=0, atol=1e-9)


def formula_shapley(table: list[float], n: int) -> bytes:
    """The bytes of the stratified formula read literally: per player, per
    stratum, one fsum."""
    values = []
    for i in range(n):
        strata = []
        for k in range(n):
            marginals = [table[s | 1 << i] - table[s] for s in range(1 << n)
                         if not s >> i & 1 and bin(s).count("1") == k]
            strata.append(math.fsum(marginals) / math.comb(n - 1, k))
        values.append(math.fsum(strata) / n)
    return np.array(values, dtype=float).tobytes()


# Signed zeros and repeated values make exact ties and cancellations common.
_utilities = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-300, -1e-300]),
                       st.floats(min_value=-1e6, max_value=1e6))


@st.composite
def _tables(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    table = draw(st.lists(_utilities, min_size=1 << n, max_size=1 << n))
    table[0] = draw(st.sampled_from([0.0, -0.0]))
    return n, table


@settings(max_examples=150, deadline=None)
@given(_tables())
def test_stratified_kernel_matches_the_formula_bit_for_bit(drawn):
    n, table = drawn
    game = table_game(table, n)
    assert exact_shapley(game).values.tobytes() == formula_shapley(table, n)
    permission = exact_permission_shapley(game).values.tobytes()
    assert permission == exact_shapley(PermissionGame(game).augmented).values.tobytes()
    assert permission == formula_shapley([0.0] * (1 << n) + table, n + 1)
