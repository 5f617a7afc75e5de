from __future__ import annotations

import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GLOVE_EXACT, random_table, table_game
from royaltyshare import (
    CoalitionGame,
    NonFiniteError,
    PermissionGame,
    TooManyPlayersError,
    exact_shapley,
    exact_shapley_by_permutations,
    loo_scores,
)
from royaltyshare import exact
from royaltyshare.cache import DigestCache
from royaltyshare.cli import main
from royaltyshare.exact import _coalitions_by_size, _stratum_sums, exact_permission_shapley


def swap01(mask: int) -> int:
    low = mask & 0b11
    return (mask & ~0b11) | {0b00: 0b00, 0b01: 0b10, 0b10: 0b01, 0b11: 0b11}[low]


def test_glove_exact_values(glove_game):
    phi = exact_shapley(glove_game)
    np.testing.assert_allclose(phi, GLOVE_EXACT, rtol=0, atol=1e-15)
    assert glove_game.eval_count == 8


def test_glove_permutation_route(glove_game):
    phi = exact_shapley_by_permutations(glove_game)
    np.testing.assert_allclose(phi, GLOVE_EXACT, rtol=0, atol=1e-15)


def test_two_symmetric_players_split_evenly():
    game = table_game([0.0, 1.0, 1.0, 2.0])
    np.testing.assert_array_equal(exact_shapley(game), [1.0, 1.0])


def test_dummy_player_gets_its_constant():
    rng = np.random.default_rng(11)
    base = random_table(rng, 4)
    extended = np.concatenate([base, base + 0.5])
    phi = exact_shapley(table_game(extended))
    assert abs(phi[4] - 0.5) <= 1e-12


def test_additive_game_returns_weights():
    weights = [0.5, -1.25, 2.0, 0.75]
    game = CoalitionGame(
        4, lambda s: math.fsum(weights[i] for i in range(4) if s & (1 << i))
    )
    np.testing.assert_allclose(exact_shapley(game), weights, rtol=0, atol=1e-12)


def test_symmetric_players_match_exactly():
    rng = np.random.default_rng(17)
    table = random_table(rng, 5)
    symmetric = np.array([(table[m] + table[swap01(m)]) / 2.0 for m in range(32)])
    phi = exact_shapley(table_game(symmetric))
    assert phi[0] == phi[1]


def test_routes_agree_on_random_games():
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        table = random_table(rng, n)
        a = exact_shapley(table_game(table))
        b = exact_shapley_by_permutations(table_game(table))
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_compacted_permutation_buffers_give_the_bits_of_one_fsum(monkeypatch):
    # Marginals over sixteen orders of magnitude: a compaction that kept only
    # the rounded partial sum would move the last bits of most values.
    rng = np.random.default_rng(61)
    tables = [random_table(rng, 5) * np.logspace(-8, 8, 32) for _ in range(10)]
    whole = [exact_shapley_by_permutations(table_game(t)) for t in tables]
    monkeypatch.setattr(exact, "_FSUM_CHUNK", 7)  # of 120 marginals per player
    for table, values in zip(tables, whole):
        np.testing.assert_array_equal(exact_shapley_by_permutations(table_game(table)),
                                      values)


def test_nonzero_empty_utility_efficiency():
    rng = np.random.default_rng(29)
    table = random_table(rng, 4)
    table[0] = 3.0
    phi = exact_shapley(table_game(table))
    assert abs(math.fsum(phi) - (table[-1] - table[0])) <= 1e-9


def test_constant_shift_leaves_values_unchanged():
    rng = np.random.default_rng(31)
    table = random_table(rng, 4)
    phi = exact_shapley(table_game(table))
    shifted = exact_shapley(table_game(table + 10.0))
    np.testing.assert_allclose(phi, shifted, rtol=0, atol=1e-12)


def test_exact_limit_raises():
    calls = []
    game = CoalitionGame(21, lambda s: calls.append(s) or 0.0)
    with pytest.raises(TooManyPlayersError):
        exact_shapley(game)
    assert calls == []


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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32))
def test_efficiency_holds_on_random_games(n, seed):
    table = random_table(np.random.default_rng(seed), n)
    phi = exact_shapley(table_game(table))
    v_n = table[-1]
    assert abs(math.fsum(phi) - v_n) <= 1e-9 * max(1.0, abs(v_n))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**32))
def test_linearity_of_exact_values(n, seed):
    rng = np.random.default_rng(seed)
    v, w = random_table(rng, n), random_table(rng, n)
    combo = exact_shapley(table_game(0.7 * v + 1.3 * w))
    parts = 0.7 * exact_shapley(table_game(v)) + 1.3 * exact_shapley(table_game(w))
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
# Every marginal of player 0 is -0.0, but math.fsum of negative zeros alone is
# +0.0, so player 0's strata and value are +0.0 in the owners' game and in the
# permission game alike.
@example((1, [0.0, -0.0]))
@example((2, [0.0, -0.0, 0.0, -0.0]))
def test_stratified_kernel_matches_the_formula_bit_for_bit(drawn):
    n, table = drawn
    game = table_game(table, n)
    owners = exact_shapley(game).tobytes()
    assert owners == formula_shapley(table, n)
    permission = exact_permission_shapley(game).tobytes()
    assert permission == exact_shapley(PermissionGame(game).augmented).tobytes()
    assert permission == formula_shapley([0.0] * (1 << n) + table, n + 1)
    marginals = [table[s | 1] - table[s] for s in range(0, 1 << n, 2)]
    if all(m == 0.0 and math.copysign(1.0, m) < 0 for m in marginals):
        positive_zero = np.float64(0.0).tobytes()
        assert owners[:8] == permission[:8] == positive_zero


@pytest.fixture
def counted_passes(monkeypatch):
    """An empty stratum cache; the list records the n of each uncached pass."""
    monkeypatch.setattr(exact, "_STRATA", DigestCache(exact._CACHE_SIZE))
    passes = []
    uncached = exact._stratum_pass

    def counting(table, n):
        passes.append(n)
        return uncached(table, n)

    monkeypatch.setattr(exact, "_stratum_pass", counting)
    return passes


@pytest.mark.parametrize("n", [1, 3, 6])
def test_cold_and_warm_stratum_sums_are_bit_equal(counted_passes, n):
    table = random_table(np.random.default_rng(n), n)
    table[1] = -0.0
    cold = [exact_shapley(table_game(table)).tobytes(),
            exact_permission_shapley(table_game(table)).tobytes()]
    warm = [exact_shapley(table_game(table)).tobytes(),
            exact_permission_shapley(table_game(table)).tobytes()]
    assert warm == cold and counted_passes == [n]
    assert cold[0] == formula_shapley(table.tolist(), n)
    assert cold[1] == formula_shapley([0.0] * (1 << n) + table.tolist(), n + 1)


def test_tables_an_ulp_or_a_zero_sign_apart_get_their_own_entries(counted_passes):
    table = random_table(np.random.default_rng(3), 3)
    table[2] = 0.0
    ulp, signed = table.copy(), table.copy()
    ulp[1] = np.nextafter(ulp[1], np.inf)
    signed[2] = -0.0
    sums = [_stratum_sums(t, 3) for t in (table, ulp, signed)]
    assert counted_passes == [3, 3, 3] and len(exact._STRATA._entries) == 3
    assert sums == [exact._stratum_pass(t, 3) for t in (table, ulp, signed)]
    # F[0][0] is v({0}) - v({}), and v({}) is 0.
    assert sums[1][0][0] == ulp[1] != sums[0][0][0]


def test_cached_stratum_sums_cannot_be_changed(counted_passes):
    table = random_table(np.random.default_rng(4), 3)
    sums = _stratum_sums(table, 3)
    with pytest.raises(TypeError):
        sums[0][0] = 1.0
    with pytest.raises(TypeError):
        sums[0] = (1.0, 2.0, 3.0)
    assert _stratum_sums(table, 3) == exact._stratum_pass(table, 3)


def test_coalitions_by_size_is_built_once_and_read_only():
    order = _coalitions_by_size(4)
    assert _coalitions_by_size(4) is order
    assert [bin(int(s)).count("1") for s in order] == sorted(bin(s).count("1") for s in range(16))
    with pytest.raises(ValueError):
        order[0] = 1


def test_attribute_developer_share_and_compare_loo_run_one_pass(tmp_path, monkeypatch,
                                                                counted_passes):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"oracle": {"kind": "additive", "weights": [2.0, -1.0, 4.0, 0.5]},
                                  "beta": "permission"}), encoding="utf-8")
    out = tmp_path / "out"

    def run(command, stem):
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        return [(out / f"{stem}{ext}").read_bytes() for ext in (".csv", ".meta.json")]

    runs = [("attribute", "attribution"), ("developer-share", "developer_share"),
            ("compare-loo", "compare_loo")]
    warm = [run(*r) for r in runs]
    assert counted_passes == [4]
    cold = []
    for r in runs:
        monkeypatch.setattr(exact, "_STRATA", DigestCache(exact._CACHE_SIZE))
        cold.append(run(*r))
    assert cold == warm and counted_passes == [4] * 4


def test_a_pass_that_raises_stores_nothing(counted_passes):
    # Player 0's stratum 1 sums two marginals of 1e308: fsum overflows.
    table = [0.0, 1e308, 0.0, 1e308, 0.0, 1e308, 0.0, 1e308]
    for _ in range(2):
        with pytest.raises(NonFiniteError, match="^player 0's Shapley value is not finite"):
            exact_shapley(table_game(table))
    assert counted_passes == [3, 3] and not exact._STRATA._entries


@pytest.mark.parametrize("solver", [exact_shapley, exact_permission_shapley,
                                    exact_shapley_by_permutations, loo_scores])
def test_a_marginal_past_the_float_range_raises_naming_its_player(solver):
    # Player 1 adds 2e308 to {0}: the difference of two finite utilities overflows.
    game = table_game([0.0, -1e308, 0.0, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError, match="^player 1's"):
            solver(game)


def test_the_stratum_cache_stays_bounded(counted_passes):
    rng = np.random.default_rng(6)
    tables = [random_table(rng, 4) for _ in range(exact._CACHE_SIZE + 3)]
    first = [exact_shapley(table_game(t)).tobytes() for t in tables]
    assert len(exact._STRATA._entries) == exact._CACHE_SIZE
    # The oldest three were evicted and run their pass again, with the same bits.
    again = [exact_shapley(table_game(t)).tobytes() for t in tables[:3]]
    assert again == first[:3] and len(counted_passes) == len(tables) + 3
    assert len(exact._STRATA._entries) == exact._CACHE_SIZE


def test_threads_get_bit_identical_stratum_sums(counted_passes):
    rng = np.random.default_rng(7)
    tables = [random_table(rng, 7) for _ in range(4)]

    def solve(k):
        game = table_game(tables[k % len(tables)])
        return exact_shapley(game).tobytes(), exact_permission_shapley(game).tobytes()

    expected = [(formula_shapley(t.tolist(), 7), formula_shapley([0.0] * 128 + t.tolist(), 8))
                for t in tables]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(solve, range(32), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[k % len(tables)] for k in range(32)]
    assert len(exact._STRATA._entries) == len(tables)
