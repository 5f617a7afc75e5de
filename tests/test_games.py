from __future__ import annotations

import threading

import numpy as np
import pytest

from conftest import random_table, table_game
from royaltyshare import (
    CoalitionBoundsError,
    CoalitionGame,
    coalition_members,
    full_coalition,
)
from royaltyshare.games import EMPTY, MAX_PLAYERS


def test_empty_and_full():
    assert coalition_members(EMPTY) == []
    assert full_coalition(4) == 0b1111
    assert coalition_members(full_coalition(3)) == [0, 1, 2]


def test_game_memoizes_and_counts_evaluations():
    calls = []

    def oracle(s):
        calls.append(s)
        return float(s)

    game = CoalitionGame(3, oracle)
    for _ in range(3):
        assert game.evaluate(0b101) == 5.0
    assert calls == [0b101]
    assert game.eval_count == 1
    np.testing.assert_array_equal(game.evaluate_many([0b101]), [5.0])
    assert calls == [0b101] and game.eval_count == 1


def test_game_rejects_out_of_range_coalitions():
    calls = []
    game = CoalitionGame(3, lambda s: calls.append(s) or 0.0)
    for bad in (0b1000, -1, 1.5, 1 << 64):
        with pytest.raises(CoalitionBoundsError):
            game.evaluate(bad)
        with pytest.raises(CoalitionBoundsError):
            game.evaluate_many([bad])
    assert calls == [] and game.eval_count == 0


def test_game_rejects_bad_player_counts():
    with pytest.raises(CoalitionBoundsError):
        CoalitionGame(-1, lambda s: 0.0)
    with pytest.raises(CoalitionBoundsError):
        CoalitionGame(MAX_PLAYERS + 1, lambda s: 0.0)


def test_game_allows_nonzero_empty_utility():
    game = CoalitionGame(2, lambda s: 7.0)
    assert game.evaluate(EMPTY) == 7.0


def test_oracle_error_propagates_and_is_not_cached():
    state = {"fail": True}

    def oracle(s):
        if state["fail"]:
            raise RuntimeError("flaky")
        return 1.0

    game = CoalitionGame(2, oracle)
    with pytest.raises(RuntimeError):
        game.evaluate(0b01)
    state["fail"] = False
    assert game.evaluate(0b01) == 1.0
    assert game.eval_count == 1


def test_grand_coalition():
    assert table_game(np.zeros(16)).grand_coalition() == 0b1111


def test_concurrent_evaluation_agrees_with_table():
    rng = np.random.default_rng(5)
    table = random_table(rng, 8)
    game = table_game(table)
    masks = rng.integers(0, 256, size=400)
    results = {}

    def worker(chunk):
        for m in chunk:
            results[int(m)] = game.evaluate(int(m))

    threads = [threading.Thread(target=worker, args=(masks[i::8],)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for m, value in results.items():
        assert value == table[m]
    assert game.eval_count == len(set(masks.tolist()))
