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
from royaltyshare.games import EMPTY, MAX_PLAYERS, CoalitionMemo


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


def recording(calls, value=lambda masks: masks * 0.5):
    """A memo ``compute`` that records each batch it gets, as a list."""
    def compute(masks):
        calls.append(masks.tolist())
        return value(masks)
    return compute


def test_memo_computes_each_miss_once_in_order_of_first_appearance():
    calls = []
    memo = CoalitionMemo()
    compute = recording(calls)
    first = memo.get(np.array([9, 4, 9, 2, 4], dtype=np.uint64), compute)
    assert first.tolist() == [4.5, 2.0, 4.5, 1.0, 2.0]
    second = memo.get(np.array([7, 2, 11, 7, 9], dtype=np.uint64), compute)
    assert second.tolist() == [3.5, 1.0, 5.5, 3.5, 4.5]
    assert calls == [[9, 4, 2], [7, 11]] and memo.count == 5
    assert memo._keys.tolist() == [2, 4, 7, 9, 11]
    assert memo.get(np.array([11, 2], dtype=np.uint64), compute).tolist() == [5.5, 1.0]
    assert len(calls) == 2 and memo.count == 5


def test_memo_keeps_the_lowest_keys_up_to_its_capacity():
    calls = []
    memo = CoalitionMemo(capacity=3)
    compute = recording(calls)
    masks = np.array([8, 5, 1, 6, 5], dtype=np.uint64)
    for _ in range(2):
        assert memo.get(masks, compute).tolist() == [4.0, 2.5, 0.5, 3.0, 2.5]
        assert memo._keys.tolist() == [1, 5, 6]
    assert calls == [[8, 5, 1, 6], [8]] and memo.count == 5
    assert memo.get(np.array([0, 6], dtype=np.uint64), compute).tolist() == [0.0, 3.0]
    assert memo._keys.tolist() == [1, 5, 6] and calls[-1] == [0]


def test_memo_keeps_and_counts_nothing_when_compute_raises():
    memo = CoalitionMemo()
    memo.get(np.array([3, 1], dtype=np.uint64), recording([]))
    keys, values = memo._keys, memo._values

    def fail(masks):
        raise RuntimeError("compute failed")

    with pytest.raises(RuntimeError):
        memo.get(np.array([1, 4, 2], dtype=np.uint64), fail)
    assert memo._keys is keys and memo._values is values and memo.count == 2
    assert memo.get(np.array([2, 1], dtype=np.uint64), recording([])).tolist() == [1.0, 0.5]


def test_memo_values_can_be_rows():
    calls = []
    memo = CoalitionMemo(width=3)
    compute = recording(calls, lambda masks: masks[:, None] * np.array([1.0, -1.0, 0.25]))
    memo.get(np.array([6, 2], dtype=np.uint64), compute)
    rows = memo.get(np.array([2, 5, 6, 5], dtype=np.uint64), compute)
    assert rows.shape == (4, 3)
    np.testing.assert_array_equal(rows, [[2, -2, 0.5], [5, -5, 1.25], [6, -6, 1.5], [5, -5, 1.25]])
    assert calls == [[6, 2], [5]] and memo._values.shape == (3, 3)
    rows[:] = 0  # the returned rows are a copy
    np.testing.assert_array_equal(memo.get(np.array([2], dtype=np.uint64), compute), [[2, -2, 0.5]])
