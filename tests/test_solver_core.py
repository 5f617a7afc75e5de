"""The table-first solver core against pinned outputs and per-coalition references."""

from __future__ import annotations

import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from conftest import random_table, table_game
from royaltyshare import (
    CoalitionBoundsError,
    CoalitionGame,
    PermissionGame,
    TooManyPlayersError,
    developer_split,
    exact_shapley,
    permission_shapley,
)
from royaltyshare.exact import exact_permission_shapley

SOLVER_CORPUS_SEED = 20240421
SOLVER_CORPUS_SIZE = 200

# sha256 of the corpus outputs below, computed with the per-coalition solvers
# that preceded the table-first core. Any change to a single bit of any
# output, the sign of a zero included, changes it.
SOLVER_CORPUS_DIGEST = "d45d2b28400ea3dfb4b1c2fad75a7a130ccb1a1196ce1ad980088fd6aafaa225"


def solver_corpus():
    """200 seeded games, n = 1..10, in four families of 10-game runs.

    ``uniform`` draws i.i.d. utilities; ``rounded`` snaps them to quarter
    steps, so marginals tie, vanish and come out as -0.0, and every other
    rounded game has v(empty) = -0.0; ``duplicate`` makes owners 0 and 1 hold
    the same data; ``additive`` sums eighth-step weights. v(empty) is zero
    throughout so every game also has a permission game.
    """
    rng = np.random.default_rng(SOLVER_CORPUS_SEED)
    corpus = []
    for index in range(SOLVER_CORPUS_SIZE):
        n = 1 + index % 10
        kind = ("uniform", "rounded", "duplicate", "additive")[(index // 10) % 4]
        masks = np.arange(1 << n)
        table = rng.uniform(-1.0, 1.0, size=1 << n)
        if kind == "rounded":
            table = np.round(table * 4.0) / 4.0
        elif kind == "duplicate":
            low = masks & 0b11
            table = table[(masks & ~0b11) | np.where(low == 0b10, 0b01, low)]
        elif kind == "additive":
            weights = np.round(rng.uniform(-1.0, 1.0, size=n) * 8.0) / 8.0
            table = np.array(
                [math.fsum(weights[i] for i in range(n) if s >> i & 1) for s in masks]
            )
        table[0] = -0.0 if kind == "rounded" and index % 2 else 0.0
        corpus.append((kind, n, table))
    return corpus


def corpus_digest() -> str:
    digest = hashlib.sha256()
    for _, _, table in solver_corpus():
        digest.update(exact_shapley(table_game(table)).values.tobytes())
        pg = PermissionGame(table_game(table))
        digest.update(permission_shapley(pg).values.tobytes())
        split = developer_split(PermissionGame(table_game(table)))
        digest.update(np.array([split.beta_data, split.developer_share]).tobytes())
        digest.update(split.owner_payout_fractions.tobytes())
        digest.update(bytes([split.degenerate]))
    return digest.hexdigest()


def test_solver_corpus_outputs_match_pinned_digest():
    assert corpus_digest() == SOLVER_CORPUS_DIGEST


def test_exact_permission_values_equal_the_augmented_game_solve():
    for kind, n, table in solver_corpus():
        if n > 7:
            continue
        pg = PermissionGame(table_game(table))
        direct = permission_shapley(pg).values
        augmented = exact_shapley(pg.augmented).values
        assert direct.tobytes() == augmented.tobytes(), (kind, n)


def test_exact_permission_limit_counts_owners():
    game = CoalitionGame(4, lambda s: 0.0)
    assert len(exact_permission_shapley(game, exact_limit=4)) == 5
    with pytest.raises(TooManyPlayersError):
        exact_permission_shapley(game, exact_limit=3)


def test_exact_solvers_pay_each_coalition_once():
    table = random_table(np.random.default_rng(61), 5)
    calls = []
    game = CoalitionGame(5, lambda s: calls.append(s) or float(table[s]))
    exact_shapley(game)
    developer_split(PermissionGame(game))
    assert sorted(calls) == list(range(32))
    assert game.eval_count == 32


def test_evaluate_many_reads_the_memo_and_counts_new_coalitions():
    calls = []
    game = CoalitionGame(3, lambda s: calls.append(s) or float(s) / 2.0)
    assert game.evaluate(0b101) == 2.5
    values = game.evaluate_many(np.array([[3, 5], [3, 0]]))
    np.testing.assert_array_equal(values, [[1.5, 2.5], [1.5, 0.0]])
    assert calls == [0b101, 3, 0]
    assert game.eval_count == 3
    assert game.evaluate_many([]).shape == (0,)


def test_evaluate_many_checks_bounds_before_any_oracle_call():
    calls = []
    game = CoalitionGame(3, lambda s: calls.append(s) or 0.0)
    for bad in ([1, 0b1000], [2, -1], [0.5]):
        with pytest.raises(CoalitionBoundsError):
            game.evaluate_many(bad)
    assert calls == [] and game.eval_count == 0


def test_evaluate_many_keeps_what_it_evaluated_before_a_failure():
    def oracle(s):
        if s == 2:
            raise RuntimeError("flaky")
        return float(s)

    game = CoalitionGame(2, oracle)
    with pytest.raises(RuntimeError):
        game.evaluate_many([1, 2, 3])
    assert game.cache == {1: 1.0}
    assert game.eval_count == 1


def test_concurrent_evaluate_many_pays_each_coalition_once():
    table = random_table(np.random.default_rng(67), 8)
    game = table_game(table)
    rng = np.random.default_rng(71)
    batches = [rng.integers(0, 256, size=300) for _ in range(8)]
    results = {}

    def worker(k):
        results[k] = game.evaluate_many(batches[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k, batch in enumerate(batches):
        np.testing.assert_array_equal(results[k], table[batch])
    assert game.eval_count == len(set(np.concatenate(batches).tolist()))
