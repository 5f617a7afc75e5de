"""The table-first solver core against pinned outputs and per-coalition references."""

from __future__ import annotations

import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_table, table_game
from royaltyshare import (
    CoalitionBoundsError,
    CoalitionGame,
    OracleFailureError,
    PermissionGame,
    TooManyPlayersError,
    developer_split,
    exact_shapley,
    permission_shapley,
)
from royaltyshare import exact
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
        digest.update(exact_shapley(table_game(table)).tobytes())
        pg = PermissionGame(table_game(table))
        digest.update(permission_shapley(pg).tobytes())
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
        direct = permission_shapley(pg)
        augmented = exact_shapley(pg.augmented)
        assert direct.tobytes() == augmented.tobytes(), (kind, n)


def test_exact_permission_limit_counts_owners(monkeypatch):
    game = CoalitionGame(4, lambda s: 0.0)
    monkeypatch.setattr(exact, "DEFAULT_EXACT_LIMIT", 4)
    assert len(exact_permission_shapley(game)) == 5
    monkeypatch.setattr(exact, "DEFAULT_EXACT_LIMIT", 3)
    with pytest.raises(TooManyPlayersError):
        exact_permission_shapley(game)


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


def test_evaluate_many_keeps_nothing_of_a_plain_oracle_batch_that_fails():
    calls = []

    def oracle(s):
        calls.append(s)
        if s == 2:
            raise RuntimeError("flaky")
        return float(s)

    game = CoalitionGame(2, oracle)
    with pytest.raises(RuntimeError):
        game.evaluate_many([1, 2, 3])
    assert calls == [1, 2] and game.eval_count == 0
    np.testing.assert_array_equal(game.evaluate_many([1]), [1.0])
    assert calls == [1, 2, 1] and game.eval_count == 1


def test_single_misses_merge_into_the_memo_before_a_batch():
    calls = []
    game = CoalitionGame(3, lambda s: calls.append(s) or float(s))
    assert [game.evaluate(s) for s in (6, 1, 4, 1)] == [6.0, 1.0, 4.0, 1.0]
    assert calls == [6, 1, 4] and game.eval_count == 3
    np.testing.assert_array_equal(game.evaluate_many([4, 0, 6, 1, 2]), [4.0, 0.0, 6.0, 1.0, 2.0])
    assert game.evaluate(5) == 5.0 and game.evaluate(2) == 2.0
    np.testing.assert_array_equal(game.evaluate_many(np.arange(8)), np.arange(8.0))
    assert calls == [6, 1, 4, 0, 2, 5, 3, 7] and game.eval_count == 8


def utility(s: int) -> float:
    return ((s * 0x9E3779B97F4A7C15) % 2**64) / 2.0**64 - 0.5


class RecordingOracle:
    """Records every coalition it receives, as a Python int; raises on ``fail_on``."""

    def __init__(self, fail_on):
        self.fail_on = fail_on
        self.received = []

    def __call__(self, s):
        assert type(s) is int
        self.received.append(s)
        if s == self.fail_on:
            raise OracleFailureError(f"coalition {s} fails")
        return utility(s)


class RecordingBatchOracle(RecordingOracle):
    """The same, as a batch oracle: records each batch; a batch holding ``fail_on`` raises."""

    def many(self, masks):
        batch = [int(s) for s in masks]
        self.received.append(batch)
        if self.fail_on in batch:
            raise OracleFailureError(f"coalition {self.fail_on} fails")
        return np.array([utility(s) for s in batch])


class DictMemo:
    """Reference model of ``evaluate_many``'s documented semantics, over a plain dict."""

    def __init__(self, batch, fail_on):
        self.batch = batch
        self.fail_on = fail_on
        self.memo = {}
        self.received = []

    def evaluate_many(self, keys):
        """A batch oracle sees the misses in one call, a plain one each in turn
        up to the failing one; either way a failing batch keeps nothing."""
        missing = [s for s in dict.fromkeys(keys) if s not in self.memo]
        if self.batch and missing:
            self.received.append(missing)
        for s in missing:
            if not self.batch:
                self.received.append(s)
            if s == self.fail_on:
                raise OracleFailureError
        self.memo.update((s, utility(s)) for s in missing)
        return [self.memo[s] for s in keys]


@st.composite
def memo_sessions(draw):
    """A player count, an oracle kind and failing coalition, and a sequence of batches.

    Batches draw from a small pool, so they repeat coalitions within and
    across calls; at n = 64 the pool holds a coalition with bit 63 set. A
    batch may instead be one coalition as a Python int, for ``evaluate``.
    """
    n = draw(st.one_of(st.just(64), st.integers(1, 63)))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    if n == 64:
        pool.append(draw(st.integers(1 << 63, (1 << 64) - 1)))
    batches = []
    for keys in draw(st.lists(st.lists(st.sampled_from(pool), max_size=10), max_size=6)):
        if keys and draw(st.booleans()):
            batches.append(keys[0])
            continue
        signed = max(keys, default=0) < 1 << 63 and draw(st.booleans())
        arr = np.array(keys, dtype=np.int64 if signed else np.uint64)
        if len(keys) % 2 == 0 and draw(st.booleans()):
            arr = arr.reshape(2, -1)
        batches.append(arr)
    return n, draw(st.booleans()), draw(st.none() | st.sampled_from(pool)), batches


@settings(max_examples=300, deadline=None)
@given(memo_sessions())
def test_array_memo_matches_a_dict_reference(session):
    n, batch, fail_on, batches = session
    oracle = (RecordingBatchOracle if batch else RecordingOracle)(fail_on)
    game = CoalitionGame(n, oracle)
    reference = DictMemo(batch, fail_on)
    for masks in batches:
        single = isinstance(masks, int)
        call = game.evaluate if single else game.evaluate_many
        try:
            expected = reference.evaluate_many([masks] if single else masks.ravel().tolist())
        except OracleFailureError:
            with pytest.raises(OracleFailureError):
                call(masks)
        else:
            values = call(masks)
            if single:
                assert type(values) is float and [values] == expected
            else:
                assert values.shape == masks.shape and values.dtype == np.float64
                assert values.ravel().tolist() == expected
        assert game.eval_count == len(reference.memo)
        assert oracle.received == reference.received


def test_concurrent_evaluate_many_pays_each_coalition_once():
    table = random_table(np.random.default_rng(67), 8)
    received = []
    game = CoalitionGame(8, lambda s: received.append(s) or float(table[s]))
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
    assert sorted(received) == sorted(set(np.concatenate(batches).tolist()))


def test_concurrent_single_misses_and_batches_lose_no_coalition():
    """``evaluate`` is ``evaluate_many`` of one coalition; racing single
    misses against batches must neither lose nor double-count one."""
    table = random_table(np.random.default_rng(73), 12)
    game = table_game(table)
    rng = np.random.default_rng(79)
    singles = [rng.integers(0, 4096, size=1500).tolist() for _ in range(4)]
    batches = [[rng.integers(0, 4096, size=20) for _ in range(60)] for _ in range(4)]
    failures = []

    def evaluate_each(masks):
        for s in masks:
            if game.evaluate(s) != table[s]:
                failures.append(s)

    def evaluate_batches(arrays):
        for masks in arrays:
            if not np.array_equal(game.evaluate_many(masks), table[masks]):
                failures.append(masks)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=evaluate_each, args=(m,)) for m in singles]
        threads += [threading.Thread(target=evaluate_batches, args=(b,)) for b in batches]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    seen = sorted(set(sum(singles, [])) | set(np.concatenate(sum(batches, [])).tolist()))
    assert game.eval_count == len(seen)
    np.testing.assert_array_equal(game.evaluate_many(seen), table[seen])
    assert game.eval_count == len(seen)
