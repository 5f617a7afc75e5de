from __future__ import annotations

import contextlib
import fcntl
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from royaltyshare import (
    DuplicateIdError,
    GenerationEvent,
    LedgerStore,
    ShareVector,
    StorageFailureError,
    Transaction,
    settle_full,
    settle_subsampled,
    write_settlement_csv,
)
from royaltyshare import ledger
from royaltyshare.ledger import CHECKPOINT_NAME, LOG_NAME


def share_row(*values):
    return ShareVector(shares=np.array(values, dtype=float), degenerate=False)


def make_tx(tx_id, price, shares=None, coords=(0.0, 0.0), label=None):
    return Transaction(
        id=tx_id,
        price=price,
        event=GenerationEvent(x=np.array(coords, dtype=float), label=label),
        srs=shares,
    )


@pytest.fixture()
def store(tmp_path):
    return LedgerStore(tmp_path / "ledger")


def test_transaction_validation():
    event = GenerationEvent(x=np.zeros(1))
    for bad_id in ("", "a|b", "a\nb"):
        with pytest.raises(ValueError):
            Transaction(id=bad_id, price=1.0, event=event)
    for bad_price in (-1.0, float("inf")):
        with pytest.raises(ValueError):
            Transaction(id="t", price=bad_price, event=event)
    with pytest.raises(ValueError):
        Transaction(id="t", price=1.0, event=event, srs=share_row(0.9, 0.3))
    with pytest.raises(ValueError):
        Transaction(id="t", price=1.0, event=event, srs=share_row(1.5, -0.5))


def test_an_empty_share_row_is_rejected():
    with pytest.raises(ValueError, match="share rows must be nonempty"):
        make_tx("t", 1.0, share_row())


def test_record_and_reopen_bit_exact(store):
    tx = make_tx("tx-1", math.pi, share_row(1.0 / 3.0, 2.0 / 3.0), coords=(0.1, -2.5e-17))
    store.record(tx)
    store.record(make_tx("tx-2", 2.0, label="style-b"))
    reopened = LedgerStore(store.path, create=False)
    txs = reopened.transactions()
    assert [t.id for t in txs] == ["tx-1", "tx-2"]
    assert txs[0].price == math.pi
    np.testing.assert_array_equal(txs[0].event.x, tx.event.x)
    np.testing.assert_array_equal(txs[0].srs.shares, tx.srs.shares)
    assert txs[1].event.label == "style-b"
    assert txs[1].srs is None


def test_duplicate_ids_rejected(store):
    store.record(make_tx("tx-1", 1.0))
    with pytest.raises(DuplicateIdError):
        store.record(make_tx("tx-1", 2.0))
    log = (store.path / LOG_NAME).read_bytes()
    # A batch is checked whole, against the store and itself, and appends nothing if it fails.
    for batch in (["tx-2", "tx-1"], ["tx-2", "tx-3", "tx-2"]):
        with pytest.raises(DuplicateIdError):
            store.record_many([make_tx(tx_id, 1.0) for tx_id in batch])
    assert (store.path / LOG_NAME).read_bytes() == log
    assert [tx.id for tx in store.transactions()] == ["tx-1"]


def test_a_settled_id_cannot_be_recorded_again(store):
    store.record(make_tx("tx-1", 1.0, share_row(1.0)))
    settle_full(store, beta_data=0.5)
    for s in (store, LedgerStore(store.path, create=False)):
        with pytest.raises(DuplicateIdError):
            s.record(make_tx("tx-1", 2.0, share_row(1.0)))


@pytest.mark.parametrize("shares, coords", [
    ((math.nan, 1.0), (0.0, 0.0)),
    ((math.inf, 0.0), (0.0, 0.0)),
    ((1e308, 1e308), (0.0, 0.0)),  # finite, but math.fsum overflows
    ((1.0,), (math.nan, 0.0)),
    ((1.0,), (0.0, -math.inf)),
])
def test_non_finite_shares_and_coordinates_are_rejected(store, shares, coords):
    with pytest.raises(ValueError, match="must be finite"):
        store.record(make_tx("tx-1", 1.0, share_row(*shares), coords=coords))
    assert store.transactions() == []
    # The same transaction written by hand does not reopen.
    srs = ",".join(map(repr, shares))
    line = f"tx-1|1.0|{','.join(map(repr, coords))}|{srs}|0\n"
    (store.path / LOG_NAME).write_text(line, encoding="utf-8")
    with pytest.raises(StorageFailureError, match="line 1"):
        LedgerStore(store.path, create=False)


def test_event_labels_cannot_break_the_line_format(store):
    with pytest.raises(ValueError):
        store.record(make_tx("tx-1", 1.0, label="a|b"))


def test_malformed_log_line_raises_on_reopen(store):
    store.record(make_tx("tx-1", 1.0))
    with open(store.path / LOG_NAME, "a", encoding="utf-8") as fh:
        fh.write("garbage line\n")
    with pytest.raises(StorageFailureError):
        LedgerStore(store.path, create=False)


def test_settle_full_known_payouts(store):
    store.record(make_tx("tx-1", 1.0, share_row(1.0, 0.0)))
    store.record(make_tx("tx-2", 1.0, share_row(0.2, 0.8)))
    report = settle_full(store, beta_data=1.0)
    np.testing.assert_allclose(report.owner_payouts, [1.2, 0.8], rtol=0, atol=1e-15)
    assert report.developer_payout == 0.0
    assert report.total_income == 2.0
    assert report.conservation_error <= 1e-9
    assert report.estimator == "full"
    assert store.unsettled() == []
    assert store.is_settled("tx-1") and store.is_settled("tx-2")
    assert store.settlement_count == 1


def test_settle_full_splits_with_developer(store):
    store.record(make_tx("tx-1", 2.0, share_row(0.5, 0.5)))
    report = settle_full(store, beta_data=0.7)
    assert report.developer_payout == pytest.approx(0.6, abs=1e-15)
    np.testing.assert_allclose(report.owner_payouts, [0.7, 0.7], rtol=0, atol=1e-15)
    assert report.conservation_error <= 1e-9


def test_a_beta_outside_0_to_1_raises_and_writes_nothing(store):
    store.record(make_tx("tx-1", 1.0, share_row(1.0)))
    log = (store.path / LOG_NAME).read_bytes()
    with pytest.raises(ValueError, match=r"beta_data must lie in \[0, 1\], got 1.5"):
        settle_full(store, 1.5)
    assert (store.path / LOG_NAME).read_bytes() == log
    assert [t.id for t in store.unsettled()] == ["tx-1"] and store.settlement_count == 0


def test_preview_mode_changes_nothing(store):
    store.record(make_tx("tx-1", 1.0, share_row(1.0)))
    log_before = (store.path / LOG_NAME).read_bytes()
    report = settle_full(store, beta_data=0.5, apply=False)
    assert report.owner_payouts[0] == 0.5
    assert store.unsettled() != []
    assert store.balances == {}
    assert (store.path / LOG_NAME).read_bytes() == log_before


def test_attribution_failures_are_quarantined(store):
    store.record(make_tx("tx-good", 1.0, share_row(1.0)))
    store.record(make_tx("tx-bad", 1.0))
    report = settle_full(store, beta_data=1.0)
    assert report.failed_ids == ("tx-bad",)
    assert report.failed_reasons == {"tx-bad": "no shares and no attributor"}
    assert store.is_settled("tx-good")
    assert not store.is_settled("tx-bad")
    assert [t.id for t in store.unsettled()] == ["tx-bad"]
    assert report.owner_payouts[0] == 1.0


@pytest.mark.parametrize(
    "seed, failed, income, payouts",
    [
        # The sample is tx-a and tx-bad: tx-bad is quarantined, and tx-c is paid
        # at tx-a's shares.
        (3, {"tx-bad": "no shares and no attributor"}, 5.0, [1.25, 3.75]),
        # The sample is tx-a and tx-c: tx-bad is paid at their mean, 0.5 each.
        (0, {}, 7.0, [3.5, 3.5]),
    ],
)
def test_a_sampled_sale_without_shares_is_quarantined_and_an_unsampled_one_is_paid(
    store, seed, failed, income, payouts
):
    store.record(make_tx("tx-a", 1.0, share_row(0.25, 0.75)))
    store.record(make_tx("tx-bad", 2.0))
    store.record(make_tx("tx-c", 4.0, share_row(0.75, 0.25)))
    report = settle_subsampled(store, beta_data=1.0, sample_size=2, seed=seed)
    assert report.failed_reasons == failed
    assert report.total_income == income
    assert report.owner_payouts.tolist() == payouts
    assert [t.id for t in store.unsettled()] == list(failed)
    assert store.is_settled("tx-a") and store.is_settled("tx-c")


def test_missing_shares_without_attributor_are_quarantined(store):
    store.record(make_tx("tx-1", 1.0))
    report = settle_full(store, beta_data=1.0)
    assert report.failed_ids == ("tx-1",)
    assert report.failed_reasons == {"tx-1": "no shares and no attributor"}
    assert report.total_income == 0.0


def test_balances_accumulate_and_survive_reopen(store):
    store.record(make_tx("tx-1", 1.0, share_row(1.0, 0.0)))
    settle_full(store, beta_data=0.8)
    store.record(make_tx("tx-2", 1.0, share_row(0.0, 1.0)))
    settle_full(store, beta_data=0.8)
    assert store.settlement_count == 2
    balances = store.balances
    reopened = LedgerStore(store.path, create=False)
    assert reopened.balances == balances
    assert reopened.developer_balance == store.developer_balance
    assert reopened.settlement_count == 2
    assert reopened.unsettled() == []


def test_log_is_append_only(store):
    store.record(make_tx("tx-1", 1.0, share_row(1.0)))
    before = (store.path / LOG_NAME).read_bytes()
    settle_full(store, beta_data=1.0)
    after = (store.path / LOG_NAME).read_bytes()
    assert after.startswith(before)
    assert len(after) > len(before)


def test_subsampled_full_cover_equals_full_bitwise(tmp_path):
    def build(name):
        s = LedgerStore(tmp_path / name)
        rng = np.random.default_rng(3)
        for k in range(40):
            raw = rng.dirichlet((4.0, 3.0, 2.0))
            s.record(make_tx(f"tx-{k:02d}", 2.5, share_row(*raw)))
        return s

    full_report = settle_full(build("a"), beta_data=0.6)
    sub_report = settle_subsampled(build("b"), beta_data=0.6, sample_size=40, seed=9)
    np.testing.assert_array_equal(full_report.owner_payouts, sub_report.owner_payouts)
    assert full_report.developer_payout == sub_report.developer_payout


def test_subsampled_estimates_and_conserves(store):
    rng = np.random.default_rng(5)
    for k in range(200):
        raw = rng.dirichlet((6.0, 4.0))
        store.record(make_tx(f"tx-{k:03d}", float(rng.uniform(0.5, 1.5)), share_row(*raw)))
    report = settle_subsampled(store, beta_data=0.9, sample_size=50, seed=11)
    assert report.estimator == "subsampled"
    assert report.sampled_fraction == 0.25
    assert report.conservation_error <= 1e-9
    assert store.unsettled() == []
    np.testing.assert_allclose(
        report.owner_payouts / report.owner_payouts.sum(),
        [0.6, 0.4],
        rtol=0,
        atol=0.1,
    )


def test_subsampled_sample_size_bounds(store):
    store.record(make_tx("tx-1", 1.0, share_row(1.0)))
    for bad in (0, 2):
        with pytest.raises(ValueError):
            settle_subsampled(store, beta_data=1.0, sample_size=bad, seed=0)


def test_subsampled_rejects_fully_failed_sample(store):
    store.record(make_tx("tx-1", 1.0))
    with pytest.raises(StorageFailureError):
        settle_subsampled(store, beta_data=1.0, sample_size=1, seed=0)


def test_a_sampled_settle_checks_the_owner_count_of_every_share_row(store):
    store.record(make_tx("a", 1.0, share_row(0.5, 0.5)))
    store.record(make_tx("b", 1.0, share_row(0.25, 0.25, 0.5)))
    log = (store.path / LOG_NAME).read_bytes()
    # Seed 0 samples "a" alone, whose row has two owners.
    with pytest.raises(StorageFailureError, match=r"disagree on owner count: \[2, 3\]"):
        settle_subsampled(store, beta_data=1.0, sample_size=1, seed=0)
    assert (store.path / LOG_NAME).read_bytes() == log
    assert [t.id for t in store.unsettled()] == ["a", "b"]


def test_price_share_correlation_warning(tmp_path):
    correlated = LedgerStore(tmp_path / "corr")
    for k in range(30):
        p = float(k + 1)
        s0 = k / 29.0
        correlated.record(make_tx(f"tx-{k:02d}", p, share_row(s0, 1.0 - s0)))
    report = settle_subsampled(correlated, beta_data=1.0, sample_size=30, seed=1)
    assert report.correlated_warning

    constant = LedgerStore(tmp_path / "const")
    rng = np.random.default_rng(7)
    for k in range(30):
        raw = rng.dirichlet((2.0, 2.0))
        constant.record(make_tx(f"tx-{k:02d}", 1.0, share_row(*raw)))
    report = settle_subsampled(constant, beta_data=1.0, sample_size=30, seed=1)
    assert not report.correlated_warning


def test_the_correlation_check_skips_a_constant_share_column(store):
    # The first owner's share is 0 in every row: it has no correlation with
    # the price, and computing one would divide by a zero deviation.
    for k in range(12):
        s = k / 11.0
        store.record(make_tx(f"tx-{k:02d}", float(k + 1), share_row(0.0, s, 1.0 - s)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = settle_subsampled(store, beta_data=1.0, sample_size=12, seed=1, apply=False)
    assert report.correlated_warning  # from the second owner's column


def test_concurrent_records_all_land(store):
    def worker(base):
        for k in range(50):
            store.record(make_tx(f"tx-{base}-{k}", 1.0))

    threads = [threading.Thread(target=worker, args=(b,)) for b in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(store.transactions()) == 400
    with open(store.path / LOG_NAME, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 400


def test_a_sale_being_recorded_never_reads_as_settled(store):
    batches = [[f"tx-{b}-{k}" for k in range(50)] for b in range(20)]
    seen, done = [], threading.Event()

    def poll():
        while not done.is_set():
            seen.extend(batch[-1] for batch in batches if store.is_settled(batch[-1]))

    pollers = [threading.Thread(target=poll) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in pollers:
            t.start()
        for batch in batches:
            store.record_many(make_tx(tx_id, 1.0) for tx_id in batch)
    finally:
        done.set()
        for t in pollers:
            t.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pollers)
    assert seen == []


def test_a_batch_is_one_append_with_the_bytes_of_single_records(tmp_path, monkeypatch):
    txs = [make_tx(f"tx-{k}", 1.0 + k, share_row(0.5, 0.5), label="café") for k in range(5)]
    one_by_one = LedgerStore(tmp_path / "one")
    for tx in txs:
        one_by_one.record(tx)
    batched = LedgerStore(tmp_path / "batch")
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(os.fstat(fd).st_ino),
                                                 real_fsync(fd))[1])
    batched.record_many(txs)
    batched.record_many([])
    # One fsync of the log; the first append also fsyncs the directory that holds its name.
    assert fsyncs.count((batched.path / LOG_NAME).stat().st_ino) == 1
    assert (batched.path / LOG_NAME).read_bytes() == (one_by_one.path / LOG_NAME).read_bytes()
    assert list(map(_fields, batched.unsettled())) == list(map(_fields, txs))


def test_settlement_csv_layout(tmp_path, store):
    store.record(make_tx("tx-1", 1.0, share_row(0.25, 0.75)))
    report = settle_full(store, beta_data=0.8)
    path = tmp_path / "settlement.csv"
    write_settlement_csv(report, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# total_income=1.0 estimator=full seed=-")
    assert lines[1] == "owner_id,payout"
    assert lines[2] == "0,0.2"
    assert lines[3].startswith("1,0.6")
    assert lines[4].startswith("developer,")


def _settled_tail_store(path, tail):
    """A ledger with one settlement behind it whose last two lines are ``tail``.

    ``"settlement"``: a second settlement of one transaction, i.e. its settled
    line and its record. ``"sales"``: two sales recorded after the settlement.
    Labels carry multi-byte UTF-8, so some cuts split a character.
    """
    store = LedgerStore(path)
    for k, shares in enumerate([(0.5, 0.25, 0.25), (0.1, 0.6, 0.3), (1.0, 0.0, 0.0)]):
        store.record(make_tx(f"tx-{k}", 1.5 + k, share_row(*shares), label="café"))
    settle_full(store, beta_data=0.6)
    store.record(make_tx("tx-3", 2.25, share_row(0.2, 0.2, 0.6), label="naïve"))
    if tail == "settlement":
        settle_full(store, beta_data=0.6)
    else:
        store.record(make_tx("tx-4", 0.75, share_row(0.0, 0.5, 0.5), coords=(1e-300, -3.0)))
    return store


def _settled_line_counts(log_path):
    counts = {}
    for line in log_path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|") and line.endswith("|1"):
            tx_id = line.split("|")[0]
            counts[tx_id] = counts.get(tx_id, 0) + 1
    return counts


def _settled_income(store):
    return math.fsum(tx.price for tx in store.transactions() if store.is_settled(tx.id))


@pytest.mark.parametrize("tail", ["settlement", "sales"])
def test_a_cut_anywhere_in_the_last_two_lines_recovers_a_consistent_ledger(tmp_path, tail):
    full = _settled_tail_store(tmp_path / "full", tail)
    data = (full.path / LOG_NAME).read_bytes()
    lines = data.splitlines(keepends=True)
    tail_start = len(data) - len(lines[-1]) - len(lines[-2])
    # The two states a cut may leave: the last settlement whole, or not at all.
    before = LedgerStore(tmp_path / "before")
    (before.path / LOG_NAME).write_bytes(data[:tail_start])
    before = LedgerStore(before.path, create=False)
    checkpoint = (before.path / CHECKPOINT_NAME).read_bytes()  # of the log before the tail
    outcomes = {
        (full.settlement_count, tuple(full.balances.items()), full.developer_balance),
        (before.settlement_count, tuple(before.balances.items()), before.developer_balance),
    }
    for cut, with_checkpoint in itertools.product(range(tail_start, len(data)), (False, True)):
        path = tmp_path / f"cut-{cut}-{with_checkpoint}"
        path.mkdir()
        (path / LOG_NAME).write_bytes(data[:cut])
        if with_checkpoint:
            (path / CHECKPOINT_NAME).write_bytes(checkpoint)
        store = LedgerStore(path, create=False)
        kept = (path / LOG_NAME).read_bytes()
        assert store.dropped_bytes == cut - len(kept)
        assert data.startswith(kept) and kept.endswith(b"\n")
        state = (store.settlement_count, tuple(store.balances.items()), store.developer_balance)
        assert state in outcomes, cut
        paid = math.fsum([*store.balances.values(), store.developer_balance])
        assert paid == pytest.approx(_settled_income(store), rel=1e-9, abs=0)

        report = settle_full(store, beta_data=0.6)
        assert report.conservation_error <= 1e-9
        reopened = LedgerStore(path, create=False)
        assert reopened.dropped_bytes == 0 and reopened.unsettled() == []
        ids = [tx.id for tx in reopened.transactions()]
        assert _settled_line_counts(path / LOG_NAME) == dict.fromkeys(ids, 1)
        total = math.fsum(tx.price for tx in reopened.transactions())
        paid = math.fsum([*reopened.balances.values(), reopened.developer_balance])
        assert paid == pytest.approx(total, rel=1e-9, abs=0)


def test_settled_lines_without_their_record_reopen_unsettled(store):
    store.record(make_tx("tx-1", 1.0, share_row(0.5, 0.5)))
    store.record(make_tx("tx-2", 2.0, share_row(0.25, 0.75)))
    before = (store.path / LOG_NAME).read_bytes()
    settle_full(store, beta_data=0.8)
    after = (store.path / LOG_NAME).read_bytes()
    record_start = after.rstrip(b"\n").rfind(b"\n") + 1
    assert after[record_start:].startswith(b"|2|")
    (store.path / LOG_NAME).write_bytes(after[:record_start])

    reopened = LedgerStore(store.path, create=False)
    assert [tx.id for tx in reopened.unsettled()] == ["tx-1", "tx-2"]
    assert reopened.balances == {} and reopened.developer_balance == 0.0
    assert reopened.settlement_count == 0
    assert reopened.dropped_bytes == record_start - len(before)
    assert (store.path / LOG_NAME).read_bytes() == before


# Tails appended to a one-line log, each with the number of the line that must raise.
_CORRUPT_TAILS = {
    b"tx-9|1.0|0.0,0.0;\xff\xfe|1.0|0\n": 2,  # a complete line that is not UTF-8
    b"|2|0.5|0.5\n": 2,  # a record committing more settled lines than precede it
    b"tx-1|1.0|0.0,0.0|1.0|1\ntx-9|1.0|0.0,0.0||0\n": 3,  # settled line, then no record
    b"tx-9|1.0|0.0,0.0||2\n": 2,  # a settled flag that is neither 0 nor 1
    b"tx-9|one|0.0,0.0||0\n": 2,  # a price that is not a number
    b"tx-9|1.0|0.0,0.0|-0.5,1.5|0\n": 2,  # a negative share
    b"tx-9|1.0|0.0,0.0|0.5,0.4|0\n": 2,  # shares summing to 0.9
    b"tx-9|1.0|abc,0.0||0\n": 2,  # an event coordinate that is not a number
    b"|1.0|0.0,0.0||0\n": 2,  # an empty id, which reads as a record of 5 fields
    b"|0|nan|0.0\n": 2,  # a record with a non-finite payout
    b"tx-9|1.0|0.0,0.0|nan,1.0|0\n": 2,  # a NaN share
    b"tx-9|1.0|0.0,0.0|1e308,1e308|0\n": 2,  # finite shares whose sum overflows
    # A corrupt sale and its settled copy of the same text: the first copy raises.
    b"tx-9|1.0|0.0,0.0|0.5,0.4|0\ntx-9|1.0|0.0,0.0|0.5,0.4|1\n|1|0.9|0.0\n": 2,
    # A valid sale whose settled copy carries other, corrupt shares.
    b"tx-9|1.0|0.0,0.0|1.0|0\ntx-9|1.0|0.0,0.0|-1.0,2.0|1\n|1|1.0|0.0\n": 3,
}


@pytest.mark.parametrize("tail", list(_CORRUPT_TAILS))
def test_corrupt_complete_lines_raise_on_reopen(store, tail):
    store.record(make_tx("tx-1", 1.0, share_row(1.0)))
    log = (store.path / LOG_NAME).read_bytes()
    messages = []
    for with_checkpoint in (False, True):
        (store.path / LOG_NAME).write_bytes(log)
        if with_checkpoint:  # of the first line, so that replay resumes at line 2
            LedgerStore(store.path, create=False)
        with open(store.path / LOG_NAME, "ab") as fh:
            fh.write(tail)
        with pytest.raises(StorageFailureError, match=rf"line {_CORRUPT_TAILS[tail]}\b") as exc:
            LedgerStore(store.path, create=False)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_each_settlement_makes_one_fsync(store, monkeypatch):
    for k in range(5):
        store.record(make_tx(f"tx-{k}", 1.0, share_row(0.5, 0.5)))
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
    settle_full(store, beta_data=0.5)
    assert len(fsyncs) == 1
    store.record(make_tx("tx-5", 1.0, share_row(0.5, 0.5)))
    settle_subsampled(store, beta_data=0.5, sample_size=1, seed=0)
    assert len(fsyncs) == 3  # the sale and the second settlement
    assert sorted(f.name for f in store.path.iterdir()) == [LOG_NAME]


def _fields(tx):
    """A transaction's fields as bytes and text, equal only when equal bit for bit."""
    shares = None if tx.srs is None else np.asarray(tx.srs.shares, dtype=float).tobytes()
    x = np.asarray(tx.event.x, dtype=float).tobytes()
    return tx.id, float(tx.price).hex(), x, tx.event.label, shares


_sale = st.tuples(
    st.floats(0.0, 1e6),  # price
    st.one_of(st.none(), st.lists(st.integers(0, 9), min_size=3, max_size=3).filter(any)),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
    st.one_of(st.none(), st.text("ab é", max_size=3)),  # label
)
_step = st.one_of(
    st.tuples(st.just("record"), _sale),
    st.tuples(st.just("reopen"), st.none()),
    st.tuples(st.just("full"), st.floats(0.0, 1.0)),
    st.tuples(st.just("sample"), st.tuples(st.floats(0.0, 1.0), st.integers(1, 8),
                                           st.integers(0, 2**32))),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_step, max_size=14))
def test_a_reopened_store_equals_its_writer(steps):
    with tempfile.TemporaryDirectory() as tmp:
        store = LedgerStore(tmp)
        # A store that only reads, so it advances through the replay every call runs.
        follower = LedgerStore(tmp, create=False)
        recorded = []
        for k, (op, arg) in enumerate(steps):
            if op == "record":
                price, weights, coords, label = arg
                shares = None if weights is None else share_row(*np.array(weights) / sum(weights))
                store.record(make_tx(f"tx-{k}", price, shares, coords, label))
                recorded.append(f"tx-{k}")
            elif op == "reopen":  # replay resumes at the checkpoint this open writes
                store = LedgerStore(tmp, create=False)
            elif op == "full":
                settle_full(store, beta_data=arg)
            elif store.unsettled():
                beta, size, seed = arg
                size = min(size, len(store.unsettled()))
                try:
                    settle_subsampled(store, beta_data=beta, sample_size=size, seed=seed)
                except StorageFailureError:  # every sampled sale lacked shares
                    pass
            follower.unsettled()
        reopened = LedgerStore(tmp, create=False)
        assert reopened.dropped_bytes == 0
        assert repr(reopened.balances) == repr(store.balances)
        assert repr(reopened.developer_balance) == repr(store.developer_balance)
        assert reopened.settlement_count == store.settlement_count
        assert list(map(_fields, reopened.unsettled())) == list(map(_fields, store.unsettled()))
        assert [t.id for t in reopened.transactions()] == [t.id for t in store.transactions()]
        assert [t.id for t in reopened.transactions()] == recorded  # entry order, independently
        assert list(map(_fields, reopened.transactions())) == list(
            map(_fields, store.transactions()))
        assert repr(follower.balances) == repr(reopened.balances)
        assert repr(follower.developer_balance) == repr(reopened.developer_balance)
        assert follower.settlement_count == reopened.settlement_count
        assert list(map(_fields, follower.unsettled())) == list(map(_fields, reopened.unsettled()))
        assert list(map(_fields, follower.transactions())) == list(
            map(_fields, reopened.transactions()))


# Ids beyond tx-{k}: non-ASCII, a NUL, ids that are prefixes of other ids, and
# ids longer than 64 bytes.
_wide_id = st.one_of(
    st.sampled_from(["tx", "tx-1", "tx-10", "\x00", "é\x00", "a" * 64, "a" * 65, "ü" * 40]),
    st.text("at-é\x00中", min_size=1, max_size=3),
)
_wide_step = st.one_of(
    st.tuples(st.just("record"), st.tuples(_wide_id, st.booleans())),  # id, priced with shares
    st.tuples(st.just("reopen"), st.none()),
    st.tuples(st.just("full"), st.none()),
)


def _one_key(ids):
    """A key that every id shares, so that each lookup is settled by the log lines."""
    return np.zeros(sum(1 for _ in ids), dtype=np.uint64)


def _view(store, ids):
    """What a store holds, as ``transactions``, ``unsettled`` and ``is_settled`` show it."""
    return (
        list(map(_fields, store.transactions())),
        list(map(_fields, store.unsettled())),
        [store.is_settled(tx_id) for tx_id in ids],
    )


@pytest.mark.parametrize("shared_key", [False, True])
@settings(max_examples=30, deadline=None)
@given(steps=st.lists(_wide_step, max_size=14), probes=st.lists(_wide_id, max_size=4))
def test_a_reopen_through_the_checkpoint_equals_a_log_only_open_for_any_ids(
    shared_key, steps, probes
):
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        if shared_key:
            stack.enter_context(mock.patch.object(ledger, "_keys_of", _one_key))
        path, log_only = Path(tmp) / "ledger", Path(tmp) / "log-only"
        log_only.mkdir()
        store = LedgerStore(path)
        known: list[str] = []
        for op, arg in [*steps, ("reopen", None)]:
            if op == "record":
                tx_id, priced = arg
                tx = make_tx(tx_id, 1.0, share_row(0.5, 0.5) if priced else None)
                if tx_id in known:
                    with pytest.raises(DuplicateIdError):
                        store.record(tx)
                else:
                    store.record(tx)
                    known.append(tx_id)
            elif op == "full":  # quarantines the sales without shares
                settle_full(store, beta_data=0.5)
            elif (path / LOG_NAME).exists():
                (log_only / LOG_NAME).write_bytes((path / LOG_NAME).read_bytes())
                expected = _view(LedgerStore(log_only, create=False), known + probes)
                # The first open resumes at the last checkpoint, if any, and replays
                # the rest; the second resumes at the checkpoint the first wrote.
                for _ in range(2):
                    store = LedgerStore(path, create=False)
                    assert _checkpoint_offset(path) == (path / LOG_NAME).stat().st_size
                    assert _view(store, known + probes) == expected
                    for tx_id in known:
                        with pytest.raises(DuplicateIdError):
                            store.record(make_tx(tx_id, 1.0))


_RESUME_IN_A_NEW_PROCESS = """
import json, sys
import numpy as np
from royaltyshare import DuplicateIdError, GenerationEvent, LedgerStore, Transaction, ledger
parsed, real_parse = [], ledger._parse_line
ledger._parse_line = lambda line: parsed.append(line) or real_parse(line)
store = LedgerStore(sys.argv[1], create=False)
try:
    store.record(Transaction(id="old-0", price=1.0, event=GenerationEvent(x=np.zeros(2))))
    duplicate = False
except DuplicateIdError:
    duplicate = True
unsettled = [tx.id for tx in store.unsettled()]  # decodes the pool
print(json.dumps({
    "parsed": sorted(line.partition("|")[0] for line in parsed),
    "settled": [store.is_settled(f"old-{k}") for k in range(3)],
    "duplicate": duplicate,
    "unsettled": unsettled,
}))
"""


def test_a_checkpoint_written_in_one_process_resumes_in_another(tmp_path):
    path = tmp_path / "ledger"
    store = LedgerStore(path)
    store.record_many(make_tx(f"old-{k}", 1.0, share_row(0.5, 0.5)) for k in range(40))
    settle_full(store, beta_data=0.5)
    store.record(make_tx("kept", 1.0, share_row(1.0, 0.0)))
    src = str(Path(ledger.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # The checkpoint is written by an open in a process with one hash seed ...
    subprocess.run([sys.executable, "-c", "import sys; from royaltyshare import LedgerStore; "
                    "LedgerStore(sys.argv[1], create=False)", str(path)],
                   env={**env, "PYTHONHASHSEED": "1"}, check=True)
    assert _checkpoint_offset(path) == (path / LOG_NAME).stat().st_size
    store.record(make_tx("new-0", 1.0, share_row(0.5, 0.5)))
    # ... and read by one with another.
    result = subprocess.run([sys.executable, "-c", _RESUME_IN_A_NEW_PROCESS, str(path)],
                            env={**env, "PYTHONHASHSEED": "2"}, check=True,
                            capture_output=True, text=True)
    seen = json.loads(result.stdout)
    # Only the pool is parsed: "kept" to decode it, "new-0" to check and to
    # decode it. A full replay would parse each of the 40 old sales.
    assert seen["parsed"] == ["kept", "new-0", "new-0"]
    assert seen["settled"] == [True, True, True] and seen["duplicate"]
    assert seen["unsettled"] == ["kept", "new-0"]


def test_an_open_through_a_checkpoint_and_a_settle_skip_the_settled_history(
    tmp_path, monkeypatch
):
    """Opening through a checkpoint of 1,200 settled ids and settling never decodes
    a settled line, builds the entry-ordered list or keys an id of the history."""
    path = tmp_path / "ledger"
    store = LedgerStore(path)
    for period in range(3):
        store.record_many(
            make_tx(f"old-{period}-{k}", 1.0, share_row(0.5, 0.5)) for k in range(400))
        settle_full(store, beta_data=0.5)
    store.record(make_tx("kept", 1.0, share_row(1.0, 0.0)))
    LedgerStore(path, create=False)  # checkpoints every line so far
    store.record_many(make_tx(f"new-{k}", 1.0, share_row(0.5, 0.5)) for k in range(3))
    calls = {"transactions": 0, "_decode_line": 0, "keyed ids": 0}
    real_decode, real_keys = ledger._decode_line, ledger._keys_of
    real_transactions = LedgerStore.transactions

    def counted(name, real):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or real(*args)

    def keys_of(ids):
        ids = list(ids)
        calls["keyed ids"] += len(ids)
        return real_keys(ids)

    monkeypatch.setattr(ledger, "_decode_line", counted("_decode_line", real_decode))
    monkeypatch.setattr(ledger, "_keys_of", keys_of)
    monkeypatch.setattr(LedgerStore, "transactions", counted("transactions", real_transactions))
    reopened = LedgerStore(path, create=False)
    report = settle_full(reopened, beta_data=0.5)
    assert report.total_income == 4.0
    # The settlement parses the pool of four but decodes none of it; the three
    # new sales are keyed to look them up, and the four settled ids to index them.
    assert calls == {"transactions": 0, "_decode_line": 0, "keyed ids": 7}
    assert _checkpoint_offset(path) < (path / LOG_NAME).stat().st_size
    assert reopened.is_settled("old-0-0") and reopened.is_settled("new-2")


def test_a_store_does_not_parse_again_the_lines_it_wrote(tmp_path, monkeypatch):
    path = tmp_path / "ledger"
    writer, other = LedgerStore(path), LedgerStore(path, create=False)
    parsed, real_parse = [], ledger._parse_line
    monkeypatch.setattr(ledger, "_parse_line", lambda line: parsed.append(line) or real_parse(line))
    writer.record_many(make_tx(f"tx-{k}", 1.0, share_row(0.5, 0.5)) for k in range(3))
    settle_full(writer, beta_data=0.5)
    writer.record(make_tx("tx-3", 2.0))
    assert parsed == []
    # The other store checks every line that it did not write.
    other.record(make_tx("tx-4", 1.0, share_row(1.0, 0.0)))
    assert sorted(line.partition("|")[0] for line in parsed) == ["tx-0", "tx-1", "tx-2", "tx-3"]
    assert _state(other, ["tx-0", "tx-4"]) == _state(writer, ["tx-0", "tx-4"])


def test_opening_decodes_only_the_unsettled_pool(store, monkeypatch):
    for k in range(12):
        store.record(make_tx(f"tx-{k}", 1.0, share_row(0.25, 0.75)))
        if k % 4 == 3:
            settle_full(store, beta_data=0.5)
    store.record(make_tx("tx-12", 1.0, share_row(1.0, 0.0)))
    store.record(make_tx("tx-13", 1.0))
    decoded = []
    real = ledger._decode_line
    monkeypatch.setattr(ledger, "_decode_line", lambda line: decoded.append(line) or real(line))
    reopened = LedgerStore(store.path, create=False)
    assert len(decoded) == 0
    assert [t.id for t in reopened.unsettled()] == ["tx-12", "tx-13"]
    assert len(decoded) == 2


def _checkpoint_offset(path):
    """The log offset that the checkpoint in ledger directory ``path`` covers."""
    return int((path / CHECKPOINT_NAME).read_bytes().split(b"\n")[1].split()[0])


def _assert_a_reopen_parses_only_the_suffix(root, monkeypatch, history, min_prefix):
    """Reopen ledgers whose checkpoints cover ``history``, settled first, and at least
    ``min_prefix`` bytes; only the lines after each checkpoint are parsed."""
    for periods in (1, 5):
        store = LedgerStore(root / f"periods-{periods}")
        if history:
            store.record_many(history)
            settle_full(store, beta_data=0.5)
        for p in range(periods):
            for k in range(3):
                store.record(make_tx(f"tx-{p}-{k}", 1.0, share_row(0.25, 0.75)))
            settle_full(store, beta_data=0.5)
        store.record(make_tx("kept", 1.0, share_row(1.0, 0.0)))
        LedgerStore(store.path, create=False)  # checkpoints every line so far
        assert _checkpoint_offset(store.path) >= min_prefix
        store.record(make_tx("new-0", 1.0, share_row(0.5, 0.5)))
        settle_full(store, beta_data=0.5)  # settles "kept" and "new-0"
        store.record(make_tx("new-1", 1.0, share_row(0.5, 0.5)))
        store.record(make_tx("new-2", 1.0))
        parsed, decoded = [], []
        with monkeypatch.context() as m:
            real_parse, real_decode = ledger._parse_line, ledger._decode_line
            m.setattr(ledger, "_parse_line", lambda line: parsed.append(line) or real_parse(line))
            m.setattr(ledger, "_decode_line",
                      lambda line: decoded.append(line) or real_decode(line))
            reopened = LedgerStore(store.path, create=False)
            reopened.unsettled()
        # Each sale after the checkpoint is parsed once to check it, and each
        # of the unsettled pool once more to decode it; the settled copies, the
        # record and everything before the checkpoint are not parsed.
        ids = [line.partition("|")[0] for line in parsed]
        assert sorted(ids) == ["new-0", "new-1", "new-1", "new-2", "new-2"], periods
        assert [line.partition("|")[0] for line in decoded] == ["new-1", "new-2"]
        assert [t.id for t in reopened.unsettled()] == ["new-1", "new-2"]
        assert reopened.settlement_count == periods + 1 + bool(history)


def test_reopening_through_a_checkpoint_parses_only_the_suffix(tmp_path, monkeypatch):
    _assert_a_reopen_parses_only_the_suffix(tmp_path, monkeypatch, history=[], min_prefix=0)


def test_a_checkpoint_longer_than_three_read_chunks_resumes_at_its_offset(tmp_path, monkeypatch):
    # Each sale takes about 700 log bytes: its line and its settled copy.
    history = [make_tx(f"old-{k}", 1.0, share_row(0.5, 0.5), label="x" * 300) for k in range(400)]
    min_prefix = 3 * ledger._CHUNK + 1
    _assert_a_reopen_parses_only_the_suffix(tmp_path, monkeypatch, history, min_prefix)
    # A corrupt line after that checkpoint: only it is parsed, and the error
    # names the line that a log-only open names.
    path = tmp_path / "periods-5"
    log, checkpoint = (path / LOG_NAME).read_bytes(), (path / CHECKPOINT_NAME).read_bytes()
    assert _checkpoint_offset(path) == len(log) >= min_prefix
    corrupt = log + b"tx-9|one|0.0,0.0||0\n"
    expected_error = _open_outcome(path, corrupt)
    assert f"line {len(log.splitlines()) + 1} " in expected_error
    parsed, real_parse = [], ledger._parse_line
    monkeypatch.setattr(ledger, "_parse_line", lambda line: parsed.append(line) or real_parse(line))
    assert _open_outcome(path, corrupt, checkpoint) == expected_error
    assert parsed == ["tx-9|one|0.0,0.0||0"]


def _checksummed(body):
    return body + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"


def _checkpointed_ledger(path):
    """A small ledger whose checkpoint covers a settlement and two unsettled sales.

    The log goes on after the checkpoint: a settlement that settles one of
    those sales and quarantines the other, and one more sale.
    """
    store = LedgerStore(path)
    store.record(make_tx("tx-0", 1.5, share_row(0.5, 0.5), label="café"))
    store.record(make_tx("tx-1", 2.0, share_row(0.25, 0.75), coords=(1e-300, -3.0)))
    settle_full(store, beta_data=0.6)
    store.record(make_tx("tx-2", 0.5, share_row(1.0, 0.0)))
    store.record(make_tx("tx-3", 3.0))
    store = LedgerStore(path, create=False)
    store.record(make_tx("tx-4", 1.0, share_row(0.0, 1.0)))
    settle_full(store, beta_data=0.6)
    store.record(make_tx("tx-5", 2.5, share_row(0.5, 0.5), label="naïve"))
    return (path / LOG_NAME).read_bytes(), (path / CHECKPOINT_NAME).read_bytes()


def _open_outcome(path, log, checkpoint=None):
    """Open a ledger of ``log`` and ``checkpoint``; its state, or the error's text."""
    for name, content in ((LOG_NAME, log), (CHECKPOINT_NAME, checkpoint)):
        if content is None:
            (path / name).unlink(missing_ok=True)
        else:
            (path / name).write_bytes(content)
    try:
        store = LedgerStore(path, create=False)
    except StorageFailureError as exc:
        return str(exc)
    ids = [tx.id for tx in store.transactions()]
    for tx_id in ids:
        with pytest.raises(DuplicateIdError):
            store.record(make_tx(tx_id, 1.0))
    return (
        store.dropped_bytes,
        (path / LOG_NAME).read_bytes(),
        repr(store.balances),
        repr(store.developer_balance),
        store.settlement_count,
        list(map(_fields, store.unsettled())),
        list(map(_fields, store.transactions())),
        [store.is_settled(tx_id) for tx_id in ids],
    )


def test_a_cut_or_stale_checkpoint_opens_as_the_log_alone(tmp_path, monkeypatch):
    path = tmp_path / "ledger"
    log, checkpoint = _checkpointed_ledger(path)
    expected = _open_outcome(path, log)
    assert not isinstance(expected, str)
    for cut in range(len(checkpoint) + 1):
        assert _open_outcome(path, log, checkpoint[:cut]) == expected, cut
    for position in range(len(checkpoint)):
        flipped = bytearray(checkpoint)
        flipped[position] ^= 0x01
        assert _open_outcome(path, log, bytes(flipped)) == expected, position
    # Intact checkpoints whose position disagrees with the log. A corrupt line
    # after the checkpoint shows the line number replay counted to it.
    corrupt = log + b"tx-9|one|0.0,0.0||0\n"
    expected_error = _open_outcome(path, corrupt)
    assert f"line {len(log.splitlines()) + 1} " in expected_error
    held = ledger._decode_checkpoint(checkpoint)
    # Checkpoints of another version, each with a valid checksum: one of this
    # layout, and one of version 1, which also held the log's line count.
    body = checkpoint[:-65].split(b"\n")
    assert body[0] == b"royaltyshare ledger checkpoint 6"
    other_version = [b"royaltyshare ledger checkpoint 4", *body[1:]]
    lines_before = log[: held.offset].count(b"\n")
    version_1 = [
        b"royaltyshare ledger checkpoint 1",
        b"%d %d %s" % (held.offset, lines_before, held.digest.encode("ascii")),
        *body[2:],
    ]
    _open_outcome(path, log)
    renewed = (path / CHECKPOINT_NAME).read_bytes()  # what a log-only open writes
    assert renewed.startswith(b"royaltyshare ledger checkpoint 6\n")
    parsed = []
    real_parse = ledger._parse_line
    with monkeypatch.context() as m:
        m.setattr(ledger, "_parse_line", lambda line: parsed.append(line) or real_parse(line))
        _open_outcome(path, log)
        parsed_by_a_log_only_open = parsed[:]
        for raw in (
            ledger._encode_checkpoint(held._replace(offset=held.offset - 1)),
            ledger._encode_checkpoint(held._replace(digest=hashlib.sha256(log).hexdigest())),
            _checksummed(b"\n".join(other_version)),
            _checksummed(b"\n".join(version_1)),
        ):
            parsed.clear()
            assert _open_outcome(path, log, raw) == expected, raw
            assert parsed == parsed_by_a_log_only_open, raw  # replay started at byte 0
            assert (path / CHECKPOINT_NAME).read_bytes() == renewed, raw
            assert _open_outcome(path, corrupt, raw) == expected_error, raw
    # A checkpoint that cannot be written leaves the open as it was.
    monkeypatch.setattr(os, "replace", lambda *args: (_ for _ in ()).throw(PermissionError()))
    assert _open_outcome(path, log) == expected
    assert sorted(f.name for f in path.iterdir()) == [LOG_NAME]


def _last_lines(log, end):
    """The offset of each id's last line before ``end`` in ``log``, in the order of its first."""
    last, offset = {}, 0
    for raw in log[:end].split(b"\n"):
        tx_id, bar, _ = raw.partition(b"|")
        if tx_id and bar:  # not a settlement record
            last[tx_id.decode("utf-8")] = offset
        offset += len(raw) + 1
    return last


def _older_checkpoint(version, log, held):
    """The state of checkpoint ``held`` in the layout of version 2, 4 or 5."""
    last = _last_lines(log, held.offset)
    ids, offsets = list(last), list(last.values())
    pool = {log[at:].partition(b"|")[0].decode("utf-8") for at in held.pool}
    head = [
        f"royaltyshare ledger checkpoint {version}",
        f"{held.offset} {held.digest}",
        f"{held.settlement_count} {held.developer_balance!r}",
        ",".join(f"{owner}:{amount!r}" for owner, amount in held.balances.items()),
    ]
    if version == 2:  # text columns: settled flags, offsets and ids, by entry position
        head += ["".join("0" if tx_id in pool else "1" for tx_id in ids),
                 ",".join(map(str, offsets)), "|".join(ids)]
        return _checksummed("".join(line + "\n" for line in head).encode("utf-8"))
    keys = ledger._keys_of(ids)
    order = np.argsort(keys, kind="stable")
    if version == 4:
        # The pool's entry positions, then three binary columns: the line offsets
        # by entry position, the keys ascending and the entry position of each key.
        head += [",".join(str(at) for at, tx_id in enumerate(ids) if tx_id in pool),
                 str(len(ids))]
        columns = [np.array(offsets, dtype="<i8"), keys[order], order.astype("<i8")]
    else:  # version 5: this layout, but its columns index the pool's ids too
        head += [",".join(map(str, held.pool)), str(len(ids))]
        columns = [keys[order], np.array(offsets, dtype="<i8")[order]]
    return _checksummed("".join(line + "\n" for line in head).encode("utf-8")
                        + b"".join(column.tobytes() for column in columns))


@pytest.mark.parametrize("version", [2, 4, 5])
def test_a_version_2_checkpoint_opens_as_the_log_alone_and_is_replaced(
    tmp_path, monkeypatch, version
):
    path = tmp_path / "ledger"
    log, checkpoint = _checkpointed_ledger(path)
    older = _older_checkpoint(version, log, ledger._decode_checkpoint(checkpoint))
    parsed, real_parse = [], ledger._parse_line
    monkeypatch.setattr(ledger, "_parse_line", lambda line: parsed.append(line) or real_parse(line))
    expected = _open_outcome(path, log)
    renewed = (path / CHECKPOINT_NAME).read_bytes()
    assert renewed.startswith(b"royaltyshare ledger checkpoint 6\n")
    parsed_by_a_log_only_open = parsed[:]
    parsed.clear()
    assert _open_outcome(path, log, older) == expected
    assert parsed == parsed_by_a_log_only_open  # replay started at byte 0
    assert (path / CHECKPOINT_NAME).read_bytes() == renewed


def test_a_checkpoint_whose_pool_lies_past_its_offset_opens_as_the_log_alone(tmp_path):
    path = tmp_path / "ledger"
    log, checkpoint = _checkpointed_ledger(path)
    expected = _open_outcome(path, log)
    held = ledger._decode_checkpoint(checkpoint)
    assert held.pool and held.offset < len(log)
    for at in (held.offset, len(log) - 1):
        raw = ledger._encode_checkpoint(held._replace(pool=[*held.pool[:-1], at]))
        with pytest.raises(ValueError, match="checkpoint pool offset out of range"):
            ledger._decode_checkpoint(raw)
        assert _open_outcome(path, log, raw) == expected, at


def test_a_byte_flipped_before_the_checkpoint_opens_as_the_log_alone(tmp_path):
    path = tmp_path / "ledger"
    log, checkpoint = _checkpointed_ledger(path)
    covered = int(checkpoint.split(b"\n")[1].split()[0])  # the checkpoint's log offset
    assert 0 < covered < len(log)
    for position, mask in itertools.product(range(covered), (0x01, 0xFF)):
        flipped = bytearray(log)
        flipped[position] ^= mask
        flipped = bytes(flipped)
        expected = _open_outcome(path, flipped)
        assert _open_outcome(path, flipped, checkpoint) == expected, (position, mask)


def test_a_sale_line_after_its_settlement_leaves_the_id_settled(tmp_path):
    path = tmp_path / "ledger"
    store = LedgerStore(path)
    store.record(make_tx("tx-0", 1.0, share_row(0.5, 0.5)))
    store.record(make_tx("tx-1", 2.0, share_row(1.0, 0.0)))
    settle_full(store, beta_data=0.5)
    store.record(make_tx("tx-2", 4.0, share_row(0.0, 1.0)))
    LedgerStore(path, create=False)
    log, checkpoint = (path / LOG_NAME).read_bytes(), (path / CHECKPOINT_NAME).read_bytes()
    assert _checkpoint_offset(path) == len(log)
    # A sale line for the settled tx-1, at another price.
    resale = make_tx("tx-1", 8.0, share_row(0.25, 0.75), coords=(1.0, 2.0), label="again")
    log += ledger._encode_line(resale, settled=False).encode("utf-8")
    outcomes = []
    for held in (None, checkpoint):
        (path / CHECKPOINT_NAME).unlink(missing_ok=True)
        if held is not None:
            (path / CHECKPOINT_NAME).write_bytes(held)
        (path / LOG_NAME).write_bytes(log)
        store = LedgerStore(path, create=False)
        assert store.is_settled("tx-1")
        assert [tx.id for tx in store.unsettled()] == ["tx-2"]
        assert list(map(_fields, store.transactions()))[1] == _fields(resale)
        report = settle_full(store, beta_data=0.5)  # pays for tx-2 alone
        assert report.total_income == 4.0
        assert report.owner_payouts.tolist() == [0.0, 2.0]
        reopened = LedgerStore(path, create=False)
        assert reopened.unsettled() == [] and reopened.is_settled("tx-1")
        outcomes.append((
            repr(reopened.balances),
            repr(reopened.developer_balance),
            list(map(_fields, reopened.transactions())),
        ))
    assert outcomes[0] == outcomes[1]


# Cross-process tests: each subprocess and barrier has a bound, so a locking
# bug fails the test instead of hanging it.
_BOUND_S = 60


def _env():
    """The environment of a subprocess that imports this package."""
    src = str(Path(ledger.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _settlement_counts(log_path):
    """The count of settled lines that each settlement record in the log commits."""
    lines = log_path.read_text(encoding="utf-8").splitlines()
    return [int(line.split("|")[1]) for line in lines if line.startswith("|")]


_SETTLE_IN_A_NEW_PROCESS = """
import sys
from royaltyshare import LedgerStore, settle_full
settle_full(LedgerStore(sys.argv[1], create=False), beta_data=0.7)
"""


@pytest.mark.parametrize("settler", ["same process", "subprocess"])
def test_a_store_acts_on_a_settlement_that_another_store_made(tmp_path, settler):
    path = tmp_path / "ledger"
    recorder = LedgerStore(path)
    for k in range(3):
        recorder.record(make_tx(f"t{k}", 1.0, share_row(0.5, 0.5)))
    if settler == "same process":
        settle_full(LedgerStore(path, create=False), beta_data=0.7)
    else:
        subprocess.run([sys.executable, "-c", _SETTLE_IN_A_NEW_PROCESS, str(path)],
                       env=_env(), check=True, timeout=_BOUND_S)
    # The recorder sees the settlement: its pool is empty, and its settled
    # index holds the three ids.
    assert recorder.unsettled() == [] and recorder._base.keys.size == 3
    assert all(recorder._holds(f"t{k}") for k in range(3))
    assert all(recorder.is_settled(f"t{k}") for k in range(3))
    assert settle_full(recorder, beta_data=0.7).total_income == 0.0  # pays nothing again
    reopened = LedgerStore(path, create=False)
    assert _settled_line_counts(path / LOG_NAME) == {"t0": 1, "t1": 1, "t2": 1}
    assert _settlement_counts(path / LOG_NAME) == [3]  # the recorder's settle appends nothing
    assert reopened.balances == pytest.approx({0: 1.05, 1: 1.05}, rel=1e-12)
    assert reopened.developer_balance == pytest.approx(0.9, rel=1e-12)
    for store in (recorder, reopened):
        assert store.settlement_count == 1
        assert repr(store.balances) == repr(reopened.balances)
        assert repr(store.developer_balance) == repr(reopened.developer_balance)


def test_a_replay_that_raises_after_a_settlement_keeps_the_ids_it_settled(tmp_path):
    path = tmp_path / "ledger"
    recorder = LedgerStore(path)
    recorder.record_many(make_tx(f"t{k}", 1.0, share_row(0.5, 0.5)) for k in range(3))
    settle_full(LedgerStore(path, create=False), beta_data=0.7)
    log = (path / LOG_NAME).read_bytes()
    (path / LOG_NAME).write_bytes(log + b"t9|one|0.0,0.0||0\n")
    # The recorder's replay applies the settlement, then stops at the corrupt line.
    with pytest.raises(StorageFailureError, match="malformed ledger line 8 "):
        recorder.unsettled()
    (path / LOG_NAME).write_bytes(log)
    ids = ["t0", "t1", "t2"]
    assert _state(recorder, ids) == _state(LedgerStore(path, create=False), ids)
    assert all(map(recorder.is_settled, ids))
    with pytest.raises(DuplicateIdError):
        recorder.record(make_tx("t0", 1.0))


def test_a_stale_store_cannot_record_an_id_that_another_store_recorded(tmp_path):
    path = tmp_path / "ledger"
    stale = LedgerStore(path)
    stale.record(make_tx("t0", 1.0, share_row(1.0)))
    LedgerStore(path, create=False).record(make_tx("t9", 2.0, share_row(1.0)))
    for batch in (["t9"], ["t1", "t9"]):
        with pytest.raises(DuplicateIdError, match="'t9'"):
            stale.record_many(make_tx(tx_id, 3.0, share_row(1.0)) for tx_id in batch)
    assert [tx.id for tx in stale.unsettled()] == ["t0", "t9"]
    assert stale.unsettled()[1].price == 2.0
    assert (path / LOG_NAME).read_text(encoding="utf-8").count("t9|") == 1


_SETTLE_AT_GO = """
import sys
from royaltyshare.cli import main
print("ready", flush=True)
sys.stdin.readline()
sys.exit(main(["settle", "--ledger", sys.argv[1], "--beta", "0.7", "--out", sys.argv[2]]))
"""


def test_two_processes_that_settle_at_once_settle_each_sale_once(tmp_path):
    from royaltyshare.cli import main

    path = tmp_path / "ledger"
    assert main(["simulate", "--kind", "ledger", "--transactions", "50", "--owners", "3",
                 "--out", str(path)]) == 0
    income = math.fsum(tx.price for tx in LedgerStore(path, create=False).unsettled())
    barrier = threading.Barrier(2, timeout=_BOUND_S)
    results = {}

    def settle(name):
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETTLE_AT_GO, str(path), str(tmp_path / name)],
            env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline() == "ready\n"
            barrier.wait()  # both processes have imported the package: release them at once
            proc.communicate("go\n", timeout=_BOUND_S)
            results[name] = proc.returncode
        finally:
            proc.kill()
            proc.wait(timeout=_BOUND_S)

    threads = [threading.Thread(target=settle, args=(name,)) for name in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=2 * _BOUND_S)
    assert not any(t.is_alive() for t in threads)
    assert results == {"a": 0, "b": 0}
    reopened = LedgerStore(path, create=False)
    ids = [tx.id for tx in reopened.transactions()]
    assert len(ids) == 50 and reopened.unsettled() == []
    assert _settled_line_counts(path / LOG_NAME) == dict.fromkeys(ids, 1)
    assert _settlement_counts(path / LOG_NAME) == [50]  # the later settle appends nothing
    reported = [
        json.loads((tmp_path / name / "settlement.meta.json").read_text(encoding="utf-8"))
        for name in ("a", "b")
    ]
    assert sorted(meta["total_income"] for meta in reported) == [0.0, income]
    paid = math.fsum([*reopened.balances.values(), reopened.developer_balance])
    assert paid == pytest.approx(income, rel=1e-12)


def _settled_twice(path):
    """A ledger whose log settles t0 a second time, in a settlement of its own."""
    store = LedgerStore(path)
    store.record(make_tx("t0", 1.0, share_row(0.5, 0.5)))
    store.record(make_tx("t1", 2.0, share_row(1.0, 0.0)))
    settle_full(store, beta_data=0.7)
    store.record(make_tx("t2", 4.0, share_row(0.0, 1.0)))
    again = ledger._encode_line(make_tx("t0", 1.0, share_row(0.5, 0.5)), settled=True)
    return again + ledger._encode_record(1, np.array([0.35, 0.35]), 0.3)


def test_a_log_that_settles_an_id_twice_raises_naming_the_line(tmp_path, capsys):
    from royaltyshare.cli import main

    path = tmp_path / "ledger"
    tail = _settled_twice(path)
    live = LedgerStore(path, create=False)  # checkpoints the log before the tail
    with open(path / LOG_NAME, "a", encoding="utf-8") as fh:
        fh.write(tail)
    log = (path / LOG_NAME).read_bytes()
    message = r"ledger line 7: transaction 't0' is settled already"
    # A store that replays the tail later raises, and again on its next call.
    for _ in range(2):
        with pytest.raises(StorageFailureError, match=message):
            live.record(make_tx("t3", 1.0))
    for checkpoint in (True, False):  # an open that resumes there, and one from byte 0
        if not checkpoint:
            (path / CHECKPOINT_NAME).unlink()
        with pytest.raises(StorageFailureError, match=message):
            LedgerStore(path, create=False)
    out = tmp_path / "out"
    assert main(["settle", "--ledger", str(path), "--beta", "0.7", "--out", str(out)]) == 4
    assert "is settled already" in capsys.readouterr().err
    assert (path / LOG_NAME).read_bytes() == log
    # One id twice in one settlement: the second settled line raises.
    path = tmp_path / "twice-in-one"
    _settled_twice(path)
    line = ledger._encode_line(make_tx("t2", 4.0, share_row(0.0, 1.0)), settled=True)
    with open(path / LOG_NAME, "a", encoding="utf-8") as fh:
        fh.write(line + line + ledger._encode_record(2, np.array([0.0, 5.6]), 2.4))
    with pytest.raises(StorageFailureError, match=r"line 8: transaction 't2' is settled already"):
        LedgerStore(path, create=False)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors in /proc")
def test_a_failed_call_leaves_no_ledger_descriptor_open(tmp_path):
    """The flock is held on a raw descriptor, whose leak raises no ResourceWarning."""
    path = tmp_path / "ledger"
    store = LedgerStore(path)
    store.record_many(make_tx(f"t{k}", 1.0, share_row(1.0)) for k in range(2))
    log = (path / LOG_NAME).read_bytes()

    def assert_released(call, message):
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(StorageFailureError, match=message):
            call()
        assert sorted(os.listdir("/proc/self/fd")) == before
        fd = os.open(path, os.O_RDONLY)
        try:  # a descriptor left holding the flock would make this raise, not block
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(fd)

    (path / LOG_NAME).write_bytes(log + b"t2|one|0.0,0.0||0\n")
    assert_released(lambda: LedgerStore(path, create=False), "malformed ledger line 3 ")
    (path / LOG_NAME).write_bytes(log.splitlines(keepends=True)[0])
    assert_released(store.unsettled, "fewer than the")


def test_a_reader_leaves_a_torn_tail_for_the_next_writer_to_truncate(tmp_path):
    path = tmp_path / "ledger"
    store = LedgerStore(path)
    store.record(make_tx("t0", 1.0, share_row(1.0)))
    log = (path / LOG_NAME).read_bytes()
    torn = ledger._encode_line(make_tx("t1", 1.0), settled=False).encode("utf-8")[:-3]
    with open(path / LOG_NAME, "ab") as fh:
        fh.write(torn)
    assert [tx.id for tx in store.unsettled()] == ["t0"]  # under the shared lock
    assert (path / LOG_NAME).read_bytes() == log + torn and store.dropped_bytes == 0
    store.record(make_tx("t2", 1.0))  # under the exclusive lock
    assert store.dropped_bytes == len(torn)
    assert [tx.id for tx in LedgerStore(path, create=False).unsettled()] == ["t0", "t2"]
    # Complete settled lines with no record after them: t0 and t2, and t3, which
    # no sale line names. A reader lists the sales as their sale lines read.
    sales = [make_tx("t0", 1.0, share_row(1.0)), make_tx("t2", 1.0)]
    reader = LedgerStore(path, create=False)
    log = (path / LOG_NAME).read_bytes()
    tail = "".join(ledger._encode_line(make_tx(tx_id, 1.0, share_row(1.0)), settled=True)
                   for tx_id in ("t0", "t2", "t3")).encode("utf-8")
    with open(path / LOG_NAME, "ab") as fh:
        fh.write(tail)
    assert list(map(_fields, reader.transactions())) == list(map(_fields, sales))
    assert not reader.is_settled("t2") and not reader.is_settled("t3")
    assert (path / LOG_NAME).read_bytes() == log + tail and reader.dropped_bytes == 0
    store.record(make_tx("t4", 1.0))
    assert store.dropped_bytes == len(torn) + len(tail)
    assert [tx.id for tx in LedgerStore(path, create=False).transactions()] == ["t0", "t2", "t4"]


_WRITE_UNDER_THE_LOCK = """
import fcntl, os, sys, time
from royaltyshare import GenerationEvent, Transaction, ledger
import numpy as np
path = sys.argv[1]
line = ledger._encode_line(
    Transaction(id="late", price=1.0, event=GenerationEvent(x=np.zeros(2))), settled=False
).encode("utf-8")
fd = os.open(path, os.O_RDONLY)
fcntl.flock(fd, fcntl.LOCK_EX)
with open(os.path.join(path, ledger.LOG_NAME), "ab") as fh:
    fh.write(line[:5])
    fh.flush()
    print("partial", flush=True)
    time.sleep(float(sys.argv[2]))  # an open started now must wait for the rest
    fh.write(line[5:])
    fh.flush()
    os.fsync(fh.fileno())
os.close(fd)
"""


def test_an_open_waits_for_an_append_in_flight_and_truncates_nothing(tmp_path):
    path = tmp_path / "ledger"
    LedgerStore(path).record(make_tx("t0", 1.0, share_row(1.0)))
    proc = subprocess.Popen([sys.executable, "-c", _WRITE_UNDER_THE_LOCK, str(path), "0.5"],
                            env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "partial\n"
        assert not (path / LOG_NAME).read_bytes().endswith(b"\n")  # a partial line on disk
        store = LedgerStore(path, create=False)
        assert proc.wait(timeout=_BOUND_S) == 0
    finally:
        proc.kill()
        proc.wait(timeout=_BOUND_S)
        proc.stdout.close()
    assert store.dropped_bytes == 0
    assert [tx.id for tx in store.unsettled()] == ["t0", "late"]
    assert (path / LOG_NAME).read_bytes().endswith(b"|0\n")


def _state(store, ids):
    """A store's balances and counts, bit for bit, and its view of ``ids``."""
    return (repr(store.balances), repr(store.developer_balance), store.settlement_count,
            *_view(store, ids))


def _cli_settle(store):
    """The CLI settle of ``store``'s ledger; exit 4 raises its message."""
    from royaltyshare.cli import main

    with contextlib.redirect_stderr(io.StringIO()) as err:
        status = main(["settle", "--ledger", str(store.path), "--beta", "0.7",
                       "--out", str(store.path.parent / "out")])
    if status:
        assert status == 4
        raise StorageFailureError(err.getvalue())


_APPENDS = {
    "record": lambda store: store.record(make_tx("t3", 1.0, share_row(0.5, 0.5))),
    "record_many": lambda store: store.record_many(
        make_tx(f"t{k}", 1.0, share_row(0.5, 0.5)) for k in (3, 4, 5)),
    "settle_full": lambda store: settle_full(store, beta_data=0.7),
    "settle_subsampled": lambda store: settle_subsampled(
        store, beta_data=0.7, sample_size=2, seed=0),
    "cli settle": _cli_settle,
}


@pytest.mark.parametrize("fault", ["short write", "failed fsync", "failed cut"])
@pytest.mark.parametrize("call", list(_APPENDS))
def test_a_failed_append_leaves_the_log_and_the_store_as_they_were(
    tmp_path, append_faults, call, fault
):
    path = tmp_path / "ledger"
    ids = [f"t{k}" for k in range(6)]
    store = LedgerStore(path)
    store.record_many(make_tx(f"t{k}", 1.0, share_row(0.5, 0.5)) for k in range(3))
    log = (path / LOG_NAME).read_bytes()
    before = _state(store, ids)
    line = len(log) // 3  # the length of every line of every payload but the record
    if fault == "short write":  # the payload's first line and 5 bytes more, or 5 of one line
        append_faults.arm(path / LOG_NAME, write_bytes=5 if call == "record" else line + 5)
    else:  # the whole payload is written, and its fsync fails
        append_faults.arm(path / LOG_NAME, fsync_fails=True,
                          ftruncate_fails=fault == "failed cut")
    with pytest.raises(StorageFailureError, match=r"append to \S+ failed") as failed:
        _APPENDS[call](store)
    append_faults.disarm()
    if fault == "failed cut":
        # The log keeps the append, which the store takes as a fresh open does.
        assert "the log's tail is unknown" in str(failed.value)
        assert _state(store, ids) == _state(LedgerStore(path, create=False), ids) != before
        return
    assert (path / LOG_NAME).read_bytes() == log
    assert _state(store, ids) == before
    assert _state(LedgerStore(path, create=False), ids) == before
    _APPENDS[call](store)  # a retry
    after = _state(store, ids)
    assert after != before and _state(LedgerStore(path, create=False), ids) == after


_session_id = st.sampled_from([f"s{k}" for k in range(6)])
_session_call = st.one_of(
    st.tuples(st.just("record"), _session_id, st.booleans()),  # with shares or without
    st.tuples(st.just("record_many"), st.lists(_session_id, min_size=1, max_size=3)),
    st.tuples(st.just("full"), st.booleans()),  # apply
    st.tuples(st.just("sample"), st.integers(1, 4), st.booleans()),  # sample size, apply
)
# The bytes a write stores before ENOSPC (None: every byte), a failed fsync, a failed cut.
_session_fault = st.one_of(
    st.none(), st.tuples(st.one_of(st.none(), st.integers(0, 60)), st.booleans(), st.booleans())
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.integers(0, 1), _session_call, _session_fault), max_size=12))
def test_two_stores_with_append_faults_each_equal_a_log_only_open(append_faults, steps):
    """Each store applies its own appends, failed or not, as an open of the log alone does."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp)
        stores = [LedgerStore(path), LedgerStore(path, create=False)]
        ids = [f"s{k}" for k in range(6)]
        known: set[str] = set()
        for k, (which, (op, *args), fault) in enumerate(steps):
            store = stores[which]
            log = (path / LOG_NAME).read_bytes() if (path / LOG_NAME).exists() else b""
            batch = [args[0]] if op == "record" else args[0] if op == "record_many" else []
            duplicate = len(set(batch)) < len(batch) or bool(known & set(batch))
            if fault is not None:
                write_bytes, fsync_fails, ftruncate_fails = fault
                append_faults.arm(path / LOG_NAME, write_bytes=write_bytes,
                                  fsync_fails=fsync_fails, ftruncate_fails=ftruncate_fails)
            try:
                if op == "record":
                    shares = share_row(0.5, 0.5) if args[1] else None
                    store.record(make_tx(args[0], 1.0 + k, shares))
                elif op == "record_many":
                    store.record_many(make_tx(tx_id, 1.0 + k, share_row(0.25, 0.75))
                                      for tx_id in args[0])
                elif op == "full":
                    settle_full(store, beta_data=0.7, apply=args[0])
                elif store.unsettled():
                    size = min(args[0], len(store.unsettled()))
                    settle_subsampled(store, beta_data=0.7, sample_size=size, seed=k,
                                      apply=args[1])
            except DuplicateIdError:
                assert duplicate
            except StorageFailureError as exc:
                if "append to" not in str(exc):
                    assert "every sampled transaction failed attribution" in str(exc)
                else:
                    assert fault is not None
                    if not fault[2]:  # the cut succeeded
                        assert (path / LOG_NAME).read_bytes() == log
            else:
                assert not duplicate
            finally:
                append_faults.disarm()
            (path / CHECKPOINT_NAME).unlink(missing_ok=True)
            log_only = LedgerStore(path, create=False)
            expected = _state(log_only, ids)
            known = {tx.id for tx in log_only.transactions()}
            for s in stores:
                assert _state(s, ids) == expected, k
            for s in (*stores, log_only):  # no pool id is in the settled index too
                assert not any(map(s._holds, s._pool)), k


@pytest.mark.parametrize("blank", [b"\n", b" \t\n"])
def test_a_blank_log_line_is_skipped_by_an_open_and_by_a_live_store(tmp_path, blank):
    path = tmp_path / "ledger"
    store = LedgerStore(path)
    store.record(make_tx("t0", 1.0, share_row(0.5, 0.5)))
    with open(path / LOG_NAME, "ab") as fh:
        fh.write(blank)
    # The live store replays the blank line under the lock of this record.
    store.record(make_tx("t1", 2.0, share_row(1.0, 0.0)))
    assert [tx.id for tx in store.unsettled()] == ["t0", "t1"] and store.dropped_bytes == 0
    settle_full(store, beta_data=0.5)
    log = (path / LOG_NAME).read_bytes()
    assert blank in log.splitlines(keepends=True)
    ids = ["t0", "t1"]
    expected = _state(store, ids)
    for checkpoint in (False, True):
        if not checkpoint:
            (path / CHECKPOINT_NAME).unlink(missing_ok=True)
        reopened = LedgerStore(path, create=False)
        assert _state(reopened, ids) == expected
        assert reopened.dropped_bytes == 0 and (path / LOG_NAME).read_bytes() == log
