from __future__ import annotations

import math
import os
import threading

import numpy as np
import pytest

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
from royaltyshare.ledger import LOG_NAME


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


def test_preview_mode_changes_nothing(store):
    store.record(make_tx("tx-1", 1.0, share_row(1.0)))
    log_before = (store.path / LOG_NAME).read_bytes()
    report = settle_full(store, beta_data=0.5, apply=False)
    assert report.owner_payouts[0] == 0.5
    assert store.unsettled() != []
    assert store.balances == {}
    assert (store.path / LOG_NAME).read_bytes() == log_before


def test_attribution_failures_are_quarantined(store):
    store.record(make_tx("tx-good", 1.0))
    store.record(make_tx("tx-bad", 1.0))

    def attributor(tx):
        if tx.id == "tx-bad":
            raise RuntimeError("oracle exploded")
        return share_row(1.0)

    report = settle_full(store, beta_data=1.0, attributor=attributor)
    assert report.failed_ids == ("tx-bad",)
    assert store.is_settled("tx-good")
    assert not store.is_settled("tx-bad")
    assert [t.id for t in store.unsettled()] == ["tx-bad"]
    assert report.owner_payouts[0] == 1.0


def test_missing_shares_without_attributor_are_quarantined(store):
    store.record(make_tx("tx-1", 1.0))
    report = settle_full(store, beta_data=1.0)
    assert report.failed_ids == ("tx-1",)
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
    outcomes = {
        (full.settlement_count, tuple(full.balances.items()), full.developer_balance),
        (before.settlement_count, tuple(before.balances.items()), before.developer_balance),
    }
    for cut in range(tail_start, len(data)):
        path = tmp_path / f"cut-{cut}"
        path.mkdir()
        (path / LOG_NAME).write_bytes(data[:cut])
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


@pytest.mark.parametrize(
    "tail",
    [
        b"tx-9|1.0|0.0,0.0;\xff\xfe|1.0|0\n",  # a complete line that is not UTF-8
        b"|2|0.5|0.5\n",  # a record committing more settled lines than precede it
        b"tx-1|1.0|0.0,0.0|1.0|1\ntx-9|1.0|0.0,0.0||0\n",  # settled line, then no record
        b"tx-9|1.0|0.0,0.0||2\n",  # a settled flag that is neither 0 nor 1
        b"tx-9|one|0.0,0.0||0\n",  # a price that is not a number
    ],
)
def test_corrupt_complete_lines_raise_on_reopen(store, tail):
    store.record(make_tx("tx-1", 1.0, share_row(1.0)))
    with open(store.path / LOG_NAME, "ab") as fh:
        fh.write(tail)
    with pytest.raises(StorageFailureError):
        LedgerStore(store.path, create=False)


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
