"""A revenue ledger accrues transactions, then settles owner balances.

Each recorded transaction carries a price and the royalty shares computed at
generation time. Settlement folds unsettled transactions into owner balances;
a subsampled settlement estimates the same payouts from a fraction of the
pool. The next day reopens the ledger, whose replay resumes at the
checkpoint the first reopen left beside the log, records a few more sales
and settles them as a second period through another store on the same
directory. The store that recorded those sales then sees them settled.
"""

from __future__ import annotations

import tempfile

import numpy as np

from royaltyshare import (
    GenerationEvent,
    LedgerStore,
    ShareVector,
    Transaction,
    settle_full,
    settle_subsampled,
)
from royaltyshare.synthetic import populate_synthetic_ledger


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="royalty-demo-") as root:
        settle_day(root)
        next_day(root)


def settle_day(root: str) -> None:
    store = LedgerStore(root, create=True)
    populate_synthetic_ledger(store, num_transactions=2000, num_owners=4, seed=3)
    print(f"ledger at {root}: {len(store.transactions())} transactions recorded")

    beta = 0.7
    preview = settle_subsampled(store, beta, sample_size=200, seed=1, apply=False)
    print()
    print("10% subsample preview (nothing written):")
    for i, payout in enumerate(preview.owner_payouts):
        print(f"  owner {i}: {payout:>9.2f}")
    print(f"  developer: {preview.developer_payout:>8.2f}")

    report = settle_full(store, beta)
    print()
    print("full settlement (durable):")
    for i, payout in enumerate(report.owner_payouts):
        estimate = preview.owner_payouts[i]
        off = abs(estimate - payout) / payout
        print(f"  owner {i}: {payout:>9.2f}  (preview was off by {off:.2%})")
    print(f"  developer: {report.developer_payout:>8.2f}")
    print(f"  conservation error: {report.conservation_error:.2e}")
    print(f"  unsettled remaining: {len(store.unsettled())}")

    balances = store.balances
    print()
    print("owner balances now carry the settled amounts:")
    for owner, balance in sorted(balances.items()):
        print(f"  owner {owner}: {balance:>9.2f}")


def next_day(root: str) -> None:
    yesterday = LedgerStore(root, create=False)  # replays the whole log, then checkpoints it
    sales = [
        Transaction(
            id=f"day2-{k}",
            price=2.0,
            event=GenerationEvent(x=np.array([0.1 * k, -0.2])),
            srs=ShareVector(shares=np.array([0.4, 0.3, 0.2, 0.1]), degenerate=False),
        )
        for k in range(5)
    ]
    yesterday.record_many(sales)
    store = LedgerStore(root, create=False)  # replays only the sales after the checkpoint
    print()
    print(f"next day: {len(store.unsettled())} new sales on top of {store.settlement_count} "
          "settlement")
    report = settle_full(store, 0.7)
    print(f"  second period pays owners {report.owner_payouts.sum():.2f}, "
          f"the developer {report.developer_payout:.2f}")
    # The recording store reads the other store's settlement from the log.
    settled = sum(yesterday.is_settled(tx.id) for tx in sales)
    assert settled == len(sales) and not yesterday.unsettled(), "the recorder is stale"
    print(f"  the recording store sees {settled} of its {len(sales)} sales settled "
          f"and {len(yesterday.unsettled())} unsettled")
    reopened = LedgerStore(root, create=False)
    assert repr(reopened.balances) == repr(store.balances), "reopened balances differ"
    assert reopened.settlement_count == 2 and not reopened.unsettled()
    print(f"  reopened: {reopened.settlement_count} settlements, balances unchanged")
    for owner, balance in sorted(reopened.balances.items()):
        print(f"  owner {owner}: {balance:>9.2f}")


if __name__ == "__main__":
    main()
