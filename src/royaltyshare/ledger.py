"""Transaction ledger and revenue settlement.

Storage layout: a ledger is a directory holding one append-only log,
``transactions.log``, which is the ledger's only persisted state. Lines are
UTF-8 with LF terminators. A transaction line is
``id|price|event-ref|srs-csv|settled-flag``. Settling appends, in one write
and one fsync, an updated line per settled transaction (same id, shares
filled in, flag 1) and then one settlement record
``|count|owner-payouts-csv|developer-payout``. The record's first field is
empty, which no transaction id can be, and ``count`` is the number of
settled lines right before it that it commits. Replay takes the last line
per id, applies settled lines only when their record follows, and adds each
record's payouts to the balances in log order. Floats are serialized with
repr and parse back bit-exactly, so reopening a store reproduces balances
exactly.

A crash can leave a torn tail: bytes after the last LF, or settled lines
whose record never reached the log. That settlement never happened, so
opening the store truncates the tail (with an fsync), its transactions stay
unsettled, and ``LedgerStore.dropped_bytes`` says how many bytes went. A
complete line that does not decode, a record whose count disagrees with the
settled lines before it, settled lines followed by anything but their
record, and a ``.json`` file in the directory other than a ``.meta.json``
report sidecar (the balance snapshot of an older format, whose balances
this log does not hold) raise ``StorageFailureError`` instead.

Settlement distributes the income of every unsettled transaction: a fraction
``beta_data`` flows to owners in proportion to per-transaction royalty
shares, the rest to the developer. ``settle_full`` attributes every
transaction; ``settle_subsampled`` estimates the mean share vector from a
uniform without-replacement sample and applies it to the whole pool, which is
unbiased when prices do not co-vary with shares (constant pricing being the
common case). Transactions whose attribution fails are quarantined into the
report's ``failed_ids`` and left unsettled for a retry, never silently
dropped. A pool whose share rows disagree on the owner count, or a sample
in which every transaction fails attribution, cannot be settled and raises
``StorageFailureError``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .density import GenerationEvent
from .errors import DuplicateIdError, StorageFailureError
from .royalty import ShareVector
from .seeding import rng_for

LOG_NAME = "transactions.log"

_SHARE_SUM_TOL = 1e-9
_CORRELATION_THRESHOLD = 0.5
_CORRELATION_MIN_SAMPLE = 10

Attributor = Callable[["Transaction"], ShareVector]


@dataclass(frozen=True)
class Transaction:
    """One priced generation event, with shares once they are evaluated."""

    id: str
    price: float
    event: GenerationEvent
    srs: ShareVector | None = None

    def __post_init__(self) -> None:
        if not self.id or any(c in self.id for c in "|\n"):
            raise ValueError(f"transaction id {self.id!r} must be nonempty without '|'")
        if not (math.isfinite(self.price) and self.price >= 0):
            raise ValueError(f"price must be finite and nonnegative, got {self.price}")
        if self.srs is not None:
            _validate_shares(self.srs)


def _validate_shares(shares: ShareVector) -> None:
    values = np.asarray(shares.shares, dtype=float)
    if values.size == 0:
        raise ValueError("share rows must be nonempty")
    if np.any(values < 0):
        raise ValueError("shares must be nonnegative")
    if abs(math.fsum(values.tolist()) - 1.0) > _SHARE_SUM_TOL:
        raise ValueError("shares must sum to 1")


@dataclass(frozen=True)
class SettlementReport:
    """Outcome of one settlement run."""

    owner_payouts: np.ndarray
    developer_payout: float
    total_income: float
    sampled_fraction: float
    estimator: str
    seed: int | None = None
    failed_ids: tuple[str, ...] = ()
    correlated_warning: bool = False

    @property
    def conservation_error(self) -> float:
        paid = math.fsum(self.owner_payouts.tolist() + [self.developer_payout])
        return abs(paid - self.total_income) / max(1.0, abs(self.total_income))


def _encode_event(event: GenerationEvent) -> str:
    coords = ",".join(repr(float(v)) for v in np.asarray(event.x, dtype=float))
    if event.label is None:
        return coords
    if any(c in event.label for c in "|;\n"):
        raise ValueError(f"event label {event.label!r} cannot contain '|', ';' or newlines")
    return f"{coords};{event.label}"


def _decode_event(ref: str) -> GenerationEvent:
    coords, sep, label = ref.partition(";")
    x = np.array([float(v) for v in coords.split(",")]) if coords else np.empty(0)
    return GenerationEvent(x=x, label=label if sep else None)


def _encode_line(tx: Transaction, settled: bool) -> str:
    srs = "" if tx.srs is None else ",".join(repr(float(v)) for v in tx.srs.shares)
    return f"{tx.id}|{repr(float(tx.price))}|{_encode_event(tx.event)}|{srs}|{int(settled)}\n"


def _decode_line(line: str) -> tuple[Transaction, bool]:
    parts = line.split("|")
    if len(parts) != 5:
        raise ValueError(f"expected 5 fields, got {len(parts)}")
    tx_id, price, event_ref, srs_csv, flag = parts
    if flag not in ("0", "1"):
        raise ValueError(f"settled flag must be 0 or 1, got {flag!r}")
    srs = None
    if srs_csv:
        srs = ShareVector(
            shares=np.array([float(v) for v in srs_csv.split(",")]), degenerate=False
        )
    tx = Transaction(id=tx_id, price=float(price), event=_decode_event(event_ref), srs=srs)
    return tx, flag == "1"


class _Record(NamedTuple):
    """A settlement record: the count of settled lines it commits and its payouts."""

    count: int
    owner_payouts: list[float]
    developer_payout: float


def _encode_record(count: int, owner_payouts: np.ndarray, developer_payout: float) -> str:
    payouts = ",".join(repr(float(v)) for v in owner_payouts)
    return f"|{count}|{payouts}|{repr(float(developer_payout))}\n"


def _decode_record(line: str) -> _Record:
    parts = line.split("|")
    if len(parts) != 4:
        raise ValueError(f"expected 4 fields in a settlement record, got {len(parts)}")
    _, count, payouts_csv, developer = parts
    payouts = [float(v) for v in payouts_csv.split(",")] if payouts_csv else []
    record = _Record(int(count), payouts, float(developer))
    if record.count < 0 or not all(map(math.isfinite, [*payouts, record.developer_payout])):
        raise ValueError("settlement record has a negative count or a non-finite payout")
    return record


def _decode_entry(raw: bytes) -> _Record | tuple[Transaction, bool] | None:
    """Decode one complete log line: a record, a transaction line, or None if blank."""
    line = raw.decode("utf-8")
    if not line.strip():
        return None
    return _decode_record(line) if line.startswith("|") else _decode_line(line)


class LedgerStore:
    """Directory-backed transaction store whose append-only log is its only state.

    ``record`` may be called concurrently; appends are serialized internally.
    Settlements take the same lock, so they see a consistent pool and
    recordings that race a settlement simply land in the next period. Every
    append is one write and one fsync. A settlement's lines and its record go
    in one append, so after a crash the reopened store holds all of that
    settlement or none of it. ``dropped_bytes`` is the size of the torn tail
    that opening the store truncated, 0 for an intact log.
    """

    def __init__(self, path: str | Path, *, create: bool = True):
        self.path = Path(path)
        self.dropped_bytes = 0
        self._lock = threading.Lock()
        self._order: list[str] = []
        self._txs: dict[str, Transaction] = {}
        self._settled: set[str] = set()
        self._balances: dict[int, float] = {}
        self._developer_balance = 0.0
        self._settlement_count = 0
        try:
            if create:
                self.path.mkdir(parents=True, exist_ok=True)
            if not self.path.is_dir():
                raise StorageFailureError(f"{self.path} is not a ledger directory")
            # The ledger writes no JSON: one here that is not a report sidecar is the
            # balance snapshot of an older format.
            snapshot = next(
                (p for p in self.path.glob("*.json") if not p.name.endswith(".meta.json")), None
            )
            if snapshot is not None:
                raise StorageFailureError(
                    f"{snapshot} is a balance snapshot from an older ledger format; "
                    "its balances are not in the log, so the ledger cannot be opened"
                )
            if self._log_path.exists():
                self._replay()
        except OSError as exc:
            raise StorageFailureError(f"cannot open ledger at {self.path}: {exc}") from exc

    @property
    def _log_path(self) -> Path:
        return self.path / LOG_NAME

    def _replay(self) -> None:
        """Rebuild the store from the log and truncate a torn tail."""
        pending: list[Transaction] = []  # settled lines still waiting for their record
        keep = size = 0  # bytes that stay in the log, bytes read
        with open(self._log_path, "rb") as fh:
            for number, raw in enumerate(fh, start=1):
                size += len(raw)
                if not raw.endswith(b"\n"):
                    break  # the last line, cut before its LF
                try:
                    entry = _decode_entry(raw[:-1])
                except ValueError as exc:  # UnicodeDecodeError included
                    raise StorageFailureError(
                        f"malformed ledger line {number} ({exc}): {raw[:120]!r}"
                    ) from exc
                if isinstance(entry, _Record):
                    if entry.count != len(pending):
                        raise StorageFailureError(
                            f"ledger line {number}: settlement record commits {entry.count} "
                            f"settled lines, but {len(pending)} precede it"
                        )
                    self._commit(pending, entry.owner_payouts, entry.developer_payout)
                    pending = []
                elif entry is not None:
                    tx, settled = entry
                    if settled:
                        pending.append(tx)
                    elif pending:
                        raise StorageFailureError(
                            f"ledger line {number}: the settled lines before it have no "
                            "settlement record"
                        )
                    else:
                        self._add(tx)
                if not pending:
                    keep = size
        self.dropped_bytes = size - keep
        if self.dropped_bytes:
            with open(self._log_path, "r+b") as fh:
                fh.truncate(keep)
                os.fsync(fh.fileno())

    def _append_lines(self, lines: list[str]) -> None:
        # One write call for the whole batch, so that an append from another
        # process lands before or after a settlement's lines, not among them.
        try:
            with open(self._log_path, "ab") as fh:
                fh.write("".join(lines).encode("utf-8"))
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise StorageFailureError(f"append to {self._log_path} failed: {exc}") from exc

    def _add(self, tx: Transaction) -> None:
        if tx.id not in self._txs:
            self._order.append(tx.id)
        self._txs[tx.id] = tx

    def record(self, tx: Transaction) -> None:
        """Durably append one transaction. Duplicate ids raise."""
        with self._lock:
            if tx.id in self._txs:
                raise DuplicateIdError(f"transaction id {tx.id!r} already recorded")
            self._append_lines([_encode_line(tx, settled=False)])
            self._add(tx)

    def transactions(self) -> list[Transaction]:
        return [self._txs[i] for i in self._order]

    def unsettled(self) -> list[Transaction]:
        return [self._txs[i] for i in self._order if i not in self._settled]

    def is_settled(self, tx_id: str) -> bool:
        return tx_id in self._settled

    @property
    def balances(self) -> dict[int, float]:
        return dict(self._balances)

    @property
    def developer_balance(self) -> float:
        return self._developer_balance

    @property
    def settlement_count(self) -> int:
        return self._settlement_count

    def _commit(
        self,
        settled: list[Transaction],
        owner_payouts: list[float] | np.ndarray,
        developer_payout: float,
    ) -> None:
        """Apply one settlement in memory, as replaying its record does."""
        for tx in settled:
            self._add(tx)
            self._settled.add(tx.id)
        for i, amount in enumerate(owner_payouts):
            self._balances[i] = self._balances.get(i, 0.0) + float(amount)
        self._developer_balance += developer_payout
        self._settlement_count += 1

    def _apply_settlement(
        self,
        settled: list[Transaction],
        owner_payouts: np.ndarray,
        developer_payout: float,
    ) -> None:
        lines = [_encode_line(tx, settled=True) for tx in settled]
        lines.append(_encode_record(len(settled), owner_payouts, developer_payout))
        self._append_lines(lines)
        self._commit(settled, owner_payouts, developer_payout)


def _resolve_shares(
    txs: list[Transaction], attributor: Attributor | None
) -> tuple[list[Transaction], list[str]]:
    """Attach shares to each transaction, quarantining failures."""
    resolved: list[Transaction] = []
    failed: list[str] = []
    for tx in txs:
        if tx.srs is not None:
            resolved.append(tx)
            continue
        if attributor is None:
            failed.append(tx.id)
            continue
        try:
            resolved.append(replace(tx, srs=attributor(tx)))
        except Exception:
            failed.append(tx.id)
    return resolved, failed


def _owner_count(txs: list[Transaction]) -> int:
    counts = {len(tx.srs.shares) for tx in txs}
    if len(counts) > 1:
        raise StorageFailureError(f"share rows disagree on owner count: {sorted(counts)}")
    return counts.pop() if counts else 0


def _correlation_flag(prices: np.ndarray, shares: np.ndarray) -> bool:
    if prices.size < _CORRELATION_MIN_SAMPLE or np.all(prices == prices[0]):
        return False
    for i in range(shares.shape[1]):
        col = shares[:, i]
        if np.std(col) == 0:
            continue
        r = float(np.corrcoef(prices, col)[0, 1])
        if abs(r) > _CORRELATION_THRESHOLD:
            return True
    return False


def _exact_owner_payouts(txs: list[Transaction], n: int, beta_data: float) -> np.ndarray:
    """``beta_data`` times each owner's price-weighted shares, summed exactly."""
    return np.array(
        [beta_data * math.fsum(tx.price * float(tx.srs.shares[i]) for tx in txs) for i in range(n)]
    )


def settle_full(
    store: LedgerStore,
    beta_data: float,
    attributor: Attributor | None = None,
    *,
    apply: bool = True,
) -> SettlementReport:
    """Settle every unsettled transaction with exact per-transaction attribution.

    With ``apply=False`` the report is computed but nothing is written: no
    transaction is marked settled and no balance moves. Useful for previewing
    a settlement or comparing estimators against the same pool.
    """
    if not 0.0 <= beta_data <= 1.0:
        raise ValueError(f"beta_data must lie in [0, 1], got {beta_data}")
    with store._lock:
        pool = [tx for tx in store.unsettled()]
        resolved, failed = _resolve_shares(pool, attributor)
        n = _owner_count(resolved)
        prices = [tx.price for tx in resolved]
        total_income = math.fsum(prices)
        owner_payouts = _exact_owner_payouts(resolved, n, beta_data)
        developer_payout = (1.0 - beta_data) * total_income
        if apply:
            store._apply_settlement(resolved, owner_payouts, developer_payout)
    return SettlementReport(
        owner_payouts=owner_payouts,
        developer_payout=developer_payout,
        total_income=total_income,
        sampled_fraction=1.0,
        estimator="full",
        failed_ids=tuple(failed),
    )


def settle_subsampled(
    store: LedgerStore,
    beta_data: float,
    sample_size: int,
    seed: int,
    attributor: Attributor | None = None,
    *,
    apply: bool = True,
) -> SettlementReport:
    """Settle the whole pool using a sampled estimate of the mean share vector.

    A uniform without-replacement sample of ``sample_size`` transactions is
    attributed; every unsettled transaction is then paid according to the
    sample mean. When the sample covers the entire pool and prices are
    constant the estimator coincides with :func:`settle_full`, and the
    implementation takes the exact summation path so the results are equal
    bit for bit. ``apply=False`` computes the report without writing
    anything, which allows estimator studies over many seeds on one pool.
    """
    if not 0.0 <= beta_data <= 1.0:
        raise ValueError(f"beta_data must lie in [0, 1], got {beta_data}")
    with store._lock:
        pool = store.unsettled()
        if not 1 <= sample_size <= len(pool):
            raise ValueError(
                f"sample_size must lie in [1, {len(pool)}], got {sample_size}"
            )
        indices = np.sort(rng_for(seed).choice(len(pool), size=sample_size, replace=False))
        sampled = [pool[int(i)] for i in indices]
        resolved, failed = _resolve_shares(sampled, attributor)
        if not resolved:
            raise StorageFailureError("every sampled transaction failed attribution")
        n = _owner_count(resolved)
        sample_prices = np.array([tx.price for tx in resolved])
        sample_shares = np.array([tx.srs.shares for tx in resolved])
        failed_set = set(failed)
        resolved_by_id = {tx.id: tx for tx in resolved}
        settled = [resolved_by_id.get(tx.id, tx) for tx in pool if tx.id not in failed_set]
        all_prices = [tx.price for tx in settled]
        total_income = math.fsum(all_prices)
        exact_collapse = (
            not failed
            and len(resolved) == len(pool)
            and all(tx.price == pool[0].price for tx in pool)
        )
        if exact_collapse:
            owner_payouts = _exact_owner_payouts(resolved, n, beta_data)
        else:
            k = len(resolved)
            mean_shares = [
                math.fsum(float(tx.srs.shares[i]) for tx in resolved) / k for i in range(n)
            ]
            owner_payouts = np.array([beta_data * total_income * m for m in mean_shares])
        developer_payout = (1.0 - beta_data) * total_income
        if apply:
            store._apply_settlement(settled, owner_payouts, developer_payout)
    return SettlementReport(
        owner_payouts=owner_payouts,
        developer_payout=developer_payout,
        total_income=total_income,
        sampled_fraction=sample_size / len(pool) if pool else 0.0,
        estimator="subsampled",
        seed=seed,
        failed_ids=tuple(failed),
        correlated_warning=_correlation_flag(sample_prices, sample_shares),
    )


def write_settlement_csv(report: SettlementReport, path: str | Path) -> None:
    """Write the settlement report CSV.

    Format: a ``# total_income=... estimator=... seed=...`` comment line,
    the ``owner_id,payout`` header, one row per owner, and a trailing
    ``developer,<payout>`` row.
    """
    seed = "-" if report.seed is None else str(report.seed)
    lines = [
        f"# total_income={repr(report.total_income)} estimator={report.estimator} seed={seed}\n",
        "owner_id,payout\n",
    ]
    for i, amount in enumerate(report.owner_payouts):
        lines.append(f"{i},{repr(float(amount))}\n")
    lines.append(f"developer,{repr(float(report.developer_payout))}\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
        fh.flush()
        os.fsync(fh.fileno())
