"""Transaction ledger and revenue settlement.

Storage layout: a ledger is a directory holding one append-only log,
``transactions.log``, which is the ledger's only persisted state, and a
replay checkpoint, ``transactions.ckpt``, that is a cache of the log. Lines are
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

Replay streams the log and checks every line, but each text once: the
settled copy of a sale differs from the sale's line only in the flag, so it
has only its flag and its place in the log checked. Settled transactions are
kept as the offset of their line in the log's bytes and decoded only when
``LedgerStore.transactions`` asks for them, so opening a store builds
``Transaction`` objects for the unsettled pool alone.

An open whose replay got further than the stored checkpoint writes
``transactions.ckpt`` beside the log: the replay's state at its last commit
boundary. It holds that boundary's byte offset and line number, the sha256
of the log up to it, the balances, the developer balance and the settlement
count (floats as repr), every id in the order it entered the store with its
settled flag and the offset of the line replay keeps for it, and the sha256
of its own bytes. The next open resumes replay at that offset only if the
checkpoint's checksum, and the offset, line count and digest against the
log, all match; the log's bytes before the offset are then verified by the
digest and those after it by replay, and only the suffix is parsed.
Otherwise replay starts at byte 0, so every open gives what a log-only open
gives. The checkpoint is written to a temporary name and renamed, with no
fsync: every fact in it is also in the log, it is never read without the
log, and deleting it only costs the next open a full replay. A change to
what replay accepts must change the checkpoint's version line.

A crash can leave a torn tail: bytes after the last LF, or settled lines
whose record never reached the log. That settlement never happened, so
opening the store truncates the tail (with an fsync), its transactions stay
unsettled, and ``LedgerStore.dropped_bytes`` says how many bytes went. A
complete line that does not decode or holds a value that ``Transaction``
rejects (a NaN share or coordinate, say), a record whose count disagrees
with the settled lines before it, settled lines followed by anything but
their record, and a ``.json`` file in the directory other than a
``.meta.json`` report sidecar (the balance snapshot of an older format,
whose balances this log does not hold) raise ``StorageFailureError``
instead.

Settlement distributes the income of every unsettled transaction: a fraction
``beta_data`` flows to owners in proportion to per-transaction royalty
shares, the rest to the developer. ``settle_full`` attributes every
transaction; ``settle_subsampled`` estimates the mean share vector from a
uniform without-replacement sample and applies it to the whole pool, which is
unbiased when prices do not co-vary with shares (constant pricing being the
common case). Transactions whose attribution fails are quarantined into the
report's ``failed_reasons``, each id with the exception's class and message
(or "no shares and no attributor"), and left unsettled for a retry, never
silently dropped. A pool whose share rows disagree on the owner count, or a
sample in which every transaction fails attribution, cannot be settled and
raises ``StorageFailureError``.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import re
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, NamedTuple

import numpy as np

from .density import GenerationEvent
from .errors import DuplicateIdError, StorageFailureError
from .royalty import ShareVector
from .seeding import rng_for

LOG_NAME = "transactions.log"
CHECKPOINT_NAME = "transactions.ckpt"
_CHECKPOINT_VERSION = "royaltyshare ledger checkpoint 1"
_CHUNK = 1 << 16  # bytes per read when hashing the checkpointed part of the log

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
        shares = None if self.srs is None else _floats(self.srs.shares)
        _check_fields(self.id, self.price, _floats(self.event.x), shares)


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=float).ravel().tolist()


def _check_fields(
    tx_id: str, price: float, coords: list[float], shares: list[float] | None
) -> None:
    """The checks of one transaction, on plain Python values."""
    if not tx_id or "|" in tx_id or "\n" in tx_id:
        raise ValueError(f"transaction id {tx_id!r} must be nonempty without '|'")
    if not (math.isfinite(price) and price >= 0):
        raise ValueError(f"price must be finite and nonnegative, got {price}")
    if not all(map(math.isfinite, coords)):
        raise ValueError("event coordinates must be finite")
    if shares is None:
        return
    if not shares:
        raise ValueError("share rows must be nonempty")
    if min(shares) < 0:
        raise ValueError("shares must be nonnegative")
    try:
        total = math.fsum(shares)
    except OverflowError:  # finite shares whose sum is beyond the float range
        total = math.inf
    # Written so that a NaN or infinite share, whose sum is not finite, fails it too.
    if not abs(total - 1.0) <= _SHARE_SUM_TOL:
        raise ValueError("shares must be finite and sum to 1")


@dataclass(frozen=True)
class SettlementReport:
    """Outcome of one settlement run."""

    owner_payouts: np.ndarray
    developer_payout: float
    total_income: float
    sampled_fraction: float
    estimator: str
    seed: int | None = None
    failed_reasons: dict[str, str] = field(default_factory=dict)  # quarantined id -> why
    correlated_warning: bool = False

    @property
    def failed_ids(self) -> tuple[str, ...]:
        return tuple(self.failed_reasons)

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


def _encode_line(tx: Transaction, settled: bool) -> str:
    srs = "" if tx.srs is None else ",".join(repr(float(v)) for v in tx.srs.shares)
    return f"{tx.id}|{repr(float(tx.price))}|{_encode_event(tx.event)}|{srs}|{int(settled)}\n"


def _parse_line(
    line: str,
) -> tuple[str, float, list[float], str | None, list[float] | None, bool]:
    """A transaction line's id, price, coordinates, label, shares and settled flag.

    Checks the layout and the flag and parses the numbers, but checks no value.
    """
    parts = line.split("|")
    if len(parts) != 5:
        raise ValueError(f"expected 5 fields, got {len(parts)}")
    tx_id, price, event_ref, srs_csv, flag = parts
    if flag not in ("0", "1"):
        raise ValueError(f"settled flag must be 0 or 1, got {flag!r}")
    shares = list(map(float, srs_csv.split(","))) if srs_csv else None
    price_value = float(price)
    coords, sep, label = event_ref.partition(";")
    x = list(map(float, coords.split(","))) if coords else []
    return tx_id, price_value, x, label if sep else None, shares, flag == "1"


def _decode_line(line: str) -> tuple[Transaction, bool]:
    tx_id, price, coords, label, shares, settled = _parse_line(line)
    srs = None if shares is None else ShareVector(shares=np.array(shares), degenerate=False)
    event = GenerationEvent(x=np.array(coords, dtype=float), label=label)
    return Transaction(id=tx_id, price=price, event=event, srs=srs), settled


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
    payouts = list(map(float, payouts_csv.split(","))) if payouts_csv else []
    record = _Record(int(count), payouts, float(developer))
    if record.count < 0 or not all(map(math.isfinite, [*payouts, record.developer_payout])):
        raise ValueError("settlement record has a negative count or a non-finite payout")
    return record


def _check_entry(
    line: str, pool: dict[str, tuple[int, str]]
) -> _Record | tuple[str, bool] | None:
    """Check one complete log line: a record, a transaction's id and flag, or None if blank.

    ``pool`` maps ids to the offset and text of lines checked already. A
    transaction line whose text before the flag is that of its id's line there
    has only its flag checked.
    """
    if line.startswith("|"):
        return _decode_record(line)
    tx_id = line.partition("|")[0]
    known = pool.get(tx_id)
    if known is not None and line[:-1] == known[1][:-1] and line[-1] in "01":
        return tx_id, line[-1] == "1"
    if not line.strip():
        return None
    tx_id, price, coords, _, shares, settled = _parse_line(line)
    _check_fields(tx_id, price, coords, shares)
    return tx_id, settled


def _line_at(log: bytes, start: int) -> str:
    """The text of the log line that starts at offset ``start``, without its LF."""
    return log[start : log.index(b"\n", start)].decode("utf-8")


class _Checkpoint(NamedTuple):
    """The replay state at a commit boundary of the log, as ``transactions.ckpt`` holds it."""

    offset: int  # the boundary's byte offset in the log
    lines: int  # the number of log lines before it
    digest: str  # the sha256 of the log's bytes before it
    settlement_count: int
    developer_balance: float
    balances: dict[int, float]
    ids: list[str]  # every id, in the order it entered the store
    flags: str  # "1" for each settled id, "0" for each unsettled one
    starts: list[int]  # the offset of the line replay keeps for each id


def _encode_checkpoint(ckpt: _Checkpoint) -> bytes:
    lines = [
        _CHECKPOINT_VERSION,
        f"{ckpt.offset} {ckpt.lines} {ckpt.digest}",
        f"{ckpt.settlement_count} {ckpt.developer_balance!r}",
        ",".join(f"{owner}:{amount!r}" for owner, amount in ckpt.balances.items()),
        ckpt.flags,
        ",".join(map(str, ckpt.starts)),
        "|".join(ckpt.ids),
    ]
    body = "".join(line + "\n" for line in lines).encode("utf-8")
    return body + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"


def _decode_checkpoint(raw: bytes) -> _Checkpoint:
    """The checkpoint in ``raw``; ValueError if it is torn, corrupt or of another version."""
    body, checksum = raw[:-65], raw[-65:]  # the last line: 64 hex digits and its LF
    if checksum != hashlib.sha256(body).hexdigest().encode("ascii") + b"\n":
        raise ValueError("checkpoint checksum mismatch")
    version, position, totals, balances, flags, starts, ids, _ = body.decode("utf-8").split("\n")
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"unknown checkpoint version {version!r}")
    offset, lines, digest = position.split(" ")
    count, developer = totals.split(" ")
    pairs = (item.split(":") for item in balances.split(",")) if balances else ()
    ckpt = _Checkpoint(
        offset=int(offset),
        lines=int(lines),
        digest=digest,
        settlement_count=int(count),
        developer_balance=float(developer),
        balances={int(owner): float(amount) for owner, amount in pairs},
        ids=ids.split("|") if ids else [],
        flags=flags,
        starts=list(map(int, starts.split(","))) if starts else [],
    )
    if not len(ckpt.ids) == len(ckpt.flags) == len(ckpt.starts):
        raise ValueError("checkpoint columns disagree in length")
    return ckpt


class LedgerStore:
    """Directory-backed transaction store whose append-only log is its only state.

    ``record`` and ``record_many`` may be called concurrently; appends are
    serialized internally. Settlements take the same lock, so they see a
    consistent pool and recordings that race a settlement simply land in the
    next period. Every append is one write and one fsync. A settlement's lines
    and its record go in one append, so after a crash the reopened store holds
    all of that settlement or none of it. ``dropped_bytes`` is the size of the
    torn tail that opening the store truncated, 0 for an intact log. The store
    holds the unsettled pool as transactions and each settled transaction as
    the offset of its line, which ``transactions`` decodes on demand. Opening
    a store renews the replay checkpoint beside the log; recording and
    settling never write it.
    """

    def __init__(self, path: str | Path, *, create: bool = True):
        self.path = Path(path)
        self.dropped_bytes = 0
        self._lock = threading.Lock()
        self._order: list[str] = []  # every id, in the order it entered the store
        self._pool: dict[str, Transaction] = {}  # the unsettled transactions, in that order
        self._settled: dict[str, int] = {}  # each settled id -> the log offset of its line
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

    @property
    def _checkpoint_path(self) -> Path:
        return self.path / CHECKPOINT_NAME

    def _replay(self) -> None:
        """Rebuild the store from the log, truncate a torn tail and renew the checkpoint.

        Replay starts where a matching checkpoint ends, or at byte 0. Every
        line it reads is checked, but a text only once: the settled copy of a
        sale's line has only its flag checked. Settled lines are kept as their
        offsets, and only the lines still unsettled at the end are decoded.
        """
        pool: dict[str, tuple[int, str]] = {}  # unsettled id -> offset and text of its checked line
        with open(self._log_path, "rb") as fh:
            start, start_lines, digest = self._resume(fh, pool)
            fh.seek(start)
            pending: list[tuple[str, int]] = []  # settled ids and line offsets awaiting a record
            unhashed: list[bytes] = []  # lines after the last commit boundary
            keep = size = start  # bytes that stay in the log, bytes read
            keep_lines = start_lines
            for number, raw in enumerate(fh, start=start_lines + 1):
                offset = size
                size += len(raw)
                if not raw.endswith(b"\n"):
                    break  # the last line, cut before its LF
                try:
                    line = raw[:-1].decode("utf-8")
                    entry = _check_entry(line, pool)
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
                    for tx_id, at in pending:
                        if pool.pop(tx_id, None) is None and tx_id not in self._settled:
                            self._order.append(tx_id)
                        self._settled[tx_id] = at
                    self._credit(entry.owner_payouts, entry.developer_payout)
                    pending = []
                elif entry is not None:
                    tx_id, settled = entry
                    if settled:
                        pending.append((tx_id, offset))
                    elif pending:
                        raise StorageFailureError(
                            f"ledger line {number}: the settled lines before it have no "
                            "settlement record"
                        )
                    elif tx_id in self._settled:  # a sale line after its settlement
                        self._settled[tx_id] = offset
                    else:
                        if tx_id not in pool:
                            self._order.append(tx_id)
                        pool[tx_id] = (offset, line)
                if pending:
                    unhashed.append(raw)
                else:
                    keep, keep_lines = size, number
                    if unhashed:
                        digest.update(b"".join(unhashed))
                        unhashed.clear()
                    digest.update(raw)
        self._pool = {tx_id: _decode_line(line)[0] for tx_id, (_, line) in pool.items()}
        self.dropped_bytes = size - keep
        if self.dropped_bytes:
            with open(self._log_path, "r+b") as fh:
                fh.truncate(keep)
                os.fsync(fh.fileno())
        if keep > start:
            self._write_checkpoint(keep, keep_lines, digest.hexdigest(), pool)

    def _resume(
        self, fh: BinaryIO, pool: dict[str, tuple[int, str]]
    ) -> tuple[int, int, hashlib._Hash]:
        """Take the checkpoint's state if it matches the log open as ``fh``.

        Returns the offset and line number replay resumes at, and the sha256
        of the log before that offset: the checkpoint's, or 0, 0 and an empty
        digest when there is no checkpoint or it does not match. ``pool``
        receives the checkpoint's unsettled lines.
        """
        miss = 0, 0, hashlib.sha256()
        try:
            ckpt = _decode_checkpoint(self._checkpoint_path.read_bytes())
        except (OSError, ValueError):  # no checkpoint, or a torn or corrupt one
            return miss
        prefix, lines, remaining = hashlib.sha256(), 0, ckpt.offset
        while remaining:
            chunk = fh.read(min(remaining, _CHUNK))
            if not chunk:  # the log ends before the checkpoint's offset
                return miss
            prefix.update(chunk)
            lines += chunk.count(b"\n")
            remaining -= len(chunk)
        if lines != ckpt.lines or prefix.hexdigest() != ckpt.digest:
            return miss
        self._order = ckpt.ids
        self._balances = ckpt.balances
        self._developer_balance = ckpt.developer_balance
        self._settlement_count = ckpt.settlement_count
        self._settled = dict(zip(ckpt.ids, ckpt.starts))
        for unsettled in re.finditer("0", ckpt.flags):
            tx_id = ckpt.ids[unsettled.start()]
            start = self._settled.pop(tx_id)
            fh.seek(start)
            pool[tx_id] = (start, fh.readline()[:-1].decode("utf-8"))
        return ckpt.offset, ckpt.lines, prefix

    def _write_checkpoint(
        self, offset: int, lines: int, digest: str, pool: dict[str, tuple[int, str]]
    ) -> None:
        """Replace the checkpoint with the state at ``offset``; a failed write changes nothing."""
        ckpt = _Checkpoint(
            offset=offset,
            lines=lines,
            digest=digest,
            settlement_count=self._settlement_count,
            developer_balance=self._developer_balance,
            balances=self._balances,
            ids=self._order,
            flags="".join(["0" if i in pool else "1" for i in self._order]),
            starts=[pool[i][0] if i in pool else self._settled[i] for i in self._order],
        )
        temp = self._checkpoint_path.with_name(CHECKPOINT_NAME + ".tmp")
        try:
            temp.write_bytes(_encode_checkpoint(ckpt))
            os.replace(temp, self._checkpoint_path)
        except OSError:  # a read-only directory, say: the next open replays more
            with contextlib.suppress(OSError):
                temp.unlink(missing_ok=True)

    def _append_lines(self, lines: list[str]) -> int:
        """Append ``lines`` durably; returns the log offset they start at."""
        # One write call for the whole batch, so that an append from another
        # process lands before or after a settlement's lines, not among them.
        payload = "".join(lines).encode("utf-8")
        try:
            with open(self._log_path, "ab") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
                return fh.tell() - len(payload)
        except OSError as exc:
            raise StorageFailureError(f"append to {self._log_path} failed: {exc}") from exc

    def record_many(self, txs: Iterable[Transaction]) -> None:
        """Durably append a batch of transactions in one write and one fsync.

        The whole batch is checked first: an id already in the store or twice
        in the batch raises ``DuplicateIdError``, and a label the log cannot
        hold raises ``ValueError``. A batch that raises appends nothing.
        """
        txs = list(txs)
        with self._lock:
            batch: set[str] = set()
            for tx in txs:
                if tx.id in self._pool or tx.id in self._settled or tx.id in batch:
                    raise DuplicateIdError(f"transaction id {tx.id!r} already recorded")
                batch.add(tx.id)
            lines = [_encode_line(tx, settled=False) for tx in txs]
            if lines:
                self._append_lines(lines)
            for tx in txs:
                self._order.append(tx.id)
                self._pool[tx.id] = tx

    def record(self, tx: Transaction) -> None:
        """Durably append one transaction. Duplicate ids raise."""
        self.record_many([tx])

    def transactions(self) -> list[Transaction]:
        """Every transaction in entry order; reads the settled ones' lines from the log."""
        with self._lock:  # so that no settlement moves an offset past the bytes read
            try:
                log = self._log_path.read_bytes() if self._settled else b""
            except OSError as exc:
                raise StorageFailureError(f"cannot read {self._log_path}: {exc}") from exc
            return [
                self._pool.get(i) or _decode_line(_line_at(log, self._settled[i]))[0]
                for i in self._order
            ]

    def unsettled(self) -> list[Transaction]:
        return list(self._pool.values())

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

    def _credit(self, owner_payouts: list[float] | np.ndarray, developer_payout: float) -> None:
        """Add one settlement's payouts to the balances, as replaying its record does."""
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
        offset = self._append_lines(
            [*lines, _encode_record(len(settled), owner_payouts, developer_payout)]
        )
        for tx, line in zip(settled, lines):
            del self._pool[tx.id]
            self._settled[tx.id] = offset
            offset += len(line.encode("utf-8"))
        self._credit(owner_payouts, developer_payout)


def _resolve_shares(
    txs: list[Transaction], attributor: Attributor | None
) -> tuple[list[Transaction], dict[str, str]]:
    """Attach shares to each transaction, quarantining failures with their reasons."""
    resolved: list[Transaction] = []
    failed: dict[str, str] = {}
    for tx in txs:
        if tx.srs is not None:
            resolved.append(tx)
            continue
        if attributor is None:
            failed[tx.id] = "no shares and no attributor"
            continue
        try:
            resolved.append(replace(tx, srs=attributor(tx)))
        except Exception as exc:
            failed[tx.id] = f"{type(exc).__name__}: {exc}"
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
        pool = store.unsettled()
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
        failed_reasons=failed,
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
        resolved_by_id = {tx.id: tx for tx in resolved}
        settled = [resolved_by_id.get(tx.id, tx) for tx in pool if tx.id not in failed]
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
        failed_reasons=failed,
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
