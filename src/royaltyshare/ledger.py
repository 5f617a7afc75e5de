"""Transaction ledger and revenue settlement.

Storage layout: a ledger is a directory holding one append-only log,
``transactions.log``, which is the ledger's only persisted state, and a
replay checkpoint, ``transactions.ckpt``, that is a cache of the log. Lines are
UTF-8 with LF terminators. A transaction line is
``id|price|event-ref|srs-csv|settled-flag``. Settling appends, in one
append, each settled sale's line as it stands in the log with its flag set
to 1, and then one settlement record
``|count|owner-payouts-csv|developer-payout``. The record's first field is
empty, which no transaction id can be, and ``count`` is the number of
settled lines right before it that it commits. A settlement that settles
nothing appends nothing, but replay accepts the ``|0|`` records that older
versions appended for one. Replay takes the last line
per id, applies settled lines only when their record follows, and adds each
record's payouts to the balances in log order. Floats are serialized with
repr and parse back bit-exactly, so reopening a store reproduces balances
exactly. Ledgers from versions whose settlements filled in missing shares
hold settled lines that differ from their sale lines beyond the flag; they
are checked in full and still replay.

Replay streams the log and checks every line, but each text once: the
settled copy of a sale differs from the sale's line only in the flag, so it
has only its flag and its place in the log checked, and a line equal to the
one that the store's own append wrote at its place, which the store encoded
from checked values, has only its id and flag read. The store holds each
unsettled line's text and offset, and only a yes or no for every other id;
only replay, and the checkpoint resume of an open, change what it holds.
``LedgerStore.unsettled`` decodes the pool's lines into ``Transaction``s on
every call and keeps none, and a settlement splits each pool line once and
converts only the prices and the shares it sums, without checking them again.
``LedgerStore.transactions`` reads the committed log once and decodes each
id's last line there, in the order of the ids' first lines, which is entry
order. Each id is held in one place: the pool while it is unsettled, and
the settled index once a settlement commits it. The settled index is two
arrays: each settled id's 64-bit key (the first 8 bytes of the BLAKE2b
digest of its UTF-8 bytes) in ascending order, and the log offset of one
line of the id of each key. A lookup runs ``searchsorted`` on the keys; a
key that matches is confirmed against the id's log line, so two ids that
share a key stay apart. A replay keeps the ids it settles in a dict of its
own and merges them into the arrays with numpy once, as it ends, so an
open's Python work per id covers the lines replayed, not the settled
history, and no unsettled id is indexed.

An open resumes at the checkpoint, taking all of its state or none of it,
and runs the replay that every call runs (see below). If that got further,
it writes ``transactions.ckpt`` beside the log: the state at the last
commit boundary, the checkpoint's digest extended by the bytes replayed.
Its version 6 holds text lines (the version; that boundary's byte offset
and the sha256 of the log up to it; the settlement count and the developer
balance; the balances, floats as repr; the line offsets of the unsettled
ids, in entry order), the number of settled ids, the settled index's two
columns as little-endian 64-bit integers, which the next open maps with
``np.frombuffer``, and the sha256 of all of that. An id itself is read from
its log line. The next open resumes at that offset only if the checkpoint's
checksum, and the offset and digest against the log, all match; the log's
bytes before the offset are then verified by the digest and those after it
by replay, and only the suffix is parsed. Otherwise replay starts at byte
0, so every open gives what a log-only open gives; the number of a line
named in an error is counted from the log only when it is raised. The
checkpoint is replaced whole by :func:`~royaltyshare.files.replace_file`,
with no fsync: every fact in it is also in the log, it is never read
without the log, and deleting it only costs the next open a full replay. A
change to what replay accepts, to the checkpoint's layout or to the key,
must change the checkpoint's version line; an open ignores a checkpoint of
an older version, version 5's columns, which indexed the unsettled ids too,
included, and replays from byte 0 once.

Several stores, in one process or in many, may share one ledger
directory. Every operation of a store holds an ``fcntl.flock`` on the
directory's own descriptor, so no lock file appears: a shared one to read
the store's view, an exclusive one to open the store, to record and to
settle. Under the lock the store compares the log's size with the last
commit boundary it applied; if the log has grown, replay resumes at that
boundary, so the store acts on the log as it stands. A store applies its
own appends the same way, replaying each one right after its fsync, so it
holds what its log holds and nothing else. Replay hashes nothing and writes
no checkpoint. A settlement it applies moves the settled ids from the pool
into the settled index's arrays, so a store that only records holds no more
than its unsettled pool in dicts. A log shorter than that boundary
raises ``StorageFailureError``. ``flock`` is POSIX only, and some network
file systems do not honour it; there, stores in different processes or on
different hosts are not ordered at all.

A crash can leave a torn tail: bytes after the last LF, or settled lines
whose record never reached the log. That settlement never happened, so
opening the store, or a replay under the exclusive lock, truncates the tail
(with an fsync), its transactions stay unsettled, and
``LedgerStore.dropped_bytes`` says how many bytes went. A writer appends
under the exclusive lock, so no open or replay cuts a line that is being
written. A complete line that does not decode or holds a value that
``Transaction`` rejects (a NaN share or coordinate, say), a record whose
count disagrees with the settled lines before it, settled lines followed by
anything but their record, a settled line of an id that is settled already
(before it or in the same settlement), and a ``.json`` file in the directory
other than a ``.meta.json`` report sidecar (the balance snapshot of an older
format, whose balances this log does not hold) raise
``StorageFailureError`` instead. An append writes through an unbuffered
descriptor and fsyncs it. If either fails, it cuts the log back to the last
commit boundary and fsyncs it, so a call that raises leaves the log and the
store as they were (Rebello et al., USENIX ATC 2020, on what a failed fsync
leaves); if the cut fails too, the error says that the log's tail is
unknown. The append that makes the log fsyncs the ledger directory, and a
store that makes that directory fsyncs its parent, so that their names are
durable too.

Settlement distributes the income of every unsettled transaction: a fraction
``beta_data`` flows to owners in proportion to per-transaction royalty
shares recorded with each sale, the rest to the developer. ``settle_full``
pays every transaction by its own shares; ``settle_subsampled`` estimates the
mean share vector from a uniform without-replacement sample and applies it to
the whole pool, which is unbiased when prices do not co-vary with shares
(constant pricing being the common case). Both only flip flags: no share is
computed at settlement. A sale recorded without shares is quarantined when
``settle_full`` meets it or ``settle_subsampled`` samples it (unsampled, it
is paid at the sample mean like the rest): the report's ``failed_reasons``
gives it the reason "no shares and no attributor", the only one, and it is
left unsettled for a retry, never silently dropped. A pool whose share rows
disagree on the owner count, sampled or not, or a sample in which no
transaction has shares, cannot be settled and raises ``StorageFailureError``.

``write_settlement_csv`` replaces the report whole and fsyncs it and its
directory. The settlement is committed to the log before its report is
written, and the log's record holds neither the quarantine nor the
estimator, so a crash in between leaves a settled ledger beside the previous
report, and only the record's count and payouts to rebuild it from.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import math
import operator
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

from .density import GenerationEvent
from .errors import DuplicateIdError, StorageFailureError
from .files import fsync_directory, replace_file
from .games import merge_sorted
from .royalty import ShareVector
from .seeding import rng_for

LOG_NAME = "transactions.log"
CHECKPOINT_NAME = "transactions.ckpt"
_CHECKPOINT_VERSION = "royaltyshare ledger checkpoint 6"
_CHUNK = 1 << 16  # bytes per read of the log's prefix, to hash it or count its lines
_KEY = np.dtype("<u8")  # the checkpoint's column of id keys
_INT = np.dtype("<i8")  # and of line offsets

_SHARE_SUM_TOL = 1e-9
_CORRELATION_THRESHOLD = 0.5
_CORRELATION_MIN_SAMPLE = 10

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
    settled_count: int = 0  # the transactions this settlement settles

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


class _Sale(NamedTuple):
    """An unsettled transaction: the log offset and the text of its checked line."""

    offset: int
    text: str


def _check_entry(
    line: str, pool: dict[str, _Sale], written: str | None
) -> _Record | tuple[str, bool] | None:
    """Check one complete log line: a record, a transaction's id and flag, or None if blank.

    A transaction line whose text before the flag is that of its id's line
    in ``pool``, which was checked already, has only its flag checked, and
    one that with its LF is ``written``, a line that the store encoded from
    checked values, has only its id and flag read.
    """
    if line.startswith("|"):
        return _decode_record(line)
    tx_id = line.partition("|")[0]
    known = pool.get(tx_id)
    if known is not None and line[:-1] == known.text[:-1] and line[-1] in "01":
        return tx_id, line[-1] == "1"
    if not line.strip():
        return None
    if line + "\n" == written:
        return tx_id, line[-1] == "1"
    tx_id, price, coords, _, shares, settled = _parse_line(line)
    _check_fields(tx_id, price, coords, shares)
    return tx_id, settled


def _chunks(fh: BinaryIO, size: int) -> Iterator[bytes]:
    """The next ``size`` bytes of ``fh``, or as many as it holds, in reads of ``_CHUNK``."""
    while size:
        chunk = fh.read(min(size, _CHUNK))
        if not chunk:
            return
        yield chunk
        size -= len(chunk)


def _keys_of(ids: Iterable[str]) -> np.ndarray:
    """The 64-bit key of each id: the first 8 bytes of its UTF-8 bytes' BLAKE2b digest.

    The same in every process. Two ids may share a key, so a key that
    matches is confirmed against the id's log line.
    """
    digests = (hashlib.blake2b(i.encode("utf-8"), digest_size=8).digest() for i in ids)
    return np.fromiter(digests, dtype="S8").view(_KEY)  # one digest at a time


class _Index(NamedTuple):
    """The settled ids of a store at one moment, as arrays."""

    keys: np.ndarray  # each settled id's key, ascending
    offsets: np.ndarray  # the log offset of one line of the id of each key


_EMPTY = _Index(np.empty(0, _KEY), np.empty(0, _INT))


class _Checkpoint(NamedTuple):
    """The replay state at a commit boundary of the log, as ``transactions.ckpt`` holds it."""

    offset: int  # the boundary's byte offset in the log
    digest: str  # the sha256 of the log's bytes before it
    settlement_count: int
    developer_balance: float
    balances: dict[int, float]
    pool: list[int]  # the line offsets of the unsettled ids, in entry order
    index: _Index  # the settled ids


def _encode_checkpoint(ckpt: _Checkpoint) -> bytes:
    lines = [
        _CHECKPOINT_VERSION,
        f"{ckpt.offset} {ckpt.digest}",
        f"{ckpt.settlement_count} {ckpt.developer_balance!r}",
        ",".join(f"{owner}:{amount!r}" for owner, amount in ckpt.balances.items()),
        ",".join(map(str, ckpt.pool)),
        str(ckpt.index.keys.size),
    ]
    body = b"".join(
        ["".join(line + "\n" for line in lines).encode("utf-8"),
         *(column.tobytes() for column in ckpt.index)]
    )
    return body + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"


def _decode_checkpoint(raw: bytes) -> _Checkpoint:
    """The checkpoint in ``raw``; ValueError if it is torn, corrupt or of another version.

    Its columns are read-only views of ``raw``.
    """
    body, checksum = raw[:-65], raw[-65:]  # the last line: 64 hex digits and its LF
    if checksum != hashlib.sha256(body).hexdigest().encode("ascii") + b"\n":
        raise ValueError("checkpoint checksum mismatch")
    *header, columns = body.split(b"\n", 6)
    version, position, totals, balances, pool, count = (line.decode("utf-8") for line in header)
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"unknown checkpoint version {version!r}")
    offset, digest = position.split(" ")
    settlement_count, developer = totals.split(" ")
    pairs = (item.split(":") for item in balances.split(",")) if balances else ()
    keys, offsets = np.frombuffer(columns, dtype=_KEY).reshape(2, int(count))
    pool_offsets = list(map(int, pool.split(","))) if pool else []
    if not all(0 <= at < int(offset) for at in pool_offsets):
        raise ValueError("checkpoint pool offset out of range")
    return _Checkpoint(
        offset=int(offset),
        digest=digest,
        settlement_count=int(settlement_count),
        developer_balance=float(developer),
        balances={int(owner): float(amount) for owner, amount in pairs},
        pool=pool_offsets,
        index=_Index(keys, offsets.view(_INT)),
    )


class LedgerStore:
    """Directory-backed transaction store whose append-only log is its only state.

    Every operation holds the ledger's ``flock`` and first applies what was
    appended since, and the store applies its own appends by the same replay
    (see the module docstring), so several stores may share a directory.
    Within one store a ``threading.Lock`` serializes the calls: ``record``
    and ``record_many`` may be called concurrently, and a settlement sees a
    consistent pool, so recordings that race it simply land in the next
    period. A settlement's lines and its record go in one append, so after a
    crash the reopened store holds all of that settlement or none of it, and
    an append that fails is cut back before it raises. ``dropped_bytes`` is
    the size of the torn tails that this store truncated, 0 for an intact
    log. Opening a store renews the replay checkpoint beside the log;
    recording and settling never write it. Only replay and an open's
    checkpoint resume change what a store holds: each id in the unsettled
    pool or in the settled index, never in both. ``unsettled`` and
    ``transactions`` decode the lines they return on every call and keep
    none, and a settlement splits each pool line once.
    """

    def __init__(self, path: str | Path, *, create: bool = True):
        self.path = Path(path)
        self._log_path = self.path / LOG_NAME
        self.dropped_bytes = 0
        self._lock = threading.Lock()
        self._end = 0  # the log offset of the last commit boundary this store applied
        self._base = _EMPTY  # the settled index
        self._pool: dict[str, _Sale] = {}  # the unsettled transactions, in entry order
        self._balances: dict[int, float] = {}
        self._developer_balance = 0.0
        self._settlement_count = 0
        try:
            if create:
                with contextlib.suppress(FileExistsError):  # made before, maybe just now
                    self.path.mkdir(parents=True)
                    fsync_directory(self.path.parent)  # which holds the new name
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
            fd = self._flock(exclusive=True)
            try:
                digest = self._resume()
                start = self._end
                self._sync(truncate=True)
                if self._end > start:
                    self._renew_checkpoint(start, digest)
            finally:
                os.close(fd)
        except OSError as exc:
            raise StorageFailureError(f"cannot open ledger at {self.path}: {exc}") from exc

    def _flock(self, exclusive: bool) -> int:
        """A new descriptor of the ledger directory that holds its flock; closing it unlocks.

        ``flock``, not ``lockf``: closing any descriptor of a file drops the
        process's POSIX record locks on it.
        """
        fd = os.open(self.path, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        except BaseException:
            os.close(fd)
            raise
        return fd

    @contextlib.contextmanager
    def _view(self, exclusive: bool) -> Iterator[None]:
        """Hold this store's lock and the ledger's flock, with the log's news applied.

        The exclusive lock also truncates a torn tail, so that an append
        lands after the last complete line.
        """
        with self._lock:
            try:
                fd = self._flock(exclusive)
            except OSError as exc:
                raise StorageFailureError(f"cannot lock the ledger at {self.path}: {exc}") from exc
            try:
                try:
                    self._sync(truncate=exclusive)
                except OSError as exc:
                    raise StorageFailureError(f"cannot read {self._log_path}: {exc}") from exc
                yield
            finally:
                os.close(fd)

    def _sync(self, truncate: bool) -> None:
        """Replay what the log holds past this store's last commit boundary, if anything."""
        try:
            size = os.stat(self._log_path).st_size
        except FileNotFoundError:
            size = 0
        if size < self._end:
            raise StorageFailureError(
                f"{self._log_path} holds {size} bytes, fewer than the {self._end} "
                "this store has applied"
            )
        if size > self._end:
            self._replay(truncate)

    def _replay(self, truncate: bool, written: Iterable[str] = ()) -> None:
        """Apply the log from the store's last commit boundary up to the log's last one.

        Every line read is checked, but a text only once: the settled copy of
        a sale's line has only its flag checked, and a line equal to the one
        at its place in ``written``, the lines of this store's append in the
        order it reads them, has only its id and flag read. A sale line of a new id
        joins the pool as its text and offset. The ids that the replay
        settles leave the pool and are merged into the settled index once,
        as it ends, also when it raises. A torn tail is truncated if
        ``truncate`` is set, or else left for a later replay. An error names
        its line by number, counted only when it is raised; the store then
        stands at the last commit boundary before that line.
        """
        pool = self._pool
        written = iter(written)
        settled: dict[str, int] = {}  # the ids settled here -> the offset of a line of each
        def was_settled(tx_id: str) -> bool:
            return tx_id in settled or self._holds(tx_id)
        fh = open(self._log_path, "rb")
        try:
            fh.seek(self._end)
            pending: dict[str, int] = {}  # settled ids and line offsets awaiting a record
            keep = size = self._end  # bytes that stay in the log, bytes read
            for raw in fh:
                offset = size
                size += len(raw)
                if not raw.endswith(b"\n"):
                    break  # the last line, cut before its LF
                try:
                    line = raw[:-1].decode("utf-8")
                    entry = _check_entry(line, pool, next(written, None))
                except ValueError as exc:  # UnicodeDecodeError included
                    raise StorageFailureError(
                        f"malformed ledger line {self._line_number(offset)} ({exc}): "
                        f"{raw[:120]!r}"
                    ) from exc
                if isinstance(entry, _Record):
                    if entry.count != len(pending):
                        raise StorageFailureError(
                            f"ledger line {self._line_number(offset)}: settlement record "
                            f"commits {entry.count} settled lines, but {len(pending)} precede it"
                        )
                    for tx_id in pending:
                        pool.pop(tx_id, None)
                    settled.update(pending)
                    for i, amount in enumerate(entry.owner_payouts):
                        self._balances[i] = self._balances.get(i, 0.0) + amount
                    self._developer_balance += entry.developer_payout
                    self._settlement_count += 1
                    pending = {}
                elif entry is not None:
                    tx_id, is_settled = entry
                    if is_settled:
                        if tx_id in pending or (tx_id not in pool and was_settled(tx_id)):
                            raise StorageFailureError(
                                f"ledger line {self._line_number(offset)}: transaction "
                                f"{tx_id!r} is settled already"
                            )
                        pending[tx_id] = offset
                    elif pending:
                        raise StorageFailureError(
                            f"ledger line {self._line_number(offset)}: the settled lines "
                            "before it have no settlement record"
                        )
                    # A sale line after its settlement leaves the id settled.
                    elif tx_id in pool or not was_settled(tx_id):
                        pool[tx_id] = _Sale(offset, line)
                if not pending:
                    keep = self._end = size
        finally:
            fh.close()
            if settled:  # merged once, also when a line after a settlement raises
                self._rebase(settled)
        if size > keep and truncate:
            with open(self._log_path, "r+b") as fh:
                fh.truncate(keep)
                os.fsync(fh.fileno())
            self.dropped_bytes += size - keep

    def _line_number(self, offset: int) -> int:
        """The number of the log line that starts at ``offset``."""
        with open(self._log_path, "rb") as fh:
            return sum(chunk.count(b"\n") for chunk in _chunks(fh, offset)) + 1

    def _resume(self) -> hashlib._Hash:
        """Take all of the checkpoint's state, ``_end`` included, if it matches the log, or none.

        Returns the sha256 of the log before ``_end``.
        """
        prefix = hashlib.sha256()
        try:
            ckpt = _decode_checkpoint((self.path / CHECKPOINT_NAME).read_bytes())
            pool = {}
            with open(self._log_path, "rb") as fh:
                for chunk in _chunks(fh, ckpt.offset):
                    prefix.update(chunk)
                # A log that ends before the checkpoint's offset fails the first test.
                if fh.tell() != ckpt.offset or prefix.hexdigest() != ckpt.digest:
                    return hashlib.sha256()
                for offset in ckpt.pool:
                    fh.seek(offset)
                    line = fh.readline()[:-1].decode("utf-8")
                    pool[line.partition("|")[0]] = _Sale(offset, line)
        except (OSError, ValueError):  # no checkpoint or log, or a torn, corrupt or older one
            return hashlib.sha256()
        self._end = ckpt.offset
        self._base = ckpt.index
        self._pool = pool
        self._balances = ckpt.balances
        self._developer_balance = ckpt.developer_balance
        self._settlement_count = ckpt.settlement_count
        return prefix

    def _holds(self, tx_id: str) -> bool:
        """Whether the settled index holds ``tx_id``."""
        keys = self._base.keys
        if not keys.size:
            return False
        key = _keys_of([tx_id])[0]
        at = int(keys.searchsorted(key))
        while at < keys.size and keys[at] == key:  # once, but for two ids that share a key
            if self._is_line_of(tx_id, int(self._base.offsets[at])):
                return True
            at += 1
        return False

    def _is_line_of(self, tx_id: str, offset: int) -> bool:
        """Whether the log line at ``offset`` is one of ``tx_id``'s."""
        field = tx_id.encode("utf-8") + b"|"
        try:
            with open(self._log_path, "rb") as fh:
                fh.seek(offset)
                return fh.read(len(field)) == field
        except OSError as exc:
            raise StorageFailureError(f"cannot read {self._log_path}: {exc}") from exc

    def _rebase(self, settled: dict[str, int]) -> None:
        """Merge ``settled``, ids a replay settled and a line offset of each, into the index."""
        keys = _keys_of(settled)
        order = np.argsort(keys, kind="stable")
        offsets = np.fromiter(settled.values(), dtype=_INT, count=len(settled))[order]
        base = self._base
        self._base = _Index(*merge_sorted(base.keys, base.offsets, keys[order], offsets))

    def _renew_checkpoint(self, start: int, digest: hashlib._Hash) -> None:
        """Replace the checkpoint with the store's state at ``_end``, as it stands.

        ``digest`` holds the log before ``start``; the bytes up to ``_end`` are
        added here. A failed write changes nothing.
        """
        with open(self._log_path, "rb") as fh:
            fh.seek(start)
            for chunk in _chunks(fh, self._end - start):
                digest.update(chunk)
        ckpt = _Checkpoint(
            offset=self._end,
            digest=digest.hexdigest(),
            settlement_count=self._settlement_count,
            developer_balance=self._developer_balance,
            balances=self._balances,
            pool=[sale.offset for sale in self._pool.values()],
            index=self._base,
        )
        # A read-only directory, say: the next open replays more.
        with contextlib.suppress(OSError):
            replace_file(self.path / CHECKPOINT_NAME, _encode_checkpoint(ckpt), durable=False)

    def _append(self, lines: list[str]) -> None:
        """Durably append ``lines``, which end at a commit boundary, then replay them.

        Called under the exclusive lock; a failure cuts the log back to ``_end``.
        The package encoded ``lines`` from checked values, so replay reads
        only the id and flag of each line that it finds as it was written.
        """
        payload = memoryview("".join(lines).encode("utf-8"))
        try:
            fd = os.open(self._log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        except OSError as exc:
            raise StorageFailureError(f"append to {self._log_path} failed: {exc}") from exc
        try:
            while payload:
                payload = payload[os.write(fd, payload):]
            os.fsync(fd)
            if not self._end:  # this append made the log, whose name the directory holds
                fsync_directory(self.path)
        except OSError as exc:
            message = f"append to {self._log_path} failed: {exc}"
            try:
                os.ftruncate(fd, self._end)
                os.fsync(fd)
            except OSError as cut:
                message += f"; cutting it back failed too ({cut}), so the log's tail is unknown"
            raise StorageFailureError(message) from exc
        finally:
            os.close(fd)
        self._replay(truncate=True, written=lines)

    def record_many(self, txs: Iterable[Transaction]) -> None:
        """Durably append a batch of transactions in one append.

        The whole batch is checked first: an id already in the store or twice
        in the batch raises ``DuplicateIdError``, and a label the log cannot
        hold raises ``ValueError``. A batch that raises appends nothing.
        """
        txs = list(txs)
        with self._view(exclusive=True):
            batch: set[str] = set()
            for tx in txs:
                if tx.id in batch or tx.id in self._pool or self._holds(tx.id):
                    raise DuplicateIdError(f"transaction id {tx.id!r} already recorded")
                batch.add(tx.id)
            if txs:
                self._append([_encode_line(tx, settled=False) for tx in txs])

    def record(self, tx: Transaction) -> None:
        """Durably append one transaction. Duplicate ids raise."""
        self.record_many([tx])

    def transactions(self) -> list[Transaction]:
        """Every transaction in entry order, decoded from its id's last line in the log.

        Reads the log up to the last commit boundary once, in which the
        order of the ids' first lines is entry order. An unsettled id's last
        line there is its line in the pool.
        """
        with self._view(exclusive=False):  # no writer changes the log while it is read
            try:
                with open(self._log_path, "rb") as fh:
                    log = fh.read(self._end)
            except FileNotFoundError:  # a store that has recorded nothing
                log = b""
            except OSError as exc:
                raise StorageFailureError(f"cannot read {self._log_path}: {exc}") from exc
            last: dict[bytes, bytes] = {}  # each id -> its last line, in the order of its first
            for raw in log.split(b"\n"):
                tx_id, bar, _ = raw.partition(b"|")
                if tx_id and bar:  # not a settlement record or a blank line
                    last[tx_id] = raw
            return [_decode_line(raw.decode("utf-8"))[0] for raw in last.values()]

    def unsettled(self) -> list[Transaction]:
        """The unsettled transactions in entry order, decoded from their lines on each call."""
        with self._view(exclusive=False):
            return [_decode_line(sale.text)[0] for sale in self._pool.values()]

    def is_settled(self, tx_id: str) -> bool:
        with self._view(exclusive=False):
            return tx_id not in self._pool and self._holds(tx_id)

    def _is_empty(self) -> bool:
        """Whether the store holds no transaction; settlement records do not count."""
        with self._view(exclusive=False):
            return not self._pool and not self._base.keys.size

    def _pool_size(self) -> int:
        """The number of unsettled transactions, without decoding them."""
        with self._view(exclusive=False):
            return len(self._pool)

    @property
    def balances(self) -> dict[int, float]:
        with self._view(exclusive=False):
            return dict(self._balances)

    @property
    def developer_balance(self) -> float:
        with self._view(exclusive=False):
            return self._developer_balance

    @property
    def settlement_count(self) -> int:
        with self._view(exclusive=False):
            return self._settlement_count


class _SampleSizeError(ValueError):
    """A sample size outside [1, ``pool_size``], the pool that the settlement found."""

    def __init__(self, sample_size: int, pool_size: int):
        super().__init__(f"sample_size must lie in [1, {pool_size}], got {sample_size}")
        self.pool_size = pool_size


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


def settle_full(store: LedgerStore, beta_data: float, *, apply: bool = True) -> SettlementReport:
    """Settle every unsettled transaction by its own recorded shares.

    With ``apply=False`` the report is computed but nothing is written: no
    transaction is marked settled and no balance moves. Useful for previewing
    a settlement or comparing estimators against the same pool.
    """
    return _settle(store, beta_data, None, None, apply)


def settle_subsampled(
    store: LedgerStore, beta_data: float, sample_size: int, seed: int, *, apply: bool = True
) -> SettlementReport:
    """Settle the whole pool using a sampled estimate of the mean share vector.

    A uniform without-replacement sample of ``sample_size`` transactions is
    drawn; every unsettled transaction is then paid according to the sample
    mean of their shares. When the sample covers the entire pool and prices
    are constant the estimator coincides with :func:`settle_full`, and the
    implementation takes the exact summation path so the results are equal
    bit for bit. ``apply=False`` computes the report without writing
    anything, which allows estimator studies over many seeds on one pool.
    """
    return _settle(store, beta_data, sample_size, seed, apply)


def _settle(
    store: LedgerStore, beta_data: float, sample_size: int | None, seed: int | None, apply: bool
) -> SettlementReport:
    """Settle the pool exactly, or at the mean of a sample when ``sample_size`` is set."""
    if not 0.0 <= beta_data <= 1.0:
        raise ValueError(f"beta_data must lie in [0, 1], got {beta_data}")
    sampled = sample_size is not None
    with store._view(exclusive=apply):
        pool = list(store._pool.values())
        drawn = range(len(pool))
        is_drawn = [not sampled] * len(pool)
        if sampled:
            if not 1 <= sample_size <= len(pool):
                raise _SampleSizeError(sample_size, len(pool))
            drawn = np.sort(rng_for(seed).choice(len(pool), size=sample_size, replace=False))
            for i in drawn.tolist():
                is_drawn[i] = True
        ids, prices, widths = [], [], set()  # widths: the owner counts of the share rows
        rows = []  # the share rows of the drawn sales, None for a sale without shares
        for (_, text), parse_shares in zip(pool, is_drawn):
            # Replay checked each line: here it is split once, and only drawn shares parsed.
            tx_id, price, _, shares, _ = text.split("|")
            ids.append(tx_id)
            prices.append(float(price))
            if shares:
                widths.add(shares.count(",") + 1)
            if parse_shares:
                rows.append(list(map(float, shares.split(","))) if shares else None)
        failed = {ids[i]: "no shares and no attributor"
                  for i, row in zip(drawn, rows) if row is None}
        resolved = [i for i, row in zip(drawn, rows) if row is not None]
        if sampled and not resolved:
            raise StorageFailureError("every sampled transaction failed attribution")
        if len(widths) > 1:  # over the whole pool, sampled or not
            raise StorageFailureError(f"share rows disagree on owner count: {sorted(widths)}")
        settled = [i for i, tx_id in enumerate(ids) if tx_id not in failed]
        total_income = math.fsum(prices[i] for i in settled)
        exact = not sampled or (
            not failed and len(resolved) == len(pool) and all(p == prices[0] for p in prices)
        )
        resolved_prices = [prices[i] for i in resolved]
        resolved_rows = [row for row in rows if row is not None]
        columns = zip(*resolved_rows)  # one column of shares per owner
        if exact:  # each owner's price-weighted shares, summed exactly
            weighted = [math.fsum(map(operator.mul, resolved_prices, c)) for c in columns]
            owner_payouts = np.array([beta_data * w for w in weighted])
        else:  # the sample's mean shares
            means = [math.fsum(c) / len(resolved) for c in columns]
            owner_payouts = np.array([beta_data * total_income * m for m in means])
        developer_payout = (1.0 - beta_data) * total_income
        if apply and settled:  # each sale's line with its flag set, then the record
            store._append([*(pool[i].text[:-1] + "1\n" for i in settled),
                           _encode_record(len(settled), owner_payouts, developer_payout)])
    return SettlementReport(
        owner_payouts=owner_payouts,
        developer_payout=developer_payout,
        total_income=total_income,
        sampled_fraction=sample_size / len(pool) if sampled else 1.0,
        estimator="subsampled" if sampled else "full",
        seed=seed,
        failed_reasons=failed,
        correlated_warning=sampled and _correlation_flag(
            np.array(resolved_prices), np.array(resolved_rows)
        ),
        settled_count=len(settled),
    )


def write_settlement_csv(report: SettlementReport, path: str | Path) -> None:
    """Replace ``path`` with the settlement report CSV, durably.

    Format: a ``# total_income=... estimator=... seed=...`` comment line,
    the ``owner_id,payout`` header, one row per owner, and a trailing
    ``developer,<payout>`` row. The file and its directory are fsynced: the
    log's settlement record holds the count and the payouts, but not the
    estimator or the seed, so a rerun cannot rebuild this report.
    """
    seed = "-" if report.seed is None else str(report.seed)
    lines = [
        f"# total_income={repr(report.total_income)} estimator={report.estimator} seed={seed}\n",
        "owner_id,payout\n",
    ]
    for i, amount in enumerate(report.owner_payouts):
        lines.append(f"{i},{repr(float(amount))}\n")
    lines.append(f"developer,{repr(float(report.developer_payout))}\n")
    replace_file(path, "".join(lines), durable=True)
