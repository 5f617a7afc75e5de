"""Shared fixtures: table-backed games, the seeded random-game corpus and append faults."""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from royaltyshare import CoalitionGame

CORPUS_SEED = 20260816
CORPUS_SIZE = 200


def table_game(table, n=None):
    """A game whose oracle indexes a dense 2^n utility table."""
    table = np.asarray(table, dtype=float)
    if n is None:
        n = table.size.bit_length() - 1
    assert table.size == 1 << n
    return CoalitionGame(n, lambda s: float(table[s]))


def random_table(rng, n):
    """Utilities i.i.d. uniform on [-1, 1] with v(empty) = 0."""
    table = rng.uniform(-1.0, 1.0, size=1 << n)
    table[0] = 0.0
    return table


@pytest.fixture(scope="session")
def game_corpus():
    """200 random games with n in {2..8}; shared by the axiom criteria."""
    rng = np.random.default_rng(CORPUS_SEED)
    corpus = []
    for _ in range(CORPUS_SIZE):
        n = int(rng.integers(2, 9))
        corpus.append((n, random_table(rng, n)))
    return corpus


GLOVE_TABLE = np.zeros(8)
for _mask in range(8):
    if (_mask & 0b011) and (_mask & 0b100):
        GLOVE_TABLE[_mask] = 1.0

GLOVE_EXACT = np.array([1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0])


@pytest.fixture()
def glove_game():
    """Two left-glove holders and one right-glove holder; phi (1/6, 1/6, 2/3)."""
    return table_game(GLOVE_TABLE)


class AppendFaults:
    """Faults in the writes to one file, such as a ledger's log, for its descriptors only.

    Armed with :meth:`arm`: ``os.write`` stores ``write_bytes`` bytes in all
    and then fails with ``ENOSPC``, the next ``os.fsync`` fails with ``EIO``
    (once, so the fsync after a cut succeeds), and ``os.ftruncate`` fails
    with ``EIO``. A descriptor is the file's if it names the same inode.
    """

    def __init__(self, monkeypatch):
        self.path = None
        self.write_bytes = None
        self.fsync_fails = self.ftruncate_fails = False
        real_write, real_fsync, real_ftruncate = os.write, os.fsync, os.ftruncate

        def write(fd, data):
            if self.write_bytes is None or not self._hits(fd):
                return real_write(fd, data)
            if not self.write_bytes:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            written = real_write(fd, memoryview(data)[: self.write_bytes])
            self.write_bytes -= written
            return written

        def fsync(fd):
            if self.fsync_fails and self._hits(fd):
                self.fsync_fails = False
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_fsync(fd)

        def ftruncate(fd, length):
            if self.ftruncate_fails and self._hits(fd):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_ftruncate(fd, length)

        monkeypatch.setattr(os, "write", write)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "ftruncate", ftruncate)

    def arm(self, path, *, write_bytes=None, fsync_fails=False, ftruncate_fails=False):
        self.path = path
        self.write_bytes = write_bytes
        self.fsync_fails = fsync_fails
        self.ftruncate_fails = ftruncate_fails

    def disarm(self):
        self.arm(None)

    def _hits(self, fd):
        try:
            return self.path is not None and os.path.samestat(os.fstat(fd), os.stat(self.path))
        except OSError:
            return False


@pytest.fixture()
def append_faults(monkeypatch):
    """An :class:`AppendFaults`, disarmed."""
    return AppendFaults(monkeypatch)
