"""The process-wide content cache that the density and exact layers share.

A :class:`DigestCache` maps the sha256 digest of an input's bytes to the
result computed from it. ``density`` keeps the dataset parse, the owners'
exact moments and the coalition fit tables in three of them, and ``exact``
keeps the stratum sums of each utility table in a fourth.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class DigestCache:
    """A bounded LRU of results keyed by sha256 digests, safe across threads.

    Only results that returned are kept: a computation that raises stores
    nothing, so the same input raises again on the next call. Two threads
    that miss on one key may both compute it; the results are equal.
    """

    def __init__(self, size: int):
        self._size = size
        self._entries: OrderedDict[bytes, object] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: bytes, compute):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
        value = compute()
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self._size:
                self._entries.popitem(last=False)
        return value
