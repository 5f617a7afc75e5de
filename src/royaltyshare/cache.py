"""The process-wide content cache that the density and exact layers share.

A :class:`DigestCache` maps the sha256 digest of an input's bytes to the
result computed from it. ``density`` keeps the dataset parse in one of them
and each owners' content's exact moments and fit table in another, and
``exact`` keeps the stratum sums of each utility table in a third.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class DigestCache:
    """A bounded LRU of results keyed by sha256 digests, safe across threads.

    Only results that returned are kept: a computation that raises stores
    nothing, so the same input raises again on the next call. Two threads
    that miss on one key may both compute it; the first result stored is
    kept, and both callers get it.
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
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self._size:
                self._entries.popitem(last=False)
        return value
