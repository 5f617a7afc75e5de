"""The process-wide digest cache."""

from __future__ import annotations

import threading

from royaltyshare.cache import DigestCache


def test_two_threads_that_miss_on_one_key_get_the_first_stored_value():
    cache = DigestCache(4)
    both_computing = threading.Barrier(2)
    results = [None, None]

    def compute():
        both_computing.wait(timeout=30)
        return object()

    def worker(k):
        results[k] = cache.get(b"key", compute)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert results[0] is results[1] is cache.get(b"key", object)
