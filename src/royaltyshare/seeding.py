"""Deterministic stream splitting for all randomness in the package.

Every random quantity flows from one root seed. Substreams are derived with
``SeedSequence`` spawn keys over the counter-based Philox generator, so a
stream is a pure function of ``(seed, key...)``: permutation j of a Monte
Carlo run or trajectory k of a density estimate sees the same stream however
the work around it is batched, and batching never changes a drawn bit.

A Philox stream is fully described by its 128-bit key (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011). :func:`philox_keys`
computes the keys of many ``(seed, index)`` streams in one vectorized pass,
and :func:`key_generators` positions one reused generator at the start of
each, so a sampler pays microseconds per stream instead of constructing a
``SeedSequence`` and a ``Philox`` for every one. :func:`rng_for` stays the
scalar API, and the tests hold the two to the same bits.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

_MASK32 = 0xFFFFFFFF

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for substream ``key`` of root ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse ``(seed, key...)`` into a fresh uint64 root for a subsystem.

    For one key word this is ``philox_keys(seed, key)[0, 0]``.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def uint64_array(values, name: str) -> np.ndarray:
    """``values`` as a uint64 array of the same shape.

    An integer array is cast as it is, and an empty array of any dtype gives
    an empty one. Anything else is read one Python int at a time: numpy turns
    a list that mixes small ints with ints of 2**63 and more into floats.
    Raises ``TypeError`` for an entry that is not an integer and
    ``ValueError``, naming ``name``, for one outside [0, 2**64).
    """
    if isinstance(values, np.ndarray) and values.dtype.kind != "O":
        if values.size and values.dtype.kind not in "iu":
            raise TypeError(f"{name}s must be integers, got {values.dtype}")
        if values.dtype.kind == "i" and values.size and values.min() < 0:
            raise ValueError(f"{name} {int(values.min())} is negative")
        return values.astype(np.uint64, copy=False)
    objects = np.array(values, dtype=object)
    try:
        ints = [operator.index(v) for v in objects.ravel().tolist()]
    except TypeError as exc:
        raise TypeError(f"{name}s must be integers: {exc}") from None
    if min(ints, default=0) < 0:
        raise ValueError(f"{name} {min(ints)} is negative")
    if max(ints, default=0) >> 64:
        raise ValueError(f"{name} {max(ints)} is 2**64 or more")
    return np.array(ints, dtype=np.uint64).reshape(objects.shape)


def _hashmix(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix`` on every row; returns the next hash constant too."""
    nxt = const * mult & _MASK32
    words = (words ^ np.uint32(const)) * np.uint32(nxt)
    return words ^ (words >> _XSHIFT), nxt


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> _XSHIFT)


def philox_keys(seeds, indices) -> np.ndarray:
    """The ``(B, 2)`` uint64 Philox keys of ``rng_for(seeds[b], indices[b])``.

    ``seeds`` and ``indices`` broadcast against each other; both must lie in
    [0, 2**64). This is numpy's ``SeedSequence(seed, spawn_key=(index,))``
    followed by ``generate_state(2, uint64)``, computed on uint32 arrays:

    - the seed's words (low, high) are zero-padded to the pool size of 4,
      as numpy does whenever a spawn key is present;
    - the hash constants advance the same way for every row, so they are
      scalars;
    - the index enters as one word below 2**32 and as two from there up,
      and the second word's mixing applies to those rows only;
    - output words are joined as ``lo | hi << 32``, so the keys do not
      depend on the host's byte order.
    """
    seeds, indices = np.broadcast_arrays(
        uint64_array(seeds, "seed").ravel(), uint64_array(indices, "index").ravel())

    def halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return ((a & np.uint64(_MASK32)).astype(np.uint32),
                (a >> np.uint64(32)).astype(np.uint32))

    seed_lo, seed_hi = halves(seeds)
    index_lo, index_hi = halves(indices)
    zero = np.zeros_like(seed_lo)

    const = _INIT_A
    pool = []
    for word in (seed_lo, seed_hi, zero, zero):
        mixed, const = _hashmix(word, const, _MULT_A)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], mixed)
    for dst in range(_POOL_SIZE):
        mixed, const = _hashmix(index_lo, const, _MULT_A)
        pool[dst] = _mix(pool[dst], mixed)
    wide = index_hi != 0
    if wide.any():
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(index_hi, const, _MULT_A)
            pool[dst] = np.where(wide, _mix(pool[dst], mixed), pool[dst])

    const = _INIT_B
    out = []
    for word in pool:
        mixed, const = _hashmix(word, const, _MULT_B)
        out.append(mixed.astype(np.uint64))
    return np.stack([out[0] | out[1] << np.uint64(32), out[2] | out[3] << np.uint64(32)],
                    axis=-1)


def key_generators(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """Yield a generator at the start of each key's Philox stream, in row order.

    One ``Generator(Philox)`` is reused: each step resets its state to what
    a fresh ``Philox`` with that key holds (counter 0, empty buffer), so it
    draws what ``rng_for`` would. The yielded generator is valid until the
    next step.
    """
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    zeros = [0, 0, 0, 0]
    for key in np.asarray(keys, dtype=np.uint64).reshape(-1, 2).tolist():
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen
