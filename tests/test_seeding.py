"""The batched stream layer draws the same bits as the scalar ``rng_for``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royaltyshare.seeding import derive_seed, key_generators, philox_keys, rng_for

EDGE_INDICES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
seeds = st.integers(min_value=0, max_value=2**64 - 1)
indices = st.one_of(st.sampled_from(EDGE_INDICES), st.integers(0, 2**64 - 1),
                    st.integers(0, 1000))


def reference_key(seed, index):
    return [int(k) for k in rng_for(seed, index).bit_generator.state["state"]["key"]]


@settings(max_examples=60, deadline=None)
@given(seed=seeds, batch=st.lists(indices, min_size=1, max_size=12))
def test_batched_keys_equal_rng_for_and_derive_seed(seed, batch):
    keys = philox_keys(seed, np.array(batch, dtype=np.uint64))
    assert keys.dtype == np.uint64 and keys.shape == (len(batch), 2)
    for index, key in zip(batch, keys.tolist()):
        assert key == reference_key(seed, index)
        assert key[0] == derive_seed(seed, index)


@settings(max_examples=30, deadline=None)
@given(batch=st.lists(st.tuples(seeds, indices), min_size=1, max_size=10))
def test_seeds_and_indices_vary_per_row(batch):
    seed_col = np.array([s for s, _ in batch], dtype=np.uint64)
    index_col = np.array([i for _, i in batch], dtype=np.uint64)
    keys = philox_keys(seed_col, index_col)
    assert keys.tolist() == [reference_key(s, i) for s, i in batch]


def test_keys_accept_python_int_lists_and_scalars():
    assert philox_keys(2**64 - 1, [0, 2**64 - 1]).tolist() == [
        reference_key(2**64 - 1, 0), reference_key(2**64 - 1, 2**64 - 1)]
    assert philox_keys([0, 7], 3).tolist() == [reference_key(0, 3), reference_key(7, 3)]


@pytest.mark.parametrize("seed, index", [(2**64, 0), (-1, 0), (0, -1), (0, 2**64)])
def test_values_outside_uint64_are_rejected(seed, index):
    with pytest.raises(ValueError):
        philox_keys(seed, index)


def test_reused_generator_draws_what_a_fresh_stream_draws():
    seed = 2**63 + 12345
    batch = list(range(40)) + [2**32, 2**64 - 1]
    keys = philox_keys(seed, batch)
    for index, rng in zip(batch, key_generators(keys)):
        np.testing.assert_array_equal(rng.permutation(24), rng_for(seed, index).permutation(24))
    for index, rng in zip(batch, key_generators(keys)):
        fresh = rng_for(seed, index)
        expected = np.array([fresh.standard_normal(3) for _ in range(5)])
        np.testing.assert_array_equal(rng.standard_normal((5, 3)), expected)


def test_reused_generator_resets_a_half_used_word():
    # A 32-bit draw leaves half a 64-bit word buffered; the next stream must not see it.
    keys = philox_keys(5, [0, 1])
    gens = key_generators(keys)
    first = next(gens)
    first.integers(0, 2**32, dtype=np.uint32)
    first.standard_normal(3)
    np.testing.assert_array_equal(next(gens).integers(0, 2**32, size=4, dtype=np.uint32),
                                  rng_for(5, 1).integers(0, 2**32, size=4, dtype=np.uint32))
