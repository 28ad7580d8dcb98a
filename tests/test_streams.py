"""Counter-stream layout: windows, block alignment, seed derivation."""

import numpy as np
import pytest

from blgisim import streams


def test_stream_is_deterministic():
    a = streams.stream(42, streams.TRIAL_STREAM).random(16)
    b = streams.stream(42, streams.TRIAL_STREAM).random(16)
    assert np.array_equal(a, b)


def test_distinct_tags_give_distinct_draws():
    a = streams.stream(42, streams.TRIAL_STREAM).random(8)
    b = streams.stream(42, streams.HIDDEN_VAR_CONFIG_STREAM).random(8)
    assert not np.array_equal(a, b)


def test_distinct_master_seeds_give_distinct_draws():
    a = streams.stream(1, streams.TRIAL_STREAM).random(8)
    b = streams.stream(2, streams.TRIAL_STREAM).random(8)
    assert not np.array_equal(a, b)


def test_indexed_stream_equals_block_offset_of_full_stream():
    # index advances in whole blocks of DRAWS_PER_BLOCK draws
    blocks = 2
    full = streams.stream(7, 0x01).random(10 * streams.DRAWS_PER_BLOCK * blocks)
    for index in (0, 1, 3):
        skip = index * blocks * streams.DRAWS_PER_BLOCK
        got = streams.stream(7, 0x01, index=index, blocks=blocks).random(8)
        assert np.array_equal(got, full[skip : skip + 8])


def test_window_rows_match_per_index_streams():
    u = streams.window_uniforms(9, 0x05, start_index=4, count=6, blocks=3)
    assert u.shape == (6, 12)
    for i in range(6):
        row = streams.stream(9, 0x05, index=4 + i, blocks=3).random(12)
        assert np.array_equal(u[i], row)


def test_windows_are_chunk_invariant():
    whole = streams.window_uniforms(3, 0x01, 0, 50, blocks=2)
    pieces = [streams.window_uniforms(3, 0x01, s, 13, blocks=2) for s in (0, 13, 26, 39)]
    stitched = np.vstack(pieces)[:50]
    assert np.array_equal(whole, stitched)


@pytest.mark.parametrize(
    "master_seed, index, error",
    [
        (2**64, 0, "^master_seed must be a 64-bit unsigned value, got 18446744073709551616$"),
        (-1, 0, "^master_seed must be a 64-bit unsigned value, got -1$"),
        (0, -1, "^index must be nonnegative, got -1$"),
    ],
)
def test_stream_refuses_a_seed_outside_64_bits_and_a_negative_index(master_seed, index, error):
    with pytest.raises(ValueError, match=error):
        streams.stream(master_seed, streams.TRIAL_STREAM, index=index)


def test_window_rejects_negative_count():
    with pytest.raises(ValueError):
        streams.window_uniforms(3, 0x01, 0, -1, blocks=1)


def test_derived_seed_scalar_matches_vector():
    idx = np.arange(100, dtype=np.uint64)
    vec = streams.derived_seed(123, idx)
    assert vec.dtype == np.uint64
    for i in (0, 1, 57, 99):
        assert int(vec[i]) == streams.derived_seed(123, i)


def test_derived_seed_distinct_across_indices_and_seeds():
    vals = streams.derived_seed(5, np.arange(10000, dtype=np.uint64))
    assert len(np.unique(vals)) == 10000
    assert streams.derived_seed(5, 0) != streams.derived_seed(6, 0)


def test_derived_seed_fits_64_bits():
    v = streams.derived_seed(2**63, 2**40)
    assert 0 <= v < 2**64
