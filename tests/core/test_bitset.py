"""Hypothesis round-trip tests for the bit-packed vertex sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitset
from repro.utils.rng import make_rng


def random_mask(seed, n_max=600):
    rng = make_rng(seed)
    n = int(rng.integers(1, n_max))
    return rng.random(n) < rng.random()


@given(seed=st.integers(0, 10**6))
@settings(max_examples=80)
def test_pack_unpack_roundtrip(seed):
    mask = random_mask(seed)
    words = bitset.pack_bits(mask)
    assert words.dtype == np.uint64
    assert words.size == bitset.n_words(mask.size)
    assert np.array_equal(bitset.unpack_bits(words, mask.size), mask)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=80)
def test_popcount_matches_dense_sum(seed):
    mask = random_mask(seed)
    assert bitset.popcount(bitset.pack_bits(mask)) == int(mask.sum())


@given(seed=st.integers(0, 10**6))
@settings(max_examples=80)
def test_set_bits_equals_pack_of_dense(seed):
    """Building a set by set_bits equals packing the dense mask —
    including duplicate indices, which must be idempotent."""
    mask = random_mask(seed)
    idx = np.flatnonzero(mask).astype(np.int64)
    rng = make_rng(seed + 1)
    if idx.size:
        dupes = rng.choice(idx, size=min(idx.size, 7))
        idx = np.concatenate([idx, dupes])
    words = bitset.empty_bitset(mask.size)
    bitset.set_bits(words, idx)
    assert np.array_equal(words, bitset.pack_bits(mask))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=80)
def test_test_bits_matches_mask(seed):
    mask = random_mask(seed)
    words = bitset.pack_bits(mask)
    probe = make_rng(seed + 2).integers(0, mask.size, size=32)
    assert np.array_equal(bitset.test_bits(words, probe), mask[probe])


@given(seed=st.integers(0, 10**6))
@settings(max_examples=80)
def test_nonzero_bits_matches_flatnonzero(seed):
    mask = random_mask(seed)
    words = bitset.pack_bits(mask)
    assert np.array_equal(bitset.nonzero_bits(words, mask.size),
                          np.flatnonzero(mask))


def test_complement_respects_tail_bits():
    """~words sets the pad bits past n; consumers must slice by n."""
    mask = np.zeros(70, dtype=bool)
    mask[3] = True
    words = bitset.pack_bits(mask)
    inv = bitset.nonzero_bits(~words, mask.size)
    assert np.array_equal(inv, np.flatnonzero(~mask))


def test_empty_and_edge_sizes():
    assert bitset.n_words(0) == 0
    assert bitset.n_words(1) == 1
    assert bitset.n_words(64) == 1
    assert bitset.n_words(65) == 2
    assert bitset.empty_bitset(0).size == 0
    assert bitset.popcount(bitset.empty_bitset(130)) == 0
    with pytest.raises(ValueError):
        bitset.n_words(-1)
    with pytest.raises(ValueError):
        bitset.unpack_bits(np.zeros(1, dtype=np.uint64), 65)
    with pytest.raises(ValueError):
        bitset.pack_bits(np.zeros((2, 2), dtype=bool))


def _lut_popcount(words):
    """The original per-byte LUT path, kept as the equivalence oracle."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    return int(bitset._POPCOUNT8[words.view(np.uint8)].sum())


@pytest.mark.parametrize("dtype", [
    np.uint8, np.uint16, np.uint32, np.uint64, np.int64, np.int32,
])
def test_popcount_native_matches_lut_across_dtypes(dtype):
    """np.bitwise_count path == LUT path for every input dtype the
    helpers accept (everything is normalized through uint64)."""
    rng = make_rng(7)
    info = np.iinfo(dtype)
    raw = rng.integers(0, min(info.max, 2**31 - 1), size=37,
                       endpoint=True).astype(dtype)
    words = np.ascontiguousarray(raw, dtype=np.uint64)
    assert bitset.popcount(raw) == _lut_popcount(words)


@pytest.mark.parametrize("n_bits", [1, 63, 64, 65, 127, 128, 129, 600])
def test_popcount_native_matches_lut_edge_words(n_bits):
    """Equivalence on ragged final words: all-ones masks of sizes that
    straddle the 64-bit word boundary, plus their complements."""
    mask = np.ones(n_bits, dtype=bool)
    words = bitset.pack_bits(mask)
    assert bitset.popcount(words) == _lut_popcount(words) == n_bits
    full = np.full(bitset.n_words(n_bits), np.uint64(2**64 - 1))
    assert bitset.popcount(full) == _lut_popcount(full) \
        == full.size * bitset.WORD_BITS


# ---------------------------------------------------------------------------
# Lane-batched (2-d) variants — one bitset per row, used by core.swarm.
# ---------------------------------------------------------------------------

def random_matrix(seed, rows_max=9, n_max=300):
    rng = make_rng(seed)
    rows = int(rng.integers(1, rows_max))
    n = int(rng.integers(1, n_max))
    return rng.random((rows, n)) < rng.random()


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60)
def test_pack_unpack_2d_roundtrip(seed):
    mask = random_matrix(seed)
    words = bitset.pack_bits_2d(mask)
    assert words.dtype == np.uint64
    assert words.shape == (mask.shape[0], bitset.n_words(mask.shape[1]))
    assert np.array_equal(bitset.unpack_bits_2d(words, mask.shape[1]), mask)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60)
def test_rowwise_2d_matches_1d_helpers(seed):
    """Every 2-d helper agrees with the 1-d helper applied per row."""
    mask = random_matrix(seed)
    words = bitset.pack_bits_2d(mask)
    for r in range(mask.shape[0]):
        assert np.array_equal(words[r], bitset.pack_bits(mask[r]))
    assert np.array_equal(
        bitset.popcount_2d(words),
        np.array([bitset.popcount(words[r])
                  for r in range(mask.shape[0])]))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60)
def test_set_and_test_bits_2d(seed):
    mask = random_matrix(seed)
    rows_n, n = mask.shape
    rr, cc = np.nonzero(mask)
    words = bitset.empty_bitmatrix(rows_n, n)
    bitset.set_bits_2d(words, rr, cc)
    # Duplicates must be idempotent.
    bitset.set_bits_2d(words, rr[:5], cc[:5])
    assert np.array_equal(words, bitset.pack_bits_2d(mask))
    rng = make_rng(seed + 3)
    pr = rng.integers(0, rows_n, size=40)
    pc = rng.integers(0, n, size=40)
    assert np.array_equal(bitset.test_bits_2d(words, pr, pc), mask[pr, pc])


def _nonzero_oracle(words):
    """Row-major (rows, bits) pairs via the dense unpack round-trip."""
    full = bitset.unpack_bits_2d(words, words.shape[1] * bitset.WORD_BITS)
    rows, idx = np.nonzero(full)
    return rows.astype(np.int64), idx.astype(np.int64)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60)
def test_nonzero_bits_2d_matches_oracle(seed):
    mask = random_matrix(seed)
    words = bitset.pack_bits_2d(mask)
    rows, idx = bitset.nonzero_bits_2d(words)
    orows, oidx = _nonzero_oracle(words)
    assert rows.dtype == np.int64 and idx.dtype == np.int64
    assert np.array_equal(rows, orows)
    assert np.array_equal(idx, oidx)


@pytest.mark.parametrize("density", [0.0, 0.01, 0.04, 1 / 16, 0.08, 0.3, 0.9])
@pytest.mark.parametrize("width", [64, 192, 256])
def test_nonzero_bits_2d_both_paths_agree(density, width):
    """Densities straddling the 1/16 dense/sparse switch, across
    power-of-two and non-power-of-two row widths, must all produce the
    oracle's row-major pair stream."""
    rng = make_rng(int(density * 1000) + width)
    mask = rng.random((257, width)) < density
    mask[13] = False  # an all-zero row mid-matrix
    if density > 0:
        mask[41] = True  # and a saturated one
    words = bitset.pack_bits_2d(mask)
    rows, idx = bitset.nonzero_bits_2d(words)
    orows, oidx = _nonzero_oracle(words)
    assert np.array_equal(rows, orows)
    assert np.array_equal(idx, oidx)
    # Row-major invariant: rows ascend, bits ascend within a row.
    assert np.all(np.diff(rows) >= 0)
    pair = rows * (words.shape[1] * bitset.WORD_BITS) + idx
    assert np.all(np.diff(pair) > 0)


@pytest.mark.parametrize("density", [0.0, 0.005, 0.03, 0.3, 1.0])
@pytest.mark.parametrize("width", [1, 63, 64, 65, 256])
def test_set_bit_pairs_2d_matches_oracle_as_a_set(density, width):
    rng = make_rng(int(density * 1000) + width)
    mask = rng.random((211, width)) < density
    mask[7] = True  # a saturated row, every bit of every word set
    words = bitset.pack_bits_2d(mask)
    rows, idx = bitset.set_bit_pairs_2d(words)
    orows, oidx = _nonzero_oracle(words)
    assert rows.dtype == np.int64 and idx.dtype == np.int64
    order = np.lexsort((idx, rows))
    assert np.array_equal(rows[order], orows)
    assert np.array_equal(idx[order], oidx)


def test_set_bit_pairs_2d_empty_and_validation():
    rows, idx = bitset.set_bit_pairs_2d(bitset.empty_bitmatrix(5, 130))
    assert rows.size == 0 and idx.size == 0
    rows, idx = bitset.set_bit_pairs_2d(bitset.empty_bitmatrix(0, 64))
    assert rows.size == 0 and idx.size == 0
    with pytest.raises(ValueError):
        bitset.set_bit_pairs_2d(np.zeros(4, dtype=np.uint64))


def test_nonzero_bits_2d_empty_and_validation():
    empty_rows, empty_idx = bitset.nonzero_bits_2d(
        bitset.empty_bitmatrix(5, 200))
    assert empty_rows.size == 0 and empty_idx.size == 0
    rows, idx = bitset.nonzero_bits_2d(bitset.empty_bitmatrix(0, 100))
    assert rows.size == 0 and idx.size == 0
    with pytest.raises(ValueError):
        bitset.nonzero_bits_2d(np.zeros(4, dtype=np.uint64))


def test_2d_validation_and_empty():
    assert bitset.empty_bitmatrix(0, 100).shape == (0, 2)
    assert bitset.popcount_2d(bitset.empty_bitmatrix(3, 130)).tolist() == \
        [0, 0, 0]
    with pytest.raises(ValueError):
        bitset.pack_bits_2d(np.zeros(4, dtype=bool))
    with pytest.raises(ValueError):
        bitset.unpack_bits_2d(np.zeros((2, 1), dtype=np.uint64), 65)
    with pytest.raises(ValueError):
        bitset.popcount_2d(np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError):
        bitset.empty_bitmatrix(-1, 10)
