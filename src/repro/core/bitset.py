"""Bit-packed vertex sets over ``uint64`` words (the frontier engine's
working representation).

A set over ``n`` vertices is ``ceil(n / 64)`` little-endian ``uint64``
words: vertex ``v`` lives at bit ``v & 63`` of word ``v >> 6``.  This is
the layout GPU BFS codes keep in registers/shared memory for frontier
and visited bitmaps; here it buys the same thing in NumPy — set algebra
(`or`, `and-not`), membership tests, and population counts run over
``n / 64`` machine words instead of ``n`` bools.

The 1-d helpers cover one vertex set; the ``*_2d`` family extends the
same layout across a *lane* axis for the swarm engine
(:mod:`repro.core.swarm`): a ``(B, words)`` matrix holds one set per
lane, and membership tests / population counts / pack round-trips run
batched over all lanes at once.

All helpers are pure functions except :func:`set_bits` /
:func:`set_bits_2d`, which mutate in place (the engines reuse their
visited words across levels).  The packed layout is byte-order
independent: :func:`pack_bits`/:func:`unpack_bits` normalize through
little-endian byte views, so a set packed on any host tests identically
with the shift-based helpers.

Population counts use :func:`numpy.bitwise_count` (NumPy >= 2.0, a
native per-word popcount) when available, falling back to the original
per-byte LUT gather on older NumPy; both paths agree bit-for-bit on
every dtype and ragged final word.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "WORD_BITS",
    "n_words",
    "empty_bitset",
    "pack_bits",
    "unpack_bits",
    "set_bits",
    "test_bits",
    "popcount",
    "nonzero_bits",
    "empty_bitmatrix",
    "pack_bits_2d",
    "unpack_bits_2d",
    "set_bits_2d",
    "test_bits_2d",
    "popcount_2d",
    "nonzero_bits_2d",
    "set_bit_pairs_2d",
]

WORD_BITS = 64

_SWAP = sys.byteorder != "little"

#: Per-byte population counts (popcount via one gather + sum).  Kept as
#: the fallback for NumPy < 2.0, and as the oracle the equivalence test
#: pins the native path against.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)],
                      dtype=np.uint16)

#: NumPy >= 2.0 ships a hardware popcount ufunc.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Per-byte popcounts widened for index arithmetic (cumsum-safe).
_COUNT8_I64 = _POPCOUNT8.astype(np.int64)

#: ``_BITPOS8[b, k]`` is the position of the k-th set bit of byte ``b``
#: (rows padded with zeros past the byte's popcount).  Drives the
#: sparse-path expansion in :func:`nonzero_bits_2d`; kept flat so the
#: gather is one 1-d fancy index (2-d advanced indexing costs ~2x).
_BITPOS8 = np.zeros((256, 8), dtype=np.uint8)
for _b in range(256):
    _ps = [_k for _k in range(8) if _b >> _k & 1]
    _BITPOS8[_b, :len(_ps)] = _ps
del _b, _ps
_BITPOS8_FLAT = _BITPOS8.reshape(-1).astype(np.int64)


def n_words(n_bits: int) -> int:
    """Words needed for a set over ``n_bits`` elements."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be >= 0, got {n_bits}")
    return (int(n_bits) + WORD_BITS - 1) // WORD_BITS


def empty_bitset(n_bits: int) -> np.ndarray:
    """All-zeros set over ``n_bits`` elements."""
    return np.zeros(n_words(n_bits), dtype=np.uint64)


def pack_bits(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into ``uint64`` words (little-endian bits)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1:
        raise ValueError(f"pack_bits needs a 1-d mask, got shape {mask.shape}")
    words = n_words(mask.size)
    packed = np.packbits(mask, bitorder="little")
    out = np.zeros(words * 8, dtype=np.uint8)
    out[:packed.size] = packed
    out = out.view(np.uint64)
    return out.byteswap() if _SWAP else out


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the first ``n_bits`` as a bool vector."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if n_bits > words.size * WORD_BITS:
        raise ValueError(
            f"bitset of {words.size} words holds {words.size * WORD_BITS} "
            f"bits, asked for {n_bits}")
    if _SWAP:
        words = words.byteswap()
    return np.unpackbits(words.view(np.uint8),
                         bitorder="little")[:n_bits].astype(bool)


def set_bits(words: np.ndarray, idx: np.ndarray) -> None:
    """Set the bits named by ``idx`` in place (duplicates are fine)."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        return
    np.bitwise_or.at(words, idx >> 6,
                     np.left_shift(np.uint64(1),
                                   (idx & 63).astype(np.uint64)))


def test_bits(words: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Membership mask for the vertices named by ``idx``."""
    idx = np.asarray(idx, dtype=np.int64)
    shifted = np.right_shift(words[idx >> 6],
                             (idx & 63).astype(np.uint64))
    return (shifted & np.uint64(1)).astype(bool)


def popcount(words: np.ndarray) -> int:
    """Total number of set bits."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    return int(_POPCOUNT8[words.view(np.uint8)].sum())


def nonzero_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Ascending indices of the set bits among the first ``n_bits``."""
    return np.flatnonzero(unpack_bits(words, n_bits)).astype(np.int64)


# ---------------------------------------------------------------------------
# Lane-batched (2-d) variants: one bitset per row, shared word layout.
# ---------------------------------------------------------------------------

def empty_bitmatrix(n_rows: int, n_bits: int) -> np.ndarray:
    """``(n_rows, n_words(n_bits))`` all-zeros matrix: one set per row."""
    if n_rows < 0:
        raise ValueError(f"n_rows must be >= 0, got {n_rows}")
    return np.zeros((int(n_rows), n_words(n_bits)), dtype=np.uint64)


def pack_bits_2d(mask: np.ndarray) -> np.ndarray:
    """Pack a ``(B, n)`` boolean matrix row-wise into ``uint64`` words."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(
            f"pack_bits_2d needs a 2-d mask, got shape {mask.shape}")
    rows, n_bits = mask.shape
    words = n_words(n_bits)
    packed = np.packbits(mask, axis=1, bitorder="little")
    out = np.zeros((rows, words * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    out = out.view(np.uint64)
    return out.byteswap() if _SWAP else out


def unpack_bits_2d(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits_2d`: first ``n_bits`` of each row."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(
            f"unpack_bits_2d needs a 2-d matrix, got shape {words.shape}")
    if n_bits > words.shape[1] * WORD_BITS:
        raise ValueError(
            f"bitmatrix of {words.shape[1]} words holds "
            f"{words.shape[1] * WORD_BITS} bits per row, asked for {n_bits}")
    if _SWAP:
        words = words.byteswap()
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :n_bits].astype(bool)


def set_bits_2d(words: np.ndarray, rows: np.ndarray,
                idx: np.ndarray) -> None:
    """Set bit ``idx[i]`` of row ``rows[i]`` in place (duplicates fine)."""
    rows = np.asarray(rows, dtype=np.int64)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        return
    np.bitwise_or.at(words, (rows, idx >> 6),
                     np.left_shift(np.uint64(1),
                                   (idx & 63).astype(np.uint64)))


def test_bits_2d(words: np.ndarray, rows: np.ndarray,
                 idx: np.ndarray) -> np.ndarray:
    """Membership mask: is bit ``idx[i]`` set in row ``rows[i]``?"""
    rows = np.asarray(rows, dtype=np.int64)
    idx = np.asarray(idx, dtype=np.int64)
    shifted = np.right_shift(words[rows, idx >> 6],
                             (idx & 63).astype(np.uint64))
    return (shifted & np.uint64(1)).astype(bool)


def nonzero_bits_2d(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, bits)`` of every set bit in a ``(R, W)`` matrix.

    Pairs come out in row-major order: all bits of row 0 ascending, then
    row 1, ...  ``bits`` spans the full ``W * 64`` range (callers that
    packed fewer logical bits never set the tail, so it never shows up).

    Two expansion paths, picked by a cheap packed popcount probe.  Dense
    matrices (>= 1/16 bits set) unpack to bytes and take one flat
    nonzero scan.  Sparse matrices skip the wide scan entirely: only the
    nonzero *bytes* are located, and each one expands through a
    byte -> bit-position table, so the work tracks the number of set
    bits instead of the matrix area.  Both paths produce the identical
    row-major pair stream.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(
            f"nonzero_bits_2d needs a 2-d matrix, got shape {words.shape}")
    if _SWAP:
        words = words.byteswap()
    width = words.shape[1] * WORD_BITS
    if _HAS_BITWISE_COUNT:
        nbits = int(np.bitwise_count(words).sum())
    else:
        nbits = int(_POPCOUNT8[words.view(np.uint8)].sum())
    if nbits == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if nbits * 16 >= words.size * WORD_BITS:
        # Dense: one flat scan + a shift/divide beats np.nonzero's 2-d
        # bookkeeping on the hot mega-level expansions.  Rows are whole
        # words, so the flat little-endian unpack (no axis machinery)
        # is already the row-major bit stream; the bool view is free
        # (unpackbits emits 0/1) and nonzero's bool kernel runs several
        # times faster than the uint8 one.
        bits = np.unpackbits(words.reshape(-1).view(np.uint8),
                             bitorder="little")
        pos = np.flatnonzero(bits.view(np.bool_))
    else:
        # Sparse: locate nonzero bytes, then table-expand their bits.
        bflat = words.reshape(-1).view(np.uint8)
        bpos = np.flatnonzero(bflat != 0)
        bval = bflat[bpos].astype(np.int64)
        cnt = _COUNT8_I64[bval]
        starts = np.cumsum(cnt) - cnt
        bidx = np.repeat(np.arange(bpos.size, dtype=np.int64), cnt)
        rank = np.arange(nbits, dtype=np.int64) - starts[bidx]
        pos = bpos[bidx] * 8 + _BITPOS8_FLAT[bval[bidx] * 8 + rank]
    if width & (width - 1) == 0:
        shift = width.bit_length() - 1
        rows = pos >> shift
        idx = pos & (width - 1)
    else:
        rows = pos // width
        idx = pos - rows * width
    return rows.astype(np.int64, copy=False), idx.astype(np.int64,
                                                         copy=False)


def set_bit_pairs_2d(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, bits)`` of every set bit, in no particular order.

    The same pairs as :func:`nonzero_bits_2d`, for consumers that only
    scatter or histogram them.  Built for matrices whose nonzero words
    hold a bit or two: each round isolates every remaining word's
    lowest set bit (``x & -x``), reads its index off the float64
    exponent (exact for powers of two), clears it, and drops the words
    that emptied — so the work tracks the set bits, never the matrix
    area or a per-byte table expansion.  Pure word arithmetic, so it is
    byte-order independent.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(
            f"set_bit_pairs_2d needs a 2-d matrix, got shape {words.shape}")
    n_cols = words.shape[1]
    flat = words.reshape(-1)
    idx = np.flatnonzero(flat)
    x = flat[idx]
    idx_parts, low_parts = [], []
    while idx.size:
        low = x & (np.uint64(0) - x)
        idx_parts.append(idx)
        low_parts.append(low)
        x = x ^ low
        left = np.flatnonzero(x)
        idx, x = idx[left], x[left]
    if not idx_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    word_idx = np.concatenate(idx_parts)
    lows = np.concatenate(low_parts).astype(np.float64)
    bit = (lows.view(np.int64) >> 52) - 1023
    if n_cols == 1:
        return word_idx, bit
    return word_idx // n_cols, (word_idx % n_cols) * WORD_BITS + bit


def popcount_2d(words: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a ``(B, words)`` matrix (int64)."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(
            f"popcount_2d needs a 2-d matrix, got shape {words.shape}")
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    bytes_view = words.view(np.uint8).reshape(words.shape[0], -1)
    return _POPCOUNT8[bytes_view].sum(axis=1, dtype=np.int64)
