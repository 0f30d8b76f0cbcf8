"""Amortized bounded-integer draws, bit-exact with ``Generator.integers``.

The inter-block victim sampler draws thousands of tiny bounded integers
per run through ``np.random.Generator.integers``.  Each call costs ~2 us
of argument parsing and scalar boxing while the underlying PCG64 step is
nanoseconds — for the simulator's hot loop that per-call overhead is the
single largest avoidable cost.

:class:`BoundedDraws` replays NumPy's own algorithm in Python over raw
64-bit draws fetched in bulk from the wrapped generator's bit generator:
for ranges below 2**32 ``Generator.integers`` consumes buffered 32-bit
halves of the raw stream and maps them through Lemire's unbiased
rejection method (``buffered_bounded_lemire_uint32``).  Replicating both
the half-word buffering and the rejection loop makes every draw — value
*and* stream consumption — identical to what the wrapped generator would
have produced, so schedules stay bit-identical with recorded baselines.

The stream is mapped a chunk at a time: each chunk of raw words is
viewed as its 32-bit halves, and the first draw from a range maps every
half of the chunk through Lemire's method in one vectorized pass (the
bounded value, or ``None`` where the half is rejected).  A draw is then
one list read.  Two surfaces share that stream:

* ``integers(lo, hi)`` — one draw per call, the ``Generator`` surface;
* ``sample_active(lo, hi, skip, mask, k, attempts)`` — the leader
  warp's whole bounded-retry block sampling loop (Algorithm 4 step 1)
  in one call: it scans a slice of the mapped chunk for blocks set in
  the active mask.  It returns exactly the blocks, and leaves exactly
  the stream position, of ``attempts`` repeated ``integers(lo, hi)``
  calls in the same loop.

Because the replica depends on NumPy internals that are stable but not
contractual, :func:`wrap_generator` validates the replica against a real
``Generator`` once per process and silently falls back to the plain
generator on any mismatch.  Callers use :func:`sample_active`, which
takes either object.
"""

from __future__ import annotations

import random
from typing import Optional, Union

import numpy as np

__all__ = ["BoundedDraws", "draw_bounded_many", "sample_active",
           "wrap_generator"]

_U32_MASK = 0xFFFFFFFF


class BoundedDraws:
    """Duck-typed stand-in for ``Generator.integers(lo, hi)`` (small ranges).

    Draws raw 64-bit words in chunks via ``BitGenerator.random_raw`` and
    serves them as 32-bit halves, low half first, exactly like NumPy's
    buffered ``next_uint32``: the stream is the chunk viewed as
    little-endian ``uint32``.  Only the two-argument half-open
    ``integers`` form is supported, for ranges below 2**32.
    """

    __slots__ = ("_bg", "_chunk", "_words", "_i", "_n", "_mapped")

    def __init__(self, gen: np.random.Generator, chunk: int = 256):
        self._bg = gen.bit_generator
        self._chunk = chunk
        self._words = None  # current chunk's 32-bit halves, in stream order
        self._i = 0         # next unconsumed half
        self._n = 0
        #: (lo, hi) -> (the chunk's halves as draws from [lo, hi), None
        #: where Lemire rejects the half; True when none is rejected).
        self._mapped: dict = {}

    def _refill(self) -> None:
        raw = self._bg.random_raw(self._chunk)
        # uint64 halves: the Lemire products below cannot overflow.
        self._words = (raw.astype("<u8", copy=False).view("<u4")
                       .astype(np.uint64))
        self._i = 0
        self._n = 2 * self._chunk
        self._mapped = {}

    def _map(self, lo: int, hi: int) -> tuple:
        """Every half of the current chunk as a draw from ``[lo, hi)``."""
        rng_excl = hi - lo
        m = self._words * np.uint64(rng_excl)
        hi32 = (m >> np.uint64(32)).view(np.int64)  # < 2**32: exact
        draws = (hi32 + lo if lo else hi32).tolist()
        # Lemire rejects a half whose low product word falls below
        # (2**32 - rng_excl) % rng_excl: never for powers of two.
        threshold = (_U32_MASK - rng_excl + 1) % rng_excl
        clean = True
        if threshold:
            low = m & np.uint64(_U32_MASK)
            for j in np.flatnonzero(low < threshold).tolist():
                draws[j] = None
                clean = False
        entry = self._mapped[(lo, hi)] = (draws, clean)
        return entry

    def integers(self, lo: int, hi: int) -> int:
        """A draw from ``[lo, hi)``, identical to ``Generator.integers``."""
        if not 0 < hi - lo <= _U32_MASK:
            raise ValueError(f"unsupported range [{lo}, {hi})")
        if hi - lo == 1:
            return lo  # NumPy consumes no stream for a 1-wide range
        while True:  # Lemire (buffered_bounded_lemire_uint32)
            i = self._i
            if i >= self._n:
                self._refill()
                i = 0
            self._i = i + 1
            b = (self._mapped.get((lo, hi)) or self._map(lo, hi))[0][i]
            if b is not None:
                return b

    def sample_active(self, lo: int, hi: int, skip: int, mask,
                      k: int, attempts: int) -> list:
        """Draws from ``[lo, hi)`` that are not ``skip`` and set in ``mask``.

        Stops after ``k`` hits or ``attempts`` draws, whichever comes
        first; hits are returned in draw order (repeats included).  The
        result and the stream consumed equal ``attempts`` iterations of
        ``b = integers(lo, hi)`` that keep ``b`` when ``b != skip and
        mask[b]`` and break at ``k`` hits.
        """
        if not 0 < hi - lo <= _U32_MASK:
            raise ValueError(f"unsupported range [{lo}, {hi})")
        found = []
        if hi - lo == 1:
            # A 1-wide range consumes no stream: every draw is ``lo``.
            if lo != skip and mask[lo]:
                found = [lo] * min(k, attempts)
            return found
        key = (lo, hi)
        left = attempts
        while left:
            i = self._i
            if i >= self._n:
                self._refill()
                i = 0
            draws, clean = self._mapped.get(key) or self._map(lo, hi)
            if not clean:
                # A half of this chunk is rejected (rare, and never for
                # a power-of-two width): draw one at a time.
                b = self.integers(lo, hi)
                left -= 1
                if b != skip and mask[b]:
                    found.append(b)
                    if len(found) == k:
                        break
                continue
            # Every half is a draw: scan the rest of the window (or of
            # the chunk) as one slice.
            end = i + left
            if end > self._n:
                end = self._n
            left -= end - i
            for b in draws[i:end]:
                i += 1
                if b != skip and mask[b]:
                    found.append(b)
                    if len(found) == k:
                        left = 0
                        break
            self._i = i
        return found


def sample_active(rng, lo: int, hi: int, skip: int, mask, k: int,
                  attempts: int) -> list:
    """:meth:`BoundedDraws.sample_active` for either generator type.

    A plain ``Generator`` (the self-check fallback, or a caller's own
    RNG) runs the same loop through ``integers(lo, hi)`` one draw at a
    time.
    """
    if type(rng) is BoundedDraws:
        return rng.sample_active(lo, hi, skip, mask, k, attempts)
    found = []
    for _ in range(attempts):
        b = int(rng.integers(lo, hi))
        if b != skip and mask[b]:
            found.append(b)
            if len(found) == k:
                break
    return found


def draw_bounded_many(rngs, lo: int, hi: int) -> np.ndarray:
    """One bounded draw from each generator in ``rngs``, as an int64 array.

    The hive engine's batched leader sampling groups the
    ``victim_policy="random"`` draws of many lanes into a single call:
    each lane's generator (a :class:`BoundedDraws` replica or a plain
    ``Generator``) draws exactly once from ``[lo, hi)``, consuming
    exactly the stream the scalar path would — values *and* stream
    position stay bit-identical per lane, whatever order the lanes are
    grouped in, because every lane owns its own generator.
    """
    return np.fromiter((int(r.integers(lo, hi)) for r in rngs),
                       dtype=np.int64, count=len(rngs))


_REPLICA_OK: Optional[bool] = None

#: How many times the validation probe has actually executed in this
#: interpreter.  The verdict is cached in ``_REPLICA_OK``, so after the
#: first ``wrap_generator`` call this must stay at 1 for the life of the
#: process — a regression test asserts exactly that (the probe costs
#: ~1000 bounded draws; paying it per wrap would tax every RunState).
SELF_CHECK_RUNS = 0


def _self_check() -> bool:
    """Compare the replica with a real Generator on one shared stream."""
    global SELF_CHECK_RUNS
    SELF_CHECK_RUNS += 1
    seed = 0xD1665EED
    probe = random.Random(991)
    rep = BoundedDraws(np.random.default_rng(seed), chunk=8)
    ref = np.random.default_rng(seed)
    for _ in range(256):
        lo = probe.randrange(-4, 5)
        hi = lo + probe.randrange(1, 67)
        if rep.integers(lo, hi) != int(ref.integers(lo, hi)):
            return False
    return True


def wrap_generator(
    gen: np.random.Generator,
) -> Union[BoundedDraws, np.random.Generator]:
    """Wrap ``gen`` in a :class:`BoundedDraws` replica when safe.

    The first call per process validates the replica against NumPy; if
    the installed NumPy ever changes its bounded-integer algorithm the
    check fails and every caller gets the plain (slower, always-correct)
    generator back.
    """
    global _REPLICA_OK
    if _REPLICA_OK is None:
        _REPLICA_OK = _self_check()
    return BoundedDraws(gen) if _REPLICA_OK else gen
