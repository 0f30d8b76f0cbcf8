"""The bulk victim sampler agrees with one-at-a-time ``Generator`` draws.

``BoundedDraws.sample_active`` runs the leader warp's whole bounded-retry
block sampling loop in one call over a chunk-mapped stream.  Its
contract is the plain loop over ``np.random.default_rng(seed)``: the
same blocks come back, and the stream is left at the same position, so
the next draws agree too.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.utils.fastrand import BoundedDraws, sample_active

#: Width 1, powers of two (never rejected), non-powers of two.
WIDTHS = [1, 2, 4, 8, 16, 64, 3, 5, 6, 7, 12, 100]


def _plain_loop(gen, lo, hi, skip, mask, k, attempts):
    found = []
    for _ in range(attempts):
        b = int(gen.integers(lo, hi))
        if b != skip and mask[b]:
            found.append(b)
            if len(found) == k:
                break
    return found


def _next_draws(rng, n=8):
    return [int(rng.integers(0, 97)) for _ in range(n)]


@st.composite
def _calls(draw):
    """A short sequence of sampler calls on one stream."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.sampled_from(WIDTHS))
        lo = draw(st.integers(0, 4))
        hi = lo + width
        skip = draw(st.integers(lo, hi - 1))
        kind = draw(st.sampled_from(["idle", "caller", "random"]))
        if kind == "idle":
            mask = [0] * hi
        elif kind == "caller":
            mask = [0] * hi
            mask[skip] = 1
        else:
            mask = draw(st.lists(st.integers(0, 1), min_size=hi,
                                 max_size=hi))
        k = draw(st.sampled_from([1, 2]))
        out.append((lo, hi, skip, mask, k, 4 * k + 8))
    return out


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([1, 3, 64]),
       pre=st.integers(0, 5), calls=_calls())
def test_sample_active_matches_plain_generator(seed, chunk, pre, calls):
    bulk = BoundedDraws(np.random.default_rng(seed), chunk=chunk)
    plain = np.random.default_rng(seed)
    # Start at an arbitrary stream position (and half-word parity).
    assert _next_draws(bulk, pre) == _next_draws(plain, pre)
    for lo, hi, skip, mask, k, attempts in calls:
        assert (bulk.sample_active(lo, hi, skip, mask, k, attempts)
                == _plain_loop(plain, lo, hi, skip, mask, k, attempts))
    assert _next_draws(bulk) == _next_draws(plain)


class _HashMask:
    """Half the blocks of an enormous range active, by a fixed hash."""

    def __getitem__(self, b):
        return (b * 2654435761 >> 7) & 1


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([1, 3, 64]),
       width=st.sampled_from([3 << 30, (1 << 31) + 1, (1 << 32) - 5]),
       k=st.sampled_from([1, 2]))
def test_sample_active_replays_lemire_rejections(seed, chunk, width, k):
    """Widths where Lemire rejects up to half the 32-bit words: rejected
    words are consumed without counting as attempts."""
    bulk = BoundedDraws(np.random.default_rng(seed), chunk=chunk)
    plain = np.random.default_rng(seed)
    mask = _HashMask()
    for skip in (0, 7):
        assert (bulk.sample_active(0, width, skip, mask, k, 4 * k + 8)
                == _plain_loop(plain, 0, width, skip, mask, k, 4 * k + 8))
        assert bulk.integers(0, width) == int(plain.integers(0, width))
    assert _next_draws(bulk) == _next_draws(plain)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), calls=_calls())
def test_sample_active_dispatch_takes_either_generator(seed, calls):
    """The module-level entry point gives the same answer for the replica
    and for a plain ``Generator`` (the self-check fallback)."""
    bulk = BoundedDraws(np.random.default_rng(seed))
    plain = np.random.default_rng(seed)
    for args in calls:
        assert sample_active(bulk, *args) == sample_active(plain, *args)
    assert _next_draws(bulk) == _next_draws(plain)
