"""Inter-block work stealing (paper §3.5, Algorithm 4, Figure 3b).

Executed only by the **leader warp** (warp 0) of an **idle block** (all
active-mask bits clear).  Four steps, split across two simulator events:

1. **Victim block selection** — power-of-two-choices with load awareness:
   sample two active blocks at random and keep the one with higher
   cumulative workload.  (``victim_policy="random"`` degrades this to a
   single uniform sample: the Figure 9 baseline.)
2. **Victim warp selection** — the warp with maximum ``cold_rest = top -
   bottom`` in the victim block, provided it reaches ``cold_cutoff``.
   Both selections happen in one simulator step and record the observed
   ``bottom`` in the plan.
3. **Work reservation** — a later step CAS-validates ``bottom`` (Algorithm
   4 line 20); competing leaders lose and restart.
4. **Remote transfer** — ``threadfence()`` then an asynchronous copy of
   ``cold_cutoff / 2`` entries from the victim's ColdSeg (global memory)
   into the leader's HotRing; the leader and its block turn active.

Steps 1-2 run on every idle poll of every idle block's leader, mostly
failing, so they are kept cheap.  The bounded-retry sampling loop runs
in one :func:`repro.utils.fastrand.sample_active` call over the
leader's buffered stream.  When both samples land on the same block,
there is no load to compare.  Otherwise the block loads, and then the
victim block's ``cold_rest`` values, are read straight off the run's
``hot_ptr_slab``/``cold_ptr_slab`` rather than through the stack objects.
The fused loop (:mod:`repro.core.turbo`) calls :func:`select_victim`
directly, and the hive's leader pass calls :func:`select_victim_block`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.core.state import RunState
from repro.core.twolevel_stack import WarpStack
from repro.utils.fastrand import sample_active

__all__ = ["InterStealPlan", "select_victim", "select_victim_block",
           "select_victim_warps_batch", "execute_steal"]


class InterStealPlan(NamedTuple):
    """Outcome of victim block+warp selection.

    ``remote`` marks a cross-GPU steal (multi-GPU extension): same CAS
    protocol, NVLink pricing.
    """

    victim_block: int
    victim_warp: int
    observed_bottom: int
    observed_rest: int
    amount: int
    remote: bool = False


#: Draws a leader makes looking for two active blocks (``4 * k + 8``).
_SAMPLE_ATTEMPTS = 16


def _workload(state: RunState, b: int) -> int:
    """``blocks[b].workload()`` read straight off the pointer slabs.

    Two-level stacks only: warp ``g``'s HotRing (head, tail) and ColdSeg
    (top, bottom) pairs sit at slots ``(2g, 2g + 1)`` of
    ``hot_ptr_slab``/``cold_ptr_slab``.
    """
    cfg = state.config
    hsize = cfg.hot_size
    ptrs = state.hot_ptr_slab
    cptrs = state.cold_ptr_slab
    p0 = 2 * b * cfg.warps_per_block
    total = 0
    for p in range(p0, p0 + 2 * cfg.warps_per_block, 2):
        d = ptrs[p] - ptrs[p + 1]
        if d < 0:
            d += hsize
        total += d + cptrs[p] - cptrs[p + 1]
    return total


def select_victim_block(state: RunState, my_block: int, rng):
    """Step 1 of Algorithm 4 alone: pick a victim *block* (or None).

    Returns ``(victim_block, remote)`` or None.  Factored out of
    :func:`select_victim` so the hive engine's batched leader pass can
    replay the block choice — including its exact RNG stream
    consumption, which is data-dependent through the bounded-retry
    sampling loop and therefore cannot be grouped across lanes — while
    vectorizing the per-warp cold-rest scan that follows
    (:func:`select_victim_warps_batch`).
    """
    cfg = state.config
    bpg = cfg.blocks_per_gpu
    my_gpu = state.blocks[my_block].gpu_id
    lo = my_gpu * bpg  # my GPU's first block
    if cfg.victim_policy == "two_choice":
        # Sample up to two active blocks (!= mine) of my GPU with bounded
        # retries: the leader probes a few random mask words rather than
        # scanning all blocks.
        mask = state.active_mask_slab
        remote = False
        candidates = sample_active(rng, lo, lo + bpg, my_block, mask,
                                   2, _SAMPLE_ATTEMPTS)
        if not candidates and cfg.n_gpus > 1:
            # Multi-GPU extension: when this whole GPU is dry, its leader
            # block falls back to NVLink-priced remote stealing, sampling
            # any block.
            if (state.gpu_idle(my_gpu)
                    and my_block == state.gpu_leader_block(my_gpu)):
                candidates = sample_active(rng, 0, cfg.n_blocks, my_block,
                                           mask, 2, _SAMPLE_ATTEMPTS)
                remote = True
        if not candidates:
            return None
        # Load-aware choice: higher cumulative workload wins (first wins
        # ties, matching max() semantics on the sampled order).  Both
        # samples often land on the same block: no load to compare.
        vb = candidates[0]
        if len(candidates) == 2 and candidates[1] != vb:
            b1 = candidates[1]
            if cfg.two_level:
                w0, w1 = _workload(state, vb), _workload(state, b1)
            else:
                w0 = state.blocks[vb].workload()
                w1 = state.blocks[b1].workload()
            if w0 < w1:
                vb = b1
        return vb, remote
    # "random": the Figure 9 baseline — a uniformly random block with
    # no activity or load awareness, so probes frequently land on
    # idle/empty blocks and work spreads slowly and unevenly.
    if bpg < 2:
        return None
    vb = lo + int(rng.integers(0, bpg))
    if vb == my_block:
        return None
    return vb, False


def select_victim_warps_batch(tops: np.ndarray, bottoms: np.ndarray,
                              cutoff: int):
    """Vectorized step 2 of Algorithm 4 across independent leader lanes.

    ``tops``/``bottoms`` are ``(lanes, n_warps)`` gathers of each chosen
    victim block's ColdSeg pointer pairs.  Per lane this replays the
    scalar scan exactly: ``cold_rest = top - bottom`` per warp and a
    strict ``>`` maximum, so ``argmax`` breaks ties on the first warp at
    the maximum, like the scalar loop.  Returns ``(victim_warp, token,
    ok)``; ``token`` is the observed bottom (the reservation CAS token)
    and ``ok`` marks lanes whose best rest reaches ``cutoff``.
    """
    rest = tops - bottoms
    lanes = np.arange(rest.shape[0])
    victim = rest.argmax(axis=1)
    best = rest[lanes, victim]
    token = bottoms[lanes, victim]
    return victim, token, best >= cutoff


def select_victim(state: RunState, my_block: int,
                  rng) -> Optional[InterStealPlan]:
    """Steps 1-2 of Algorithm 4: pick a victim block, then its fullest warp.

    ``rng`` is the leader's ``Generator`` or its bit-exact
    :class:`repro.utils.fastrand.BoundedDraws` replica; both draw the
    same blocks from the same stream.

    Returns None when no active block was found or no warp in the chosen
    block reaches ``cold_cutoff``.
    """
    chosen = select_victim_block(state, my_block, rng)
    if chosen is None:
        return None
    vb, remote = chosen

    cfg = state.config
    if not cfg.two_level:
        return None  # one-level stacks have no ColdSeg to steal from
    cutoff = cfg.cold_cutoff
    cptrs = state.cold_ptr_slab
    p0 = 2 * vb * cfg.warps_per_block  # victim block's first (top, bottom)
    fuzz = state.fuzz_rng
    if fuzz is not None:
        # Adversarial fuzzing: random qualifying warp instead of the
        # deterministic fullest one (see intra_steal.select_victim).
        victim_block = state.blocks[vb]
        qualifying = [
            (w, rest) for w in range(victim_block.n_warps)
            if (rest := victim_block.cold_rest(w)) >= cutoff
        ]
        if not qualifying:
            return None
        best_warp, best_rest = qualifying[fuzz.randrange(len(qualifying))]
    else:
        # Fullest warp by cold_rest = top - bottom, read off the ColdSeg
        # pointer slab (strict > keeps the first warp at the maximum).
        best_rest = 0
        best_warp = -1
        for w in range(cfg.warps_per_block):
            rest = cptrs[p0 + 2 * w] - cptrs[p0 + 2 * w + 1]
            if rest > best_rest:
                best_rest = rest
                best_warp = w
        if best_rest < cutoff:  # cutoff >= 2, so a hit has best_warp >= 0
            return None
    return InterStealPlan(
        victim_block=vb,
        victim_warp=best_warp,
        observed_bottom=cptrs[p0 + 2 * best_warp + 1],
        observed_rest=best_rest,
        amount=cfg.inter_steal_amount,
        remote=remote,
    )


def execute_steal(state: RunState, my_block: int, leader_warp: int,
                  plan: InterStealPlan) -> bool:
    """Steps 3-4 of Algorithm 4: CAS ``bottom``, fence, remote transfer.

    Returns True on success; False when a competing leader (or the
    victim's own refill) invalidated the observation.
    """
    counters = state.counters
    counters.inter_steal_attempts += 1
    victim_block = state.blocks[plan.victim_block]
    victim_stack = victim_block.stacks[plan.victim_warp]
    if not isinstance(victim_stack, WarpStack):
        counters.cas_failures += 1
        return False

    cold = victim_stack.cold
    if cold.bottom != plan.observed_bottom:
        counters.cas_failures += 1
        return False
    counters.cas_attempts += 1
    if len(cold) < state.config.cold_cutoff:
        counters.cas_failures += 1
        return False

    amount = min(plan.amount, len(cold))
    token_at_commit = cold.bottom
    verts, offs = cold.steal_from_bottom(amount)
    monitor = state.monitor
    if monitor is not None:
        monitor.on_steal(
            kind="remote" if plan.remote else "inter",
            victim=(plan.victim_block, plan.victim_warp),
            thief=(my_block, leader_warp),
            verts=verts,
            token_at_commit=token_at_commit,
            observed_token=plan.observed_bottom,
            amount=amount,
            observed_rest=plan.observed_rest,
        )

    # threadfence(); then cuda::memcpy_async ColdSeg[victim] -> HotRing[leader].
    thief_block = state.blocks[my_block]
    thief_stack = thief_block.stacks[leader_warp]
    if isinstance(thief_stack, WarpStack):
        thief_stack.hot.put_batch(verts, offs)
    else:
        thief_stack.put_batch(verts, offs)

    thief_block.set_active(leader_warp, True)
    # Victim-side contention on the ColdSeg bottom pointer in global memory
    # (heavier when the CAS arrived over NVLink).
    victim_block.contention_debt[plan.victim_warp] += (
        state.costs.victim_debt_remote if plan.remote
        else state.costs.victim_debt_inter)
    counters.inter_steal_successes += 1
    counters.inter_steal_entries += amount
    if plan.remote:
        counters.remote_steal_successes += 1
        counters.remote_steal_entries += amount
    return True
