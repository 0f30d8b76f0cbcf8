"""Intra-block work stealing (paper §3.4, Algorithm 3, Figure 3a).

The protocol is optimistic and two-phase, exactly as on hardware:

1. **Victim selection** (:func:`select_victim`): the idle thief scans its
   block's peers, computes each ``hot_rest = (head - tail + hot_size) %
   hot_size``, and picks the maximum provided it reaches ``hot_cutoff``.
   The observed ``tail`` is recorded in the returned plan.
2. **Work reservation + local transfer** (:func:`execute_steal`, a later
   simulator step): the thief validates the victim's ``tail`` against the
   observation — the atomicCAS of Algorithm 3 line 15.  If another thief
   moved the tail in between (Figure 3a's Warp2), the CAS fails and the
   thief restarts selection.  On success it takes ``hot_cutoff / 2``
   entries from the victim's tail, fences, copies them into its own
   HotRing, advances its head, and flips its active-mask bit.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.core.state import BlockState, RunState
from repro.core.twolevel_stack import WarpStack

__all__ = ["IntraStealPlan", "select_victim", "select_victims_batch",
           "execute_steal"]


class IntraStealPlan(NamedTuple):
    """Outcome of victim selection: who to rob and what was observed."""

    victim_warp: int
    observed_tail: int
    observed_rest: int
    amount: int


def _hot_rest(stack) -> int:
    """Stealable depth of a peer's fast stack."""
    if isinstance(stack, WarpStack):
        return len(stack.hot)
    return len(stack)  # one-level stack: the whole stack is in global memory


def _tail_token(stack) -> int:
    """The pointer the reservation CAS validates (HotRing tail / seg bottom)."""
    if isinstance(stack, WarpStack):
        return stack.hot.tail
    return stack._seg.bottom


def select_victim(state: RunState, block: BlockState,
                  thief_warp: int) -> Optional[IntraStealPlan]:
    """Step 1 of Algorithm 3: scan peers, pick max ``hot_rest`` >= cutoff.

    Returns None when no peer qualifies (all below ``hot_cutoff``).

    With ``state.fuzz_rng`` set (``adversarial_victims`` fuzzing), the
    thief instead picks a *random* peer among all that reach the cutoff,
    so the fuzzer explores steal interleavings the deterministic
    max-depth scan can never produce.
    """
    cutoff = state.config.hot_cutoff
    fuzz = state.fuzz_rng
    if fuzz is not None:
        qualifying = [
            (w, rest) for w in range(block.n_warps)
            if w != thief_warp
            and (rest := block.hot_rest(w)) >= cutoff
        ]
        if not qualifying:
            return None
        victim, rest = qualifying[fuzz.randrange(len(qualifying))]
        return IntraStealPlan(
            victim_warp=victim,
            observed_tail=_tail_token(block.stacks[victim]),
            observed_rest=rest,
            amount=state.config.intra_steal_amount,
        )
    best_rest = 0
    best_warp = -1
    stacks = block.stacks
    for w in range(block.n_warps):
        if w == thief_warp:
            continue
        # Inlined _hot_rest: this scan runs on every idle step of every
        # warp with an active peer, so it avoids the per-peer call chain.
        s = stacks[w]
        if type(s) is WarpStack:
            hot = s.hot
            ptrs = hot._ptrs  # direct slab read: skip property dispatch
            rest = ptrs[hot._hi] - ptrs[hot._ti]
            if rest < 0:
                rest += hot.size
        else:
            rest = len(s)
        if rest > best_rest:
            best_rest = rest
            best_warp = w
    if best_warp < 0 or best_rest < cutoff:
        return None
    return IntraStealPlan(
        victim_warp=best_warp,
        observed_tail=_tail_token(block.stacks[best_warp]),
        observed_rest=best_rest,
        amount=state.config.intra_steal_amount,
    )


def select_victims_batch(heads: np.ndarray, tails: np.ndarray,
                         hot_size: int, thief_warps: np.ndarray,
                         cutoff: int):
    """Vectorized step 1 of Algorithm 3 across independent thief lanes.

    ``heads``/``tails`` are ``(lanes, n_warps)`` gathers of each thief's
    block's HotRing pointer pairs and ``thief_warps`` each thief's own
    warp index within its block.  Per lane this replays the scalar
    :func:`select_victim` scan exactly: ``hot_rest = (head - tail +
    hot_size) % hot_size`` per peer, the thief's own lane excluded, and
    a strict ``>`` maximum so the *first* peer at the maximum wins —
    ``argmax`` ties break identically.

    Returns ``(victim_warp, token, rest, ok)`` arrays; ``token`` is the
    observed tail (the reservation CAS token) and ``ok`` marks lanes
    whose best rest reaches ``cutoff``.  Used by the hive engine's
    batched selection pass; the scalar function remains the oracle (and
    the mutation-suite patch point).
    """
    rest = heads - tails
    np.add(rest, hot_size, out=rest, where=rest < 0)
    lanes = np.arange(rest.shape[0])
    rest[lanes, thief_warps] = -1
    victim = rest.argmax(axis=1)
    best = rest[lanes, victim]
    token = tails[lanes, victim]
    return victim, token, best, best >= cutoff


def execute_steal(state: RunState, block: BlockState, thief_warp: int,
                  plan: IntraStealPlan) -> bool:
    """Steps 2-3 of Algorithm 3: CAS-validate, then transfer locally.

    Returns True on success.  Failure means the victim's tail moved (a
    competing thief won) or the victim dropped below the cutoff; the
    caller restarts selection, mirroring Figure 3a.
    """
    counters = state.counters
    counters.intra_steal_attempts += 1
    victim_stack = block.stacks[plan.victim_warp]

    # atomicCAS(tail, observed, observed + amount): in the simulator the
    # validation and the take are one atomic step, so "token unchanged and
    # still enough work" is exactly CAS success.
    if _tail_token(victim_stack) != plan.observed_tail:
        counters.cas_failures += 1
        return False
    counters.cas_attempts += 1
    if _hot_rest(victim_stack) < state.config.hot_cutoff:
        counters.cas_failures += 1
        return False

    amount = min(plan.amount, _hot_rest(victim_stack))
    # Raw commit-point token read for the invariant monitor: independent
    # of _tail_token so a broken token read path is still caught.
    if isinstance(victim_stack, WarpStack):
        token_at_commit = victim_stack.hot.tail
        verts, offs = victim_stack.hot.take_from_tail(amount)
    else:
        token_at_commit = victim_stack._seg.bottom
        verts, offs = victim_stack.take_from_tail(amount)
    monitor = state.monitor
    if monitor is not None:
        monitor.on_steal(
            kind="intra",
            victim=(block.block_id, plan.victim_warp),
            thief=(block.block_id, thief_warp),
            verts=verts,
            token_at_commit=token_at_commit,
            observed_token=plan.observed_tail,
            amount=amount,
            observed_rest=plan.observed_rest,
        )

    # threadfence_block() then local copy into the thief's own stack.
    thief_stack = block.stacks[thief_warp]
    if isinstance(thief_stack, WarpStack):
        thief_stack.hot.put_batch(verts, offs)
    else:
        thief_stack.put_batch(verts, offs)

    block.set_active(thief_warp, True)
    # Victim-side contention: its tail cache line was invalidated and its
    # next operations serialize behind the CAS.
    block.contention_debt[plan.victim_warp] += state.costs.victim_debt_intra
    counters.intra_steal_successes += 1
    counters.intra_steal_entries += amount
    return True
