"""Warp-level DFS execution (paper §3.3) as an event-engine agent.

Each :class:`WarpAgent` is one warp: all 32 lanes follow the same DFS
path, so a simulator step models one warp-wide action:

* **expand** — inspect up to 32 neighbours of the top stack entry in one
  coalesced window, claim the first unvisited one via the visited
  atomicCAS, and push it (flushing the HotRing to the ColdSeg first if
  full); or pop the entry when its adjacency is exhausted.
* **refill** — when the HotRing empties but the ColdSeg holds entries,
  pull a batch back (TMA-priced asynchronous copy).
* **steal** — when the whole two-level stack is empty the warp turns
  idle (clearing its active-mask bit) and runs the two-phase stealing
  protocols of §3.4/§3.5: intra-block stealing whenever a peer warp is
  active, inter-block stealing when the entire block is idle and this
  warp is the block leader (warp 0).
* **poll** — nothing to steal: exponential-backoff polling.

Costs come from the device's :class:`~repro.sim.device.OpCosts`; the v1
ablation (one-level stack) pays global-memory latency on every stack
operation (``gstack_penalty``).

Expand
------
``_expand`` scans the neighbour window over the plain-Python adjacency
mirrors precomputed in :class:`~repro.core.state.RunState`
(``row_ptr_list``/``col_idx_list``) and reads visited flags through
``visited_mv`` — a memoryview aliasing the NumPy ``visited`` buffer.  At
window width <= 32 this avoids the per-step NumPy dispatch/allocation
overhead that would otherwise dominate the simulator wall-clock.  The
fused loop (:mod:`repro.core.turbo`) and the hive's vector expand mirror
this method; the generic event loop driving it is the reference they
are checked against.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np

from repro.core import inter_steal, intra_steal
from repro.core.state import RunState
from repro.core.twolevel_stack import WarpStack
from repro.sim.engine import StepOutcome
from repro.utils.fastrand import wrap_generator

__all__ = ["WarpAgent", "WARP_WIDTH"]

#: Lanes per warp: the neighbour-scan window of one expand step.
WARP_WIDTH = 32

#: Extra cycles a one-level (global-memory) stack pays per push/pop/peek
#: versus the shared-memory HotRing — the v1-vs-v2 gap of §4.5.
GSTACK_PENALTY = 55


class _Phase(Enum):
    RUN = "run"
    RESERVE_INTRA = "reserve_intra"
    RESERVE_INTER = "reserve_inter"


class WarpAgent:
    """One warp of the DiggerBees grid (see module docstring)."""

    __slots__ = ("state", "block_id", "warp_id", "block", "stack", "rng",
                 "phase", "intra_plan", "inter_plan", "backoff",
                 "_two_level", "_gpenalty", "_bit", "_out",
                 "_hv", "_ho", "_ptrs", "_hpi", "_tpi", "_hsize",
                 "_cptrs", "_cti", "_cbi",
                 "_c_pop", "_c_visit_base", "_c_visit_per_edge",
                 "_c_push", "_c_visited_cas", "_c_cas_retry",
                 "_c_flush_base", "_c_flush_per_entry")

    def __init__(self, state: RunState, block_id: int, warp_id: int):
        self.state = state
        self.block_id = block_id
        self.warp_id = warp_id
        self.block = state.blocks[block_id]
        self.stack = self.block.stacks[warp_id]
        # Per-warp RNG stream derived from the block's (deterministic).
        # wrap_generator swaps in a bit-exact amortized replica of
        # Generator.integers — the victim sampler's draws dominate the
        # fallback path's cost otherwise (see repro.utils.fastrand).
        block_rng = state.block_rngs[block_id]
        self.rng = wrap_generator(np.random.default_rng(
            block_rng.bit_generator.seed_seq.spawn(1)[0]
        )) if warp_id == 0 else None  # only leaders sample victims randomly
        self.phase = _Phase.RUN
        self.intra_plan: Optional[intra_steal.IntraStealPlan] = None
        self.inter_plan: Optional[inter_steal.InterStealPlan] = None
        self.backoff = state.costs.idle_poll
        # Per-run constants hoisted out of the hot loop.  The gstack
        # penalty folds into the per-operation constants so the fast
        # expand path does one attribute read per cost term.
        self._two_level = isinstance(self.stack, WarpStack)
        self._gpenalty = 0 if self._two_level else GSTACK_PENALTY
        self._bit = 1 << warp_id
        # SoA fast-path bindings: the HotRing's entry lists and the
        # run-wide head/tail pointer slab with this ring's slot indices.
        # All alias the same storage the HotRing object exposes, so the
        # steal/flush code paths observe every mutation made here.
        if self._two_level:
            hot = self.stack.hot
            self._hv = hot.vertex
            self._ho = hot.offset
            self._ptrs = hot._ptrs
            self._hpi = hot._hi
            self._tpi = hot._ti
            self._hsize = hot.size
            cold = self.stack.cold
            self._cptrs = cold._ptrs
            self._cti = cold._ti
            self._cbi = cold._bi
        else:
            self._hv = self._ho = self._ptrs = None
            self._hpi = self._tpi = self._hsize = 0
            self._cptrs = None
            self._cti = self._cbi = 0
        costs = state.costs
        self._c_pop = costs.hot_pop + self._gpenalty
        self._c_visit_base = costs.visit_base + self._gpenalty
        self._c_visit_per_edge = costs.visit_per_edge
        self._c_push = costs.hot_push + self._gpenalty
        self._c_visited_cas = costs.visited_cas
        self._c_cas_retry = costs.cas_retry
        self._c_flush_base = costs.flush_base
        self._c_flush_per_entry = costs.flush_per_entry
        # One StepOutcome reused across this agent's steps.  The engine
        # (and every test) consumes an outcome before the agent steps
        # again, so reuse removes one allocation per simulated step.
        self._out = StepOutcome(cost=0)

    # ------------------------------------------------------------------
    def step(self, now: int) -> StepOutcome:
        state = self.state
        if state.pending == 0:  # inlined state.is_terminated()
            return StepOutcome(cost=0, made_progress=False, done=True)
        phase = self.phase
        if phase is not _Phase.RUN:
            if phase is _Phase.RESERVE_INTRA:
                return self._reserve_intra(now)
            return self._reserve_inter(now)
        stack = self.stack
        if self._two_level:
            # Read the HotRing/ColdSeg pointers straight off the SoA slab.
            cptrs = self._cptrs
            ptrs = self._ptrs
            hot_empty = ptrs[self._hpi] == ptrs[self._tpi]
            busy = not hot_empty or cptrs[self._cti] != cptrs[self._cbi]
        else:
            hot_empty = False
            busy = not stack.is_empty
        if not busy:
            return self._idle(now)
        block = self.block
        bit = self._bit
        if not block.active_mask & bit:
            block.active_mask |= bit
        costs = state.costs
        self.backoff = costs.idle_poll
        # Pay any victim-side contention accrued from steals on us.
        debt = block.contention_debt[self.warp_id]
        if debt:
            block.contention_debt[self.warp_id] = 0
        if hot_empty:  # two-level with a non-empty ColdSeg: refill
            moved = stack.refill()
            counters = state.counters
            counters.refills += 1
            counters.refill_entries += moved
            if state.trace is not None:
                state.record(now, self.block_id, self.warp_id,
                             "refill", (moved,))
            return StepOutcome(cost=debt + costs.refill_base
                               + costs.refill_per_entry * moved)
        out = self._expand(now)
        if debt:
            out.cost += debt  # not yet visible outside this step
        return out

    # ------------------------------------------------------------------
    # Active execution.
    # ------------------------------------------------------------------
    def _expand(self, now: int) -> StepOutcome:
        """One warp-wide DFS step on the top stack entry (Algorithm 1 body).

        The neighbour-window scan runs over the RunState's plain-Python
        adjacency mirrors (see module docstring).
        """
        state = self.state
        counters = state.counters
        two_level = self._two_level
        out = self._out
        out.made_progress = True
        out.done = False

        # Inline HotRing top access for the two-level case: peek, pop and
        # update_top_offset all address the same ``head - 1`` slot, and the
        # step is atomic, so reading the pointers once is safe.  Reads go
        # through the SoA bindings (pointer slab + entry memoryviews) —
        # unboxed int64 scalars with no NumPy dispatch.
        if two_level:
            ptrs = self._ptrs
            hpi = self._hpi
            pos = ptrs[hpi] - 1
            if pos < 0:
                pos = self._hsize - 1
            hv = self._hv
            ho = self._ho
            u = hv[pos]
            i = ho[pos]
        else:
            top = self.stack
            u, i = top.peek()
        row_end = state.row_ptr_list[u + 1]
        if i >= row_end:
            # Adjacency exhausted: fast pop (offset notionally set to -1).
            if two_level:
                ptrs[hpi] = pos
            else:
                top.pop()
            counters.pops += 1
            state.pending -= 1
            if state.trace is not None:
                state.record(now, self.block_id, self.warp_id, "pop", (u,))
            out.cost = self._c_pop
            return out

        wend = i + WARP_WIDTH
        if wend > row_end:
            wend = row_end
        window = wend - i
        ci = state.col_idx_list
        visited = state.visited_mv
        k = -1
        for j in range(i, wend):
            if not visited[ci[j]]:
                k = j
                break
        cost = self._c_visit_base + self._c_visit_per_edge * window

        if k < 0:
            # Whole window already visited: consume it.
            counters.edges_traversed += window
            if wend >= row_end:
                if two_level:
                    ptrs[hpi] = pos
                else:
                    top.pop()
                counters.pops += 1
                state.pending -= 1
                cost += self._c_pop
                if state.trace is not None:
                    state.record(now, self.block_id, self.warp_id, "pop", (u,))
            else:
                if two_level:
                    ho[pos] = wend
                else:
                    top.update_top_offset(wend)
            out.cost = cost
            return out

        # Claim the first unvisited neighbour in the window.
        counters.edges_traversed += k - i + 1
        v = ci[k]
        if two_level:
            ho[pos] = k + 1
        else:
            top.update_top_offset(k + 1)
        claimed = state.try_claim_vertex(v, u)
        cost += self._c_visited_cas
        if not claimed:
            # Lost the CAS to a concurrent warp (cannot happen under step
            # atomicity after the visited check, but kept for safety).
            out.cost = cost + self._c_cas_retry
            return out

        # Inlined counters.record_task(block_id, warp_id).
        bid = self.block_id
        tpb = counters.tasks_per_block
        tpb[bid] = tpb.get(bid, 0) + 1
        tpw = counters.tasks_per_warp
        key = (bid, self.warp_id)
        tpw[key] = tpw.get(key, 0) + 1
        # Push <v | row_ptr[v]>, flushing first when the HotRing is full.
        if two_level:
            stack = self.stack
            hsize = self._hsize
            tpi = self._tpi
            head = ptrs[hpi]
            nxt = head + 1
            if nxt == hsize:
                nxt = 0
            if nxt == ptrs[tpi]:  # inlined needs_flush(): ring is full
                moved = stack.flush()
                counters.flushes += 1
                counters.flush_entries += moved
                cost += self._c_flush_base + self._c_flush_per_entry * moved
                if state.trace is not None:
                    state.record(now, self.block_id, self.warp_id, "flush",
                                 (moved,))
                head = ptrs[hpi]  # the "head" flush policy retracts it
                nxt = head + 1
                if nxt == hsize:
                    nxt = 0
            # Inlined hot.push(): the flush guarantees a free slot.
            hv[head] = v
            ho[head] = state.row_ptr_list[v]
            ptrs[hpi] = nxt
            depth = nxt - ptrs[tpi]
            if depth < 0:
                depth += hsize
            if depth > counters.max_hot_depth:
                counters.max_hot_depth = depth
            cptrs = self._cptrs
            depth = cptrs[self._cti] - cptrs[self._cbi]
            if depth > counters.max_cold_depth:
                counters.max_cold_depth = depth
        else:
            self.stack.push(v, state.row_ptr_list[v])
        counters.pushes += 1
        state.pending += 1
        cost += self._c_push
        if state.trace is not None:
            state.record(now, self.block_id, self.warp_id, "visit", (u, v))
        out.cost = cost
        return out

    # ------------------------------------------------------------------
    # Idle execution: stealing and polling.
    # ------------------------------------------------------------------
    def _idle(self, now: int) -> StepOutcome:
        # The fused loop (repro.core.turbo) inlines this method while
        # victim selection is pristine: keep the two in step.
        state = self.state
        costs = state.costs
        config = state.config
        block = self.block
        if block.active_mask & self._bit:
            block.active_mask &= ~self._bit

        # Intra-block stealing: any peer in my block active?
        if config.enable_intra_steal and block.active_mask:
            plan = intra_steal.select_victim(state, block, self.warp_id)
            extra = costs.steal_scan_per_warp * block.n_warps
            if plan is not None:
                self.intra_plan = plan
                self.phase = _Phase.RESERVE_INTRA
                return StepOutcome(cost=extra)
        # Inter-block stealing: leader warp of an idle block.
        elif (config.enable_inter_steal and self.warp_id == 0
                and block.active_mask == 0 and config.n_blocks > 1):
            plan = inter_steal.select_victim(state, self.block_id, self.rng)
            extra = costs.steal_scan_per_warp * config.warps_per_block + 40
            if plan is not None:
                self.inter_plan = plan
                self.phase = _Phase.RESERVE_INTER
                return StepOutcome(cost=extra)
        else:
            extra = 0

        return self._poll(extra)

    def _poll(self, extra: int) -> StepOutcome:
        """Exponential-backoff idle poll (no work found)."""
        costs = self.state.costs
        self.state.counters.idle_polls += 1
        cost = extra + self.backoff
        self.backoff = min(self.backoff * 2, costs.idle_backoff_max)
        out = self._out
        out.cost = cost
        out.made_progress = False
        out.done = False
        return out

    def _reserve_intra(self, now: int) -> StepOutcome:
        state = self.state
        costs = state.costs
        plan = self.intra_plan
        self.phase = _Phase.RUN
        self.intra_plan = None
        ok = intra_steal.execute_steal(state, self.block, self.warp_id, plan)
        if ok:
            self.backoff = costs.idle_poll
            state.record(now, self.block_id, self.warp_id, "steal_intra",
                         (plan.victim_warp, plan.amount))
            return StepOutcome(cost=costs.steal_intra_base
                               + costs.steal_intra_per_entry * plan.amount)
        state.record(now, self.block_id, self.warp_id, "steal_intra_fail",
                     (plan.victim_warp,))
        return StepOutcome(cost=costs.steal_fail, made_progress=False)

    def _reserve_inter(self, now: int) -> StepOutcome:
        state = self.state
        costs = state.costs
        plan = self.inter_plan
        self.phase = _Phase.RUN
        self.inter_plan = None
        ok = inter_steal.execute_steal(state, self.block_id, self.warp_id, plan)
        if ok:
            self.backoff = costs.idle_poll
            kind = "steal_remote" if plan.remote else "steal_inter"
            state.record(now, self.block_id, self.warp_id, kind,
                         (plan.victim_block, plan.victim_warp, plan.amount))
            if plan.remote:
                return StepOutcome(cost=costs.steal_remote_base
                                   + costs.steal_remote_per_entry * plan.amount)
            return StepOutcome(cost=costs.steal_inter_base
                               + costs.steal_inter_per_entry * plan.amount)
        state.record(now, self.block_id, self.warp_id, "steal_inter_fail",
                     (plan.victim_block, plan.victim_warp))
        return StepOutcome(cost=costs.steal_fail, made_progress=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"WarpAgent(block={self.block_id}, warp={self.warp_id}, "
                f"phase={self.phase.value}, stack={len(self.stack)})")
