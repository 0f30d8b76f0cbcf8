"""DiggerBees driver: assemble the grid, run the engine, package results.

This is the public entry point of the core package::

    from repro.core import DiggerBeesConfig, run_diggerbees
    result = run_diggerbees(graph, root=0,
                            config=DiggerBeesConfig.v4(H100, sim_scale=0.25))
    print(result.mteps)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.config import DiggerBeesConfig
from repro.core.state import RunState
from repro.core.turbo import run_turbo, turbo_eligible
from repro.core.warp_dfs import WarpAgent
from repro.errors import SimulationError
from repro.graphs.csr import CSRGraph
from repro.sim.device import DeviceSpec, H100
from repro.sim.engine import EngineResult, EventLoop
from repro.sim.metrics import mteps as _mteps
from repro.sim.trace import SimCounters, TraceLog
from repro.validate.reference import TraversalResult

__all__ = ["DiggerBeesResult", "run_diggerbees", "package_result"]


@dataclass(frozen=True)
class DiggerBeesResult:
    """Complete outcome of one DiggerBees run."""

    traversal: TraversalResult
    cycles: int
    seconds: float
    counters: SimCounters
    config: DiggerBeesConfig
    device: DeviceSpec
    engine: EngineResult
    trace: Optional[TraceLog] = None

    @property
    def mteps(self) -> float:
        """Million traversed edges per second (simulated)."""
        return _mteps(self.traversal.edges_traversed, self.seconds)

    @property
    def n_visited(self) -> int:
        return self.traversal.n_visited

    def summary(self) -> dict:
        """Flat metrics dict for reports."""
        c = self.counters
        return {
            "mteps": self.mteps,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "visited": self.n_visited,
            "edges": self.traversal.edges_traversed,
            "intra_steals": c.intra_steal_successes,
            "inter_steals": c.inter_steal_successes,
            "flushes": c.flushes,
            "refills": c.refills,
            "idle_polls": c.idle_polls,
            "engine_steps": self.engine.steps,
        }


def run_diggerbees(
    graph: CSRGraph,
    root: int,
    *,
    config: Optional[DiggerBeesConfig] = None,
    device: DeviceSpec = H100,
    check_invariants: bool = False,
    record_order: bool = False,
    instrument: Optional[Callable[[RunState], Optional[Callable[[int], None]]]] = None,
) -> DiggerBeesResult:
    """Run DiggerBees on ``graph`` from ``root`` on the simulated ``device``.

    Parameters
    ----------
    config:
        A :class:`DiggerBeesConfig`; defaults to a small v4-style grid
        (4 blocks) suitable for interactive use.  For paper-shaped
        experiments build configs with ``DiggerBeesConfig.version(...)``.
    check_invariants:
        Run the (expensive) post-run consistency checks; used by tests.
    record_order:
        Also populate ``traversal.order`` with the global discovery
        sequence (claim order across all warps).  This is an extension
        beyond the paper's Table 2 semantics — the order is a valid
        discovery order of *this* unordered run, not a lexicographic
        one — and it requires tracing, so it costs memory.
    instrument:
        Optional instrumentation factory (``repro.check``): called with
        the freshly built :class:`RunState` before the engine starts; it
        may attach an invariant monitor and return a per-step observer
        callback (or None) that the engine invokes after every step.

    Returns
    -------
    DiggerBeesResult
        Traversal output, simulated time, MTEPS, and full counters.
    """
    config = config or DiggerBeesConfig()
    if record_order and not config.trace:
        config = config.with_overrides(trace=True)
    state = RunState(graph, root, config, device)
    on_step = instrument(state) if instrument is not None else None
    agents = [
        WarpAgent(state, b, w)
        for b in range(config.n_blocks)
        for w in range(config.warps_per_block)
    ]
    if turbo_eligible(config):
        # The execution path: the fused scheduler-agent loop.  The
        # generic EventLoop below is the fallback for configs it cannot
        # fuse and the reference it is checked against; both produce
        # the same EngineResult, counters and traversal bit for bit.
        engine = run_turbo(
            state, agents, max_cycles=config.max_cycles, on_step=on_step,
        )
    else:
        loop = EventLoop(
            agents,
            is_terminated=state.is_terminated,
            max_cycles=config.max_cycles,
            scheduler=config.scheduler,
            perturb_seed=config.perturb_seed,
            jitter=config.jitter,
            on_step=on_step,
        )
        engine = loop.run()

    if state.pending != 0:
        raise SimulationError(
            f"engine stopped with {state.pending} entries pending"
        )
    if check_invariants:
        state.check_invariants()
    return package_result(state, engine, record_order=record_order)


def package_result(state: RunState, engine: EngineResult, *,
                   record_order: bool = False) -> DiggerBeesResult:
    """Package a drained run into a :class:`DiggerBeesResult`.

    Shared by every execution tier (fused loop, generic engine, hive): the
    pending-entry sanity check, traversal assembly, and simulated-time
    conversion are identical, so the tiers produce identical results by
    construction.
    """
    if state.pending != 0:
        raise SimulationError(
            f"engine stopped with {state.pending} entries pending"
        )
    root = state.root
    order = np.empty(0, dtype=np.int64)
    if record_order:
        # Trace events are appended in execution order (steps run
        # sequentially in the engine), so visit events give the global
        # claim sequence; the root is claimed at initialization.
        claimed = [ev.detail[1] for ev in state.trace.filter(kind="visit")]
        order = np.asarray([root] + claimed, dtype=np.int64)
        if state.trace.truncated:
            raise SimulationError(
                "trace truncated: discovery order incomplete; raise the "
                "TraceLog limit for graphs this large"
            )
    traversal = TraversalResult(
        root=root,
        visited=state.visited.astype(bool),
        parent=state.parent,
        order=order,
        edges_traversed=state.counters.edges_traversed,
    )
    device = state.device
    seconds = device.cycles_to_seconds(engine.cycles)
    return DiggerBeesResult(
        traversal=traversal,
        cycles=engine.cycles,
        seconds=seconds,
        counters=state.counters,
        config=state.config,
        device=device,
        engine=engine,
        trace=state.trace,
    )
