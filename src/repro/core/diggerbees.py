"""DiggerBees driver: assemble the grid, run the engine, package results.

This is the public entry point of the core package::

    from repro.core import DiggerBeesConfig, run_diggerbees
    result = run_diggerbees(graph, root=0,
                            config=DiggerBeesConfig.v4(H100, sim_scale=0.25))
    print(result.mteps)

:func:`run_diggerbees` drains every config the fused loop
(:mod:`repro.core.turbo`) can run through it, and everything else
(one-level stacks, schedule perturbation) through the generic
:class:`~repro.sim.engine.EventLoop`.  :func:`run_diggerbees_reference`
always takes the generic loop: it is the single reference engine the
golden tests and the ``repro.check`` oracle ladder hold the fused loop
to, bit for bit.  Both share run assembly, :func:`drain` /
:func:`drain_generic` and :func:`package_result`.
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

__all__ = ["DiggerBeesResult", "run_diggerbees", "run_diggerbees_reference",
           "drain", "drain_generic", "package_result"]


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
    return _run(drain, graph, root, config, device, check_invariants,
                record_order, instrument)


def run_diggerbees_reference(
    graph: CSRGraph,
    root: int,
    *,
    config: Optional[DiggerBeesConfig] = None,
    device: DeviceSpec = H100,
    check_invariants: bool = False,
    record_order: bool = False,
    instrument: Optional[Callable[[RunState], Optional[Callable[[int], None]]]] = None,
) -> DiggerBeesResult:
    """:func:`run_diggerbees` on the generic event loop, whatever the config.

    The reference engine: same parameters, same result type, and for
    every config the same cycles, steps, counters and traversal as
    :func:`run_diggerbees` — which is what the golden tests and the
    oracle ladder's fused-vs-generic rung assert.
    """
    return _run(drain_generic, graph, root, config, device,
                check_invariants, record_order, instrument)


def _run(drain_fn, graph, root, config, device, check_invariants,
         record_order, instrument) -> DiggerBeesResult:
    config = config or DiggerBeesConfig()
    if record_order and not config.trace:
        config = config.with_overrides(trace=True)
    state = RunState(graph, root, config, device)
    on_step = instrument(state) if instrument is not None else None
    engine = drain_fn(state, on_step)
    if state.pending != 0:
        raise SimulationError(
            f"engine stopped with {state.pending} entries pending"
        )
    if check_invariants:
        state.check_invariants()
    return package_result(state, engine, record_order=record_order)


def drain(state: RunState,
          on_step: Optional[Callable[[int], None]] = None) -> EngineResult:
    """Run the grid of a freshly seeded ``state`` to termination.

    The fused loop takes every config it can run bit-identically
    (:func:`~repro.core.turbo.turbo_eligible`); the rest falls back to
    :func:`drain_generic`.  Either way the result is the reference
    engine's, bit for bit.
    """
    if turbo_eligible(state.config):
        return run_turbo(state, _grid(state),
                         max_cycles=state.config.max_cycles, on_step=on_step)
    return drain_generic(state, on_step)


def drain_generic(state: RunState,
                  on_step: Optional[Callable[[int], None]] = None
                  ) -> EngineResult:
    """Run ``state``'s grid on the generic event loop (the reference),
    with the config's schedule perturbation, if any."""
    config = state.config
    return EventLoop(
        _grid(state),
        is_terminated=state.is_terminated,
        max_cycles=config.max_cycles,
        perturb_seed=config.perturb_seed,
        jitter=config.jitter,
        on_step=on_step,
    ).run()


def _grid(state: RunState) -> list:
    """One :class:`WarpAgent` per warp, in block-major order."""
    config = state.config
    return [WarpAgent(state, b, w)
            for b in range(config.n_blocks)
            for w in range(config.warps_per_block)]


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
