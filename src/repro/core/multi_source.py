"""Multi-source DiggerBees: several roots seeded across the grid at once.

Two uses beyond the paper's single-source runs:

* **Forest traversal** — cover a disconnected graph in one simulation
  instead of one run per component.  All roots are claimed up front, so
  several roots inside one component partition it into several trees —
  the standard semantics of parallel multi-source traversal (exact
  duplicate roots are dropped).
* **Warm starts** — single-source DFS suffers a long ramp-up while one
  warp's subtree feeds the whole grid; seeding k roots spread over the
  blocks shortcuts that ramp, which is how a production library would
  run the GAP-style many-source benchmarks.

Roots are assigned round-robin over blocks (root i -> block i % n_blocks,
warp 0 of that block), mirroring how a launcher would scatter seed
vertices.  The output is a spanning *forest*: ``parent`` is -1 at each
root that claimed its own component and the ``roots`` tuple records the
claiming subset.

The seeded grid drains exactly like a single-source run
(:func:`repro.core.diggerbees.drain`): on the fused loop when the config
allows it, otherwise on the generic event loop with the config's
schedule perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DiggerBeesConfig
from repro.core.diggerbees import drain
from repro.core.state import RunState
from repro.core.twolevel_stack import WarpStack
from repro.errors import SimulationError
from repro.graphs.csr import CSRGraph
from repro.sim.device import DeviceSpec, H100
from repro.validate.reference import ROOT_PARENT, TraversalResult

__all__ = ["MultiSourceResult", "run_diggerbees_multi"]


@dataclass(frozen=True)
class MultiSourceResult:
    """Outcome of a multi-source run (a spanning forest)."""

    traversal: TraversalResult       # root field = first seeding root
    roots: Tuple[int, ...]           # roots that actually claimed a tree
    cycles: int
    seconds: float
    counters: object
    config: DiggerBeesConfig
    device: DeviceSpec

    @property
    def mteps(self) -> float:
        from repro.sim.metrics import mteps as _mteps

        return _mteps(self.traversal.edges_traversed, self.seconds)

    @property
    def n_trees(self) -> int:
        return len(self.roots)


def run_diggerbees_multi(
    graph: CSRGraph,
    roots: Sequence[int],
    *,
    config: Optional[DiggerBeesConfig] = None,
    device: DeviceSpec = H100,
    check_invariants: bool = False,
) -> MultiSourceResult:
    """Run DiggerBees seeded from several roots in one simulation.

    Exact duplicate roots are dropped; distinct roots inside the same
    component each claim a tree (the component is partitioned among
    them).
    """
    if not roots:
        raise SimulationError("run_diggerbees_multi needs at least one root")
    config = config or DiggerBeesConfig()
    for r in roots:
        graph._check_vertex(int(r))

    # Build state seeded with the FIRST root via the normal path, then
    # add the remaining seeds round-robin across blocks.
    state = RunState(graph, int(roots[0]), config, device)
    claimed_roots = [int(roots[0])]
    for i, r in enumerate(roots[1:], start=1):
        r = int(r)
        if state.visited[r]:
            continue  # duplicate root or same component seed: skip
        block_id = i % config.n_blocks
        state.visited[r] = 1
        state.parent[r] = ROOT_PARENT
        state.counters.vertices_visited += 1
        state.counters.record_task(block_id, 0)
        stack = state.blocks[block_id].stacks[0]
        if isinstance(stack, WarpStack):
            if stack.needs_flush():
                stack.flush()
            stack.hot.push(r, int(graph.row_ptr[r]))
        else:
            stack.push(r, int(graph.row_ptr[r]))
        state.counters.pushes += 1
        state.pending += 1
        state.blocks[block_id].set_active(0, True)
        claimed_roots.append(r)

    engine = drain(state)
    if state.pending != 0:
        raise SimulationError(
            f"multi-source run stopped with {state.pending} entries pending"
        )
    if check_invariants:
        state.check_invariants()

    traversal = TraversalResult(
        root=int(roots[0]),
        visited=state.visited.astype(bool),
        parent=state.parent,
        order=np.empty(0, dtype=np.int64),
        edges_traversed=state.counters.edges_traversed,
    )
    return MultiSourceResult(
        traversal=traversal,
        roots=tuple(claimed_roots),
        cycles=engine.cycles,
        seconds=device.cycles_to_seconds(engine.cycles),
        counters=state.counters,
        config=config,
        device=device,
    )
