"""Query execution for the traversal service.

Module-level, picklable functions so the daemon can run them either
in-process (``jobs = 0``) or across the persistent worker pool of
:mod:`repro.bench.harness` (``jobs >= 1``) with identical results.
Workers receive graphs as shared-memory specs (attached and cached via
the harness's worker-side graph cache) or, on the pickle-fallback path,
as the graphs themselves.

Payloads: with ``encode=True`` every success comes back as its
canonical JSON text (:mod:`repro.serve.protocol`'s ``*_to_json``
encoders), built here next to the engine call.  The daemon asks for
text, so its event loop never serializes a payload and pool workers
pickle one string per answer instead of dicts of int lists; direct
callers get the payload dicts.

Failure semantics: *query* failures — an over-budget simulation, a
toposort on a cyclic graph, an out-of-range root — are returned as
per-task error markers so one bad query in a swarm batch cannot poison
its neighbours or look like an infrastructure fault.  Infrastructure
failures (dangling shm segment, broken pool) raise, and the daemon's
dispatch layer degrades: re-export, pickle, or in-process execution.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import DiggerBeesConfig
from repro.errors import ProtocolError, ReproError
from repro.serve.protocol import (
    QUERY_OPS,
    dfs_result_to_dict,
    dfs_result_to_json,
    frontier_result_to_dict,
    frontier_results_to_json,
    payload_to_json,
    sharded_result_to_dict,
    sharded_result_to_json,
)

__all__ = [
    "build_engine_config",
    "execute_query",
    "execute_dfs_batch",
    "ERROR_KEY",
]

#: Per-task error marker key in batch results.
ERROR_KEY = "__error__"

#: One answer: the payload dict, its JSON text (``encode=True``), or an
#: error marker dict.
Answer = Union[Dict[str, Any], str]

#: DiggerBeesConfig fields a request may override (everything except the
#: perturbation knobs would also be safe, but fuzz configs need those
#: too for the serve-diff rung, so the whole dataclass is wire-exposed).
_CONFIG_FIELDS = frozenset(DiggerBeesConfig.__dataclass_fields__)


def build_engine_config(overrides: Optional[Dict[str, Any]],
                        ) -> DiggerBeesConfig:
    """Engine config for one DFS query (daemon default + overrides)."""
    if not overrides:
        return DiggerBeesConfig()
    unknown = set(overrides) - _CONFIG_FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown engine-config field(s) {sorted(unknown)}")
    # ReproError (SimulationError) from validation propagates to the
    # caller, which turns it into a per-request error response.
    return DiggerBeesConfig(**overrides)


def _resolve(wire_graph):
    """Attach a shm spec (worker-side cached) or pass a graph through."""
    from repro.bench.harness import _resolve_task_graph

    return _resolve_task_graph(wire_graph)


def _error_marker(exc: BaseException) -> Dict[str, Any]:
    return {ERROR_KEY: {"type": type(exc).__name__, "message": str(exc)}}


# ---------------------------------------------------------------------------
# Single queries.
# ---------------------------------------------------------------------------

def _dfs(graph, root: int, overrides, backend: str = "dfs",
         encode: bool = False) -> Answer:
    if backend in ("frontier", "swarm"):
        res = _frontier(graph, root, overrides)
        if encode:
            return frontier_results_to_json([res], backend)[0]
        return frontier_result_to_dict(res, backend=backend)
    from repro.core.diggerbees import run_diggerbees

    res = run_diggerbees(graph, root, config=build_engine_config(overrides))
    return dfs_result_to_json(res) if encode else dfs_result_to_dict(res)


def _frontier(graph, root: int, overrides):
    # Overrides are validated (bad configs must fail their own request)
    # but don't parameterize the frontier engine: under "auto" routing a
    # query with overrides is pinned to DFS before it gets here, and a
    # forced-frontier daemon answers every DFS query with the one
    # deterministic min-parent tree.  A single swarm-resolved query runs
    # here too, and only the payload's backend marker says "swarm": a
    # one-lane swarm gives the same answer at 0.61-1.06x the frontier
    # wall on the micro graphs, so neither engine is the cheap one.
    build_engine_config(overrides)
    from repro.core.frontier import run_frontier

    return run_frontier(graph, root)


def _scc(graph, root: int, overrides) -> Dict[str, Any]:
    from repro.apps import strongly_connected_components

    comp = strongly_connected_components(graph)
    return {
        "components": comp.tolist(),
        "n_components": int(comp.max()) + 1 if comp.size else 0,
    }


def _toposort(graph, root: int, overrides) -> Dict[str, Any]:
    from repro.apps import CycleFound, topological_sort

    try:
        order = topological_sort(graph)
    except CycleFound as exc:
        return {"order": None, "cycle": [int(v) for v in exc.cycle]}
    return {"order": order.tolist(), "cycle": None}


def _cycles(graph, root: int, overrides) -> Dict[str, Any]:
    from repro.apps import find_cycle
    from repro.validate.reference import serial_dfs

    traversal = serial_dfs(graph, root)
    cycle = find_cycle(graph, traversal)
    return {
        "has_cycle": cycle is not None,
        "cycle": [int(v) for v in cycle] if cycle is not None else None,
    }


def _biconnectivity(graph, root: int, overrides) -> Dict[str, Any]:
    from repro.apps import biconnectivity

    res = biconnectivity(graph)
    return {
        "articulation_points":
            np.flatnonzero(res.articulation_points).tolist(),
        "bridges": [[int(u), int(v)] for u, v in res.bridges.tolist()],
        "edge_component": res.edge_component.tolist(),
        "n_components": int(res.n_components),
    }


def _spanning(graph, root: int, overrides) -> Dict[str, Any]:
    from repro.apps import spanning_forest

    forest = spanning_forest(graph)
    return {
        "parent": forest.parent.tolist(),
        "component": forest.component.tolist(),
        "roots": [int(r) for r in forest.roots],
        "n_components": int(forest.n_components),
        "total_cycles": int(forest.total_cycles),
    }


_EXECUTORS = {
    "dfs": _dfs,
    "scc": _scc,
    "toposort": _toposort,
    "cycles": _cycles,
    "biconnectivity": _biconnectivity,
    "spanning": _spanning,
}
assert set(_EXECUTORS) == set(QUERY_OPS)


def execute_query(wire_graph, op: str, root: int,
                  overrides: Optional[Dict[str, Any]] = None,
                  backend: str = "dfs", encode: bool = False) -> Answer:
    """Execute one query; returns the result payload or an error marker.

    ``backend`` is the *resolved* engine family for ``dfs`` queries
    (``"dfs"``, ``"frontier"`` or ``"swarm"``) — callers route through
    :func:`repro.core.dispatch.choose_backend` first; this function
    just executes.  Non-DFS ops ignore it.  ``encode`` returns a
    success as its canonical JSON text instead of the dict.
    """
    graph = _resolve(wire_graph)
    try:
        if root < 0 or root >= graph.n_vertices:
            raise ProtocolError(
                f"root {root} out of range for {graph.n_vertices} vertices")
        if op == "dfs":
            return _dfs(graph, root, overrides, backend, encode)
        out = _EXECUTORS[op](graph, root, overrides)
        return payload_to_json(out) if encode else out
    except ReproError as exc:
        return _error_marker(exc)


# ---------------------------------------------------------------------------
# Batched DFS.
# ---------------------------------------------------------------------------

def _swarm_batch(graph, tasks: List[Tuple[int, Optional[Dict[str, Any]]]],
                 encode: bool) -> List[Answer]:
    """One lockstep swarm over every valid task; markers for the rest.

    A single task runs on the frontier engine instead (see
    :func:`_frontier`): the same payload at about the same cost.  With
    ``encode`` the lanes are serialized together in one vectorized
    pass.
    """
    if len(tasks) == 1:
        root, ov = tasks[0]
        return [execute_query(graph, "dfs", root, ov, backend="swarm",
                              encode=encode)]
    from repro.core.swarm import run_swarm

    out: List[Optional[Answer]] = [None] * len(tasks)
    lanes: List[int] = []
    for i, (root, ov) in enumerate(tasks):
        try:
            build_engine_config(ov)
            if root < 0 or root >= graph.n_vertices:
                raise ProtocolError(
                    f"root {root} out of range for "
                    f"{graph.n_vertices} vertices")
        except ReproError as exc:
            out[i] = _error_marker(exc)
        else:
            lanes.append(i)
    if lanes:
        try:
            results = run_swarm(graph, [tasks[i][0] for i in lanes])
        except ReproError as exc:
            for i in lanes:
                out[i] = _error_marker(exc)
        else:
            payloads = (frontier_results_to_json(results, "swarm")
                        if encode else
                        [frontier_result_to_dict(res, backend="swarm")
                         for res in results])
            for i, payload in zip(lanes, payloads):
                out[i] = payload
    return out


def _sharded(graph, root: int, overrides, shards: int,
             jobs: int, encode: bool) -> Answer:
    # Overrides are validated but don't parameterize the shard tier:
    # routing pins override-carrying queries to plain DFS before they
    # get here (a parameterized query asks for a specific simulation).
    build_engine_config(overrides)
    from repro.core.shard import run_sharded

    res = run_sharded(graph, root, k=shards, jobs=jobs)
    return (sharded_result_to_json(res) if encode
            else sharded_result_to_dict(res))


def execute_dfs_batch(wire_graph,
                      tasks: List[Tuple[int, Optional[Dict[str, Any]]]],
                      backend: str = "dfs", shards: int = 0,
                      shard_jobs: int = 0, encode: bool = False
                      ) -> List[Answer]:
    """Execute ``[(root, config-overrides), ...]`` DFS queries.

    ``backend="swarm"`` runs every valid task as one lane of a single
    :func:`repro.core.swarm.run_swarm` lockstep batch — the one backend
    the daemon coalesces.  Tasks with a bad config or root settle as
    per-task error markers; the remaining lanes still swarm together,
    and each lane's payload is bit-identical to the single-root
    frontier answer (modulo the ``backend`` marker).

    Every other backend answers task by task: ``"dfs"`` runs the
    simulation (:func:`repro.core.diggerbees.run_diggerbees`),
    ``"frontier"`` the frontier engine, and ``"shard"`` the sharded tier
    (:func:`repro.core.shard.run_sharded`, ``k = shards`` districts,
    ``jobs = shard_jobs`` concurrent district workers).  Shard tasks
    always execute in the daemon process — the shard tier leases the
    worker pool itself, one engine per district, so shipping the task
    to a pool worker would nest pools.

    ``encode`` returns each success as its canonical JSON text, as
    :func:`execute_query` does.
    """
    graph = _resolve(wire_graph)
    if backend == "swarm":
        return _swarm_batch(graph, tasks, encode)
    if backend == "shard":
        out: List[Answer] = []
        for root, ov in tasks:
            try:
                if root < 0 or root >= graph.n_vertices:
                    raise ProtocolError(
                        f"root {root} out of range for "
                        f"{graph.n_vertices} vertices")
                out.append(_sharded(graph, root, ov, shards, shard_jobs,
                                    encode))
            except ReproError as exc:
                out.append(_error_marker(exc))
        return out
    return [execute_query(graph, "dfs", root, ov, backend=backend,
                          encode=encode)
            for root, ov in tasks]
