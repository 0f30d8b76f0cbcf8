"""Answer verification, run after the timed phase (never timed).

Each checked answer is compared, as decoded JSON, with direct
:func:`repro.serve.exec.execute_query` on the same graph, routed
through the same :func:`repro.core.dispatch.choose_backend` decision
the daemon makes, and is also checked by an independent validator:
:func:`repro.validate.validate_traversal` for DFS trees and
:func:`repro.graphs.properties.bfs_levels` for frontier/swarm answers.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def direct_answer(graph, query, knob: str) -> Dict:
    """What direct execution answers for ``query`` under ``knob``."""
    from repro.core.config import ServeConfig
    from repro.core.dispatch import choose_backend, graph_regime
    from repro.serve.exec import execute_query

    regime = graph_regime(graph) if knob == "auto" else None
    backend = choose_backend(graph, requested=knob, regime=regime,
                             overrides=query.config,
                             batch_hint=ServeConfig().max_batch).backend
    return execute_query(graph, "dfs", query.root, query.config,
                         backend=backend)


def _traversal(result: Dict):
    from repro.validate.reference import TraversalResult

    n = result["n_vertices"]
    visited = np.zeros(n, dtype=bool)
    visited[np.asarray(result["visited"], dtype=np.int64)] = True
    return TraversalResult(root=result["root"], visited=visited,
                           parent=np.asarray(result["parent"],
                                             dtype=np.int64),
                           order=np.empty(0, dtype=np.int64),
                           edges_traversed=result["edges_traversed"])


def validate_answer(graph, result: Dict) -> Optional[str]:
    """Independent check of one answer; the problem found, or None."""
    from repro.errors import ReproError
    from repro.graphs.properties import bfs_levels
    from repro.validate import validate_traversal

    t = _traversal(result)
    if "backend" not in result:
        try:
            validate_traversal(graph, t)
        except ReproError as exc:
            return f"DFS tree invalid: {exc}"
        return None
    level = bfs_levels(graph, t.root)
    if not np.array_equal(level >= 0, t.visited):
        return "visited set differs from BFS reachability"
    verts = np.flatnonzero(t.visited)
    verts = verts[verts != t.root]
    par = t.parent[verts]
    if t.parent[t.root] != -1 or np.any(par < 0):
        return "root or parent pointers malformed"
    if np.any(level[par] != level[verts] - 1):
        return "parent is not one BFS level up"
    for v, p in zip(verts.tolist(), par.tolist()):
        if not graph.has_edge(p, v):
            return f"tree edge ({p} -> {v}) is not a graph edge"
    if result["n_levels"] != int(level.max()) + 1:
        return "level count differs from BFS"
    return None


def check(graphs: Dict[str, object], answers: Sequence[Tuple[object, Dict]],
          knob: str) -> List[Tuple[int, str]]:
    """Check ``(query, served result)`` pairs; ``(index, problem)`` list."""
    bad = []
    for i, (query, served) in enumerate(answers):
        graph = graphs[query.graph]
        direct = json.loads(json.dumps(direct_answer(graph, query, knob)))
        problem = ("differs from direct execution" if served != direct
                   else validate_answer(graph, served))
        if problem is not None:
            bad.append((i, problem))
    return bad
