"""Backend dispatch: the paper's BFS/DFS crossover, productionized.

The crossover analysis says level-synchronous BFS wins on shallow-wide
graphs (few levels, huge frontiers) and collapses on deep ones (every
level pays a launch, and there are thousands); hierarchical work-
stealing DFS is the mirror image.  :func:`choose_backend` turns that
into a routing policy over the engine families this repo actually
has — the DFS simulation (``"dfs"``: :func:`run_diggerbees`), the
bit-packed single-root frontier engine (``"frontier"``,
:mod:`repro.core.frontier`), and the lane-batched swarm frontier
(``"swarm"``, :mod:`repro.core.swarm`, eligible only when the caller
can batch several roots) — keyed on the structural regime from
:func:`repro.graphs.properties.classify_regime`.

Routing rules, in order:

1. an explicit ``requested`` backend (``"dfs"``/``"frontier"``/
   ``"swarm"``) wins;
2. under ``"auto"``, a query that carries engine-config overrides is
   pinned to ``"dfs"`` — a client that parameterizes grid shape, steal
   cutoffs, or schedule perturbation is asking for a specific DFS
   *simulation* (cycles, counters and all), which the frontier engines
   cannot answer;
3. degenerate graphs (no vertices, a single vertex, or zero edges —
   which covers the all-isolated case) route straight to the frontier
   engine without paying the regime BFS: every backend answers them in
   one trivial level, and the regime classifier's depth heuristics are
   meaningless on them;
4. with a calibration table available (fitted from
   ``bench_crossover.py --record`` artifacts, persisted at
   ``benchmarks/calibration_routing.json``), the backend with the
   smallest *measured* per-run wall for the graph's regime wins —
   ``"swarm"`` is only eligible when ``batch_hint`` says the caller
   actually has >= 2 roots to batch;
5. otherwise the regime proxy: shallow graphs go to the frontier side
   (swarm when batchable, single-root frontier otherwise) and deep/mid
   graphs to DFS.

Decisions are pure functions of ``(regime, requested, overrides,
batch_hint, calibration)``, so a resolved backend is stable per graph
fingerprint — the serve layer caches the regime per resident graph and
bakes the resolved backend into result-cache keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.errors import SimulationError
from repro.graphs.csr import CSRGraph

__all__ = ["BACKENDS", "BACKEND_CHOICES", "SWARM_MIN_BATCH",
           "BackendDecision", "choose_backend", "graph_regime",
           "calibration_path", "load_calibration"]

#: Engine families a query can resolve to.
BACKENDS = ("dfs", "frontier", "swarm")

#: Valid values for the ``ServeConfig.backend`` knob / ``--backend`` flags.
BACKEND_CHOICES = ("auto",) + BACKENDS

#: Minimum batchable-root count before auto routing considers swarm —
#: a swarm of one lane is the single-root frontier engine plus overhead.
SWARM_MIN_BATCH = 2

#: Where ``bench_crossover.py --record`` persists the fitted table.
CALIBRATION_FILENAME = "calibration_routing.json"

# Resolved once at import: ``Path.resolve`` walks every path component
# with ``realpath``, which would dominate an auto-routed query's cost.
_CALIBRATION_PATH = (Path(__file__).resolve().parents[3] / "benchmarks"
                     / CALIBRATION_FILENAME)

# (path, mtime_ns) -> parsed table.  One stat per call keeps routing
# decisions hot-reloadable after a fresh --record without re-parsing.
_CALIBRATION_CACHE: dict = {}


@dataclass(frozen=True)
class BackendDecision:
    """One routing decision and why it was made."""

    backend: str      # "dfs" | "frontier" | "swarm"
    regime: str       # "deep" | "mid" | "shallow" | "degenerate" | "unknown"
    reason: str       # "forced" | "config-pinned" | "degenerate"
    #                 # | "calibrated" | "regime"


def graph_regime(graph: CSRGraph, root: int = 0) -> str:
    """Structural regime of ``graph`` (one BFS; cache per fingerprint)."""
    from repro.graphs.properties import regime

    return regime(graph, root)


def calibration_path() -> Path:
    """Default location of the persisted routing-calibration artifact."""
    return _CALIBRATION_PATH


def load_calibration(path: Optional[Path] = None) -> Optional[dict]:
    """Parsed calibration table, or ``None`` when no artifact exists.

    The table maps regimes to measured per-run walls per backend (see
    ``bench_crossover.py --record``).  Results are cached per file
    mtime, so a fresh recording takes effect without a restart and a
    missing file costs one ``stat`` per decision.
    """
    path = Path(path) if path is not None else calibration_path()
    try:
        mtime = path.stat().st_mtime_ns
    except OSError:
        return None
    key = (str(path), mtime)
    if key not in _CALIBRATION_CACHE:
        try:
            table = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(table, dict) or \
                not isinstance(table.get("regimes"), dict):
            return None
        _CALIBRATION_CACHE.clear()
        _CALIBRATION_CACHE[key] = table
    return _CALIBRATION_CACHE[key]


def _is_degenerate(graph: CSRGraph) -> bool:
    """No vertices, one vertex, or no edges (covers all-isolated)."""
    return graph.n_vertices <= 1 or graph.n_edges == 0


def _calibrated_choice(table: Mapping[str, Any], regime: str,
                       batch_hint: int) -> Optional[str]:
    """Cheapest measured backend for ``regime``, or ``None``."""
    entry = table.get("regimes", {}).get(regime)
    if not isinstance(entry, Mapping):
        return None
    eligible = {}
    for backend, cost in entry.items():
        if backend not in BACKENDS:
            continue
        if not isinstance(cost, (int, float)) or cost <= 0:
            continue
        if backend == "swarm" and batch_hint < SWARM_MIN_BATCH:
            continue
        eligible[backend] = float(cost)
    if not eligible:
        return None
    # Deterministic tie-break by declaration order.
    return min(eligible, key=lambda b: (eligible[b], BACKENDS.index(b)))


def choose_backend(graph: Optional[CSRGraph] = None, *,
                   requested: str = "auto",
                   overrides: Optional[Mapping[str, Any]] = None,
                   regime: Optional[str] = None,
                   batch_hint: int = 1,
                   calibration: Optional[Mapping[str, Any]] = None
                   ) -> BackendDecision:
    """Resolve the backend for one traversal query.

    ``regime`` short-circuits the BFS probe when the caller already
    profiled the graph (the serve layer memoizes it per resident
    entry); otherwise ``graph`` is profiled on the spot.  ``batch_hint``
    is how many same-graph roots the caller can coalesce into one
    engine invocation (the serve admission window, a bench batch tier);
    swarm is only auto-eligible at >= :data:`SWARM_MIN_BATCH`.
    ``calibration`` overrides the on-disk table (``None`` loads the
    default artifact; an empty mapping disables calibration).
    """
    if requested not in BACKEND_CHOICES:
        raise SimulationError(
            f"backend must be one of {BACKEND_CHOICES}, got {requested!r}")
    if requested != "auto":
        return BackendDecision(backend=requested,
                               regime=regime or "unknown",
                               reason="forced")
    if overrides:
        return BackendDecision(backend="dfs",
                               regime=regime or "unknown",
                               reason="config-pinned")
    if graph is not None and _is_degenerate(graph):
        return BackendDecision(backend="frontier", regime="degenerate",
                               reason="degenerate")
    if regime is None:
        if graph is None:
            raise SimulationError(
                "auto dispatch needs a graph or a precomputed regime")
        regime = graph_regime(graph)
    table = calibration if calibration is not None else load_calibration()
    if table:
        backend = _calibrated_choice(table, regime, batch_hint)
        if backend is not None:
            return BackendDecision(backend=backend, regime=regime,
                                   reason="calibrated")
    if regime == "shallow":
        backend = "swarm" if batch_hint >= SWARM_MIN_BATCH else "frontier"
    else:
        backend = "dfs"
    return BackendDecision(backend=backend, regime=regime, reason="regime")
