"""Seeded workload inputs: graphs, open-loop schedules and bursts.

Everything here is a pure function of the seed, so two runs with the
same ``--seed`` send byte-identical requests at identical offsets.  The
daemon only ever sees what these functions generate: graphs arrive via
``add_graph`` and queries via the wire protocol.

Graph families and sizes mirror :data:`repro.bench.micro.MICRO_CASES`,
but each graph gets a seed-chosen generator seed, and the graphs are
built straight from :mod:`repro.graphs.generators` (no disk cache), so
the benchmark reads and writes nothing outside its checkout.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: (name, generator in repro.graphs.generators, generator kwargs).  The
#: micro-case engine config of the same name rides on ``dfs_cold``
#: queries as overrides.
GRAPH_CASES: Tuple[Tuple[str, str, Dict[str, int]], ...] = (
    ("road1000", "road_network", {"n_vertices": 1000}),
    ("road2500", "road_network", {"n_vertices": 2500}),
    ("pa2000", "preferential_attachment", {"n_vertices": 2000, "m": 6}),
    ("mesh1500", "delaunay_mesh", {"n_vertices": 1500}),
    ("skew3000", "skewed_tree", {"n_vertices": 3000}),
    ("hub2500", "preferential_attachment", {"n_vertices": 2500, "m": 4}),
    ("starmesh2400", "star_mesh", {"n_hubs": 120, "leaves_per_hub": 19}),
    ("layers2000", "wide_layers", {"width": 400, "depth": 5}),
)

#: Prefix of every graph the benchmark registers, so its graphs never
#: replace the daemon's own default corpus entries.
GRAPH_PREFIX = "pb_"

#: Open-loop arrival jitter, as a share of the interval between sends.
JITTER = 0.25


class Query(NamedTuple):
    """One request of a schedule; ``due`` is seconds after phase start."""

    due: float
    graph: str
    root: int
    config: Optional[Dict]


class BenchGraph(NamedTuple):
    name: str           # name registered in the daemon
    graph: object       # repro.graphs.csr.CSRGraph
    overrides: Dict     # micro-case DiggerBeesConfig overrides


def micro_overrides() -> Dict[str, Dict]:
    """Micro-case engine configs as override dicts (non-default fields)."""
    from repro.bench.micro import MICRO_CASES
    from repro.core.config import DiggerBeesConfig

    default = dataclasses.asdict(DiggerBeesConfig())
    out = {}
    for name, _build, cfg in MICRO_CASES:
        fields = dataclasses.asdict(cfg)
        out[name] = {k: v for k, v in sorted(fields.items())
                     if default[k] != v}
    return out


def build_graphs(seed: int) -> List[BenchGraph]:
    """The eight workload graphs, generator seeds drawn from ``seed``."""
    from repro.graphs import generators as gen

    rng = np.random.default_rng([seed, 0])
    overrides = micro_overrides()
    out = []
    for name, family, params in GRAPH_CASES:
        gseed = int(rng.integers(1, 2**31 - 1))
        full = GRAPH_PREFIX + name
        g = getattr(gen, family)(**params, seed=gseed, name=full)
        if g.name != full:
            g = g.with_name(full)
        out.append(BenchGraph(full, g, overrides[name]))
    return out


class RootPools:
    """Per-graph root permutations, consumed in order.

    Every root handed out is fresh for its graph until the pool runs
    dry, which makes each (graph, root) pair of a run unique: the
    daemon's result cache cannot answer it.
    """

    def __init__(self, graphs: Sequence[BenchGraph], seed: int):
        rng = np.random.default_rng([seed, 1])
        self._pools = {g.name: rng.permutation(g.graph.n_vertices)
                       for g in graphs}
        self._next = {g.name: 0 for g in graphs}

    def take(self, graph: str, k: int = 1) -> List[int]:
        pos = self._next[graph]
        pool = self._pools[graph]
        if pos + k > pool.size:
            raise ValueError(f"root pool of {graph} exhausted "
                             f"({pool.size} roots)")
        self._next[graph] = pos + k
        return [int(r) for r in pool[pos:pos + k]]

    def remaining(self, graph: str) -> int:
        return self._pools[graph].size - self._next[graph]


def open_loop(graphs: Sequence[BenchGraph], pools: RootPools, *,
              rate: float, seconds: float, seed: int, phase: int,
              with_config: bool) -> List[Query]:
    """Paced arrivals at ``rate`` q/s over ``seconds``, unique roots.

    Request ``i`` is due at ``(i + 0.5 + j_i) / rate`` with a seeded
    jitter ``j_i`` in [-JITTER, JITTER): every seed offers exactly the
    same load, and no two requests arrive closer than half an interval.
    Graphs come in shuffled rounds that visit each graph once, so the
    mix of cheap and costly graphs is the same for every seed.  (Poisson
    arrivals would put two same-graph queries into one admission window
    now and then at any rate, and a single hive batch then sets the
    tail; see README.md.)
    """
    rng = np.random.default_rng([seed, 2, phase])
    n = max(1, int(round(rate * seconds)))
    jitter = rng.uniform(-JITTER, JITTER, size=n)
    dues = (np.arange(n) + 0.5 + jitter) / rate
    rounds = -(-n // len(graphs))
    picks = np.concatenate([rng.permutation(len(graphs))
                            for _ in range(rounds)])[:n]
    out = []
    for due, gi in zip(dues.tolist(), picks.tolist()):
        g = graphs[gi]
        (root,) = pools.take(g.name)
        out.append(Query(due, g.name, root,
                         dict(g.overrides) if with_config else None))
    return out


class Burst(NamedTuple):
    graph: str
    roots: List[int]    # repeated and fresh roots, shuffled


def bursts(graphs: Sequence[BenchGraph], pools: RootPools, *,
           size: int, seed: int, seen: Dict[str, List[int]]
           ) -> Iterator[Burst]:
    """Closed-loop bursts, half repeated roots and half fresh ones.

    Bursts visit the graphs in a seeded round-robin order.  ``seen``
    maps each graph to roots already queried on it, on the daemon being
    driven; it must hold at least ``size // 2`` roots per graph (the
    warm-up burst puts them there) and is extended with every fresh root
    handed out.  A graph whose root pool cannot fill a burst drops out
    of the rotation, and the stream ends when every graph has.
    """
    rng = np.random.default_rng([seed, 3])
    order = [graphs[i] for i in rng.permutation(len(graphs)).tolist()]
    half = size // 2
    for k in itertools.count():
        live = [g for g in order if pools.remaining(g.name) >= size - half]
        if not live:
            return
        g = live[k % len(live)]
        prior = seen[g.name]
        repeat = rng.choice(len(prior), size=half, replace=False)
        fresh = pools.take(g.name, size - half)
        roots = [prior[i] for i in repeat.tolist()] + fresh
        prior.extend(fresh)
        perm = rng.permutation(len(roots)).tolist()
        yield Burst(g.name, [roots[i] for i in perm])
