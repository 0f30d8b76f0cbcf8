"""The sharded execution tier: partition invariance and the merge contract.

The load-bearing promise: :func:`run_sharded` is a pure function of the
graph and root — bit-identical across every district count ``k`` and
every ``jobs`` value, with ``visited``/``edges_traversed`` equal to the
unsharded hive engine and ``parent``/``levels`` equal to the canonical
oracles (min-parent tree over BFS hop distances).  That is what lets the
tier slot into the differential ladder (rung 5f) and the serve daemon's
result cache.
"""

import numpy as np
import pytest

from repro.core import DiggerBeesConfig, run_diggerbees, run_sharded
from repro.core.frontier import min_parent_tree
from repro.errors import SimulationError
from repro.graphs import generators as gen
from repro.graphs.partition import partition_graph
from repro.graphs.properties import bfs_levels
from repro.validate import validate_traversal

CONFIG = DiggerBeesConfig(n_blocks=4, warps_per_block=4, seed=11)

FAMILIES = [
    ("grid", lambda: gen.grid2d(28, 28)),
    ("mesh", lambda: gen.delaunay_mesh(700, seed=5)),
    ("road", lambda: gen.road_network(800, seed=5)),
    ("pa", lambda: gen.preferential_attachment(700, seed=5)),
    ("smallworld", lambda: gen.small_world(700, seed=5)),
    ("skew", lambda: gen.skewed_tree(700, seed=5)),
    ("starmesh", lambda: gen.star_mesh(10, leaves_per_hub=40, seed=5)),
]


@pytest.mark.parametrize("name,build", FAMILIES,
                         ids=[n for n, _ in FAMILIES])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_partition_invariance(name, build, k):
    """Sharded == unsharded for k in {1,2,4,8} on every family."""
    g = build()
    base = run_diggerbees(g, 0, config=CONFIG)
    res = run_sharded(g, 0, config=CONFIG, k=k, partition_seed=3)
    validate_traversal(g, res.traversal)
    assert np.array_equal(res.traversal.visited, base.traversal.visited)
    assert res.traversal.edges_traversed == base.traversal.edges_traversed
    lv = bfs_levels(g, 0)
    assert np.array_equal(res.levels, lv)
    assert np.array_equal(res.traversal.parent, min_parent_tree(g, lv, 0))


@pytest.mark.parametrize("k", [2, 4])
def test_k_and_jobs_invariance(k):
    """The merged result is bit-identical across k and jobs."""
    g = gen.delaunay_mesh(900, seed=2)
    ref = run_sharded(g, 0, config=CONFIG, k=2, partition_seed=3, jobs=1)
    res = run_sharded(g, 0, config=CONFIG, k=k, partition_seed=3, jobs=2)
    assert np.array_equal(res.traversal.visited, ref.traversal.visited)
    assert np.array_equal(res.traversal.parent, ref.traversal.parent)
    assert np.array_equal(res.levels, ref.levels)
    assert res.traversal.edges_traversed == ref.traversal.edges_traversed
    assert res.jobs == 2


def test_round_log_accounts_for_remote_steals():
    g = gen.grid2d(30, 30)
    res = run_sharded(g, 0, config=CONFIG, k=4, partition_seed=3)
    c = res.counters
    assert res.n_rounds >= 2
    assert c.remote_steal_successes == sum(
        r["district_pairs"] for r in res.rounds)
    assert c.remote_steal_entries == sum(
        r["delivered_activations"] for r in res.rounds)
    assert c.remote_steal_successes > 0
    # The modeled makespan is the per-round ledger, nothing else.
    assert res.cycles == sum(r["engine_cycles"] + r["comm_cycles"]
                             for r in res.rounds)
    assert sum(r["newly_visited"] for r in res.rounds) == res.n_visited


def test_k1_has_no_remote_traffic():
    g = gen.road_network(600, seed=4)
    res = run_sharded(g, 0, config=CONFIG, k=1)
    assert res.k == 1 and res.n_rounds == 1
    assert res.counters.remote_steal_successes == 0
    assert res.counters.remote_steal_entries == 0


def test_explicit_partition_short_circuits_the_partitioner():
    g = gen.grid2d(24, 24)
    part = partition_graph(g, 4, seed=9)
    res = run_sharded(g, 0, config=CONFIG, partition=part)
    assert res.partition is part
    base = run_diggerbees(g, 0, config=CONFIG)
    assert np.array_equal(res.traversal.visited, base.traversal.visited)


def test_partition_over_wrong_graph_rejected():
    part = partition_graph(gen.path_graph(32), 2, seed=0)
    with pytest.raises(SimulationError):
        run_sharded(gen.path_graph(48), 0, partition=part)


def test_partial_reachability_merges_exactly():
    # Directed chain into a separate component: the sharded tier must
    # visit exactly the reachable set, not everything in a district.
    edges = [(i, i + 1) for i in range(40)]
    edges += [(50 + i, 50 + (i + 1) % 10) for i in range(10)]
    from repro.graphs.csr import from_edges

    g = from_edges(64, edges, directed=True, name="partial")
    base = run_diggerbees(g, 0, config=CONFIG)
    for k in (2, 4):
        res = run_sharded(g, 0, config=CONFIG, k=k, partition_seed=1)
        assert np.array_equal(res.traversal.visited,
                              base.traversal.visited)
        assert res.traversal.edges_traversed == \
            base.traversal.edges_traversed


def test_summary_carries_shard_extras():
    g = gen.grid2d(20, 20)
    res = run_sharded(g, 0, config=CONFIG, k=4, partition_seed=3)
    s = res.summary()
    assert s["k"] == res.partition.k
    assert s["rounds"] == res.n_rounds
    assert s["partition_edge_cut_fraction"] == \
        res.partition.edge_cut_fraction
    assert s["partition_balance_factor"] == res.partition.balance_factor
    assert s["visited"] == res.n_visited
    assert res.mteps > 0
