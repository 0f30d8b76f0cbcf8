"""Swarm engine contract: every lane bit-identical to single-root
run_frontier — visited, levels, min-parent tree, AND the execution
profile (pushes/pulls/edges_scanned) that the Beamer switch drives."""

import numpy as np
import pytest

from repro.core.frontier import FrontierConfig, run_frontier
from repro.core.swarm import run_swarm
from repro.graphs import generators as gen
from repro.validate.tree import validate_traversal

GRAPHS = {
    "path": lambda: gen.path_graph(300),
    "star": lambda: gen.star_graph(200),
    "btree": lambda: gen.binary_tree(8),
    "road": lambda: gen.road_network(n_vertices=400, seed=5),
    "pa": lambda: gen.preferential_attachment(n_vertices=400, m=4, seed=6),
    "ws": lambda: gen.small_world(400, k=6, rewire_p=0.1, seed=7),
    "grid": lambda: gen.grid2d(18, 18),
    "starmesh": lambda: gen.star_mesh(12, leaves_per_hub=9, seed=8),
    "layers": lambda: gen.wide_layers(60, 5, seed=9),
    "skew": lambda: gen.skewed_tree(400, seed=10),
    "rmat": lambda: gen.rmat(8, edge_factor=6, seed=11),
}


@pytest.fixture(params=sorted(GRAPHS), scope="module")
def graph(request):
    return GRAPHS[request.param]()


def _roots_for(graph, k=6):
    n = graph.n_vertices
    roots = sorted({int(r) for r in
                    np.linspace(0, n - 1, num=min(k, n), dtype=np.int64)})
    # A duplicate lane exercises lane independence.
    return roots + [roots[0]]


def assert_lane_identical(swarm_res, single_res):
    assert np.array_equal(swarm_res.traversal.visited,
                          single_res.traversal.visited)
    assert np.array_equal(swarm_res.traversal.parent,
                          single_res.traversal.parent)
    assert np.array_equal(swarm_res.level, single_res.level)
    assert swarm_res.n_levels == single_res.n_levels
    assert swarm_res.pushes == single_res.pushes
    assert swarm_res.pulls == single_res.pulls
    assert swarm_res.edges_scanned == single_res.edges_scanned
    assert swarm_res.traversal.edges_traversed == \
        single_res.traversal.edges_traversed
    assert swarm_res.traversal.root == single_res.traversal.root


def test_every_lane_matches_single_root(graph):
    roots = _roots_for(graph)
    batch = run_swarm(graph, roots)
    assert len(batch) == len(roots)
    for root, res in zip(roots, batch):
        single = run_frontier(graph, root)
        assert_lane_identical(res, single)
        validate_traversal(graph, res.traversal)


@pytest.mark.parametrize("mode", ["push", "pull"])
def test_forced_modes_match_single_root(graph, mode):
    cfg = FrontierConfig(mode=mode)
    roots = _roots_for(graph, k=4)
    batch = run_swarm(graph, roots, config=cfg)
    for root, res in zip(roots, batch):
        assert_lane_identical(res, run_frontier(graph, root, config=cfg))


def test_mixed_direction_lanes():
    """Lanes must switch direction independently: a hub root goes
    pull-heavy while a rim root of the same graph stays pushing longer;
    both must still match their single-root runs."""
    g = gen.star_mesh(12, leaves_per_hub=9, seed=8)
    roots = [0, g.n_vertices - 1, 1, g.n_vertices // 2]
    batch = run_swarm(g, roots)
    profiles = set()
    for root, res in zip(roots, batch):
        single = run_frontier(g, root)
        assert_lane_identical(res, single)
        profiles.add((res.pushes, res.pulls))
    # The corpus pick guarantees at least two distinct switch profiles,
    # so the per-lane (not global) Beamer switch is actually exercised.
    assert len(profiles) >= 2


def test_lanes_retire_at_different_depths():
    """A lane on a short component retires while deep lanes continue."""
    from repro.graphs.csr import from_edges

    edges = [(i, i + 1) for i in range(49)] + [(60, 61)]
    both = edges + [(v, u) for u, v in edges]
    g = from_edges(70, np.array(both, dtype=np.int64))
    roots = [0, 60, 65, 25]  # long path, 2-vertex component, isolated, mid
    batch = run_swarm(g, roots)
    for root, res in zip(roots, batch):
        assert_lane_identical(res, run_frontier(g, root))
    assert batch[2].n_levels == 1          # isolated root: root-only level
    assert batch[1].n_levels == 2
    assert batch[0].n_levels == 50


def test_directed_runs_push_only():
    g = gen.citation_graph(120, seed=3, symmetrize=False)
    batch = run_swarm(g, [0, 5, 11], config=FrontierConfig(mode="pull"))
    for root, res in zip([0, 5, 11], batch):
        assert res.pulls == 0
        assert_lane_identical(
            res, run_frontier(g, root, config=FrontierConfig(mode="pull")))


def test_batch_of_one_and_empty_batch():
    g = gen.road_network(n_vertices=200, seed=4)
    only = run_swarm(g, [7])[0]
    assert_lane_identical(only, run_frontier(g, 7))
    assert run_swarm(g, []) == []


def test_root_validation():
    g = gen.path_graph(10)
    with pytest.raises(Exception):
        run_swarm(g, [0, 99])


def test_amortized_seconds_shared_across_lanes():
    g = gen.star_mesh(10, leaves_per_hub=7, seed=2)
    batch = run_swarm(g, [0, 1, 2, 3])
    secs = {res.seconds for res in batch}
    assert len(secs) == 1
    assert batch[0].seconds >= 0.0
    assert batch[0].mteps >= 0.0


def _spread_roots(graph, width, seed):
    """``width`` seeded random roots (repeats allowed)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, graph.n_vertices, size=width).tolist()


def _assert_batch_matches(graph, roots, config=None):
    batch = run_swarm(graph, roots, config=config)
    assert len(batch) == len(roots)
    for root, res in zip(roots, batch):
        assert_lane_identical(res, run_frontier(graph, root, config=config))


@pytest.mark.parametrize("width", [63, 64, 65, 129])
@pytest.mark.parametrize("shape", ["skew", "starmesh"])
def test_lane_word_boundaries(shape, width):
    """Widths either side of a 64-lane word, deep and shallow: the last
    word's tail bits must never leak into a lane."""
    g = GRAPHS[shape]()
    _assert_batch_matches(g, _spread_roots(g, width, seed=width))


def _with_isolated_rows():
    """Two components plus isolated vertices, so in-rows with zero
    degree sit at the start, middle and end of the row range."""
    from repro.graphs.csr import from_edges

    core = gen.preferential_attachment(n_vertices=120, m=3, seed=12)
    edges = core.edge_array() + 3          # rows 0..2 stay isolated
    tail = [(200, 201), (201, 202), (202, 203), (203, 200)]
    both = np.concatenate([edges, np.array(tail), np.array(tail)[:, ::-1]])
    return from_edges(210, both.astype(np.int64))   # 123..199, 204..209 too


def test_isolated_vertices_and_zero_degree_rows():
    from repro.graphs.csr import from_edges

    g = _with_isolated_rows()
    roots = [0, 3, 50, 122, 200, 209, 3, 205] + list(range(10, 80))
    _assert_batch_matches(g, roots)
    edgeless = from_edges(5, np.zeros((0, 2), dtype=np.int64))
    _assert_batch_matches(edgeless, [0, 4, 4, 2])


def _unsorted_neighbors(graph):
    """Same graph, each adjacency row in shuffled order (no sorted flag)."""
    from repro.graphs.csr import CSRGraph

    rng = np.random.default_rng(13)
    rp, ci = graph.row_ptr, graph.column_idx.copy()
    for v in range(graph.n_vertices):
        rng.shuffle(ci[rp[v]:rp[v + 1]])
    return CSRGraph(rp, ci, directed=graph.directed, name=graph.name)


@pytest.mark.parametrize("dense_share", [0.0, float("inf")])
@pytest.mark.parametrize("level_pass_cells", [0, 1 << 40])
def test_every_mechanism_is_bit_identical(monkeypatch, dense_share,
                                          level_pass_cells):
    """Full-arc vs frontier-scatter discovery, and per-level vs
    (chunked) arcs x lanes parent resolution, are cost choices only."""
    import repro.core.swarm as swarm_mod

    monkeypatch.setattr(swarm_mod, "_DENSE_SHARE", dense_share)
    monkeypatch.setattr(swarm_mod, "_LEVEL_PASS_CELLS", level_pass_cells)
    # Lane chunks of the arcs x lanes pass that end mid-word.
    monkeypatch.setattr(swarm_mod, "_PARENT_CHUNK_CELLS", 23 * 1000)
    for g in (_with_isolated_rows(), GRAPHS["skew"](), GRAPHS["pa"](),
              _unsorted_neighbors(GRAPHS["pa"]())):
        _assert_batch_matches(g, _spread_roots(g, 70, seed=3))
    g = gen.citation_graph(150, seed=4, symmetrize=False)
    _assert_batch_matches(g, _spread_roots(g, 70, seed=5))


def test_directed_graph_wider_than_a_lane_word():
    g = gen.citation_graph(150, seed=4, symmetrize=False)
    assert g.directed
    roots = _spread_roots(g, 97, seed=6)
    batch = run_swarm(g, roots, config=FrontierConfig(mode="pull"))
    for root, res in zip(roots, batch):
        assert res.pulls == 0
        assert_lane_identical(
            res, run_frontier(g, root, config=FrontierConfig(mode="pull")))
