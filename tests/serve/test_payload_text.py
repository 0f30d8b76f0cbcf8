"""Payload text encoders: byte-identical to ``json.dumps`` of the dicts.

The daemon serializes every traversal payload with the ``*_to_json``
encoders of :mod:`repro.serve.protocol` (a swarm batch in one
vectorized pass over all lanes); the ``*_to_dict`` builders plus
``json.dumps(..., separators=(",", ":"))`` are the oracle.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diggerbees import run_diggerbees
from repro.core.frontier import FrontierResult, run_frontier
from repro.core.shard import run_sharded
from repro.core.swarm import run_swarm
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.serve import protocol
from repro.serve.protocol import (
    dfs_result_to_dict,
    dfs_result_to_json,
    frontier_result_to_dict,
    frontier_results_to_json,
    payload_to_json,
    sharded_result_to_dict,
    sharded_result_to_json,
)
from repro.validate.reference import (
    ROOT_PARENT,
    UNVISITED_PARENT,
    TraversalResult,
)

from tests.core.test_swarm import _unsorted_neighbors

SIZES = (0, 1, 9, 10, 11, 99, 100, 101, 1000)
WIDTHS = (1, 63, 64, 65, 129)


def _oracle(results, backend="swarm"):
    return [json.dumps(frontier_result_to_dict(r, backend=backend),
                       separators=(",", ":")) for r in results]


def _synthetic_lanes(n, width, rng, full_share):
    """``width`` lanes as column views of shared ``(n, width)`` matrices
    (the layout ``run_swarm`` hands out): random parents over the whole
    value range -2..n-1, some lanes reaching every vertex."""
    parent = rng.integers(-2, max(n, 1), size=(n, width))
    visited = rng.random((n, width)) < rng.random(width)
    visited[:, rng.random(width) < full_share] = True
    roots = rng.integers(0, max(n, 1), size=width)
    if n:
        roots[width // 2:] = roots[0]           # duplicate roots
    out = []
    for b in range(width):
        if n:
            parent[roots[b], b] = ROOT_PARENT
            visited[roots[b], b] = True
            parent[~visited[:, b], b] = UNVISITED_PARENT
        t = TraversalResult(root=int(roots[b]), visited=visited[:, b],
                            parent=parent[:, b],
                            order=np.empty(0, dtype=np.int64),
                            edges_traversed=int(rng.integers(0, 10**6)))
        out.append(FrontierResult(
            traversal=t, level=np.zeros(n, dtype=np.int64),
            n_levels=int(rng.integers(0, 50)),
            pushes=int(rng.integers(0, 50)),
            pulls=int(rng.integers(0, 50)),
            edges_scanned=t.edges_traversed, seconds=0.0))
    return out


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("width", WIDTHS)
def test_lane_encoder_matches_oracle_on_synthetic_lanes(n, width):
    rng = np.random.default_rng([n, width])
    lanes = _synthetic_lanes(n, width, rng, full_share=0.3)
    assert frontier_results_to_json(lanes, "swarm") == _oracle(lanes)


@given(n=st.sampled_from(SIZES), width=st.integers(1, 70),
       seed=st.integers(0, 2**32 - 1),
       full_share=st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=40, deadline=None)
def test_lane_encoder_property(n, width, seed, full_share):
    lanes = _synthetic_lanes(n, width, np.random.default_rng(seed),
                             full_share)
    assert frontier_results_to_json(lanes, "swarm") == _oracle(lanes)


def test_chunked_gather_matches_one_pass(monkeypatch):
    """Lane chunks (the gather's memory cap) never change the text."""
    lanes = _synthetic_lanes(101, 65, np.random.default_rng(5), 0.5)
    whole = frontier_results_to_json(lanes, "swarm")
    monkeypatch.setattr(protocol, "_ENCODE_CHUNK_CELLS", 1)
    assert frontier_results_to_json(lanes, "swarm") == whole
    monkeypatch.setattr(protocol, "_ENCODE_CHUNK_CELLS", 101 * 4 * 7)
    assert frontier_results_to_json(lanes, "swarm") == whole


def test_out_of_range_parent_rejected():
    lanes = _synthetic_lanes(10, 2, np.random.default_rng(1), 0.0)
    lanes[1].traversal.parent[3] = -3
    with pytest.raises(ValueError):
        frontier_results_to_json(lanes)


def test_token_table_is_a_bounded_cache():
    protocol._token_table.cache_clear()
    for n in range(10):
        protocol._token_table(n)
    assert protocol._token_table.cache_info().currsize <= 4


def _engine_graphs():
    return {
        "road": gen.road_network(300, seed=2),
        "skew": gen.skewed_tree(200, seed=4),
        "directed": gen.citation_graph(101, seed=3, symmetrize=False),
        "shuffled": _unsorted_neighbors(
            gen.star_mesh(9, leaves_per_hub=10, seed=6)),
        "edgeless": CSRGraph(np.zeros(11, dtype=np.int64),
                             np.zeros(0, dtype=np.int64)),
    }


@pytest.mark.parametrize("name", sorted(_engine_graphs()))
@pytest.mark.parametrize("width", WIDTHS)
def test_swarm_lanes_match_oracle(name, width):
    g = _engine_graphs()[name]
    rng = np.random.default_rng(width)
    roots = rng.integers(0, g.n_vertices, size=width).tolist()
    res = run_swarm(g, roots)
    assert frontier_results_to_json(res, "swarm") == _oracle(res)


@pytest.mark.parametrize("name", sorted(_engine_graphs()))
def test_single_result_encoders_match_oracle(name):
    g = _engine_graphs()[name]
    for root in (0, g.n_vertices - 1):
        fr = run_frontier(g, root)
        assert frontier_results_to_json([fr]) == _oracle([fr], "frontier")
        d = run_diggerbees(g, root)
        assert dfs_result_to_json(d) == payload_to_json(
            dfs_result_to_dict(d))


def test_sharded_encoder_matches_oracle():
    g = gen.road_network(400, seed=3)
    for root in (0, 399):
        res = run_sharded(g, root, k=2, jobs=0)
        assert sharded_result_to_json(res) == payload_to_json(
            sharded_result_to_dict(res))


def test_payload_to_json_is_compact_dumps():
    payload = {"order": [3, 1, 2], "cycle": None, "n": 3}
    assert payload_to_json(payload) == '{"order":[3,1,2],"cycle":null,"n":3}'
