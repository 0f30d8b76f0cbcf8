"""End-to-end daemon tests: real socket, real protocol, full stack."""

import asyncio
import json

import numpy as np
import pytest

from repro.core.config import DiggerBeesConfig, ServeConfig
from repro.core.diggerbees import run_diggerbees
from repro.errors import ServeError
from repro.graphs import generators as gen
from repro.serve.client import AsyncServeClient
from repro.serve.protocol import dfs_result_to_dict

from tests.serve.conftest import serve_session


# ---------------------------------------------------------------------------
# Query round trips.
# ---------------------------------------------------------------------------

def test_dfs_roundtrip_matches_direct_execution():
    async def scenario(client, corpus, **_):
        resp = await client.dfs("tree", 0)
        expected = dfs_result_to_dict(
            run_diggerbees(corpus.get("tree").graph, 0))
        assert resp.ok and resp.result == expected
        return resp

    resp = serve_session(scenario)
    assert not resp.cached


def test_all_app_ops_roundtrip():
    async def scenario(client, **_):
        scc = await client.query("scc", "dag")
        assert scc.result["n_components"] >= 1
        topo = await client.query("toposort", "dag")
        assert (topo.result["order"] is None) != (
            topo.result["cycle"] is None)
        cyc = await client.query("cycles", "tree")
        assert cyc.result["has_cycle"] is False
        bic = await client.query("biconnectivity", "tree")
        assert bic.result["n_components"] >= 1
        span = await client.query("spanning", "path")
        assert span.result["n_components"] == 1

    serve_session(scenario)


def test_cache_hit_is_identical_and_flagged():
    async def scenario(client, server, **_):
        first = await client.dfs("path", 0)
        second = await client.dfs("path", 0)
        assert not first.cached and second.cached
        assert first.result == second.result
        assert server.stats.cache_hits == 1
        third = await client.dfs("path", 0, no_cache=True)
        assert not third.cached and third.result == first.result

    serve_session(scenario)


def test_concurrent_dfs_queries_run_unbatched():
    """Under backend="dfs" admission holds nothing: concurrent queries
    each run alone (batch == 1) and answer exactly like a direct run."""
    async def scenario(client, server, corpus, **_):
        resps = await asyncio.gather(*[
            client.dfs("tree", r, no_cache=True) for r in range(6)])
        assert all(r.ok for r in resps)
        assert {r.batch for r in resps} == {1}
        assert server.stats.swarm_batches == 0
        assert server.stats.batches == 6
        graph = corpus.get("tree").graph
        for root, resp in enumerate(resps):
            assert resp.result == dfs_result_to_dict(
                run_diggerbees(graph, root))

    serve_session(scenario)


def test_identical_inflight_queries_singleflight():
    async def scenario(client, server, **_):
        resps = await asyncio.gather(*[
            client.dfs("tree", 2) for _ in range(8)])
        assert len({json.dumps(r.result, sort_keys=True)
                    for r in resps}) == 1
        assert server.stats.coalesced >= 1
        # Only one real execution happened for the eight requests.
        assert server.stats.cache_misses + server.stats.cache_hits == 8
        assert server.stats.batched_queries == 1

    serve_session(scenario)


def test_out_of_order_responses_correlate_by_id():
    async def scenario(client, **_):
        slow = asyncio.ensure_future(client.dfs("tree", 1))  # miss
        await client.dfs("tree", 1, no_cache=False)          # coalesces
        fast = await client.query("scc", "dag")              # app op
        assert fast.ok
        resp = await slow
        assert resp.ok

    serve_session(scenario)


# ---------------------------------------------------------------------------
# Error handling: per-request, daemon survives.
# ---------------------------------------------------------------------------

def test_error_responses_do_not_kill_the_daemon():
    async def scenario(client, **_):
        with pytest.raises(ServeError, match="unknown graph"):
            await client.dfs("nope", 0)
        with pytest.raises(ServeError, match="out of range"):
            await client.dfs("path", 10_000)
        with pytest.raises(ServeError, match="unknown engine-config"):
            await client.dfs("path", 0, config={"warp_speed": 9})
        with pytest.raises(ServeError):
            await client.query("scc", "tree")   # undirected -> error
        resp = await client.dfs("path", 0)      # still serving
        assert resp.ok

    serve_session(scenario)


def test_retired_loop_knobs_get_unknown_field_errors():
    """The execution path is not a request knob: the retired turbo,
    hive_steal, scheduler and fastpath engine-config fields are rejected
    per request, and DiggerBeesConfig itself no longer has them."""
    retired = (("turbo", True), ("hive_steal", "scalar"),
               ("scheduler", "heap"), ("fastpath", False))
    for field, value in retired:
        with pytest.raises(TypeError):
            DiggerBeesConfig(**{field: value})

    async def scenario(client, **_):
        for field, value in retired:
            with pytest.raises(ServeError,
                               match="unknown engine-config"):
                await client.dfs("path", 0, config={field: value})
        resp = await client.dfs("path", 0)      # still serving
        assert resp.ok

    serve_session(scenario)


def test_bad_root_inside_batch_fails_only_that_request():
    async def scenario(client, **_):
        good = [client.dfs("tree", r, no_cache=True) for r in (0, 1)]
        bad = client.dfs("tree", 10_000, no_cache=True)
        results = await asyncio.gather(*good, bad, return_exceptions=True)
        assert results[0].ok and results[1].ok
        assert isinstance(results[2], ServeError)

    serve_session(scenario)


def test_malformed_line_gets_error_response_and_connection_survives():
    async def scenario(client, socket_path, **_):
        reader, writer = await asyncio.open_unix_connection(socket_path)
        writer.write(b'{"op": "dfs", "id": "x1"}\n')   # missing graph
        await writer.drain()
        line = json.loads(await reader.readline())
        assert line["ok"] is False and line["id"] == "x1"
        writer.write(b"this is not json\n")
        await writer.drain()
        line = json.loads(await reader.readline())
        assert line["ok"] is False
        writer.write(b'{"op": "ping", "id": "x2"}\n')  # still usable
        await writer.drain()
        line = json.loads(await reader.readline())
        assert line["ok"] is True and line["id"] == "x2"
        writer.close()
        await writer.wait_closed()

    serve_session(scenario)


# ---------------------------------------------------------------------------
# Control ops.
# ---------------------------------------------------------------------------

def test_status_and_graphs_payloads():
    async def scenario(client, **_):
        await client.dfs("path", 0)
        status = await client.status()
        assert set(status["graphs"]) == {"path", "tree", "dag"}
        assert status["stats"]["requests"] >= 1
        assert status["config"]["max_batch"] == 8
        graphs = await client.graphs()
        by_name = {g["name"]: g for g in graphs}
        assert by_name["path"]["n_vertices"] == 48
        assert by_name["dag"]["directed"] is True

    serve_session(scenario)


def test_add_graph_then_query_and_idempotent_readd():
    async def scenario(client, corpus, **_):
        g = gen.path_graph(10)
        resp = await client.add_graph("fresh", g.row_ptr, g.column_idx)
        assert resp.result["added"] == "fresh"
        before = corpus.get("fresh").fingerprint
        r = await client.dfs("fresh", 0)
        assert r.result["n_visited"] == 10
        # Same content: idempotent.
        await client.add_graph("fresh", g.row_ptr, g.column_idx)
        assert corpus.get("fresh").fingerprint == before
        # Different content under the same name: replaced, cache keyed
        # by the new fingerprint (old entries unreachable).
        g2 = gen.path_graph(12)
        await client.add_graph("fresh", g2.row_ptr, g2.column_idx)
        assert corpus.get("fresh").fingerprint != before
        r2 = await client.dfs("fresh", 0)
        assert r2.result["n_visited"] == 12 and not r2.cached

    serve_session(scenario)


def test_add_graph_rejects_bad_payloads():
    from repro.serve.protocol import Request

    async def scenario(client, **_):
        resp = await client.request(
            Request(op="add_graph", payload={"name": "x"}))
        assert not resp.ok and "missing" in resp.error["message"]
        with pytest.raises(ServeError):
            await client.add_graph("bad", [0, 5], [1])  # inconsistent CSR

    serve_session(scenario)


def test_add_graph_rejects_asymmetric_undirected_csr():
    """One-way arcs in a ``directed: false`` graph would make swarm and
    frontier answers (so the answer per flush width) disagree."""
    from repro.graphs.csr import from_edges

    arcs = [(4, 3), (5, 1), (6, 0), (5, 0), (0, 2), (7, 4)]
    one_way = from_edges(10, arcs)

    async def scenario(client, **_):
        with pytest.raises(ServeError, match="without its reverse"):
            await client.add_graph("oneway", one_way.row_ptr,
                                   one_way.column_idx)
        graphs = await client.graphs()
        assert "oneway" not in {g["name"] for g in graphs}
        # The same arcs are fine as a directed graph or symmetrized.
        await client.add_graph("oneway", one_way.row_ptr,
                               one_way.column_idx, directed=True)
        sym = one_way.symmetrize()
        await client.add_graph("both", sym.row_ptr, sym.column_idx)

    serve_session(scenario)


def test_shutdown_op_stops_the_server():
    async def scenario(client, server, **_):
        resp = await client.shutdown()
        assert resp.result == {"stopping": True}
        await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)

    serve_session(scenario)


# ---------------------------------------------------------------------------
# Invariance: responses do not depend on (jobs, window, max_batch).
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("window,max_batch,jobs", [
    (0.0, 1, 0),      # no coalescing at all
    (0.02, 4, 0),     # batched in-process
    (0.0, 1, 1),      # scalar through the worker pool
    (0.02, 4, 2),     # batched through the worker pool (shm hand-off)
])
def test_responses_invariant_to_execution_shape(window, max_batch, jobs):
    graphs = {"g": gen.binary_tree(4)}
    expected = [
        dfs_result_to_dict(run_diggerbees(graphs["g"], r,
                                          config=_cfg()))
        for r in range(4)
    ]

    async def scenario(client, **_):
        resps = await asyncio.gather(*[
            client.dfs("g", r, config={"seed": 5}, no_cache=True)
            for r in range(4)])
        return [r.result for r in resps]

    got = serve_session(
        scenario, graphs=graphs, share=jobs > 0,
        config=ServeConfig(batch_window=window, max_batch=max_batch,
                           jobs=jobs, cache_dir="off"))
    assert got == expected


def _cfg():
    from repro.core.config import DiggerBeesConfig

    return DiggerBeesConfig(seed=5)


def test_visited_payload_reconstructs_dense_array():
    async def scenario(client, corpus, **_):
        resp = await client.dfs("tree", 3)
        g = corpus.get("tree").graph
        direct = run_diggerbees(g, 3)
        dense = np.zeros(g.n_vertices, bool)
        dense[resp.result["visited"]] = True
        assert np.array_equal(dense, direct.traversal.visited)
        assert resp.result["parent"] == direct.traversal.parent.tolist()

    serve_session(scenario)
