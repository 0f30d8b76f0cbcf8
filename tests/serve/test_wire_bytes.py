"""Wire bytes: every served ``result`` is the direct payload's JSON text.

Reads raw response lines off the socket (no client-side decoding), so
the check is byte for byte, and watches what the server settles: the
executor's text, never a dict the event loop would have to serialize.
"""

import asyncio

import numpy as np

from repro.core.config import ServeConfig
from repro.graphs import generators as gen
from repro.serve.exec import execute_query
from repro.serve.protocol import Request, encode_request, payload_to_json

from tests.serve.conftest import serve_session

_RESULT = b',"ok":true,"result":'


def _graphs():
    return {
        # Directed: most roots reach only part of the graph.
        "cite": gen.citation_graph(300, seed=5, symmetrize=False),
        "road": gen.road_network(400, seed=7),
    }


def _result_bytes(line: bytes) -> bytes:
    start = line.index(_RESULT) + len(_RESULT)
    return line[start:line.rindex(b',"cached":')]


async def _raw_round_trip(socket_path, requests):
    """Send every request, then read one raw line per request."""
    reader, writer = await asyncio.open_unix_connection(socket_path)
    try:
        writer.write(b"".join(encode_request(r) for r in requests))
        await writer.drain()
        lines = [await asyncio.wait_for(reader.readline(), 60)
                 for _ in requests]
    finally:
        writer.close()
        await writer.wait_closed()
    return {int(line.split(b'"id":')[1].split(b",")[0]): line
            for line in lines}


def _watch_settle(server):
    """Record the type of every answer the server settles."""
    kinds = []
    settle = server._settle

    def spy(entry, pendings, results, width):
        kinds.extend(type(r) for r in results)
        return settle(entry, pendings, results, width)

    server._settle = spy
    return kinds


def test_swarm_burst_wire_bytes_match_direct_encoding():
    graphs = _graphs()
    roots = {name: np.random.default_rng(3).choice(
        g.n_vertices, 64, replace=False).tolist()
        for name, g in graphs.items()}

    async def scenario(server, socket_path, **_):
        kinds = _watch_settle(server)
        out = {}
        for name in graphs:
            reqs = [Request(op="dfs", id=i, graph=name, root=r)
                    for i, r in enumerate(roots[name])]
            out[name] = await _raw_round_trip(socket_path, reqs)
        return out, kinds

    config = ServeConfig(batch_window=5.0, max_batch=64, jobs=0,
                         cache_dir="off", backend="swarm")
    served, kinds = serve_session(scenario, graphs=graphs, config=config,
                                  connect=False)
    assert kinds and all(k is str for k in kinds)
    for name, g in graphs.items():
        for i, root in enumerate(roots[name]):
            line = served[name][i]
            assert b'"batch":64' in line        # one 64-lane swarm
            direct = payload_to_json(
                execute_query(g, "dfs", root, None, backend="swarm"))
            assert _result_bytes(line) == direct.encode("utf-8")


def test_config_dfs_query_wire_bytes_match_direct_encoding():
    graphs = _graphs()
    config = {"seed": 3, "n_blocks": 2}

    async def scenario(server, socket_path, **_):
        kinds = _watch_settle(server)
        reqs = [Request(op="dfs", id=i, graph="road", root=5,
                        config=config) for i in range(2)]
        first = await _raw_round_trip(socket_path, reqs[:1])
        again = await _raw_round_trip(socket_path, reqs[1:])   # cache hit
        return first[0], again[1], kinds

    first, hit, kinds = serve_session(
        scenario, graphs=graphs, config=ServeConfig(
            batch_window=0.01, max_batch=8, jobs=0, cache_dir="off"),
        connect=False)
    assert kinds == [str]
    direct = payload_to_json(
        execute_query(graphs["road"], "dfs", 5, config)).encode("utf-8")
    assert b'"cached":false' in first and b'"cached":true' in hit
    assert _result_bytes(first) == direct
    assert _result_bytes(hit) == direct
