"""The traced launcher: spans of a live daemon, and a clean restore."""

import asyncio
import json

import pytest

from launcher import Tracer, main
from metrics import self_times
from tracing import chrome_events, layer_metrics


def _targets():
    from repro.core import diggerbees, dispatch, frontier, hive, swarm
    from repro.serve import server
    from repro.serve.admission import BatchPolicy
    from repro.serve.cache import GraphResultCache
    from repro.serve.corpus import ResidentCorpus

    return [
        (server, "decode_request"), (server, "encode_response"),
        (server, "encode_response_with_raw_result"),
        (server, "execute_dfs_batch"), (server, "execute_query"),
        (GraphResultCache, "get"), (GraphResultCache, "put"),
        (ResidentCorpus, "add"), (dispatch, "choose_backend"),
        (dispatch, "graph_regime"), (BatchPolicy, "add"),
        (BatchPolicy, "due"), (BatchPolicy, "flush_all"),
        (diggerbees, "run_diggerbees"), (hive, "run_hive"),
        (swarm, "run_swarm"), (frontier, "run_frontier"),
    ]


def _snapshot():
    return [owner.__dict__[attr] for owner, attr in _targets()]


async def _traced_session(tmp_path, backend):
    from repro.core.config import ServeConfig
    from repro.graphs import generators as gen
    from repro.serve.client import AsyncServeClient
    from repro.serve.corpus import ResidentCorpus
    from repro.serve.server import ServeServer

    corpus = ResidentCorpus(share=False)
    corpus.add(gen.binary_tree(6), "tree")
    corpus.add(gen.star_mesh(6, leaves_per_hub=9, seed=7), "star")
    server = ServeServer(corpus, ServeConfig(
        batch_window=0.01, max_batch=4, jobs=0, cache_dir="off",
        backend=backend))
    sock = str(tmp_path / "t.sock")
    await server.start(sock)
    client = await AsyncServeClient().connect(sock)
    try:
        cfg = {"n_blocks": 2, "warps_per_block": 2}
        await asyncio.gather(*[client.dfs("tree", r, config=cfg)
                               for r in range(4)])
        await asyncio.gather(*[client.dfs("star", r) for r in range(6)])
        await client.dfs("star", 0)      # a cache hit
    finally:
        await client.close()
        await server.stop()
        corpus.close()


def _traced_spans(tmp_path, backend):
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(_snapshot(), before))
        asyncio.run(_traced_session(tmp_path, backend))
    finally:
        tracer.restore()
    assert all(a is b for a, b in zip(_snapshot(), before))
    assert "MainThread" in tracer.threads.values()
    return tracer.as_dicts()


def test_traced_server_records_every_layer(tmp_path):
    spans = _traced_spans(tmp_path, "auto")
    names = {s["name"] for s in spans}
    assert {"corpus.add", "protocol.decode", "protocol.encode",
            "cache.get", "cache.put", "dispatch.choose", "dispatch.regime",
            "admission.wait", "exec.queue", "exec.batch"} <= names
    # Config-carrying queries are pinned to DFS and coalesce in a hive.
    assert "hive.run" in names
    assert "swarm.run" in names
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"] in ("hive.run", "swarm.run", "dfs.run"):
            assert by_id[s["parent"]]["name"] == "exec.batch"
            assert s["bid"] == by_id[s["parent"]]["bid"] is not None
    decoded = [s["rid"] for s in spans if s["name"] == "cache.get"]
    assert all(rid is not None for rid in decoded)
    lo = min(s["start"] for s in spans)
    hi = max(s["end"] for s in spans)
    out = layer_metrics(spans, (lo, hi), answered=11)
    assert out["hive.calls"] >= 1 and out["hive.width_mean"] >= 2
    assert out["cache.hit_ratio"] > 0
    assert out["dispatch.share_dfs"] + out["dispatch.share_swarm"] \
        + out["dispatch.share_frontier"] == pytest.approx(1.0)
    assert out["self.exec_ms"] >= 0 and out["self.hive_ms"] > 0
    assert all(v >= 0 for v in self_times(spans).values())


def test_chrome_export_is_complete_events(tmp_path):
    spans = _traced_spans(tmp_path, "dfs")
    t0 = min(s["start"] for s in spans)
    events = chrome_events(spans, t0, [("fixed", t0, t0 + 1.0)])
    json.dumps(events)
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == len(spans) + 1
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
    assert {e["pid"] for e in complete} == {1, 2}


def test_launcher_restores_wrappers_and_writes_spans(tmp_path):
    before = _snapshot()
    out = tmp_path / "spans.json"
    with pytest.raises(SystemExit):
        main(["--spans", str(out), "--", "no-such-subcommand"])
    assert all(a is b for a, b in zip(_snapshot(), before))
    assert json.loads(out.read_text()) == {"spans": [], "threads": {}}


def test_launcher_usage_error():
    assert main(["--spans"]) == 2
