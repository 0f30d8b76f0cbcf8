"""Wire protocol of the traversal service: newline-delimited JSON.

One request per line, one response per line, UTF-8, over a local
stream socket.  Requests carry a client-chosen ``id`` that the matching
response echoes; responses may arrive out of request order (the daemon
answers cache hits immediately while batched queries are still in
flight), so pipelining clients must correlate by ``id``.

Request fields
--------------
``op``        one of :data:`OPS` (required)
``id``        opaque correlation token (any JSON scalar; echoed back)
``graph``     resident graph name (query ops)
``root``      source vertex for rooted ops (``dfs``, ``cycles``)
``config``    :class:`~repro.core.config.DiggerBeesConfig` field
              overrides for ``dfs`` (dict; omitted = daemon default)
``payload``   op-specific extras (``add_graph`` carries the CSR arrays)
``no_cache``  bypass the result cache for this request

Response fields
---------------
``id``/``op``    echoed from the request
``ok``           True on success
``result``       op result payload (see the ``*_result`` helpers)
``error``        ``{"type", "message"}`` when ``ok`` is false
``cached``       result came from the per-graph memo
``batch``        lockstep width of the swarm batch that computed it
                 (1 for every query that runs alone)
``elapsed_ms``   daemon-side time from admission to completion

The result payloads are **canonical**: every array is a plain list,
counter dicts are string-keyed, and the encoders below are used by both
the daemon and the direct execution path, so "bit-identical to direct
execution" is a straight ``==`` on the decoded payloads (the serve-diff
oracle rung and the load-test ``--verify`` mode both rely on this).
The daemon sends the text of the ``*_to_json`` encoders, which is
byte-identical to ``json.dumps`` of the ``*_to_dict`` payloads with
compact separators.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "QUERY_OPS",
    "CONTROL_OPS",
    "OPS",
    "ROOTED_OPS",
    "Request",
    "Response",
    "encode_request",
    "decode_request",
    "encode_response",
    "encode_response_with_raw_result",
    "decode_response",
    "error_response",
    "dfs_result_to_dict",
    "frontier_result_to_dict",
    "sharded_result_to_dict",
    "counters_to_wire",
    "payload_to_json",
    "dfs_result_to_json",
    "frontier_results_to_json",
    "sharded_result_to_json",
]

PROTOCOL_VERSION = 1

#: Hard cap on one protocol line; longer lines indicate a broken client
#: (or an attempt to feed the daemon an absurd graph) and are rejected.
MAX_LINE_BYTES = 64 * 1024 * 1024

QUERY_OPS = ("dfs", "scc", "toposort", "cycles", "biconnectivity",
             "spanning")
CONTROL_OPS = ("status", "graphs", "add_graph", "ping", "shutdown")
OPS = QUERY_OPS + CONTROL_OPS

#: Query ops whose result depends on the ``root`` field.
ROOTED_OPS = ("dfs", "cycles")


@dataclass(frozen=True)
class Request:
    """One decoded client request."""

    op: str
    id: Any = None
    graph: Optional[str] = None
    root: int = 0
    config: Optional[Dict[str, Any]] = None
    payload: Optional[Dict[str, Any]] = None
    no_cache: bool = False

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ProtocolError(f"unknown op {self.op!r}; known: {OPS}")
        if self.op in QUERY_OPS and not self.graph:
            raise ProtocolError(f"op {self.op!r} requires a graph name")
        if not isinstance(self.root, int) or isinstance(self.root, bool):
            raise ProtocolError(f"root must be an integer, got {self.root!r}")
        if self.config is not None and not isinstance(self.config, dict):
            raise ProtocolError("config must be an object of "
                                "DiggerBeesConfig overrides")
        if self.payload is not None and not isinstance(self.payload, dict):
            raise ProtocolError("payload must be an object")


@dataclass(frozen=True)
class Response:
    """One decoded daemon response."""

    op: str
    id: Any = None
    ok: bool = True
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, str]] = None
    cached: bool = False
    batch: int = 1
    elapsed_ms: float = 0.0


_REQUEST_KEYS = ("op", "id", "graph", "root", "config", "payload",
                 "no_cache")
_RESPONSE_KEYS = ("op", "id", "ok", "result", "error", "cached", "batch",
                  "elapsed_ms")


def encode_request(req: Request) -> bytes:
    d: Dict[str, Any] = {"op": req.op}
    if req.id is not None:
        d["id"] = req.id
    if req.graph is not None:
        d["graph"] = req.graph
    if req.root:
        d["root"] = req.root
    if req.config is not None:
        d["config"] = req.config
    if req.payload is not None:
        d["payload"] = req.payload
    if req.no_cache:
        d["no_cache"] = True
    return (json.dumps(d, separators=(",", ":")) + "\n").encode("utf-8")


def _decode_line(line: bytes, what: str) -> Dict[str, Any]:
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"{what} line exceeds {MAX_LINE_BYTES} bytes")
    try:
        data = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed {what} line: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError(f"{what} must be a JSON object, "
                            f"got {type(data).__name__}")
    return data


def decode_request(line: bytes) -> Request:
    data = _decode_line(line, "request")
    if "op" not in data:
        raise ProtocolError("request is missing 'op'")
    unknown = set(data) - set(_REQUEST_KEYS)
    if unknown:
        raise ProtocolError(f"unknown request field(s) {sorted(unknown)}")
    try:
        return Request(**data)
    except TypeError as exc:
        raise ProtocolError(f"bad request: {exc}") from None


def encode_response(resp: Response) -> bytes:
    d: Dict[str, Any] = {"op": resp.op, "id": resp.id, "ok": resp.ok}
    if resp.ok:
        d["result"] = resp.result
    else:
        d["error"] = resp.error
    d["cached"] = resp.cached
    d["batch"] = resp.batch
    d["elapsed_ms"] = resp.elapsed_ms
    return (json.dumps(d, separators=(",", ":")) + "\n").encode("utf-8")


def encode_response_with_raw_result(resp: Response, raw_result: str) -> bytes:
    """Encode a success response around an already-serialized result.

    The daemon memoizes the JSON serialization of each cached result so
    a cache hit does not re-``dumps`` a multi-thousand-entry parent list
    per request — at load-test rates that serialization dominates the
    hit path.  Produces byte-compatible output with
    :func:`encode_response` (the protocol tests assert it).
    """
    head = json.dumps({"op": resp.op, "id": resp.id},
                      separators=(",", ":"))[:-1]
    tail = json.dumps({"cached": resp.cached, "batch": resp.batch,
                       "elapsed_ms": resp.elapsed_ms},
                      separators=(",", ":"))[1:]
    return (head + ',"ok":true,"result":' + raw_result + "," +
            tail + "\n").encode("utf-8")


def decode_response(line: bytes) -> Response:
    data = _decode_line(line, "response")
    unknown = set(data) - set(_RESPONSE_KEYS)
    if unknown:
        raise ProtocolError(f"unknown response field(s) {sorted(unknown)}")
    if "op" not in data or "ok" not in data:
        raise ProtocolError("response is missing 'op'/'ok'")
    return Response(**data)


def error_response(req: Optional[Request], exc: BaseException, *,
                   op: str = "?", req_id: Any = None) -> Response:
    """Build the error response for ``exc`` (request may be undecodable)."""
    if req is not None:
        op, req_id = req.op, req.id
    return Response(op=op, id=req_id, ok=False,
                    error={"type": type(exc).__name__,
                           "message": str(exc)})


# ---------------------------------------------------------------------------
# Canonical result payloads.
# ---------------------------------------------------------------------------

def counters_to_wire(counters) -> Dict[str, Any]:
    """JSON-safe, canonical form of a :class:`~repro.sim.trace.SimCounters`.

    Dict-valued counters get string keys (JSON objects cannot key on
    ints or tuples); scalar counters stay ints.  Both the daemon and the
    serve-diff oracle canonicalize through this function, so equality of
    the wire forms is equality of the counters.
    """
    out: Dict[str, Any] = {}
    for k, v in vars(counters).items():
        if isinstance(v, dict):
            out[k] = {_dict_key(dk): int(dv) for dk, dv in sorted(v.items())}
        else:
            out[k] = int(v)
    return out


def _dict_key(k) -> str:
    if isinstance(k, tuple):
        return ",".join(str(int(x)) for x in k)
    return str(int(k))


def _traversal_head(t) -> Dict[str, Any]:
    """Leading keys of every traversal payload (dense ``parent``, sparse
    ``visited``); :func:`_traversals_to_json` writes the same keys as
    text."""
    return {
        "n_vertices": int(t.parent.shape[0]),
        "root": int(t.root),
        "parent": t.parent.tolist(),
        "visited": np.flatnonzero(t.visited).tolist(),
    }


def _dfs_tail(res) -> Dict[str, Any]:
    t = res.traversal
    return {
        "n_visited": int(t.n_visited),
        "edges_traversed": int(t.edges_traversed),
        "cycles": int(res.cycles),
        "steps": int(res.engine.steps),
        "counters": counters_to_wire(res.counters),
    }


def _sharded_tail(res) -> Dict[str, Any]:
    return {
        **_dfs_tail(res),
        "backend": "shard",
        "shards": int(res.k),
        "rounds": int(res.n_rounds),
    }


def _frontier_tail(res, backend: str) -> Dict[str, Any]:
    t = res.traversal
    return {
        "n_visited": int(t.n_visited),
        "edges_traversed": int(t.edges_traversed),
        "backend": backend,
        "n_levels": int(res.n_levels),
        "pushes": int(res.pushes),
        "pulls": int(res.pulls),
    }


def dfs_result_to_dict(res) -> Dict[str, Any]:
    """Canonical payload of one :class:`DiggerBeesResult`.

    ``visited`` is sent sparse (indices of visited vertices) — dense
    bool lists would dominate the payload on mostly-unreachable graphs —
    together with ``n_vertices`` so the dense array is recoverable.
    """
    return {**_traversal_head(res.traversal), **_dfs_tail(res)}


def sharded_result_to_dict(res) -> Dict[str, Any]:
    """Canonical payload of one :class:`~repro.core.shard.ShardedResult`.

    Shares the DFS payload keys (sparse ``visited``, dense ``parent``,
    modeled ``cycles``/``steps``, wire counters) and adds the shard-tier
    extras: a ``backend`` marker, the district count, and the number of
    message-passing rounds.  The traversal portion is the canonical
    sharded merge — reachable set bit-identical to the unsharded engine,
    parent the deterministic min-parent tree — so the payload is a pure
    function of (graph, root) for any ``shards``/``jobs``; only
    ``cycles``/``rounds``/counters carry the protocol's modeled cost,
    which is why the shard tier gets its own result-cache key.
    """
    return {**_traversal_head(res.traversal), **_sharded_tail(res)}


def frontier_result_to_dict(res, backend: str = "frontier"
                            ) -> Dict[str, Any]:
    """Canonical payload of one :class:`~repro.core.frontier.FrontierResult`.

    Shares the traversal keys with :func:`dfs_result_to_dict` (sparse
    ``visited``, dense ``parent``); instead of simulated cycles/steps it
    carries the frontier engine's level profile, plus a ``backend``
    marker so clients can tell which engine family answered — the swarm
    tier passes ``backend="swarm"`` (its lanes are bit-identical to
    single-root frontier runs, so everything except the marker matches).
    The payload is a pure function of the graph and root (the
    min-parent tie-break is deterministic), so it caches and replays
    like any DFS payload.
    """
    return {**_traversal_head(res.traversal), **_frontier_tail(res, backend)}


# ---------------------------------------------------------------------------
# Canonical payload text.
#
# The ``*_to_json`` encoders below are byte-identical to
# ``json.dumps(<the *_to_dict payload>, separators=(",", ":"))``, which
# stays the oracle.  They write ``parent`` and ``visited`` without
# boxing one Python int per vertex: every value's decimal text comes
# from a per-``n`` token table, gathered for all lanes at once.
# ---------------------------------------------------------------------------

_SEPARATORS = (",", ":")

#: Cap on the uint8 cells (lanes x values x token width) one gather of
#: :func:`_traversals_to_json` materializes; wider batches go in chunks.
_ENCODE_CHUNK_CELLS = 1 << 24


def payload_to_json(payload: Dict[str, Any]) -> str:
    """Canonical JSON text of any result payload dict."""
    return json.dumps(payload, separators=_SEPARATORS)


@functools.lru_cache(maxsize=4)
def _token_table(n: int):
    """``(table, lengths, full)``: decimal text of every value -2..n-1.

    Row ``v + 2`` of the zero-padded uint8 ``table`` holds the ASCII
    digits of ``v`` followed by a comma, and ``lengths[v + 2]`` its byte
    count.  ``full`` is the JSON text of ``[0, 1, ..., n-1]``, the
    ``visited`` list of every traversal that reached all vertices.
    """
    value = np.arange(n, dtype=np.int64)
    n_digits = np.ones(n, dtype=np.int64)
    power = 10
    while power < n:
        n_digits += value >= power
        power *= 10
    max_digits = int(n_digits.max(initial=1))
    table = np.zeros((n + 2, max(3, max_digits + 1)), dtype=np.uint8)
    table[0, :3] = np.frombuffer(b"-2,", dtype=np.uint8)
    table[1, :3] = np.frombuffer(b"-1,", dtype=np.uint8)
    body, row, rest = table[2:], np.arange(n), value.copy()
    for k in range(max_digits):          # least significant digit first
        col = n_digits - 1 - k
        has = col >= 0
        body[row[has], col[has]] = rest[has] % 10 + ord("0")
        rest //= 10
    body[row, n_digits] = ord(",")
    lengths = np.concatenate(([3, 3], n_digits + 1)).astype(np.uint8)
    table.setflags(write=False)
    lengths.setflags(write=False)
    full = ("[" + body.tobytes().translate(None, b"\0")
            .decode("ascii")[:-1] + "]" if n else "[]")
    return table, lengths, full


def _list_texts(table: np.ndarray, lengths: np.ndarray, rows: np.ndarray,
                counts: np.ndarray) -> List[str]:
    """One ``"[...]"`` text per lane from token ``rows`` laid out lane
    after lane, ``counts[i]`` of them for lane ``i``."""
    # Dropping the zero padding from the raw bytes is ~1.8x faster than
    # a boolean-mask compress of the gathered cells.
    text = (np.take(table, rows, axis=0).tobytes()
            .translate(None, b"\0").decode("ascii"))
    starts = np.cumsum(counts) - counts
    filled = counts > 0
    sizes = np.zeros(counts.size, dtype=np.int64)
    sizes[filled] = np.add.reduceat(np.take(lengths, rows), starts[filled],
                                    dtype=np.int64)
    bounds = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    bounds = bounds.tolist()
    # ``hi - 1`` drops each lane's trailing comma.
    return ["[" + text[lo:hi - 1] + "]" if hi > lo else "[]"
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _traversals_to_json(traversals: Sequence[Any],
                       tails: Sequence[Dict[str, Any]]) -> List[str]:
    """Canonical JSON text of many traversal payloads in one pass.

    ``traversals`` share one vertex count; ``tails`` are the payload
    keys after ``visited`` (see :func:`_frontier_tail`).  Lanes are
    stacked into ``(lanes, n)`` matrices, every value is gathered from
    the token table at once, the padding is dropped from the raw bytes,
    and the text is cut back into lanes by their byte lengths.
    A lane that reached every vertex shares the cached ``full`` text
    for ``visited``.
    """
    if not traversals:
        return []
    n = int(traversals[0].parent.shape[0])
    table, lengths, full = _token_table(n)
    chunk = max(1, _ENCODE_CHUNK_CELLS // max(1, n * table.shape[1]))
    parents: List[str] = []
    visiteds: List[str] = []
    for lo in range(0, len(traversals), chunk):
        lanes = traversals[lo:lo + chunk]
        parent = np.stack([t.parent for t in lanes])
        if parent.size and (parent.min() < -2 or parent.max() >= n):
            raise ValueError("parent values must lie in [-2, n)")
        parents += _list_texts(table, lengths, (parent + 2).ravel(),
                               np.full(len(lanes), n, dtype=np.int64))
        visited = np.stack([t.visited for t in lanes])
        reached = np.count_nonzero(visited, axis=1)
        texts = [full] * len(lanes)
        part = np.flatnonzero(reached < n)
        if part.size:
            _, cols = np.nonzero(visited[part])
            for i, text in zip(part.tolist(), _list_texts(
                    table, lengths, cols + 2, reached[part])):
                texts[i] = text
        visiteds += texts
    return ['{"n_vertices":%d,"root":%d,"parent":%s,"visited":%s,%s' % (
                n, int(t.root), parent_text, visited_text,
                payload_to_json(tail)[1:])
            for t, tail, parent_text, visited_text
            in zip(traversals, tails, parents, visiteds)]


def dfs_result_to_json(res) -> str:
    """Text of :func:`dfs_result_to_dict`, byte for byte."""
    return _traversals_to_json([res.traversal], [_dfs_tail(res)])[0]


def sharded_result_to_json(res) -> str:
    """Text of :func:`sharded_result_to_dict`, byte for byte."""
    return _traversals_to_json([res.traversal], [_sharded_tail(res)])[0]


def frontier_results_to_json(results: Sequence[Any],
                             backend: str = "frontier") -> List[str]:
    """Texts of :func:`frontier_result_to_dict` for every result (the
    lanes of one swarm batch, or one frontier run), byte for byte."""
    return _traversals_to_json([r.traversal for r in results],
                              [_frontier_tail(r, backend) for r in results])
