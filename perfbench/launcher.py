"""Traced daemon launcher: ``repro.serve start`` with layer spans.

Usage::

    python perfbench/launcher.py --spans OUT.json -- start --socket S ...

Before the server starts, :class:`Tracer` wraps the public functions of
each layer *where the caller looks them up*: ``repro.serve.server``
imports ``execute_dfs_batch``/``execute_query`` and the protocol codecs
by name, while ``serve.exec`` imports ``run_diggerbees``/``run_hive``/
``run_swarm``/``run_frontier`` lazily from their modules, and the cache,
admission and corpus layers are reached through their classes.  No
file under ``src/`` changes.

Each call records one span ``(name, start, end, thread, parent,
request id, batch id, args)`` in memory; the spans are written as JSON
when the daemon exits.  Times are ``time.monotonic()``, which is the
same system-wide clock the load generator stamps with.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Innermost open span of the current task/thread: (span id, rid, bid).
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(-1, None, None))


class Tracer:
    """Span recorder plus the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._admitted: Dict[int, float] = {}
        # (id of the graph, roots) of a flushed batch -> [(bid, flush
        # time)]; the daemon hands that same graph object to execution.
        self._flushed: Dict[Tuple[int, tuple], List[Tuple[int, float]]] = {}
        self._bids = itertools.count(1)
        self._restore: List[Tuple[Any, str, Any]] = []
        self.threads: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def _tid(self) -> int:
        tid = threading.get_ident()
        if tid not in self.threads:
            self.threads[tid] = threading.current_thread().name
        return tid

    def record(self, name: str, start: float, end: float, parent: int,
               rid: Any, bid: Optional[int], args: Optional[dict] = None
               ) -> None:
        self.spans.append([next(self._ids), name, start, end, self._tid(),
                           parent, rid, bid, args or {}])

    def span(self, name: str, fn: Callable,
             args_of: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so every call records a span named ``name``.

        ``args_of(result, *call_args)`` extracts span args from the
        result; ``before(*call_args)`` may return a batch id to attach.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            parent, rid, bid = _CURRENT.get()
            if before is not None:
                bid = before(*a) or bid
            sid = next(tracer._ids)
            token = _CURRENT.set((sid, rid, bid))
            start = time.monotonic()
            try:
                out = fn(*a, **kw)
            finally:
                end = time.monotonic()
                _CURRENT.reset(token)
            extra = args_of(out, *a) if args_of is not None else None
            tracer.spans.append([sid, name, start, end, tracer._tid(),
                                 parent, rid, bid, extra or {}])
            return out

        return wrapper

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point; :meth:`restore` undoes it."""
        from repro.core import diggerbees, dispatch, frontier, hive, swarm
        from repro.serve import server
        from repro.serve.admission import BatchPolicy
        from repro.serve.cache import GraphResultCache
        from repro.serve.corpus import ResidentCorpus

        def decoded(req, line):
            # Later spans of this request's task inherit its id.
            cur = _CURRENT.get()
            _CURRENT.set((cur[0], req.id, cur[2]))
            return {"bytes": len(line)}

        def encoded(out, resp, *rest):
            return {"op": resp.op, "bytes": len(out)}

        self._patch(server, "decode_request",
                    self.span("protocol.decode", server.decode_request,
                              decoded))
        for attr in ("encode_response", "encode_response_with_raw_result"):
            self._patch(server, attr, self.span(
                "protocol.encode", getattr(server, attr), encoded))

        self._patch(GraphResultCache, "get", self.span(
            "cache.get", GraphResultCache.get,
            lambda out, *a: {"hit": out is not None}))
        self._patch(GraphResultCache, "put", self.span(
            "cache.put", GraphResultCache.put))
        self._patch(ResidentCorpus, "add", self.span(
            "corpus.add", ResidentCorpus.add,
            lambda out, *a: {"graph": out.name}))

        self._patch(dispatch, "choose_backend", self.span(
            "dispatch.choose", dispatch.choose_backend,
            lambda out, *a: {"backend": out.backend, "reason": out.reason}))
        self._patch(dispatch, "graph_regime", self.span(
            "dispatch.regime", dispatch.graph_regime))

        self._install_admission(BatchPolicy)

        def batch_id(graph, tasks, *rest):
            return self._claim_batch(graph, tuple(root for root, _ in tasks))

        self._patch(server, "execute_dfs_batch", self.span(
            "exec.batch", server.execute_dfs_batch,
            lambda out, graph, tasks, backend="dfs", *r: {
                "width": len(tasks), "backend": backend},
            before=batch_id))
        self._patch(server, "execute_query", self.span(
            "exec.query", server.execute_query,
            before=lambda graph, op, root, *r: self._claim_batch(
                graph, (root,))))

        self._patch(diggerbees, "run_diggerbees", self.span(
            "dfs.run", diggerbees.run_diggerbees,
            lambda out, *a: {"steps": int(out.engine.steps),
                             "cycles": int(out.cycles)}))
        self._patch(hive, "run_hive", self.span(
            "hive.run", hive.run_hive,
            lambda out, *a: {"width": len(out)}))
        self._patch(swarm, "run_swarm", self.span(
            "swarm.run", swarm.run_swarm,
            lambda out, *a: {
                "lanes": len(out),
                "edges": int(sum(res.edges_scanned for res in out))}))
        self._patch(frontier, "run_frontier", self.span(
            "frontier.run", frontier.run_frontier,
            lambda out, *a: {"edges": int(out.edges_scanned)}))

    def _install_admission(self, policy_cls) -> None:
        """Admission waits: stamp items on ``add``, settle on flush."""
        tracer = self

        def settle(batches, now):
            for batch in batches:
                bid = next(tracer._bids)
                roots = []
                graph = None
                for entry, pending in batch.items:
                    graph = id(entry.graph)
                    roots.append(pending.request.root)
                    t_in = tracer._admitted.pop(id(pending), now)
                    tracer.record("admission.wait", t_in, now, -1,
                                  pending.request.id, bid,
                                  {"width": len(batch.items),
                                   "reason": batch.reason})
                with tracer._lock:
                    tracer._flushed.setdefault(
                        (graph, tuple(roots)), []).append((bid, now))
            return batches

        orig_add, orig_due = policy_cls.add, policy_cls.due
        orig_flush_all = policy_cls.flush_all

        @functools.wraps(orig_add)
        def add(self, key, item, now):
            t = time.monotonic()
            tracer._admitted[id(item[1])] = t
            batch = orig_add(self, key, item, now)
            if batch is not None:
                settle([batch], t)
            return batch

        @functools.wraps(orig_due)
        def due(self, now):
            return settle(orig_due(self, now), time.monotonic())

        @functools.wraps(orig_flush_all)
        def flush_all(self, now=0.0):
            return settle(orig_flush_all(self, now), time.monotonic())

        self._patch(policy_cls, "add", add)
        self._patch(policy_cls, "due", due)
        self._patch(policy_cls, "flush_all", flush_all)

    def _claim_batch(self, graph, roots: tuple) -> Optional[int]:
        """Batch id of the flush that produced this execution, if any."""
        key = (id(graph), roots)
        with self._lock:
            queue = self._flushed.get(key)
            if not queue:
                return None
            bid, flushed_at = queue.pop(0)
            if not queue:
                del self._flushed[key]
        self.record("exec.queue", flushed_at, time.monotonic(),
                    -1, None, bid)
        return bid

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def as_dicts(self) -> List[Dict]:
        keys = ("id", "name", "start", "end", "tid", "parent", "rid",
                "bid", "args")
        return [dict(zip(keys, s)) for s in self.spans]

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.as_dicts(),
                       "threads": {str(t): n
                                   for t, n in self.threads.items()}}, fh)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: launcher.py --spans OUT.json -- <repro.serve args>",
              file=sys.stderr)
        return 2
    out, serve_argv = Path(argv[1]), argv[3:]
    from repro.serve.cli import main as serve_main

    tracer = Tracer()
    tracer.install()
    try:
        return serve_main(serve_argv)
    finally:
        tracer.restore()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
