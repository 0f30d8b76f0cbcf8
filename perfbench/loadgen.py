"""Load generator: open-loop schedules and closed-loop bursts.

Runs in the benchmark's own process, over at most two pipelined
connections.  Requests are encoded before the clock starts; a response
is stamped the moment its line arrives, and only its ``id`` is read on
the spot (the daemon writes ``op`` and ``id`` first).  The payload is
kept as raw bytes and decoded after the timed phase, so decoding never
delays the next stamp or send.

Open-loop latency runs from each request's *due* time, so a stall that
delays later sends still shows in their latency; how late the generator
itself sent (``sent - due``) is kept per request so a run where the
generator fell behind can be marked invalid instead of slow.
"""

from __future__ import annotations

import asyncio
import collections
import json
import time
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.serve.protocol import MAX_LINE_BYTES, Request, encode_request

#: Seconds a phase waits for its outstanding answers before counting
#: them as timed out.
DRAIN_TIMEOUT = 30.0
#: Connections to the daemon (one client process, at most two sockets).
N_CONNS = 2


class Sample:
    """One request of a timed phase and what became of it."""

    __slots__ = ("query", "rid", "due", "sent", "recv", "raw")

    def __init__(self, query, rid: int, due: float):
        self.query = query
        self.rid = rid
        self.due = due              # monotonic seconds
        self.sent: Optional[float] = None
        self.recv: Optional[float] = None
        self.raw: Optional[bytes] = None

    @property
    def latency_ms(self) -> Optional[float]:
        if self.recv is None:
            return None
        return (self.recv - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return ((self.sent or self.due) - self.due) * 1000.0


def _peek_id(line: bytes):
    """The response ``id`` without decoding the (large) result."""
    at = line.find(b'"id":', 0, 96)
    if at >= 0:
        end = line.find(b",", at)
        try:
            return int(line[at + 5:end])
        except ValueError:
            pass
    return json.loads(line).get("id")


class Connection:
    """One pipelined connection; answers are routed by request id."""

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._task: Optional[asyncio.Task] = None
        self.waiting: Dict[int, Sample] = {}
        self.on_answer: Optional[Callable[[Sample], None]] = None

    async def open(self, path: str) -> "Connection":
        self._reader, self._writer = await asyncio.open_unix_connection(
            path, limit=MAX_LINE_BYTES)
        self._task = asyncio.ensure_future(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        while True:
            line = await self._reader.readline()
            stamp = time.monotonic()
            if not line:
                return
            sample = self.waiting.pop(_peek_id(line), None)
            if sample is None:
                continue
            sample.recv = stamp
            sample.raw = line
            if self.on_answer is not None:
                self.on_answer(sample)

    def send(self, sample: Sample, payload: bytes) -> None:
        self.waiting[sample.rid] = sample
        sample.sent = time.monotonic()
        self._writer.write(payload)

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, ConnectionError):
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def encode_query(rid: int, query) -> bytes:
    return encode_request(Request(op="dfs", id=rid, graph=query.graph,
                                  root=query.root, config=query.config))


class LoadGenerator:
    """Drives one daemon over ``N_CONNS`` pipelined connections."""

    def __init__(self, path: str):
        self.path = path
        self.conns: List[Connection] = []
        self._rid = 0

    async def __aenter__(self) -> "LoadGenerator":
        for _ in range(N_CONNS):
            self.conns.append(await Connection().open(self.path))
        return self

    async def __aexit__(self, *exc_info) -> None:
        for c in self.conns:
            await c.close()

    def _prepare(self, queries: Sequence, t0: float):
        out = []
        for q in queries:
            self._rid += 1
            s = Sample(q, self._rid, t0 + q.due)
            out.append((s, encode_query(self._rid, q)))
        return out

    async def _drain(self, samples: Sequence[Sample]) -> None:
        """Wait until every sent sample is answered, or the timeout."""
        pending = {s.rid for s in samples
                   if s.sent is not None and s.recv is None}
        done = asyncio.get_running_loop().create_future()

        def on_answer(sample: Sample) -> None:
            pending.discard(sample.rid)
            if not pending and not done.done():
                done.set_result(None)

        if pending:
            for c in self.conns:
                c.on_answer = on_answer
            try:
                await asyncio.wait_for(done, DRAIN_TIMEOUT)
            except asyncio.TimeoutError:
                pass    # the unanswered samples count as failed
            finally:
                for c in self.conns:
                    c.on_answer = None
        for c in self.conns:
            c.waiting.clear()

    async def open_loop(self, queries: Sequence, *, lead: float = 0.05,
                        abort_age: Optional[float] = None) -> List[Sample]:
        """Send ``queries`` at their due offsets; wait for every answer.

        With ``abort_age`` (seconds), sending stops once any answer is
        that overdue: the rung has already failed, and a growing
        backlog would only delay the next phase.  Unsent requests are
        dropped from the result (they were never attempted).
        """
        t0 = time.monotonic() + lead
        prepared = self._prepare(queries, t0)
        sent: List[Sample] = []
        oldest: Deque[Sample] = collections.deque()
        for i, (sample, payload) in enumerate(prepared):
            delay = sample.due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            if abort_age is not None:
                while oldest and oldest[0].recv is not None:
                    oldest.popleft()
                if oldest and time.monotonic() - oldest[0].due > abort_age:
                    break
            self.conns[i % len(self.conns)].send(sample, payload)
            sent.append(sample)
            oldest.append(sample)
        await self._drain(sent)
        return sent

    async def burst(self, queries: Sequence) -> List[Sample]:
        """Send every query at once (one client fanning out); wait."""
        prepared = self._prepare(queries, time.monotonic())
        for i, (sample, payload) in enumerate(prepared):
            self.conns[i % len(self.conns)].send(sample, payload)
        samples = [s for s, _ in prepared]
        await self._drain(samples)
        return samples

    async def call(self, op: str, **fields) -> dict:
        """One control request (``ping``/``status``/``add_graph``)."""
        self._rid += 1
        sample = Sample(None, self._rid, time.monotonic())
        self.conns[0].send(sample, encode_request(
            Request(op=op, id=self._rid, **fields)))
        await self._drain([sample])
        if sample.raw is None:
            raise RuntimeError(f"daemon did not answer {op!r}")
        resp = json.loads(sample.raw)
        if not resp.get("ok"):
            raise RuntimeError(f"{op!r} failed: {resp.get('error')}")
        return resp["result"]
