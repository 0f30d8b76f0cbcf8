"""Per-layer metrics and the Perfetto export of a traced daemon's spans.

The spans come from :mod:`launcher`; each is a dict with ``id``,
``name``, ``start``/``end`` (monotonic seconds), ``tid``, ``parent``
(``-1`` for none), ``rid`` (request id), ``bid`` (batch id) and
``args``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from metrics import percentile, self_times, union_length

#: Per-layer self time is reported for these layers (span name prefix).
SELF_LAYERS = ("protocol", "cache", "dispatch", "exec", "hive", "dfs",
               "swarm", "frontier")


def _ms(spans: Sequence[Dict]) -> List[float]:
    return [(s["end"] - s["start"]) * 1e3 for s in spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Dict], window: tuple,
                  answered: int) -> Dict[str, float]:
    """Per-layer numbers over the spans that start inside ``window``.

    ``dispatch.regime_ms`` and ``corpus.add_ms`` are totals over the
    daemon's whole life: both run once per graph, before the timed
    window (at ``add_graph`` and on each graph's first query).
    ``answered`` normalizes self time to milliseconds per answer.  A
    layer with no spans reports 0: the workload does not exercise it.
    """
    lo, hi = window
    by_name: Dict[str, List[Dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name: str) -> List[Dict]:
        return [s for s in by_name.get(name, ()) if lo <= s["start"] <= hi]

    out: Dict[str, float] = {}

    dfs = named("dfs.run")
    steps = sum(s["args"]["steps"] for s in dfs)
    out["dfs.run_p50_ms"] = percentile(_ms(dfs), 50)
    out["dfs.host_us_per_step"] = _ratio(
        sum(s["end"] - s["start"] for s in dfs) * 1e6, steps)

    hive = named("hive.run")
    roots = sum(s["args"]["width"] for s in hive)
    out["hive.calls"] = float(len(hive))
    out["hive.width_mean"] = _ratio(roots, len(hive))
    out["hive.ms_per_root"] = _ratio(sum(_ms(hive)), roots)

    waits = named("admission.wait")
    flushes = {}
    for s in waits:
        flushes[s["bid"]] = s["args"]
    out["admission.wait_p50_ms"] = percentile(_ms(waits), 50)
    out["admission.wait_p95_ms"] = percentile(_ms(waits), 95)
    out["admission.width_mean"] = _ratio(
        sum(a["width"] for a in flushes.values()), len(flushes))
    out["admission.full_frac"] = _ratio(
        sum(1 for a in flushes.values() if a["reason"] == "full"),
        len(flushes))

    queue = named("exec.queue")
    execs = named("exec.batch") + named("exec.query")
    out["exec.queue_p50_ms"] = percentile(_ms(queue), 50)
    out["exec.queue_p95_ms"] = percentile(_ms(queue), 95)
    out["exec.batch_p50_ms"] = percentile(_ms(execs), 50)
    out["exec.busy_frac"] = _ratio(
        union_length((s["start"], min(s["end"], hi)) for s in execs),
        hi - lo)

    choose = named("dispatch.choose")
    out["dispatch.choose_us"] = percentile(_ms(choose), 50) * 1e3
    out["dispatch.regime_ms"] = float(sum(
        _ms(by_name.get("dispatch.regime", ()))))
    for backend in ("dfs", "frontier", "swarm"):
        out[f"dispatch.share_{backend}"] = _ratio(
            sum(1 for s in choose if s["args"]["backend"] == backend),
            len(choose))

    swarm = named("swarm.run")
    lanes = sum(s["args"]["lanes"] for s in swarm)
    swarm_s = sum(s["end"] - s["start"] for s in swarm)
    out["swarm.lanes_mean"] = _ratio(lanes, len(swarm))
    out["swarm.ms_per_root"] = _ratio(swarm_s * 1e3, lanes)
    out["swarm.mteps"] = _ratio(
        sum(s["args"]["edges"] for s in swarm), swarm_s * 1e6)

    frontier = named("frontier.run")
    out["frontier.run_p50_ms"] = percentile(_ms(frontier), 50)
    out["frontier.mteps"] = _ratio(
        sum(s["args"]["edges"] for s in frontier),
        sum(s["end"] - s["start"] for s in frontier) * 1e6)

    decode = named("protocol.decode")
    encode = named("protocol.encode")
    out["protocol.decode_us"] = percentile(_ms(decode), 50) * 1e3
    out["protocol.encode_us"] = percentile(_ms(encode), 50) * 1e3

    gets = named("cache.get")
    out["cache.hit_ratio"] = _ratio(
        sum(1 for s in gets if s["args"]["hit"]), len(gets))
    out["cache.get_us"] = percentile(_ms(gets), 50) * 1e3
    out["cache.put_us"] = percentile(_ms(named("cache.put")), 50) * 1e3

    out["corpus.add_ms"] = float(sum(_ms(by_name.get("corpus.add", ()))))

    in_window = [s for s in spans if lo <= s["start"] <= hi]
    selfs = self_times(in_window)
    for layer in SELF_LAYERS:
        total = sum(selfs[s["id"]] for s in in_window
                    if s["name"].split(".")[0] == layer
                    and s["name"] != "exec.queue")
        out[f"self.{layer}_ms"] = _ratio(total * 1e3, answered)
    return out


def chrome_events(spans: Sequence[Dict], t0: float,
                  markers: Sequence[tuple] = (),
                  threads: Optional[Dict[str, str]] = None) -> List[Dict]:
    """Spans as Chrome trace events (the :mod:`repro.sim.chrometrace` format).

    One complete event (``ph: "X"``) per span, on one track per daemon
    thread (named from ``threads``, thread id -> name); the request and
    batch ids ride in ``args``.  ``markers`` are ``(name, start, end)``
    phases of the load generator, drawn on a track of their own.
    """
    threads = threads or {}
    tids: Dict[int, int] = {}
    events: List[Dict] = [{"name": "process_name", "ph": "M", "pid": 1,
                           "tid": 0, "args": {"name": "repro.serve"}},
                          {"name": "process_name", "ph": "M", "pid": 2,
                           "tid": 0, "args": {"name": "load generator"}}]
    for s in sorted(spans, key=lambda s: s["start"]):
        tid = tids.setdefault(s["tid"], len(tids) + 1)
        args = dict(s["args"])
        for key in ("rid", "bid"):
            if s[key] is not None:
                args[key] = s[key]
        events.append({
            "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
            "ts": (s["start"] - t0) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "pid": 1, "tid": tid, "args": args,
        })
    for raw_tid, tid in tids.items():
        name = threads.get(str(raw_tid), f"thread {tid}")
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": name}})
    for name, start, end in markers:
        events.append({"name": name, "cat": "phase", "ph": "X",
                       "ts": (start - t0) * 1e6,
                       "dur": (end - start) * 1e6, "pid": 2, "tid": 1,
                       "args": {}})
    return events


def write_chrome_trace(path: Path, spans: Sequence[Dict], t0: float,
                       markers: Sequence[tuple] = (),
                       threads: Optional[Dict[str, str]] = None) -> int:
    """Write a Perfetto-loadable trace; returns the event count."""
    events = chrome_events(spans, t0, markers, threads)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)
    return len(events)
