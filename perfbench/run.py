"""Cache-cold serving benchmark for the ``repro.serve`` daemon.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dfs_cold --seed 1 --seconds 45 \\
        --trace 0

Starts the daemon in its own process, loads seeded graphs into it with
``add_graph``, drives one workload from this process over two
connections, verifies a seeded sample of the answers, and prints every
metric by name and unit.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; ``--trace 1`` runs
the daemon under :mod:`launcher` and reports the per-layer ones.  See
README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Daemon launches per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Seconds per ladder rung.
RUNG_SECONDS = 2.0
#: Ladder passes per run; ``capacity_qps`` is the median of their knees.
LADDER_PASSES = 3
#: A run is invalid when the generator's send lateness p99 exceeds this
#: share of the workload's latency limit.
LATE_SHARE = 0.2
#: Answers checked against direct execution per run.
VERIFY_SAMPLE = 40
#: Latency charged to a request that was never answered (ms).
UNANSWERED_MS = 30_000.0
#: End-to-end metrics printed but left out of BENCHMARK.json: the
#: ladder's knee swings with this class of machine's speed by more
#: than any allowed bound, and a failure share is 0 on a healthy run.
UNGATED = {"capacity_qps": "q/s", "fail_frac": "frac"}


@dataclass(frozen=True)
class Workload:
    name: str
    knob: str            # daemon --backend
    with_config: bool    # queries carry micro-case engine overrides
    limit_ms: float      # p95 latency limit
    rate: float = 0.0    # fixed open-loop rate (q/s); 0 for bursts
    fixed_share: float = 0.65  # share of --seconds at the fixed rate
    #                            (bursts: share of --seconds bursting)
    burst: int = 0       # closed-loop burst size; 0 for open loop


WORKLOADS = {
    "dfs_cold": Workload("dfs_cold", "dfs", True, 250.0, rate=15.0),
    "auto_cold": Workload("auto_cold", "auto", False, 100.0, rate=20.0),
    "batch_mixed": Workload("batch_mixed", "auto", False, 2000.0,
                            fixed_share=0.75, burst=256),
}


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# One daemon: launch, load graphs, warm up.
# ---------------------------------------------------------------------------

class Session:
    """A launched daemon with the graphs loaded and a load generator."""

    def __init__(self, daemon, lg, setup_s: float):
        self.daemon = daemon
        self.lg = lg
        self.setup_s = setup_s
        self.seen: Dict[str, List[int]] = {}


async def open_session(workdir: Path, tag: str, wl: Workload,
                       graph_payloads: Sequence[dict],
                       spans_path: Optional[Path] = None) -> Session:
    """Launch, wait until every graph is resident and a ping answers."""
    from daemon import Daemon
    from loadgen import LoadGenerator

    d = Daemon(workdir, tag, wl.knob, spans_path=spans_path)
    d.launch()
    try:
        d.wait_listening()
        lg = await LoadGenerator(d.connect_path).__aenter__()
        for payload in graph_payloads:
            await lg.call("add_graph", payload=payload)
        await lg.call("ping")
    except BaseException:
        d.stop()
        raise
    return Session(d, lg, time.monotonic() - d.launched_at)


async def close_session(s: Session) -> None:
    try:
        await s.lg.__aexit__(None, None, None)
    finally:
        s.daemon.stop()


async def warm_up(s: Session, wl: Workload, graphs, pools) -> None:
    """Untimed: first query per graph (imports, regime probe), and for
    bursts a seeding burst per graph that later bursts repeat from."""
    from schedule import Query

    per_graph = wl.burst // 2 if wl.burst else 1
    for g in graphs:
        roots = pools.take(g.name, per_graph)
        s.seen[g.name] = list(roots)
        await s.lg.burst([Query(0.0, g.name, r,
                                dict(g.overrides) if wl.with_config
                                else None) for r in roots])


# ---------------------------------------------------------------------------
# Timed phases.
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    name: str
    samples: list
    start: float
    end: float
    rate: float = 0.0
    held: Optional[bool] = None     # ladder rungs only


def answer_ok(sample) -> bool:
    """Answered without an error reply (payload checks come later)."""
    return sample.raw is not None and b'"ok":true' in sample.raw[:160]


def latencies(samples) -> List[float]:
    return [s.latency_ms if answer_ok(s) else UNANSWERED_MS
            for s in samples]


async def run_open(s: Session, wl: Workload, graphs, pools, seed: int,
                   fixed_s: float, ladder_s: float) -> Tuple[List[Phase],
                                                             List[float]]:
    """Fixed-rate phase (rung 0), then ladder passes while time lasts.

    The first pass walks two rungs at a time away from rung 0 (up while
    rungs hold, down while they fail) and then tries the rung it
    skipped.  Each further pass starts at the previous pass's capacity
    and steps one rung at a time until the outcome flips.  Returns the
    phases and the capacity (q/s) each completed pass found.
    """
    from metrics import LADDER_RATIO, capacity, rung_passes, rung_rate
    from schedule import open_loop

    phases: List[Phase] = []
    deadline = time.monotonic() + fixed_s + ladder_s
    serial = itertools.count(1)

    async def rung(k: int, seconds: float, fixed: bool = False) -> bool:
        rate = rung_rate(wl.rate, k)
        qs = open_loop(graphs, pools, rate=rate, seconds=seconds,
                       seed=seed, phase=0 if fixed else next(serial),
                       with_config=wl.with_config)
        t0 = time.monotonic()
        samples = await s.lg.open_loop(
            qs, abort_age=None if fixed else 4 * wl.limit_ms / 1e3)
        last_due = samples[-1].due if samples else t0
        last_recv = max((x.recv or float("inf") for x in samples),
                        default=t0)
        held = len(samples) == len(qs) and rung_passes(
            latencies(samples), [answer_ok(x) for x in samples],
            wl.limit_ms, (last_recv - last_due) * 1e3)
        phases.append(Phase("fixed" if fixed else f"rung{k:+d}", samples,
                            t0, time.monotonic(), rate, held))
        return held

    def time_left() -> bool:
        return time.monotonic() + RUNG_SECONDS <= deadline

    fixed_held = await rung(0, fixed_s, fixed=True)
    capacities: List[float] = []
    # First pass: coarse walk, then the rung it skipped.
    results = {0: fixed_held}
    step = 2 if fixed_held else -2
    k = step
    while time_left():
        results[k] = await rung(k, RUNG_SECONDS)
        if results[k] != fixed_held:
            mid = k - step // 2
            if time_left():
                results[mid] = await rung(mid, RUNG_SECONDS)
                capacities.append(capacity(wl.rate, results))
            break
        k += step
    if not capacities:
        # Out of time before the outcome flipped: a bound, not a knee.
        return phases, [capacity(wl.rate, results)]
    # Confirmation passes, one rung at a time from the last capacity.
    while len(capacities) < LADDER_PASSES:
        k = round(math.log(capacities[-1] / wl.rate, LADDER_RATIO))
        results = {}
        while time_left() and len(set(results.values())) < 2:
            results[k] = await rung(k, RUNG_SECONDS)
            k += 1 if results[k] else -1
        if len(set(results.values())) < 2:
            break
        capacities.append(capacity(wl.rate, results))
    return phases, capacities


async def run_bursts(s: Session, wl: Workload, graphs, pools, seed: int,
                     seconds: float) -> List[Phase]:
    """Closed loop: one burst at a time until ``seconds`` are used."""
    from schedule import Query, bursts

    phases: List[Phase] = []
    t_end = time.monotonic() + seconds
    for b in bursts(graphs, pools, size=wl.burst, seed=seed,
                    seen=s.seen):
        if time.monotonic() >= t_end:
            break
        t0 = time.monotonic()
        samples = await s.lg.burst([Query(0.0, b.graph, r, None)
                                    for r in b.roots])
        phases.append(Phase("burst", samples, t0, time.monotonic()))
    return phases


async def run_workload(s: Session, wl: Workload, graphs, pools, seed: int,
                       seconds: float, primary_share: float = 1.0,
                       ladder: bool = True
                       ) -> Tuple[List[Phase], List[float]]:
    """The timed phases of one workload on one daemon.

    ``primary_share`` shortens the phase ``p50_ms`` comes from (a traced
    run splits it between a plain and a traced daemon); ``ladder=False``
    skips the rate ladder.
    """
    fixed_s = seconds * wl.fixed_share
    if wl.burst:
        return await run_bursts(s, wl, graphs, pools, seed,
                                fixed_s * primary_share), []
    return await run_open(s, wl, graphs, pools, seed,
                          fixed_s * primary_share,
                          seconds - fixed_s if ladder else 0.0)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def primary(phases: Sequence[Phase], wl: Workload) -> List[Phase]:
    if wl.burst:
        return list(phases)
    return [p for p in phases if p.name == "fixed"]


def end_to_end(wl: Workload, phases: Sequence[Phase],
               capacities: Sequence[float], bad: set) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Bursts: the client waits for its whole burst, so ``p50_ms`` and
    ``p95_ms`` are burst completion times, and the closed loop's
    throughput is its capacity.
    """
    from metrics import goodput, percentile

    prim = primary(phases, wl)
    samples = [x for p in prim for x in p.samples]
    lat = latencies(samples)
    ok = [answer_ok(x) and x.rid not in bad for x in samples]
    answered = sum(1 for x in samples if answer_ok(x))
    if wl.burst:
        wall = sum(p.end - p.start for p in prim)
        lat_user = [max(latencies(p.samples)) for p in prim]
    else:
        first_due = min(x.due for x in samples)
        last = max(x.recv or x.due for x in samples)
        wall = last - first_due
        lat_user = lat
    qps = answered / wall if wall > 0 else 0.0
    return {
        "p50_ms": percentile(lat_user, 50),
        "p95_ms": percentile(lat_user, 95),
        "goodput_frac": goodput(lat, ok, wl.limit_ms),
        "capacity_qps": qps if wl.burst else statistics.median(capacities),
        "batch_qps": qps,
    }


def lateness_p99(phases: Sequence[Phase], wl: Workload) -> float:
    """Open loop: p99 of send minus due.  Bursts: p99 of the time to
    write a whole burst (how long the last request waited to go out)."""
    from metrics import percentile

    if wl.burst:
        return percentile([max(x.sent for x in p.samples) - p.start
                           for p in phases if p.samples], 99) * 1e3
    return percentile([x.late_ms for p in phases for x in p.samples], 99)


def payload_counts(phases: Sequence[Phase]) -> Dict[str, float]:
    """DFS engine counts summed over the answers of ``phases``."""
    cycles = steal_ok = steal_try = cas_fail = cas_try = 0
    for p in phases:
        for x in p.samples:
            if not answer_ok(x):
                continue
            res = json.loads(x.raw)["result"]
            c = res.get("counters")
            if c is None:
                continue
            cycles += res["cycles"]
            steal_ok += c["intra_steal_successes"] + \
                c["inter_steal_successes"]
            steal_try += c["intra_steal_attempts"] + \
                c["inter_steal_attempts"]
            cas_fail += c["cas_failures"]
            cas_try += c["cas_attempts"]
    return {
        "dfs.sim_cycles": float(cycles),
        "dfs.steal_success_ratio": steal_ok / steal_try if steal_try else 0.0,
        "dfs.cas_fail_ratio": cas_fail / cas_try if cas_try else 0.0,
    }


def verify_sample(phases: Sequence[Phase], graphs, knob: str, seed: int,
                  k: int = VERIFY_SAMPLE) -> Tuple[int, set, list]:
    """Check a seeded sample of answers; (checked, bad rids, problems)."""
    import numpy as np

    from verify import check

    answered = [x for p in phases for x in p.samples if answer_ok(x)]
    rng = np.random.default_rng([seed, 9])
    pick = sorted(rng.choice(len(answered), size=min(k, len(answered)),
                             replace=False).tolist())
    chosen = [answered[i] for i in pick]
    bad = check({g.name: g.graph for g in graphs},
                [(x.query, json.loads(x.raw)["result"]) for x in chosen],
                knob)
    return (len(chosen), {chosen[i].rid for i, _ in bad},
            [(chosen[i].query.graph, chosen[i].query.root, why)
             for i, why in bad])


# ---------------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------------

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(seed: int, status: dict) -> dict:
    import numpy as np

    cal = ROOT / "benchmarks" / "calibration_routing.json"
    try:
        cal_hash = hashlib.sha256(cal.read_bytes()).hexdigest()[:16]
    except OSError:
        cal_hash = "missing"
    return {"commit": _commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "daemon_config": status.get("config"), "seed": seed,
            "calibration_routing_sha256": cal_hash}


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def graph_payload(g) -> dict:
    return {"name": g.name, "row_ptr": g.graph.row_ptr.tolist(),
            "column_idx": g.graph.column_idx.tolist(),
            "directed": bool(g.graph.directed)}


def phase_summary(phases: Sequence[Phase]) -> list:
    """One row per open-loop phase; consecutive bursts fold into one."""
    from metrics import percentile

    groups: List[List[Phase]] = []
    for p in phases:
        if groups and p.name == groups[-1][0].name == "burst":
            groups[-1].append(p)
        else:
            groups.append([p])
    rows = []
    for group in groups:
        lat = latencies([x for p in group for x in p.samples])
        rows.append({"phase": group[0].name, "rate": round(group[0].rate, 3),
                     "count": len(group), "n": len(lat),
                     "p50_ms": round(percentile(lat, 50), 3),
                     "p95_ms": round(percentile(lat, 95), 3),
                     "held": group[0].held})
    return rows


async def bench(args, wl: Workload, workdir: Path) -> Tuple[dict, int]:
    from schedule import RootPools, build_graphs

    graphs = build_graphs(args.seed)
    pools = RootPools(graphs, args.seed)
    payloads = [graph_payload(g) for g in graphs]
    report: dict = {"workload": wl.name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    sessions: List[Session] = []
    t_start = time.monotonic()
    try:
        if not args.trace:
            setups = []
            for i in range(SETUP_REPS):
                s = await open_session(workdir, f"setup{i}", wl, payloads)
                sessions.append(s)
                setups.append(s.setup_s)
                if i < SETUP_REPS - 1:
                    await close_session(sessions.pop())
            s = sessions[0]
            await warm_up(s, wl, graphs, pools)
            phases, capacities = await run_workload(
                s, wl, graphs, pools, args.seed, args.seconds)
            status = await s.lg.call("status")
            await close_session(sessions.pop())
            report["setup_s_each"] = setups
            timed = phases
        else:
            base = await open_session(workdir, "untraced", wl, payloads)
            sessions.append(base)
            await warm_up(base, wl, graphs, pools)
            untraced, _ = await run_workload(
                base, wl, graphs, pools, args.seed, args.seconds,
                primary_share=0.5, ladder=False)
            await close_session(sessions.pop())
            spans_path = workdir / "spans.json"
            s = await open_session(workdir, "traced", wl, payloads,
                                   spans_path=spans_path)
            sessions.append(s)
            # A fresh daemon has an empty cache: the same roots are cold
            # again, and both daemons then answer the same queries.
            pools = RootPools(graphs, args.seed)
            await warm_up(s, wl, graphs, pools)
            t_lo = time.monotonic()
            phases, capacities = await run_workload(
                s, wl, graphs, pools, args.seed, args.seconds,
                primary_share=0.5)
            t_hi = time.monotonic()
            status = await s.lg.call("status")
            await close_session(sessions.pop())
            timed = untraced + phases
    finally:
        for s in sessions:
            await close_session(s)

    t_verify = time.monotonic()
    checked, bad_rids, problems = verify_sample(timed, graphs, wl.knob,
                                                args.seed)
    attempted = sum(len(p.samples) for p in timed)
    errors = sum(1 for p in timed for x in p.samples if not answer_ok(x))
    failed = errors + len(bad_rids)
    late = lateness_p99(phases, wl)
    report.update({
        "provenance": provenance(args.seed, status),
        "daemon_status": status["stats"],
        "phases": phase_summary(phases) if not args.trace else (
            [dict(row, phase="plain " + row["phase"])
             for row in phase_summary(untraced)] + phase_summary(phases)),
        "ladder_capacities": capacities,
        "verified": {"checked": checked, "mismatches": problems},
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 0.0,
        "late_p99_ms": late,
        "late_limit_ms": LATE_SHARE * wl.limit_ms,
        "wall_s": {"daemons_and_load": t_verify - t_start,
                   "verify": time.monotonic() - t_verify},
    })
    if not args.trace:
        e2e = end_to_end(wl, phases, capacities, bad_rids)
        e2e["setup_s"] = statistics.median(setups)
        e2e["fail_frac"] = report["fail_frac"]
        report["metrics"] = e2e
        prim = primary(phases, wl)
        report["samples"] = {"primary": len(prim) if wl.burst else sum(
            len(p.samples) for p in prim)}
    else:
        report["metrics"] = traced_metrics(
            wl, untraced, phases, spans_path, (t_lo, t_hi), late,
            workdir)
    return report, failed


def traced_metrics(wl: Workload, untraced, phases, spans_path: Path,
                   window, late: float, workdir: Path) -> dict:
    from tracing import layer_metrics, write_chrome_trace

    dump = json.loads(spans_path.read_text())
    spans = dump["spans"]
    answered = [x for p in phases for x in p.samples if answer_ok(x)]
    out = layer_metrics(spans, window, len(answered))
    out.update(payload_counts(primary(phases, wl)))
    out["protocol.resp_kb"] = (sum(len(x.raw) for x in answered)
                               / len(answered) / 1024.0
                               if answered else 0.0)
    out["bench.late_p99_ms"] = late
    p50_traced = end_to_end(wl, phases, [0.0], set())["p50_ms"]
    p50_plain = end_to_end(wl, untraced, [0.0], set())["p50_ms"]
    out["trace.overhead_ms"] = p50_traced - p50_plain
    out["trace.overhead_frac"] = ((p50_traced - p50_plain) / p50_plain
                                  if p50_plain else 0.0)
    markers = [(p.name, p.start, p.end) for p in phases]
    write_chrome_trace(workdir / "trace.json", spans, window[0], markers,
                       dump["threads"])
    return out


def load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "serve").is_dir():
        return _fail(f"no repro sources under {ROOT / 'src'}; run from a "
                     "full checkout")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from metrics import supported_percentile

    wl = WORKLOADS[args.workload]
    declared = load_declared()
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    report, failed = asyncio.run(bench(args, wl, workdir))
    metrics = report["metrics"]
    missing = set(units) - set(metrics)
    if missing:
        return _fail(f"metrics not computed: {sorted(missing)}")

    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2,
                                                default=str))
    prov = report["provenance"]
    print(f"# {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} commit={prov['commit'][:12]} "
          f"nproc={prov['nproc']} python={prov['python']} "
          f"numpy={prov['numpy']} "
          f"calibration={prov['calibration_routing_sha256']}")
    print(f"# daemon config: {json.dumps(prov['daemon_config'])}")
    for row in report["phases"]:
        print(f"# {row['count']:3d} x {row['phase']:>13} "
              f"rate={row['rate']:7.2f} n={row['n']:5d} "
              f"p50={row['p50_ms']:9.2f} ms p95={row['p95_ms']:9.2f} ms"
              + ("" if row["held"] is None else f" held={row['held']}"))
    if report["ladder_capacities"]:
        flipped = len({row["held"] for row in report["phases"]
                       if row["phase"] == "fixed"
                       or row["phase"].startswith("rung")}) == 2
        print("# ladder passes found capacity "
              + ", ".join(f"{c:.2f}" for c in report["ladder_capacities"])
              + " q/s" + ("" if flipped else
                          " (out of time before a rung flipped: a bound)"))
    print(f"# attempted={report['attempted']} failed={failed} "
          f"fail_frac={report['fail_frac']:.4f} "
          f"verified={report['verified']['checked']} answers "
          f"late_p99={report['late_p99_ms']:.2f} ms")
    if not args.trace:
        n = report["samples"]["primary"]
        what = "bursts" if wl.burst else "requests"
        q = supported_percentile(n)
        print(f"# p50/p95 over {n} {what}; highest percentile with ten "
              f"beyond: {f'p{q:g}' if q else 'none'}; setup_s each: "
              f"{', '.join(f'{x:.3f}' for x in report['setup_s_each'])}")
    for name in units:
        print(f"{name:28s} {metrics[name]:14.4f} {units[name]}")
    for name, unit in ({} if args.trace else UNGATED).items():
        print(f"{name:28s} {metrics[name]:14.4f} {unit}   (not gated)")
    valid = report["late_p99_ms"] <= report["late_limit_ms"]
    correct = not report["verified"]["mismatches"]
    for graph, root, why in report["verified"]["mismatches"]:
        print(f"# MISMATCH {graph} root={root}: {why}")
    if not valid:
        print(f"# INVALID: the generator ran {report['late_p99_ms']:.1f} "
              f"ms late at p99 (limit {report['late_limit_ms']:.1f} ms)")
        return 3
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
