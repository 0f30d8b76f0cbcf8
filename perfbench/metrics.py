"""Pure metric arithmetic: percentiles, goodput, the rate ladder, spans.

Nothing here touches a clock, a socket or the daemon, so the tests can
drive every formula with synthetic samples.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Ratio between consecutive rungs of the rate ladder.
LADDER_RATIO = 1.1


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (0..100) as ``numpy.percentile``; 0 if empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def supported_percentile(n: int) -> Optional[float]:
    """Highest of p50/p75/p90/p95/p99 with ten samples beyond it."""
    for q in (99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def goodput(latencies_ms: Sequence[Optional[float]], ok: Sequence[bool],
            limit_ms: float) -> float:
    """Share of attempted requests answered correctly within the limit.

    A ``None`` latency (never answered) or a request with ``ok`` false
    (error, refusal, mismatch) misses the limit whatever its latency.
    """
    if not latencies_ms:
        return 0.0
    good = sum(1 for lat, fine in zip(latencies_ms, ok)
               if fine and lat is not None and lat <= limit_ms)
    return good / len(latencies_ms)


def rung_rate(base: float, k: int) -> float:
    """Rate of rung ``k`` of the fixed geometric ladder from ``base``."""
    return base * LADDER_RATIO ** k


def rung_passes(latencies_ms: Sequence[Optional[float]], ok: Sequence[bool],
                limit_ms: float, backlog_ms: float) -> bool:
    """A rung holds when its p95 meets the limit and no backlog grew.

    Every request must have been answered without error (a failed or
    refused request misses every limit), the p95 latency must be within
    ``limit_ms``, and ``backlog_ms`` -- how long after the rung's last
    due time its last answer arrived -- must be within the limit too: a
    queue that is still growing when sending stops takes longer than
    that to drain.
    """
    if not latencies_ms or any(lat is None for lat in latencies_ms):
        return False
    if not all(ok):
        return False
    return (percentile(latencies_ms, 95.0) <= limit_ms
            and backlog_ms <= limit_ms)


def capacity(base: float, results: Dict[int, bool]) -> float:
    """Rate of the highest rung that held with every lower rung holding.

    ``results`` maps each rung tried (0 is the fixed-rate phase; the
    ladder walks up from it while rungs hold, or down while they fail)
    to whether it held.  With no rung holding, the capacity is the rung
    just below the lowest one tried: the ladder's resolution is the only
    honest bound left.
    """
    best: Optional[int] = None
    for k in sorted(results):
        if not results[k]:
            break
        best = k
    if best is None:
        return rung_rate(base, min(results, default=0) - 1)
    return rung_rate(base, best)


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------

def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Dict]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover.

    A child is a span whose ``parent`` is the span's ``id``; child
    intervals are clipped to the parent and merged before subtracting,
    so overlapping children are not counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"],
                                                         s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = union_length((max(lo, a), min(hi, b))
                               for a, b in children.get(s["id"], ()))
        out[s["id"]] = max(0.0, (hi - lo) - covered)
    return out
