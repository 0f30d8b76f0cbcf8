"""Percentiles, goodput, the rate ladder and span self time."""

import numpy as np
import pytest

import metrics as m


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    xs = rng.exponential(40.0, size=257).tolist()
    for q in (0, 25, 50, 90, 95, 99, 100):
        assert m.percentile(xs, q) == pytest.approx(np.percentile(xs, q))
    assert m.percentile([], 50) == 0.0
    assert m.percentile([3.0], 95) == 3.0


def test_supported_percentile_needs_ten_beyond():
    assert m.supported_percentile(1000) == 99.0
    assert m.supported_percentile(200) == 95.0
    assert m.supported_percentile(199) == 90.0
    assert m.supported_percentile(52) == 75.0
    assert m.supported_percentile(5) is None


def test_goodput_counts_failures_as_misses():
    lat = [10.0, 20.0, 300.0, None, 50.0]
    ok = [True, True, True, False, False]
    # Only the first two are correct and within 100 ms.
    assert m.goodput(lat, ok, 100.0) == pytest.approx(2 / 5)
    assert m.goodput([], [], 100.0) == 0.0


def test_rung_rates_are_geometric():
    assert m.rung_rate(15.0, 0) == 15.0
    assert m.rung_rate(15.0, 2) == pytest.approx(15.0 * m.LADDER_RATIO ** 2)
    assert m.rung_rate(15.0, -1) == pytest.approx(15.0 / m.LADDER_RATIO)


def test_rung_passes():
    lat = [10.0] * 95 + [90.0] * 5
    ok = [True] * 100
    assert m.rung_passes(lat, ok, 100.0, backlog_ms=20.0)
    # p95 over the limit.
    assert not m.rung_passes([10.0] * 90 + [500.0] * 10, ok, 100.0, 20.0)
    # Backlog still draining when sending stopped.
    assert not m.rung_passes(lat, ok, 100.0, backlog_ms=150.0)
    # One unanswered or failed request fails the rung.
    assert not m.rung_passes(lat[:-1] + [None], ok, 100.0, 20.0)
    assert not m.rung_passes(lat, ok[:-1] + [False], 100.0, 20.0)


def test_capacity_walking_up():
    held = {0: True, 1: True, 2: True, 3: False}
    assert m.capacity(15.0, held) == pytest.approx(m.rung_rate(15.0, 2))


def test_capacity_walking_down():
    held = {0: False, -1: False, -2: True}
    assert m.capacity(30.0, held) == pytest.approx(m.rung_rate(30.0, -2))


def test_capacity_without_a_holding_rung():
    assert m.capacity(30.0, {0: False}) == pytest.approx(30.0 / 1.1)


def test_union_length_merges_overlaps():
    assert m.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    assert m.union_length([]) == 0.0


def _span(sid, start, end, parent=-1):
    return {"id": sid, "start": start, "end": end, "parent": parent}


def test_self_time_of_nested_spans():
    spans = [
        _span(0, 0.0, 10.0),              # exec batch
        _span(1, 1.0, 4.0, parent=0),     # engine run
        _span(2, 5.0, 8.0, parent=0),     # second engine run
        _span(3, 2.0, 3.0, parent=1),     # nested inside the first run
        _span(4, 20.0, 21.0),             # unrelated root
    ]
    selfs = m.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 3.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_clips_and_merges_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 2.0, 6.0, parent=0),
        _span(2, 4.0, 8.0, parent=0),      # overlaps its sibling
        _span(3, 9.0, 12.0, parent=0),     # runs past its parent
    ]
    assert m.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)
