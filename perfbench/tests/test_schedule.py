"""Seeded inputs: the same seed gives the same graphs and schedules."""

import pytest

import schedule as sch


@pytest.fixture(scope="module")
def graphs():
    return sch.build_graphs(7)


def _open_loop(graphs, seed):
    pools = sch.RootPools(graphs, seed)
    return [sch.open_loop(graphs, pools, rate=20.0, seconds=3.0, seed=seed,
                          phase=k, with_config=True) for k in range(3)]


def _bursts(graphs, seed, n=10):
    pools = sch.RootPools(graphs, seed)
    seen = {g.name: pools.take(g.name, 8) for g in graphs}
    stream = sch.bursts(graphs, pools, size=16, seed=seed, seen=seen)
    return [next(stream) for _ in range(n)]


def test_same_seed_same_graphs(graphs):
    again = sch.build_graphs(7)
    for a, b in zip(graphs, again):
        assert a.name == b.name and a.overrides == b.overrides
        assert (a.graph.row_ptr == b.graph.row_ptr).all()
        assert (a.graph.column_idx == b.graph.column_idx).all()


def test_seed_changes_graphs(graphs):
    other = sch.build_graphs(8)
    assert any(a.graph.column_idx.shape != b.graph.column_idx.shape
               or (a.graph.column_idx != b.graph.column_idx).any()
               for a, b in zip(graphs, other))


def test_same_seed_identical_open_loop_schedule(graphs):
    assert _open_loop(graphs, 3) == _open_loop(graphs, 3)
    assert _open_loop(graphs, 3) != _open_loop(graphs, 4)


def test_open_loop_is_paced_and_unique(graphs):
    phases = _open_loop(graphs, 5)
    for qs in phases:
        assert len(qs) == 60
        dues = [q.due for q in qs]
        assert dues == sorted(dues)
        gaps = [b - a for a, b in zip(dues, dues[1:])]
        assert min(gaps) >= (1 - 2 * sch.JITTER) / 20.0 - 1e-12
    pairs = [(q.graph, q.root) for qs in phases for q in qs]
    assert len(pairs) == len(set(pairs))


def test_open_loop_carries_micro_overrides(graphs):
    qs = _open_loop(graphs, 5)[0]
    by_name = {g.name: g.overrides for g in graphs}
    assert all(q.config == by_name[q.graph] for q in qs)
    assert all(q.config for q in qs)


def test_same_seed_identical_bursts(graphs):
    assert _bursts(graphs, 2) == _bursts(graphs, 2)
    assert _bursts(graphs, 2) != _bursts(graphs, 3)


def test_bursts_are_half_repeats(graphs):
    pools = sch.RootPools(graphs, 1)
    seen = {g.name: pools.take(g.name, 8) for g in graphs}
    before = {k: list(v) for k, v in seen.items()}
    b = next(sch.bursts(graphs, pools, size=16, seed=1, seen=seen))
    assert len(b.roots) == len(set(b.roots)) == 16
    assert len(set(b.roots) & set(before[b.graph])) == 8


def test_exhausted_graphs_leave_the_burst_rotation(graphs):
    pools = sch.RootPools(graphs, 1)
    seen = {g.name: pools.take(g.name, 8) for g in graphs}
    small = graphs[0].name
    pools.take(small, pools.remaining(small) - 8)   # one burst left
    stream = sch.bursts(graphs, pools, size=16, seed=1, seen=seen)
    names = [next(stream).graph for _ in range(3 * len(graphs))]
    assert names.count(small) == 1
    assert set(names) == {g.name for g in graphs}


def test_root_pool_exhaustion_is_an_error(graphs):
    pools = sch.RootPools(graphs, 1)
    name = graphs[0].name
    pools.take(name, pools.remaining(name))
    with pytest.raises(ValueError):
        pools.take(name)
