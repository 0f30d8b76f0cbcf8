"""Tests for the multi-source (forest / warm-start) DiggerBees mode."""

import numpy as np
import pytest

from repro.core import DiggerBeesConfig
from repro.core.multi_source import run_diggerbees_multi
from repro.errors import SimulationError, ValidationError
from repro.graphs import generators as gen
from repro.graphs.csr import from_edges
from repro.validate import check_tree_validity

CFG = DiggerBeesConfig(n_blocks=4, warps_per_block=2, hot_size=16,
                       hot_cutoff=4, cold_cutoff=4, flush_batch=4,
                       refill_batch=4, cold_reserve=16, seed=3)


def forest_is_valid(graph, result):
    """Each claimed root's tree must be valid over its component."""
    parent = result.traversal.parent
    for root in result.roots:
        assert parent[root] == -1
    # Validate tree-ness globally: every visited non-root has a visited
    # parent via a real edge, chains reach some root.
    from repro.validate.euler import build_euler_tour

    visited = result.traversal.visited
    for root in result.roots:
        comp = np.zeros_like(visited)
        # membership: walk chains (cheap at test sizes)
        for v in np.flatnonzero(visited):
            cur = v
            while parent[cur] >= 0:
                cur = parent[cur]
            if cur == root:
                comp[v] = True
        build_euler_tour(parent, root, comp)


class TestForestCoverage:
    def test_disconnected_covered_in_one_run(self, disconnected_graph):
        res = run_diggerbees_multi(disconnected_graph, [0, 3, 5], config=CFG,
                                   check_invariants=True)
        assert res.traversal.n_visited == 6
        assert set(res.roots) == {0, 3, 5}
        forest_is_valid(disconnected_graph, res)

    def test_same_component_roots_partition_it(self, small_road):
        """Distinct roots in one component each claim a tree: the
        component is partitioned (parallel multi-source semantics)."""
        res = run_diggerbees_multi(small_road, [0, 100, 200], config=CFG,
                                   check_invariants=True)
        assert set(res.roots) == {0, 100, 200}
        assert res.traversal.n_visited == small_road.n_vertices
        forest_is_valid(small_road, res)

    def test_duplicate_roots(self, disconnected_graph):
        res = run_diggerbees_multi(disconnected_graph, [0, 0, 3, 3], config=CFG)
        assert set(res.roots) == {0, 3}

    def test_empty_roots_rejected(self, tiny_path):
        with pytest.raises(SimulationError):
            run_diggerbees_multi(tiny_path, [], config=CFG)

    def test_root_out_of_range(self, tiny_path):
        from repro.errors import GraphFormatError

        with pytest.raises(GraphFormatError):
            run_diggerbees_multi(tiny_path, [0, 99], config=CFG)


class TestWarmStart:
    def test_multi_seed_speeds_up_deep_graph(self):
        """Seeding spread-out roots removes the single-source ramp-up on
        a deep graph: the forest covers the same vertices in fewer
        cycles."""
        g = gen.road_network(4000, seed=3)
        single = run_diggerbees_multi(g, [0], config=CFG)
        multi = run_diggerbees_multi(g, [0, 1000, 2000, 3000], config=CFG)
        assert multi.traversal.n_visited == single.traversal.n_visited
        assert multi.cycles < single.cycles

    def test_seeds_distributed_round_robin(self, disconnected_graph):
        res = run_diggerbees_multi(disconnected_graph, [0, 3, 5], config=CFG)
        # Root 3 seeded on block 1, root 5 on block 2 -> those blocks
        # recorded tasks.
        assert 1 in res.counters.tasks_per_block
        assert 2 in res.counters.tasks_per_block

    def test_deterministic(self, disconnected_graph):
        a = run_diggerbees_multi(disconnected_graph, [0, 3, 5], config=CFG)
        b = run_diggerbees_multi(disconnected_graph, [0, 3, 5], config=CFG)
        assert a.cycles == b.cycles
        assert a.roots == b.roots

    def test_mteps_positive(self, small_road):
        assert run_diggerbees_multi(small_road, [0], config=CFG).mteps > 0


class TestSwarmEquivalence:
    """Warm-start forest vs the swarm lockstep tier on the same roots.

    The two batch either-side engines answer different questions from
    the same seeds: the DFS forest *partitions* each component among
    the roots that landed in it, while every swarm lane traverses its
    root's whole component independently.  What must agree is the
    reachability they establish — and each swarm lane must stay
    bit-identical to its own single-root frontier run even when lanes
    overlap on a component.
    """

    def _swarm(self, graph, roots):
        from repro.core.swarm import run_swarm

        return run_swarm(graph, np.asarray(roots, dtype=np.int64))

    def test_union_reachability_matches(self, disconnected_graph):
        roots = [0, 3, 5]
        forest = run_diggerbees_multi(disconnected_graph, roots, config=CFG)
        lanes = self._swarm(disconnected_graph, roots)
        union = np.zeros(disconnected_graph.n_vertices, dtype=bool)
        for res in lanes:
            union |= res.traversal.visited
        assert np.array_equal(union, forest.traversal.visited)

    def test_overlapping_roots_same_component(self, small_road):
        """Roots sharing one component: the forest partitions it, the
        lanes each cover it — visited sets agree in the union, parents
        are independent per lane."""
        from repro.core.frontier import run_frontier

        roots = [0, 100, 200]
        forest = run_diggerbees_multi(small_road, roots, config=CFG)
        lanes = self._swarm(small_road, roots)
        for root, res in zip(roots, lanes):
            # Every lane claims the whole component on its own...
            assert np.array_equal(res.traversal.visited,
                                  forest.traversal.visited)
            # ...with its own min-parent tree rooted at its own seed,
            # bit-identical to the single-root frontier engine.
            single = run_frontier(small_road, root)
            assert res.traversal.parent[root] == -1
            assert np.array_equal(res.traversal.parent,
                                  single.traversal.parent)
            assert np.array_equal(res.level, single.level)
        # Independent parents: overlapping lanes disagree on parents
        # (different roots induce different min-parent trees) while the
        # forest assigned each vertex to exactly one tree.
        assert not np.array_equal(lanes[0].traversal.parent,
                                  lanes[1].traversal.parent)

    def test_duplicate_roots_give_identical_lanes(self, disconnected_graph):
        forest = run_diggerbees_multi(disconnected_graph, [0, 0, 3],
                                      config=CFG)
        lanes = self._swarm(disconnected_graph, [0, 0, 3])
        # multi_source drops exact duplicates; swarm runs both lanes
        # and they must be bit-identical.
        assert set(forest.roots) == {0, 3}
        assert np.array_equal(lanes[0].traversal.parent,
                              lanes[1].traversal.parent)
        assert np.array_equal(lanes[0].level, lanes[1].level)
        assert np.array_equal(lanes[0].traversal.visited,
                              lanes[1].traversal.visited)


class TestDrainPath:
    """Multi-source runs drain like single-source ones: the fused loop
    when the config allows it, the generic loop (with the config's
    schedule perturbation) otherwise."""

    CASES = {
        "road": (lambda: gen.road_network(600, seed=9), [0, 100, 300],
                 DiggerBeesConfig(n_blocks=4, warps_per_block=2, seed=9)),
        "social": (lambda: gen.preferential_attachment(500, m=3, seed=4),
                   [0, 50, 250, 499],
                   DiggerBeesConfig(n_blocks=4, warps_per_block=4, seed=4)),
        "tight_mesh": (lambda: gen.delaunay_mesh(400, seed=5), [0, 7, 200],
                       CFG),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fused_matches_reference_on_multi_root_seeds(self, name,
                                                         monkeypatch):
        from repro.core import diggerbees

        build, roots, cfg = self.CASES[name]
        graph = build()
        fused = run_diggerbees_multi(graph, roots, config=cfg)
        # Declining every config routes the drain to the generic loop.
        monkeypatch.setattr(diggerbees, "turbo_eligible", lambda c: False)
        ref = run_diggerbees_multi(graph, roots, config=cfg)
        assert fused.cycles == ref.cycles
        assert fused.roots == ref.roots
        assert np.array_equal(fused.traversal.parent, ref.traversal.parent)
        assert np.array_equal(fused.traversal.visited,
                              ref.traversal.visited)
        assert fused.counters == ref.counters

    def test_perturbed_run_changes_schedule_and_validates(self):
        build, roots, cfg = self.CASES["road"]
        graph = build()
        base = run_diggerbees_multi(graph, roots, config=cfg)
        pert = run_diggerbees_multi(
            graph, roots, config=cfg.with_overrides(perturb_seed=3, jitter=4),
            check_invariants=True)
        assert pert.cycles != base.cycles
        assert not np.array_equal(pert.traversal.parent,
                                  base.traversal.parent)
        assert np.array_equal(pert.traversal.visited, base.traversal.visited)
        assert pert.roots == base.roots
        forest_is_valid(graph, pert)
