"""Golden determinism tests: the fast path against the reference engine.

The contract of the fused loop (:mod:`repro.core.turbo`, the path
``run_diggerbees`` takes) is that it changes *nothing observable*: for a
given seed it must reproduce the reference engine
(``run_diggerbees_reference``, the generic calendar event loop)
bit for bit — same cycle count, same step count, same DFS tree.
"""

import numpy as np
import pytest

from repro.core import DiggerBeesConfig, run_diggerbees
from repro.core.diggerbees import run_diggerbees_reference
from repro.core.turbo import turbo_eligible
from repro.graphs import generators as gen

#: (graph builder, config) pairs spanning the structural regimes that
#: exercise different engine paths (deep road, shallow heavy-tail, mesh,
#: and a two-warp-per-block road grid).
GOLDEN_CASES = [
    ("road", lambda: gen.road_network(800, seed=5),
     dict(n_blocks=4, warps_per_block=4, seed=5)),
    ("social", lambda: gen.preferential_attachment(900, m=5, seed=6),
     dict(n_blocks=4, warps_per_block=4, seed=6)),
    ("mesh", lambda: gen.delaunay_mesh(700, seed=7),
     dict(n_blocks=2, warps_per_block=8, seed=7)),
    ("road600", lambda: gen.road_network(600, seed=9),
     dict(n_blocks=4, warps_per_block=2, seed=9)),
]


@pytest.mark.parametrize("name,build,cfg_kwargs", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_fastpath_matches_reference_schedule(name, build, cfg_kwargs):
    graph = build()
    cfg = DiggerBeesConfig(**cfg_kwargs)
    assert turbo_eligible(cfg)  # the fused loop actually engages
    ref = run_diggerbees_reference(graph, 0, config=cfg)
    fused = run_diggerbees(graph, 0, config=cfg)

    assert fused.cycles == ref.cycles
    assert fused.engine.steps == ref.engine.steps
    assert fused.n_visited == ref.n_visited
    assert fused.traversal.edges_traversed == ref.traversal.edges_traversed
    # Identical schedule implies the identical DFS tree, vertex by vertex.
    assert np.array_equal(fused.traversal.parent, ref.traversal.parent)


def test_repeated_runs_are_bit_identical():
    """Same config twice => same everything (no hidden global state)."""
    graph = gen.preferential_attachment(700, m=4, seed=11)
    cfg = DiggerBeesConfig(n_blocks=4, warps_per_block=4, seed=11)
    a = run_diggerbees(graph, 0, config=cfg)
    b = run_diggerbees(graph, 0, config=cfg)
    assert a.cycles == b.cycles
    assert a.engine.steps == b.engine.steps
    assert np.array_equal(a.traversal.parent, b.traversal.parent)
