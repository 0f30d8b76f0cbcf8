"""Bit-identity and eligibility coverage for the fused loop.

The fused loop (``repro.core.turbo``) is the DFS execution path, and its
contract is *schedule identity*, not mere correctness: for every
eligible configuration it must reproduce the generic engine's cycles,
steps, traversal output and counters bit-for-bit.  These tests sweep
that contract across every fuzz graph family and pin down exactly when
``run_diggerbees`` takes the fused loop and when the generic one.
"""

import numpy as np
import pytest

from repro.check.cases import FAMILIES, FuzzCase
from repro.core import diggerbees
from repro.core.config import DiggerBeesConfig
from repro.core.diggerbees import run_diggerbees, run_diggerbees_reference
from repro.core.turbo import turbo_eligible


def _family_case(family: str) -> FuzzCase:
    """A small high-contention case (tiny rings, adversarial victims)."""
    return FuzzCase(
        seed=0, family=family, n_vertices=96, graph_seed=7,
        n_blocks=2, warps_per_block=2, hot_size=8, hot_cutoff=2,
        cold_cutoff=2, flush_batch=2, refill_batch=2,
        adversarial_victims=True,
    )


def _engine_spy(monkeypatch):
    """Record which loop each ``run_diggerbees`` call drains with."""
    taken = []
    real_turbo = diggerbees.run_turbo
    real_loop = diggerbees.EventLoop

    def spy_turbo(*a, **kw):
        taken.append("fused")
        return real_turbo(*a, **kw)

    def spy_loop(*a, **kw):
        taken.append("generic")
        return real_loop(*a, **kw)

    monkeypatch.setattr(diggerbees, "run_turbo", spy_turbo)
    monkeypatch.setattr(diggerbees, "EventLoop", spy_loop)
    return taken


@pytest.mark.parametrize("family", FAMILIES)
def test_turbo_bit_identical_across_families(family):
    """fused == the generic reference engine on
    cycles/steps/output/counters."""
    case = _family_case(family)
    graph = case.build_graph()
    cfg = case.build_config()
    assert turbo_eligible(cfg)  # the fused loop actually engages
    turbo = run_diggerbees(graph, case.root, config=cfg)
    ref = run_diggerbees_reference(graph, case.root, config=cfg)
    assert turbo.cycles == ref.cycles
    assert turbo.engine.steps == ref.engine.steps
    assert np.array_equal(turbo.traversal.parent, ref.traversal.parent)
    assert np.array_equal(turbo.traversal.visited, ref.traversal.visited)
    assert turbo.counters == ref.counters


class TestEligibility:
    def test_default_config_takes_fused_loop(self, monkeypatch):
        """The default config is eligible, and run_diggerbees drains it
        with run_turbo, never the generic EventLoop."""
        assert turbo_eligible(DiggerBeesConfig())
        taken = _engine_spy(monkeypatch)
        case = _family_case("road_network")
        run_diggerbees(case.build_graph(), case.root)
        run_diggerbees(case.build_graph(), case.root,
                       config=case.build_config())
        assert taken == ["fused", "fused"]

    def test_config_has_no_loop_knob(self):
        """The execution path is not configurable: the retired turbo,
        scheduler and fastpath fields are rejected."""
        for field, value in (("turbo", True), ("scheduler", "heap"),
                             ("fastpath", False)):
            assert field not in DiggerBeesConfig.__dataclass_fields__
            with pytest.raises(TypeError):
                DiggerBeesConfig(**{field: value})

    @pytest.mark.parametrize("overrides", [
        {"two_level": False},
        {"perturb_seed": 3},
        {"perturb_seed": 3, "jitter": 2},
        {"two_level": False, "perturb_seed": 1},
    ])
    def test_fallback_conditions(self, overrides):
        cfg = DiggerBeesConfig(**overrides)
        assert not turbo_eligible(cfg)

    @pytest.mark.parametrize("overrides", [
        {"two_level": False},
        {"perturb_seed": 5, "jitter": 2},
        {"perturb_seed": 3},
        {"two_level": False, "perturb_seed": 1, "jitter": 1},
    ])
    def test_ineligible_configs_take_event_loop(self, monkeypatch,
                                                overrides):
        """Configs the fused loop cannot run drain on the generic
        EventLoop, and still traverse correctly."""
        taken = _engine_spy(monkeypatch)
        case = _family_case("road_network")
        graph = case.build_graph()
        res = run_diggerbees(graph, case.root,
                             config=case.build_config(**overrides))
        assert taken == ["generic"]
        assert res.traversal.visited.all()

