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



# ---------------------------------------------------------------------------
# The inline idle path: victim scans run inside the fused loop.
# ---------------------------------------------------------------------------

#: The micro-sweep's steal-heavy stack geometry (skew3000 / hub2500).
TIGHT = dict(hot_size=16, hot_cutoff=4, cold_cutoff=8, flush_batch=4,
             refill_batch=4, cold_reserve=64)

#: One override per branch of the inline idle path, each with the
#: counter that proves the branch ran.
IDLE_BRANCHES = {
    # 6 blocks: a non-power-of-two sampling range (Lemire threshold > 0).
    "six_blocks": ({"n_blocks": 6}, "inter_steal_attempts"),
    # The remote fallback samples every block, not the GPU's range.
    "two_gpus": ({"n_gpus": 2}, "remote_steal_successes"),
    "random_policy": ({"victim_policy": "random"}, "inter_steal_attempts"),
    "no_intra": ({"enable_intra_steal": False}, "inter_steal_attempts"),
    "no_inter": ({"enable_inter_steal": False}, "intra_steal_attempts"),
}


def _idle_graph(name):
    from repro.graphs import generators as gen
    if name == "skewed_tree":
        return gen.skewed_tree(1200, seed=5)
    if name == "hub":
        return gen.preferential_attachment(1000, m=4, seed=6)
    return gen.road_network(1000, seed=3)


def _assert_fused_matches_reference(graph, cfg):
    fused = run_diggerbees(graph, 0, config=cfg)
    ref = run_diggerbees_reference(graph, 0, config=cfg)
    assert fused.cycles == ref.cycles
    assert fused.engine.steps == ref.engine.steps
    assert fused.counters == ref.counters
    assert np.array_equal(fused.traversal.parent, ref.traversal.parent)
    assert np.array_equal(fused.traversal.visited, ref.traversal.visited)
    return ref


@pytest.mark.parametrize("branch", sorted(IDLE_BRANCHES))
@pytest.mark.parametrize("graph_name", ["skewed_tree", "hub", "road"])
def test_inline_idle_path_matches_reference(graph_name, branch):
    """fused == reference on every branch of the inline victim scans,
    on the tight geometry where steals dominate the schedule."""
    overrides, witness = IDLE_BRANCHES[branch]
    kwargs = dict(n_blocks=4, warps_per_block=4, seed=2, **TIGHT)
    kwargs.update(overrides)
    cfg = DiggerBeesConfig(**kwargs)
    assert turbo_eligible(cfg)
    ref = _assert_fused_matches_reference(_idle_graph(graph_name), cfg)
    assert getattr(ref.counters, witness) > 0
    if branch == "no_intra":
        assert ref.counters.intra_steal_attempts == 0
    if branch == "no_inter":
        assert ref.counters.inter_steal_attempts == 0


@pytest.mark.parametrize("branch", sorted(IDLE_BRANCHES))
def test_inline_idle_path_matches_reference_default_geometry(branch):
    kwargs = dict(n_blocks=4, warps_per_block=4, seed=2)
    kwargs.update(IDLE_BRANCHES[branch][0])
    _assert_fused_matches_reference(_idle_graph("road"),
                                    DiggerBeesConfig(**kwargs))


def _count_idle_scans(monkeypatch):
    """Spy on ``WarpAgent._idle``: count the calls that scan for a victim
    (an active peer to rob, or an idle block's leader looking out)."""
    from repro.core.warp_dfs import WarpAgent

    scans = []
    real_idle = WarpAgent._idle

    def spy(self, now):
        cfg = self.state.config
        others = self.block.active_mask & ~self._bit
        if ((cfg.enable_intra_steal and others)
                or (cfg.enable_inter_steal and self.warp_id == 0
                    and not others and cfg.n_blocks > 1)):
            scans.append(now)
        return real_idle(self, now)

    monkeypatch.setattr(WarpAgent, "_idle", spy)
    return scans


def _steal_case(**overrides):
    case = _family_case("road_network").with_(n_vertices=400,
                                             warps_per_block=4)
    return case.build_graph(), case.root, case.build_config(**overrides)


def test_pristine_selection_scans_inline(monkeypatch):
    """Control: with pristine selectors and no fuzzing, the fused loop
    scans inline and never enters ``_idle``."""
    graph, root, cfg = _steal_case(adversarial_victims=False)
    scans = _count_idle_scans(monkeypatch)
    run_diggerbees_reference(graph, root, config=cfg)
    assert scans  # the case does scan
    scans.clear()
    run_diggerbees(graph, root, config=cfg)
    assert scans == []


@pytest.mark.parametrize("how", ["adversarial", "patched_intra",
                                 "patched_inter"])
def test_idle_scans_reach_agent_when_selection_is_not_pristine(
        monkeypatch, how):
    """Adversarial fuzzing, or a patched victim selector (mutation
    checks, spies), routes *every* idle scan through
    ``WarpAgent._idle``: the fused run scans there exactly as often, and
    at the same times, as the reference engine."""
    from repro.core import inter_steal, intra_steal

    graph, root, cfg = _steal_case(
        adversarial_victims=(how == "adversarial"))
    if how != "adversarial":
        module = intra_steal if how == "patched_intra" else inter_steal
        real = module.select_victim
        monkeypatch.setattr(module, "select_victim",
                            lambda *args: real(*args))
    scans = _count_idle_scans(monkeypatch)
    ref = run_diggerbees_reference(graph, root, config=cfg)
    ref_scans = list(scans)
    scans.clear()
    fused = run_diggerbees(graph, root, config=cfg)
    assert ref_scans and scans == ref_scans
    assert fused.cycles == ref.cycles
    assert fused.counters == ref.counters
