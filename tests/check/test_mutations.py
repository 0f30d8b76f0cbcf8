"""Mutation sanity suite: every injected protocol bug must be caught.

This is the test that tests the checker.  Each registered mutation is a
hand-written, realistic steal-protocol bug (lost CAS write-back, skipped
reservation validation, dropped fence, double-pop, ...); the stress
fuzzer must detect every one within a small case budget.  A mutation the
suite cannot catch is a blind spot in the oracle ladder — the test
fails, pointing at exactly which invariant is missing.
"""

import pytest

from repro.check.cli import MUTANT_CASE_BUDGET
from repro.check.differential import check_case
from repro.check.cases import case_from_seed
from repro.check.mutations import MUTATIONS, apply_mutation
from repro.core import inter_steal, intra_steal


def test_at_least_six_protocol_bugs_registered():
    assert len(MUTATIONS) >= 6


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_is_caught(name, mutant_detections):
    """Caught with the generic event loop running the primary pass (the
    stress case as sampled, perturbation included); the fused-loop
    primary is covered by test_turbo_check."""
    failure = mutant_detections(name)["generic"]
    assert failure is not None, (
        f"injected bug {name!r} ({MUTATIONS[name].description}) survived "
        f"{MUTANT_CASE_BUDGET} stress cases — the checker has a blind spot; "
        f"expected detector: {MUTATIONS[name].expected_detector}"
    )
    # Acceptance criterion: every failure prints a one-line repro command.
    cmd = failure.repro_command
    assert cmd.startswith("python -m repro.check repro ")
    assert f"--mutation {name}" in cmd


@pytest.mark.parametrize("name", ["intra_skip_cas_validation",
                                  "inter_skip_cas_validation"])
def test_skip_cas_bugs_fail_at_the_monitor_stage(name, mutant_detections):
    """The skipped-reservation bugs move well-formed entries, so only
    the monitor's CAS-linearizability hook can see them; they must be
    reported by the invariants stage with a linearizability message,
    whichever loop runs the primary pass."""
    for primary, failure in mutant_detections(name).items():
        assert failure is not None, primary
        assert failure.stage == "invariants", primary
        assert "linearizability" in failure.message, primary


def test_mutation_context_restores_protocol():
    intra_orig = intra_steal.execute_steal
    inter_orig = inter_steal.execute_steal
    with apply_mutation("intra_lost_cas_writeback"):
        assert intra_steal.execute_steal is not intra_orig
    assert intra_steal.execute_steal is intra_orig
    with apply_mutation("inter_skip_cas_validation"):
        assert inter_steal.execute_steal is not inter_orig
    assert inter_steal.execute_steal is inter_orig
    # And a clean case still passes after all that patching.
    assert check_case(case_from_seed(0, stress=True), stress=True) is None


def test_apply_unknown_mutation_raises():
    with pytest.raises(KeyError, match="unknown mutation"):
        with apply_mutation("not_a_bug"):
            pass


def test_apply_none_is_noop():
    with apply_mutation(None):
        pass
