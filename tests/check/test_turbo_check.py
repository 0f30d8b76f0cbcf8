"""Checker coverage for the fused loop.

Two obligations: (1) the oracle ladder's fused-vs-generic rung passes on
clean cases whose primary pass runs fused, and (2) the mutation sanity
suite retains full detection power when the primary pass executes under
the fused loop — i.e. the fused loop has no blind spot that lets an
injected steal-protocol bug through.
"""

import pytest

from repro.check.cases import case_from_seed
from repro.check.cli import MUTANT_CASE_BUDGET
from repro.check.differential import case_from_json, check_case
from repro.check.mutations import MUTATIONS
from repro.core.turbo import turbo_eligible


def test_clean_cases_pass_with_turbo_primary():
    """The full ladder (fused primary vs generic differential) agrees on
    clean seed-derived cases."""
    for seed in range(4):
        case = case_from_seed(seed).with_(perturb_seed=None, jitter=0)
        failure = check_case(case)
        assert failure is None, failure.report()


def test_fused_failures_replay_from_a_case_spec():
    """A stripped stress case is not seed-derivable, so its repro command
    ships the full case spec, which rebuilds the fused-primary case."""
    case = case_from_seed(0, stress=True).with_(perturb_seed=None, jitter=0)
    assert turbo_eligible(case.build_config())
    failure = check_case(case, mutation="flush_publish_drop", stress=True)
    assert failure is not None
    cmd = failure.repro_command
    assert "--mutation flush_publish_drop" in cmd
    spec = cmd.split("--case '")[1].split("'")[0]
    assert case_from_json(spec) == case


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_is_caught_under_turbo(name, mutant_detections):
    """Every injected protocol bug must be detected with the fused loop
    executing the primary pass (each stress case's perturbation is
    stripped so the fused loop engages, see run_mutant)."""
    failure = mutant_detections(name)["fused"]
    assert failure is not None, (
        f"injected bug {name!r} ({MUTATIONS[name].description}) survived "
        f"{MUTANT_CASE_BUDGET} fused-loop stress cases — the fused loop "
        f"has a blind spot; expected detector: "
        f"{MUTATIONS[name].expected_detector}"
    )
    assert failure.case.perturb_seed is None
