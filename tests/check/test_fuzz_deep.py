"""Deep differential fuzz sweep (deselected by default; run with
``pytest -m fuzz``).  The smoke-budget equivalents of these runs live in
CI via ``python -m repro.check fuzz --smoke``."""

import pytest

from repro.check.cases import case_from_seed
from repro.check.cli import run_mutant
from repro.check.differential import check_case
from repro.check.mutations import MUTATIONS

pytestmark = pytest.mark.fuzz


@pytest.mark.parametrize("stress", [False, True])
def test_deep_fuzz_sweep(stress):
    for seed in range(300):
        failure = check_case(case_from_seed(seed, stress=stress),
                             stress=stress)
        assert failure is None, failure.report()


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutations_caught_with_generous_budget(name):
    assert all(run_mutant(name, budget=40).values())
