"""Fixtures shared by the ``repro.check`` tests."""

from __future__ import annotations

import functools

import pytest

from repro.check.cli import MUTANT_CASE_BUDGET, run_mutant


@pytest.fixture(scope="session")
def mutant_detections():
    """``name -> run_mutant(name)`` at the default budget, memoized.

    One ``run_mutant`` call covers both primary loops; the generic- and
    fused-primary assertions live in separate test modules, so sharing
    the result keeps the suite from fuzzing every mutant twice.
    """
    return functools.lru_cache(maxsize=None)(
        lambda name: run_mutant(name, budget=MUTANT_CASE_BUDGET))
