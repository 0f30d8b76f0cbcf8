"""Perf-smoke gate over the fixed engine micro-sweep.

Two layers of protection:

* ``test_schedule_matches_baseline`` runs in the ordinary test suite —
  it compares the (deterministic) simulated cycles/steps of each micro
  case, run on the fused loop, against
  ``benchmarks/baseline_micro.json`` (recorded on the generic loop),
  catching accidental schedule drift regardless of machine load.
* ``test_wall_time_gate`` carries the ``perf_smoke`` marker and is
  deselected by default (see ``addopts`` in ``pyproject.toml``) because
  wall-clock assertions are load-sensitive; CI runs it explicitly with
  ``pytest -m perf_smoke`` (equivalent to
  ``python -m repro.bench micro --quick``).
"""

import json

import pytest

from repro.bench import micro
from repro.core.diggerbees import run_diggerbees
from repro.core.turbo import turbo_eligible


def _load_baseline():
    path = micro.default_baseline_path()
    if not path.exists():
        pytest.skip(f"no recorded baseline at {path}; run "
                    f"`python -m repro.bench micro --update-baseline`")
    return json.loads(path.read_text())


def test_schedule_matches_baseline():
    baseline = {c["name"]: c for c in _load_baseline()["cases"]}
    for name, build, cfg in micro.MICRO_CASES:
        assert name in baseline, f"case {name} missing from baseline"
        assert turbo_eligible(cfg), f"{name} no longer runs fused"
        res = run_diggerbees(build(), 0, config=cfg)
        assert res.cycles == baseline[name]["cycles"], (
            f"{name}: schedule drift (cycles {res.cycles} vs baseline "
            f"{baseline[name]['cycles']}) — determinism contract broken")
        assert res.engine.steps == baseline[name]["steps"]


@pytest.mark.perf_smoke
def test_wall_time_gate():
    baseline = _load_baseline()
    result = micro.run_micro(repeats=3)
    problems = micro.check_against_baseline(result, baseline)
    assert not problems, "; ".join(problems)

