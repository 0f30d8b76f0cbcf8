"""The --serve oracle rung wired through the check CLI and ladder."""

import pytest

from repro.check.cases import case_from_seed
from repro.check.cli import build_parser, run_mutant
from repro.check.differential import check_case


def test_check_case_serve_passes_on_healthy_engine():
    assert check_case(case_from_seed(0), serve=True) is None


def test_serve_failure_carries_flag_into_repro_command(monkeypatch):
    from repro.check import serve_oracle as oracle_mod

    real = oracle_mod.ServeOracle.query_dfs

    def corrupting(self, graph, root, overrides=None, **kwargs):
        result, cached = real(self, graph, root, overrides, **kwargs)
        bad = dict(result)
        bad["steps"] = bad.get("steps", 0) + 1
        return bad, cached

    monkeypatch.setattr(oracle_mod.ServeOracle, "query_dfs", corrupting)
    failure = check_case(case_from_seed(4), serve=True)
    assert failure is not None
    assert failure.stage == "serve-diff" and failure.serve
    assert "--serve" in failure.repro_command
    assert "steps" in failure.message


@pytest.mark.parametrize("sub", ["fuzz", "repro", "mutants"])
def test_cli_parses_serve_flag(sub):
    parser = build_parser()
    extra = ["3"] if sub == "repro" else []
    args = parser.parse_args([sub, *extra, "--serve"])
    assert args.serve is True
    args = parser.parse_args([sub, *extra])
    assert args.serve is False


def test_cmd_repro_serve_exit_codes(capsys):
    from repro.check.cli import main

    assert main(["repro", "3", "--serve"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_run_mutant_detected_through_serve_path():
    failure = run_mutant("claim_lost_store", budget=4, serve=True)["generic"]
    assert failure is not None
    # The bug is caught by whichever rung fires first; the serve rung's
    # job here is transport fidelity, and the flag must survive into the
    # reproduction command either way.
    assert "--serve" in failure.repro_command
    assert "--mutation claim_lost_store" in failure.repro_command
