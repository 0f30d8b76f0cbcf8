"""Tests for the ``python -m repro.check`` command-line driver."""

import pytest

from repro.check import cli
from repro.check.cases import case_from_seed
from repro.check.differential import CheckFailure, case_to_json


def test_fuzz_small_run_passes(capsys):
    rc = cli.main(["fuzz", "--cases", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "5 cases passed" in out


def test_fuzz_failure_prints_repro_and_exits_nonzero(capsys, monkeypatch):
    failure = CheckFailure(case=case_from_seed(3), stage="serial-diff",
                           message="synthetic divergence")
    monkeypatch.setattr(cli, "check_case",
                        lambda case, **kw: failure if case.seed == 3 else None)
    rc = cli.main(["fuzz", "--cases", "10", "--no-shrink"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL [serial-diff]" in out
    assert "repro: python -m repro.check repro 3" in out


def test_repro_clean_seed(capsys):
    rc = cli.main(["repro", "2"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_repro_with_mutation_fails(capsys):
    rc = cli.main(["repro", "0", "--stress",
                   "--mutation", "flush_publish_drop"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL [invariants]" in out


def test_repro_case_spec(capsys):
    spec = case_to_json(case_from_seed(1))
    rc = cli.main(["repro", "--case", spec])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_repro_without_input_is_usage_error(capsys):
    assert cli.main(["repro"]) == 2


def test_mutants_subset(capsys):
    rc = cli.main(["mutants",
                   "--names", "intra_lost_cas_writeback,refill_double_pop"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2/2 injected bugs detected through both loops" in out


def test_mutants_unknown_name(capsys):
    assert cli.main(["mutants", "--names", "nope"]) == 2


def test_mutants_reports_misses(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_mutant",
                        lambda name, **kw: dict.fromkeys(
                            cli.MUTANT_PRIMARIES))
    rc = cli.main(["mutants", "--names", "flush_publish_drop"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "MISSED flush_publish_drop through the generic loop" in out
    assert "MISSED flush_publish_drop through the fused loop" in out


def test_mutants_reports_a_miss_in_one_loop(capsys, monkeypatch):
    """Caught through the generic loop alone is still a failed suite."""
    failure = CheckFailure(case=case_from_seed(0, stress=True),
                           stage="invariants", message="caught",
                           mutation="flush_publish_drop", stress=True)
    monkeypatch.setattr(cli, "run_mutant",
                        lambda name, **kw: {"generic": failure,
                                            "fused": None})
    rc = cli.main(["mutants", "--names", "flush_publish_drop"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "caught flush_publish_drop through the generic loop" in out
    assert "MISSED flush_publish_drop through the fused loop" in out
