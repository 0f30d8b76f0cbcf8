"""Command-line driver for ``repro.check``.

Subcommands::

    python -m repro.check fuzz [--cases N | --smoke | --seconds S]
                               [--start-seed K] [--stress]
                               [--hive] [--frontier] [--shard]
                               [--swarm] [--no-shrink]
    python -m repro.check repro <seed> [--stress] [--hive]
                                       [--frontier] [--shard] [--swarm]
                                       [--mutation NAME]
    python -m repro.check repro --case '<json>' [--mutation NAME]
    python -m repro.check mutants [--names a,b] [--budget N]
                                  [--hive] [--frontier] [--shard]
                                  [--swarm]

``fuzz`` samples seed-derived cases and runs each through the oracle
ladder, shrinking the first failure and exiting non-zero with a one-line
repro command.  ``repro`` replays exactly one case.  ``mutants`` runs
the mutation sanity suite: every registered hand-injected protocol bug
must be caught within the per-mutation case budget through both DFS
loops — this is the check that the checker itself works.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from repro.check.cases import case_from_seed
from repro.check.differential import (
    CheckFailure,
    case_from_json,
    check_case,
)
from repro.check.mutations import MUTATIONS
from repro.check.shrink import shrink_case

__all__ = ["main"]

#: Per-mutation case budget for the sanity suite (stress cases are built
#: to trigger steal traffic fast; most mutations die on the first case).
MUTANT_CASE_BUDGET = 12

#: The primary loops every mutation must be caught through.  A stress
#: case as sampled carries a schedule perturbation, so its primary pass
#: runs the generic event loop; the same case with the perturbation
#: stripped runs the fused loop.
MUTANT_PRIMARIES = ("generic", "fused")


def _echo(msg: str) -> None:
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def cmd_fuzz(args) -> int:
    deadline = time.monotonic() + args.seconds if args.seconds else None
    n_cases = 40 if args.smoke and args.cases is None else (args.cases or 200)
    seed = args.start_seed
    ran = 0
    t0 = time.monotonic()
    while ran < n_cases:
        if deadline is not None and time.monotonic() >= deadline:
            break
        case = case_from_seed(seed, stress=args.stress)
        failure = check_case(case, stress=args.stress,
                             hive=args.hive, serve=args.serve,
                             frontier=args.frontier, shard=args.shard,
                             swarm=args.swarm)
        ran += 1
        if failure is not None:
            _echo(failure.report())
            if not args.no_shrink:
                _echo("shrinking...")
                failure = shrink_case(failure, log=_echo)
                _echo(failure.report())
            _echo(f"repro: {failure.repro_command}")
            return 1
        if args.verbose:
            _echo(f"ok    {case.describe()}")
        seed += 1
    dt = time.monotonic() - t0
    _echo(f"fuzz: {ran} cases passed in {dt:.1f}s "
          f"(seeds {args.start_seed}..{seed - 1})")
    return 0


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------

def cmd_repro(args) -> int:
    if args.case:
        case = case_from_json(args.case)
    elif args.seed is not None:
        case = case_from_seed(args.seed, stress=args.stress)
    else:
        _echo("repro: need a <seed> or --case '<json>'")
        return 2
    _echo(f"case: {case.describe()}")
    failure = check_case(case, mutation=args.mutation, stress=args.stress,
                         hive=args.hive, serve=args.serve,
                         frontier=args.frontier, shard=args.shard,
                         swarm=args.swarm)
    if failure is None:
        _echo("PASS: all oracle stages agree")
        return 0
    _echo(failure.report())
    return 1


# ---------------------------------------------------------------------------
# mutants
# ---------------------------------------------------------------------------

def run_mutant(name: str, *, budget: int = MUTANT_CASE_BUDGET,
               start_seed: int = 0,
               hive: bool = False,
               serve: bool = False,
               frontier: bool = False,
               shard: bool = False,
               swarm: bool = False) -> Dict[str, Optional[CheckFailure]]:
    """Fuzz one mutation with stress cases through both DFS loops.

    Returns the first detection per primary loop, keyed by
    :data:`MUTANT_PRIMARIES` (``None`` where ``budget`` seeds never
    caught it).  Each seed's stress case runs as sampled (generic
    primary) and with its perturbation stripped (fused primary); the
    stripped variant is also the one the hive rung (``hive=True``) can
    engage on.
    """
    found: Dict[str, Optional[CheckFailure]] = dict.fromkeys(
        MUTANT_PRIMARIES)
    for seed in range(start_seed, start_seed + budget):
        case = case_from_seed(seed, stress=True)
        variants = {"generic": case,
                    "fused": case.with_(perturb_seed=None, jitter=0)}
        for primary, variant in variants.items():
            if found[primary] is None:
                found[primary] = check_case(
                    variant, mutation=name, stress=True, hive=hive,
                    serve=serve, frontier=frontier, shard=shard,
                    swarm=swarm)
        if all(found.values()):
            break
    return found


def cmd_mutants(args) -> int:
    names: List[str] = (args.names.split(",") if args.names
                        else sorted(MUTATIONS))
    missed = []
    for name in names:
        if name not in MUTATIONS:
            _echo(f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}")
            return 2
        t0 = time.monotonic()
        found = run_mutant(name, budget=args.budget,
                           hive=args.hive, serve=args.serve,
                           frontier=args.frontier, shard=args.shard,
                           swarm=args.swarm)
        dt = time.monotonic() - t0
        for primary in MUTANT_PRIMARIES:
            failure = found[primary]
            if failure is None:
                missed.append(f"{name} ({primary})")
                _echo(f"MISSED {name} through the {primary} loop: not "
                      f"caught within {args.budget} cases ({dt:.1f}s) — "
                      f"the checker has a blind spot")
                continue
            _echo(f"caught {name} through the {primary} loop "
                  f"[{failure.stage}] seed={failure.case.seed} "
                  f"({dt:.1f}s): {failure.message.splitlines()[0]}")
            if args.verbose:
                _echo(f"  repro: {failure.repro_command}")
    if missed:
        _echo(f"mutation suite FAILED: {len(missed)} undetected "
              f"(mutation, loop) pairs: {missed}")
        return 1
    _echo(f"mutation suite passed: {len(names)}/{len(names)} injected "
          f"bugs detected through both loops")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Differential fuzzing + steal-protocol invariant checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="run the differential fuzz loop")
    fuzz.add_argument("--cases", type=int, default=None,
                      help="number of cases (default 200; 40 with --smoke)")
    fuzz.add_argument("--smoke", action="store_true",
                      help="CI smoke budget (40 cases or --seconds cap)")
    fuzz.add_argument("--seconds", type=float, default=None,
                      help="wall-clock budget; stops sampling when exceeded")
    fuzz.add_argument("--start-seed", type=int, default=0)
    fuzz.add_argument("--stress", action="store_true",
                      help="bias cases toward maximum steal contention")
    fuzz.add_argument("--no-shrink", action="store_true")
    fuzz.add_argument("--hive", action="store_true",
                      help="add the batched-lockstep (hive) differential "
                           "rung on eligible cases")
    fuzz.add_argument("--serve", action="store_true",
                      help="add the serve differential rung: every "
                           "case's DFS is also run through a live "
                           "repro.serve daemon and must match exactly")
    fuzz.add_argument("--frontier", action="store_true",
                      help="add the frontier differential rung: the "
                           "bit-packed SpMV engine must match the DFS "
                           "on reachability and its own level/parent "
                           "contract on every case")
    fuzz.add_argument("--shard", action="store_true",
                      help="add the shard differential rung: the "
                           "sharded tier (k=2 and k=4) must match the "
                           "unsharded engine on reachability and edge "
                           "inspections and be k-invariant on every "
                           "case")
    fuzz.add_argument("--swarm", action="store_true",
                      help="add the swarm differential rung: every "
                           "case-root lane of a three-lane lockstep "
                           "batch must be bit-identical to the "
                           "single-root frontier engine and agree "
                           "with the DFS/bfs_levels/min-parent "
                           "references on every case")
    fuzz.add_argument("--verbose", action="store_true")
    fuzz.set_defaults(func=cmd_fuzz)

    repro = sub.add_parser("repro", help="replay one case by seed or spec")
    repro.add_argument("seed", type=int, nargs="?", default=None)
    repro.add_argument("--case", type=str, default=None,
                       help="full JSON case spec (for shrunk cases and "
                            "stress cases with the perturbation stripped)")
    repro.add_argument("--stress", action="store_true")
    repro.add_argument("--hive", action="store_true",
                       help="add the batched-lockstep (hive) differential "
                            "rung")
    repro.add_argument("--serve", action="store_true",
                       help="add the serve differential rung")
    repro.add_argument("--frontier", action="store_true",
                       help="add the frontier differential rung")
    repro.add_argument("--shard", action="store_true",
                       help="add the shard differential rung")
    repro.add_argument("--swarm", action="store_true",
                       help="add the swarm differential rung")
    repro.add_argument("--mutation", type=str, default=None,
                       choices=sorted(MUTATIONS))
    repro.set_defaults(func=cmd_repro)

    mutants = sub.add_parser(
        "mutants", help="verify every injected protocol bug is caught")
    mutants.add_argument("--names", type=str, default=None,
                         help="comma-separated subset (default: all)")
    mutants.add_argument("--budget", type=int, default=MUTANT_CASE_BUDGET)
    mutants.add_argument("--hive", action="store_true",
                         help="also run the batched-lockstep (hive) "
                              "differential rung (it engages on the "
                              "fused-loop variant of each case)")
    mutants.add_argument("--serve", action="store_true",
                         help="run every mutant with the serve "
                              "differential rung active (injected bugs "
                              "must be caught through the served path)")
    mutants.add_argument("--frontier", action="store_true",
                         help="run every mutant with the frontier "
                              "differential rung active (injected DFS "
                              "bugs must still be caught with the "
                              "frontier oracle in the ladder)")
    mutants.add_argument("--shard", action="store_true",
                         help="run every mutant with the shard "
                              "differential rung active (injected bugs "
                              "must be caught through the sharded "
                              "tier's merge and self-checks)")
    mutants.add_argument("--swarm", action="store_true",
                         help="run every mutant with the swarm "
                              "differential rung active (injected DFS "
                              "bugs must still be caught with the "
                              "lockstep swarm oracle in the ladder)")
    mutants.add_argument("--verbose", action="store_true")
    mutants.set_defaults(func=cmd_mutants)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
