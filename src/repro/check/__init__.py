"""Correctness tooling: invariant monitor, schedule fuzzer, differential
fuzz driver, failure shrinker, and the mutation sanity suite.

The oracle hierarchy (weakest to strongest coupling to the protocol):

1. serial reference DFS (ground-truth reachability);
2. output validators (:mod:`repro.validate.tree`);
3. steal-protocol invariant hooks (:class:`InvariantMonitor`) firing at
   every steal / flush / refill plus a periodic global sweep;
4. differential reruns (the fused loop vs the generic reference
   engine, the opt-in hive/serve/frontier/shard/swarm tiers, CPU PDFS
   baselines).

See ``docs/TESTING.md`` for the full map and CLI usage.
"""

from repro.check.cases import FAMILIES, FuzzCase, case_from_seed
from repro.check.differential import (
    CheckFailure,
    case_from_json,
    case_to_json,
    check_case,
    run_monitored,
)
from repro.check.invariants import InvariantMonitor
from repro.check.mutations import MUTATIONS, Mutation, apply_mutation
from repro.check.shrink import shrink_case

__all__ = [
    "FAMILIES",
    "FuzzCase",
    "case_from_seed",
    "CheckFailure",
    "case_from_json",
    "case_to_json",
    "check_case",
    "run_monitored",
    "InvariantMonitor",
    "MUTATIONS",
    "Mutation",
    "apply_mutation",
    "shrink_case",
]
