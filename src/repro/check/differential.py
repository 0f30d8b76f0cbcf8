"""Differential check driver for one fuzz case (``repro.check`` part 3).

:func:`check_case` runs a :class:`~repro.check.cases.FuzzCase` through a
fixed oracle ladder and reports the first failure (or None):

1. **monitored run** — DiggerBees under a live
   :class:`~repro.check.invariants.InvariantMonitor` with the engine's
   per-step sweep observer and the post-run ``check_invariants`` pass;
2. **output validation** — :func:`repro.validate.tree.validate_traversal`
   (tree validity + visited/reachable equality);
3. **serial reference** — visited set must equal
   :func:`~repro.validate.reference.serial_dfs`'s (the ground truth);
4. **fused vs generic** — when the primary ran on the fused loop,
   rerun the case on the reference engine
   (:func:`~repro.core.diggerbees.run_diggerbees_reference`, the
   generic event loop); cycles, steps, parent and visited must be
   bit-identical (the fused loop promises an *identical schedule*, not
   merely a correct one).  A primary that already ran on the generic
   loop (one-level stacks, perturbation) skips this rung;
5b. **hive differential** (opt-in via ``hive=True``) — rerun the case as
   a two-run lockstep batch on the NumPy hive engine
   (:mod:`repro.core.hive`); every batched run must match the primary
   result bit-for-bit on cycles, steps, parent, visited *and* counters
   (skipped where the hive cannot engage: the fused loop's gates plus
   hive eligibility);
5d. **serve differential** (opt-in via ``serve=True``) — send the case's
   DFS through a live :mod:`repro.serve` daemon (real socket, wire
   protocol, admission, cache); the served payload must equal the
   canonical payload of the primary result, and — for unmutated runs —
   the repeat query must come back from the result cache, still
   identical;
5e. **frontier differential** (opt-in via ``frontier=True``) — run the
   bit-packed SpMV engine (:mod:`repro.core.frontier`) on the same
   graph; its visited set must equal the DFS's, its level array must
   equal :func:`~repro.graphs.properties.bfs_levels`, its parent array
   must equal the independent min-parent oracle, and forced push/pull
   runs must be bit-identical to the auto-switched one;
5f. **shard differential** (opt-in via ``shard=True``) — run the sharded
   execution tier (:mod:`repro.core.shard`) at k=2 and k=4 on the same
   graph; each run's visited set must equal both the primary's and the
   serial reference's, its levels must equal
   :func:`~repro.graphs.properties.bfs_levels`, its edge count must
   equal the primary's, its parent tree must equal the independent
   min-parent oracle (undirected cases), and the two k values must be
   bit-identical to each other (the canonical merge promises
   k-invariance);
5g. **swarm differential** (opt-in via ``swarm=True``) — run the case's
   root as one lane of a three-lane lockstep swarm batch
   (:mod:`repro.core.swarm`, with a second distinct root and the case
   root duplicated); every case-root lane must be bit-identical to the
   single-root :func:`~repro.core.frontier.run_frontier` result on
   visited, parent, level and the push/pull/edges-scanned profile, its
   visited set must equal the DFS's, its levels must equal
   ``bfs_levels``, and its parent tree must equal the independent
   min-parent oracle (undirected cases) — lane batching must never
   leak state across lanes;
6. **PDFS baseline differential** — CKL-PDFS reachability on the same
   graph must match (skipped on larger cases; it is the slowest oracle).

The primary run (stage 1) takes whichever loop ``run_diggerbees`` picks
for the case: the fused loop (:mod:`repro.core.turbo`) for unperturbed
two-level cases, the generic event loop otherwise.

Every failure carries the one-line shell command that reproduces it
deterministically (acceptance criterion: *"every failure the fuzzer
reports prints a one-line repro command"*).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from repro.check.cases import FuzzCase, case_from_seed
from repro.check.invariants import InvariantMonitor
from repro.check.mutations import apply_mutation
from repro.core.diggerbees import (DiggerBeesResult, run_diggerbees,
                                   run_diggerbees_reference)
from repro.core.turbo import turbo_eligible
from repro.errors import ReproError
from repro.validate.reference import serial_dfs
from repro.validate.tree import validate_traversal

__all__ = ["CheckFailure", "check_case", "run_monitored", "case_to_json",
           "case_from_json", "PDFS_MAX_VERTICES"]

#: Cases at or below this size also run the CKL-PDFS baseline oracle.
PDFS_MAX_VERTICES = 400


@dataclass(frozen=True)
class CheckFailure:
    """One oracle-ladder failure, with its deterministic repro command."""

    case: FuzzCase
    stage: str          # which oracle rung failed
    message: str        # first line of the underlying error / mismatch
    mutation: Optional[str] = None
    stress: bool = False
    hive: bool = False
    serve: bool = False
    frontier: bool = False
    shard: bool = False
    swarm: bool = False

    @property
    def repro_command(self) -> str:
        """One-line shell command that reproduces this exact failure."""
        cmd = "python -m repro.check repro"
        if (self.case.shrunk_from is None
                and self.case == case_from_seed(self.case.seed,
                                                stress=self.stress)):
            cmd += f" {self.case.seed}"
        else:
            # Shrunk cases, and stress cases with the perturbation
            # stripped, are no longer seed-derivable: ship the full spec.
            cmd += f" --case '{case_to_json(self.case)}'"
        if self.stress:
            cmd += " --stress"  # also selects the per-step sweep period
        if self.hive:
            cmd += " --hive"
        if self.serve:
            cmd += " --serve"
        if self.frontier:
            cmd += " --frontier"
        if self.shard:
            cmd += " --shard"
        if self.swarm:
            cmd += " --swarm"
        if self.mutation:
            cmd += f" --mutation {self.mutation}"
        return cmd

    def report(self) -> str:
        """Multi-line human-readable failure report."""
        lines = [
            f"FAIL [{self.stage}] {self.case.describe()}",
            f"  {self.message.splitlines()[0]}",
            f"  repro: {self.repro_command}",
        ]
        return "\n".join(lines)


def case_to_json(case: FuzzCase) -> str:
    """Compact JSON spec of a case (used for shrunk-case repro commands)."""
    return json.dumps(asdict(case), separators=(",", ":"))


def case_from_json(text: str) -> FuzzCase:
    """Inverse of :func:`case_to_json` (ignores unknown keys)."""
    data = json.loads(text)
    known = {f.name for f in fields(FuzzCase)}
    return FuzzCase(**{k: v for k, v in data.items() if k in known})


def _payload_diff(expected: dict, got: dict) -> str:
    """One-line summary of where two canonical payloads differ."""
    if expected == got:
        return ""
    if not isinstance(got, dict):
        return f"payload is {type(got).__name__}, not an object"
    keys = sorted(set(expected) | set(got))
    bad = [k for k in keys if expected.get(k) != got.get(k)]
    parts = []
    for k in bad[:4]:
        e, g = expected.get(k), got.get(k)
        if isinstance(e, list) and isinstance(g, list):
            if len(e) != len(g):
                parts.append(f"{k}: length {len(e)} vs {len(g)}")
            else:
                at = next(i for i, (a, b) in enumerate(zip(e, g)) if a != b)
                parts.append(f"{k}: first diff at index {at} "
                             f"({e[at]!r} vs {g[at]!r})")
        else:
            parts.append(f"{k}: {str(e)[:40]!r} vs {str(g)[:40]!r}")
    return "; ".join(parts) or "payloads differ"


def run_monitored(case: FuzzCase, *, check_every: int = 64,
                  run=run_diggerbees) -> DiggerBeesResult:
    """Run one case under a fresh invariant monitor; raises on violation.

    ``run`` is the driver: :func:`run_diggerbees` (the loop the config
    selects) or :func:`run_diggerbees_reference` (the generic loop).
    """
    graph = case.build_graph()
    config = case.build_config()
    monitor = InvariantMonitor(check_every=check_every)
    result = run(
        graph, case.root, config=config,
        check_invariants=True, instrument=monitor.attach,
    )
    monitor.final_check()
    return result


def check_case(case: FuzzCase, *, mutation: Optional[str] = None,
               stress: bool = False,
               hive: bool = False, serve: bool = False,
               frontier: bool = False, shard: bool = False,
               swarm: bool = False,
               check_every: Optional[int] = None) -> Optional[CheckFailure]:
    """Run the full oracle ladder on ``case``; None means it passed.

    ``mutation`` (a name from :data:`repro.check.mutations.MUTATIONS`)
    applies the named injected bug for the whole ladder — used by the
    mutation sanity suite and by ``repro --mutation`` to replay a
    mutant's failure.

    ``hive`` adds the batched-lockstep differential rung: the case is
    rerun as a two-run hive batch and every batched run must match the
    primary result bit-for-bit, counters included.  Opt-in because it
    roughly doubles eligible cases' cost.

    ``serve`` adds the serve differential rung: the case's DFS is sent
    through the process-wide :class:`~repro.check.serve_oracle.
    ServeOracle` daemon and the served payload must equal the primary
    result's canonical payload exactly.  Mutated runs bypass the
    daemon's result cache so an injected bug's output is never memoized
    across the mutation boundary.

    ``frontier`` adds the frontier differential rung: the bit-packed
    SpMV engine traverses the same graph and must agree with the DFS on
    reachability, with :func:`~repro.graphs.properties.bfs_levels` on
    level structure, and with the independent min-parent oracle on the
    tree — and its push/pull/auto modes must be bit-identical.

    ``shard`` adds the shard differential rung: the sharded execution
    tier partitions the graph, runs one engine per district with the
    case's config, and the canonical merged result must agree with the
    primary on reachability and edge inspections, with ``bfs_levels``
    on levels, with the min-parent oracle on the tree (undirected
    cases), and be bit-identical between k=2 and k=4.

    ``swarm`` adds the swarm differential rung: the case's root runs as
    one lane of a three-lane lockstep batch (with a second distinct
    root in the middle and the case root duplicated at the end, so
    cross-lane leakage has somewhere to come from) and every case-root
    lane must be bit-identical to the single-root frontier engine while
    also agreeing with the DFS, ``bfs_levels`` and the min-parent
    oracle.

    ``check_every`` defaults to a per-step sweep (1) in stress mode —
    transient corruption (e.g. an ABA duplicate that the victim pops a
    step later) is only visible to a sweep that runs before the next
    step — and to 64 otherwise, where throughput matters more.
    """
    if check_every is None:
        check_every = 1 if stress else 64

    def fail(stage: str, message: str) -> CheckFailure:
        return CheckFailure(case=case, stage=stage, message=str(message),
                            mutation=mutation, stress=stress,
                            hive=hive, serve=serve, frontier=frontier,
                            shard=shard, swarm=swarm)

    with apply_mutation(mutation):
        # Stage 1: monitored run (invariant hooks + periodic sweep).
        try:
            result = run_monitored(case, check_every=check_every)
        except ReproError as exc:
            return fail("invariants", f"{type(exc).__name__}: {exc}")

        graph = case.build_graph()

        # Stage 2: output validators (tree validity, visited vs reachable).
        try:
            validate_traversal(graph, result.traversal)
        except ReproError as exc:
            return fail("validate", f"{type(exc).__name__}: {exc}")

        # Stage 3: serial reference (ground-truth reachability).
        ref = serial_dfs(graph, case.root)
        if not np.array_equal(ref.visited, result.traversal.visited):
            missing = np.flatnonzero(ref.visited & ~result.traversal.visited)
            extra = np.flatnonzero(~ref.visited & result.traversal.visited)
            return fail(
                "serial-diff",
                f"visited set differs from serial DFS: "
                f"{missing.size} missing (e.g. {missing[:5].tolist()}), "
                f"{extra.size} extra (e.g. {extra[:5].tolist()})",
            )

        # Stage 4: fused vs generic — a fused primary must replay the
        # reference engine's schedule exactly.  A generic primary (one-
        # level stacks, perturbation) already ran on the reference.
        if turbo_eligible(result.config):
            try:
                generic = run_monitored(case, check_every=check_every,
                                        run=run_diggerbees_reference)
            except ReproError as exc:
                return fail("fused-diff", f"{type(exc).__name__}: {exc}")
            if (generic.cycles != result.cycles
                    or generic.engine.steps != result.engine.steps):
                return fail(
                    "fused-diff",
                    f"fused loop diverges from the generic loop: cycles "
                    f"{result.cycles}/{generic.cycles}, steps "
                    f"{result.engine.steps}/{generic.engine.steps}")
            if not np.array_equal(generic.traversal.parent,
                                  result.traversal.parent):
                diff = np.flatnonzero(
                    generic.traversal.parent != result.traversal.parent)
                return fail("fused-diff",
                            f"parent arrays diverge at {diff.size} vertices "
                            f"(e.g. {diff[:5].tolist()})")
            if not np.array_equal(generic.traversal.visited,
                                  result.traversal.visited):
                return fail("fused-diff", "visited arrays diverge")

        # Stage 5b: hive differential — the batched lockstep engine must
        # replay the identical schedule for every run in a batch.  A
        # two-run batch exercises true lockstep (shared slabs, per-tick
        # selection) rather than degenerating to a scalar drain.
        if hive and case.perturb_seed is None and case.two_level:
            from repro.core.hive import hive_eligible, run_hive

            hconfig = case.build_config()
            if hive_eligible(hconfig):
                try:
                    pair = run_hive(graph, [(case.root, hconfig)] * 2)
                except ReproError as exc:
                    return fail("hive-diff", f"{type(exc).__name__}: {exc}")
                for i, hres in enumerate(pair):
                    if (hres.cycles != result.cycles
                            or hres.engine.steps != result.engine.steps):
                        return fail(
                            "hive-diff",
                            f"lockstep run {i} diverges: cycles "
                            f"{result.cycles}/{hres.cycles}, steps "
                            f"{result.engine.steps}/{hres.engine.steps}")
                    if not np.array_equal(hres.traversal.parent,
                                          result.traversal.parent):
                        diff = np.flatnonzero(hres.traversal.parent
                                              != result.traversal.parent)
                        return fail(
                            "hive-diff",
                            f"lockstep run {i}: parent arrays diverge at "
                            f"{diff.size} vertices "
                            f"(e.g. {diff[:5].tolist()})")
                    if not np.array_equal(hres.traversal.visited,
                                          result.traversal.visited):
                        return fail("hive-diff",
                                    f"lockstep run {i}: visited arrays "
                                    f"diverge")
                    if vars(hres.counters) != vars(result.counters):
                        keys = sorted(
                            k for k, v in vars(result.counters).items()
                            if vars(hres.counters).get(k) != v)
                        return fail(
                            "hive-diff",
                            f"lockstep run {i}: counters diverge "
                            f"({', '.join(keys)})")

        # Stage 5d: serve differential — the daemon-served payload must
        # equal the canonical payload of the direct run.  The oracle
        # daemon executes in this process (jobs=0), so the mutation
        # monkeypatch is live on its executor threads and injected bugs
        # flow through the full wire/admission/dispatch stack.
        if serve:
            from repro.check.serve_oracle import serve_oracle
            from repro.serve.protocol import dfs_result_to_dict

            expected = dfs_result_to_dict(result)
            overrides = asdict(case.build_config())
            mutated = mutation is not None
            try:
                served, was_cached = serve_oracle().query_dfs(
                    graph, case.root, overrides, no_cache=mutated)
            except ReproError as exc:
                return fail("serve-diff", f"{type(exc).__name__}: {exc}")
            mismatch = _payload_diff(expected, served)
            if mismatch:
                return fail("serve-diff",
                            f"served payload diverges from direct "
                            f"execution: {mismatch}")
            if not mutated:
                # Repeat query: must come back from the result cache
                # (first query either populated it or already hit) and
                # stay identical — the memo path serves the same bytes.
                try:
                    served2, was_cached2 = serve_oracle().query_dfs(
                        graph, case.root, overrides)
                except ReproError as exc:
                    return fail("serve-diff",
                                f"cache-path query failed: "
                                f"{type(exc).__name__}: {exc}")
                if not was_cached2:
                    return fail("serve-diff",
                                "repeat query missed the result cache")
                mismatch = _payload_diff(expected, served2)
                if mismatch:
                    return fail("serve-diff",
                                f"cached payload diverges from direct "
                                f"execution: {mismatch}")

        # Stage 5e: frontier differential — the bit-packed SpMV engine
        # traverses the same graph; every piece of its result contract
        # is pinned against an independent reference: reachability
        # against the DFS result, levels against bfs_levels, the tree
        # against the min-parent oracle (shares no code with the
        # per-level gathers), and mode bit-identity across push/pull.
        if frontier:
            from repro.core.frontier import (
                FrontierConfig,
                min_parent_tree,
                run_frontier,
            )
            from repro.graphs.properties import bfs_levels

            try:
                fr = run_frontier(graph, case.root)
                validate_traversal(graph, fr.traversal)
            except ReproError as exc:
                return fail("frontier-diff", f"{type(exc).__name__}: {exc}")
            if not np.array_equal(fr.traversal.visited,
                                  result.traversal.visited):
                missing = np.flatnonzero(result.traversal.visited
                                         & ~fr.traversal.visited)
                extra = np.flatnonzero(~result.traversal.visited
                                       & fr.traversal.visited)
                return fail(
                    "frontier-diff",
                    f"visited set differs from DFS: {missing.size} missing "
                    f"(e.g. {missing[:5].tolist()}), {extra.size} extra "
                    f"(e.g. {extra[:5].tolist()})")
            ref_levels = bfs_levels(graph, case.root)
            if not np.array_equal(fr.level, ref_levels):
                diff = np.flatnonzero(fr.level != ref_levels)
                return fail(
                    "frontier-diff",
                    f"level array diverges from bfs_levels at {diff.size} "
                    f"vertices (e.g. {diff[:5].tolist()})")
            if not graph.directed:
                # The min-parent oracle and the pull path both read each
                # vertex's own row as in-edges — symmetric CSR only.
                oracle = min_parent_tree(graph, ref_levels, case.root)
                if not np.array_equal(fr.traversal.parent, oracle):
                    diff = np.flatnonzero(fr.traversal.parent != oracle)
                    return fail(
                        "frontier-diff",
                        f"parent diverges from the min-parent oracle at "
                        f"{diff.size} vertices (e.g. {diff[:5].tolist()})")
                for forced in ("push", "pull"):
                    try:
                        alt = run_frontier(
                            graph, case.root,
                            config=FrontierConfig(mode=forced))
                    except ReproError as exc:
                        return fail("frontier-diff",
                                    f"{forced} mode: "
                                    f"{type(exc).__name__}: {exc}")
                    if not (np.array_equal(alt.traversal.parent,
                                           fr.traversal.parent)
                            and np.array_equal(alt.level, fr.level)):
                        return fail(
                            "frontier-diff",
                            f"forced {forced} mode diverges from auto "
                            f"(modes promise bit-identical results)")

        # Stage 5f: shard differential — the sharded tier partitions the
        # graph, runs the case's engine per district, and its canonical
        # merge must agree with everything already pinned above:
        # reachability with the primary AND the serial reference, levels
        # with bfs_levels, edge inspections with the primary, the tree
        # with the independent min-parent oracle (undirected), and the
        # whole result must be invariant between k=2 and k=4.
        if shard:
            from repro.core.frontier import min_parent_tree
            from repro.core.shard import run_sharded
            from repro.graphs.properties import bfs_levels

            sconfig = case.build_config()
            sharded = {}
            for kk in (2, 4):
                try:
                    sres = run_sharded(graph, case.root, config=sconfig,
                                       k=kk)
                    validate_traversal(graph, sres.traversal)
                except ReproError as exc:
                    return fail("shard-diff",
                                f"k={kk}: {type(exc).__name__}: {exc}")
                sharded[kk] = sres
                if not np.array_equal(sres.traversal.visited,
                                      result.traversal.visited):
                    missing = np.flatnonzero(result.traversal.visited
                                             & ~sres.traversal.visited)
                    extra = np.flatnonzero(~result.traversal.visited
                                           & sres.traversal.visited)
                    return fail(
                        "shard-diff",
                        f"k={kk}: visited set differs from the unsharded "
                        f"engine: {missing.size} missing "
                        f"(e.g. {missing[:5].tolist()}), {extra.size} "
                        f"extra (e.g. {extra[:5].tolist()})")
                if not np.array_equal(sres.traversal.visited, ref.visited):
                    return fail("shard-diff",
                                f"k={kk}: visited set differs from "
                                f"serial DFS")
                if (sres.traversal.edges_traversed
                        != result.traversal.edges_traversed):
                    return fail(
                        "shard-diff",
                        f"k={kk}: edge inspections diverge: sharded="
                        f"{sres.traversal.edges_traversed}, primary="
                        f"{result.traversal.edges_traversed}")
                ref_levels = bfs_levels(graph, case.root)
                if not np.array_equal(sres.levels, ref_levels):
                    diff = np.flatnonzero(sres.levels != ref_levels)
                    return fail(
                        "shard-diff",
                        f"k={kk}: level array diverges from bfs_levels "
                        f"at {diff.size} vertices "
                        f"(e.g. {diff[:5].tolist()})")
                if not graph.directed:
                    oracle = min_parent_tree(graph, ref_levels, case.root)
                    if not np.array_equal(sres.traversal.parent, oracle):
                        diff = np.flatnonzero(
                            sres.traversal.parent != oracle)
                        return fail(
                            "shard-diff",
                            f"k={kk}: parent diverges from the "
                            f"min-parent oracle at {diff.size} vertices "
                            f"(e.g. {diff[:5].tolist()})")
            if not np.array_equal(sharded[2].traversal.parent,
                                  sharded[4].traversal.parent):
                diff = np.flatnonzero(sharded[2].traversal.parent
                                      != sharded[4].traversal.parent)
                return fail(
                    "shard-diff",
                    f"k=2 vs k=4 parent arrays diverge at {diff.size} "
                    f"vertices (e.g. {diff[:5].tolist()}) — the "
                    f"canonical merge must be k-invariant")
            if (sharded[2].traversal.edges_traversed
                    != sharded[4].traversal.edges_traversed):
                return fail("shard-diff",
                            "k=2 vs k=4 edge inspections diverge")

        # Stage 5g: swarm differential — the case root runs as lanes 0
        # and 2 of a three-lane lockstep batch (a *different* root in
        # the middle, so cross-lane state leakage has a source, and the
        # case root duplicated, so per-lane retirement and swap removal
        # get exercised on identical twins).  Every case-root lane must
        # be bit-identical to the single-root frontier engine, and the
        # whole contract is re-pinned against the independent
        # references: DFS reachability, bfs_levels, min-parent oracle.
        if swarm:
            from repro.core.frontier import min_parent_tree, run_frontier
            from repro.core.swarm import run_swarm
            from repro.graphs.properties import bfs_levels

            n = graph.n_vertices
            other = (case.root + max(1, n // 2)) % n
            roots = [case.root, other, case.root]
            try:
                single = run_frontier(graph, case.root)
                lanes = run_swarm(graph, roots)
                validate_traversal(graph, lanes[0].traversal)
            except ReproError as exc:
                return fail("swarm-diff", f"{type(exc).__name__}: {exc}")
            for li in (0, 2):
                lane = lanes[li]
                if not np.array_equal(lane.traversal.visited,
                                      single.traversal.visited):
                    return fail(
                        "swarm-diff",
                        f"lane {li}: visited set diverges from the "
                        f"single-root frontier engine (lanes must be "
                        f"bit-identical)")
                if not np.array_equal(lane.traversal.parent,
                                      single.traversal.parent):
                    diff = np.flatnonzero(lane.traversal.parent
                                          != single.traversal.parent)
                    return fail(
                        "swarm-diff",
                        f"lane {li}: parent diverges from the "
                        f"single-root frontier engine at {diff.size} "
                        f"vertices (e.g. {diff[:5].tolist()})")
                if not np.array_equal(lane.level, single.level):
                    return fail(
                        "swarm-diff",
                        f"lane {li}: level array diverges from the "
                        f"single-root frontier engine")
                if (lane.n_levels, lane.pushes, lane.pulls,
                        lane.edges_scanned) != (single.n_levels,
                                                single.pushes,
                                                single.pulls,
                                                single.edges_scanned):
                    return fail(
                        "swarm-diff",
                        f"lane {li}: execution profile diverges from the "
                        f"single-root frontier engine: "
                        f"levels/pushes/pulls/edges "
                        f"{lane.n_levels}/{lane.pushes}/{lane.pulls}/"
                        f"{lane.edges_scanned} vs "
                        f"{single.n_levels}/{single.pushes}/"
                        f"{single.pulls}/{single.edges_scanned}")
            if not np.array_equal(lanes[0].traversal.visited,
                                  result.traversal.visited):
                missing = np.flatnonzero(result.traversal.visited
                                         & ~lanes[0].traversal.visited)
                extra = np.flatnonzero(~result.traversal.visited
                                       & lanes[0].traversal.visited)
                return fail(
                    "swarm-diff",
                    f"visited set differs from DFS: {missing.size} "
                    f"missing (e.g. {missing[:5].tolist()}), "
                    f"{extra.size} extra (e.g. {extra[:5].tolist()})")
            ref_levels = bfs_levels(graph, case.root)
            if not np.array_equal(lanes[0].level, ref_levels):
                diff = np.flatnonzero(lanes[0].level != ref_levels)
                return fail(
                    "swarm-diff",
                    f"level array diverges from bfs_levels at "
                    f"{diff.size} vertices (e.g. {diff[:5].tolist()})")
            if not graph.directed:
                oracle = min_parent_tree(graph, ref_levels, case.root)
                if not np.array_equal(lanes[0].traversal.parent, oracle):
                    diff = np.flatnonzero(
                        lanes[0].traversal.parent != oracle)
                    return fail(
                        "swarm-diff",
                        f"parent diverges from the min-parent oracle at "
                        f"{diff.size} vertices (e.g. {diff[:5].tolist()})")

        # Stage 6: CPU PDFS baseline (reachability oracle, small cases).
        if graph.n_vertices <= PDFS_MAX_VERTICES:
            from repro.baselines.pdfs_cpu import run_ckl_pdfs
            try:
                pdfs = run_ckl_pdfs(graph, case.root)
            except ReproError as exc:
                return fail("pdfs-diff", f"{type(exc).__name__}: {exc}")
            if not np.array_equal(pdfs.traversal.visited,
                                  result.traversal.visited):
                return fail("pdfs-diff",
                            "visited set differs from CKL-PDFS baseline")

    return None
