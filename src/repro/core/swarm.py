"""Swarm frontier: lockstep direction-optimizing BFS over many roots.

This is the frontier-side analogue of the hive DFS tier: B traversals of
the *same* graph advance level-synchronously together, one NumPy pass
per level serving every live root.  Per-root state is kept
*lane-transposed* so a 64-lane word is the unit of work: row ``v`` of
an ``(n, lane-words)`` uint64 bit-matrix packs "which lanes hold
``v``", so one AND or OR over a shared edge list resolves 64 lanes at
a time.

A batch runs in four phases, each its own function so a profiler can
attribute it:

* **level sweep** (:func:`_sweep_levels`) — discovery only.  Each level
  is one OR-gather of the frontier image ``front_T`` over the
  in-adjacency, masked by ``~visited_T``; the lanes ride in the word
  bits, so the pass serves every live lane at once and never touches a
  per-(vertex, lane) pair.  When the frontier's out-edge mass is a
  large share of the arc array the gather scans every arc (one
  ``reduceat`` over the in-rows); otherwise only the frontier's
  out-arcs are scattered (one ``bitwise_or.at``), so deep graphs with
  thin frontiers stay work-efficient.  Each level's ``(rows, bits)``
  front is recorded.
* **parent resolution** (:func:`_resolve_tree`) — the min-parent
  tie-break of :func:`repro.core.frontier.run_frontier` (a vertex's
  parent in a lane is its smallest in-neighbour one level up), plus
  every lane's levels and per-level frontier sizes and edge masses,
  all from the recorded fronts.  With few levels a packed
  first-occurrence pass runs per level over the discovered rows'
  in-adjacency (a segmented prefix-OR down each src-sorted run keeps
  each lane's first source), and its winner expansion writes the
  levels too.  With many levels, one pair expansion of all fronts
  writes the levels and one narrow-dtype pass over arcs x lanes takes
  a ``minimum.reduceat`` of the matching sources.  The choice is a
  cost estimate from the level count and ``m * B``.
* **counter replay** (:func:`_replay_counters`) — ``pushes``, ``pulls``
  and ``edges_scanned`` are direction *semantics*, not mechanism: each
  lane replays Beamer's alpha/beta switch from its per-level frontier
  sizes and edge masses, with the same float64 operands the single-root
  engine compares, so the replay is exact.
* **result assembly** (:func:`_assemble_results`) — sentinel backfill
  for unreached slots and one column view per lane.

Discovery by push or by pull yields the same relation (unvisited
vertices adjacent to the frontier), so *which* pass serves a lane is a
cost choice, not a semantic one — here it is one pass for all lanes.
Every lane's ``visited`` / ``level`` / ``parent`` / ``n_levels`` /
push-pull / edge counters are **bit-identical** to a single-root
:func:`repro.core.frontier.run_frontier` from the same root.  Lanes
whose traversal finished simply stop contributing bits.

``seconds`` on each returned result is the batch wall clock divided by
the number of roots — the amortized per-root cost, which is the number
the crossover sweep and the serve router care about.

Directed graphs take the same path over ``graph.reverse()``'s rows (the
in-adjacency); the replay then forces push, as the single-root engine
does.
"""

from __future__ import annotations

import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core import bitset
from repro.core.frontier import FrontierConfig, FrontierResult
from repro.graphs.csr import CSRGraph
from repro.validate.reference import (
    ROOT_PARENT,
    TraversalResult,
    UNVISITED_PARENT,
)

__all__ = ["run_swarm"]

#: A level's frontier scans every arc once its out-edge mass exceeds
#: this share of the arc array; thinner frontiers scatter their own
#: out-arcs instead.
_DENSE_SHARE = 1 / 4

#: Arcs x lanes cells one per-level parent pass is worth: below this
#: many cells per recorded level, the narrow arcs x lanes pass is the
#: cheaper way to resolve parents.
_LEVEL_PASS_CELLS = 1 << 15

#: Cells (arcs x lanes) one narrow-dtype parent chunk may hold.
_PARENT_CHUNK_CELLS = 1 << 21

Front = Tuple[np.ndarray, np.ndarray]     # (rows, packed lane bits)


class _Adjacency(NamedTuple):
    out_rp: np.ndarray
    out_ci: np.ndarray
    in_rp: np.ndarray
    in_ci: np.ndarray
    in_rows: np.ndarray      # rows with at least one in-arc
    in_starts: np.ndarray    # their first arc (reduceat segment starts)
    in_sorted: bool          # in-rows list their sources ascending


def _adjacency(graph: CSRGraph) -> _Adjacency:
    """Out- and in-adjacency; one CSR serves both on undirected graphs."""
    if graph.directed:
        rev = graph.reverse()
        in_rp, in_ci = rev.row_ptr, rev.column_idx
        in_sorted = bool(rev.meta.get("sorted_neighbors", False))
    else:
        in_rp, in_ci = graph.row_ptr, graph.column_idx
        in_sorted = bool(graph.meta.get("sorted_neighbors", False))
    in_rows = np.flatnonzero(in_rp[1:] != in_rp[:-1])
    return _Adjacency(graph.row_ptr, graph.column_idx, in_rp, in_ci,
                      in_rows, in_rp[in_rows], in_sorted)


def _rows(matrix: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``matrix[idx]`` for a 2-d matrix: row gathers via ``take``, which
    NumPy runs an order of magnitude faster than fancy indexing on
    narrow rows."""
    return np.take(matrix, idx, axis=0)


def _any_word(matrix: np.ndarray) -> np.ndarray:
    """Per-row OR of a lane-word matrix (nonzero where any lane is set)."""
    if matrix.shape[1] == 1:
        return matrix[:, 0]
    return np.bitwise_or.reduce(matrix, axis=1)


def _word_mask(flags: np.ndarray) -> np.ndarray:
    """Per-row all-ones / all-zeros uint64 column for a bool vector."""
    return np.negative(flags.astype(np.uint64))[:, None]


def run_swarm(graph: CSRGraph, roots: Sequence[int], *,
              config: Optional[FrontierConfig] = None
              ) -> List[FrontierResult]:
    """Traverse ``graph`` from every root in ``roots``, lockstep.

    Returns one :class:`FrontierResult` per root, in input order; each
    is bit-identical (visited / level / parent / counters) to a
    single-root :func:`repro.core.frontier.run_frontier` from that
    root.  Duplicate roots are fine — lanes are fully independent.
    """
    config = config or FrontierConfig()
    roots = np.asarray(list(roots), dtype=np.int64)
    if roots.size and (int(roots.min()) < 0
                       or int(roots.max()) >= graph.n_vertices):
        bad = roots[(roots < 0) | (roots >= graph.n_vertices)][0]
        graph._check_vertex(int(bad))
    if roots.size == 0:
        return []
    rp = graph.row_ptr
    deg = (rp[1:] - rp[:-1]).astype(np.int64)
    mode = "push" if graph.directed else config.mode

    t0 = time.perf_counter()
    adj = _adjacency(graph)
    visited_T, fronts = _sweep_levels(adj, roots)
    state, f_size, m_front = _resolve_tree(adj, fronts, roots, deg)
    counters = _replay_counters(f_size, m_front, int(deg.sum()),
                                graph.n_vertices, mode, config)
    per_root_seconds = (time.perf_counter() - t0) / roots.size
    return _assemble_results(roots, visited_T, state, counters,
                             per_root_seconds)


def _sweep_levels(adj: _Adjacency, roots: np.ndarray
                  ) -> Tuple[np.ndarray, List[Front]]:
    """Discover every lane's BFS levels: ``(visited_T, fronts)``.

    ``fronts[d]`` holds the rows first reached at depth ``d`` in some
    lane, with the packed lanes that reached each.  Level 0 is the
    roots.
    """
    n = adj.out_rp.size - 1
    B = roots.size
    visited_T = bitset.empty_bitmatrix(n, B)
    bitset.set_bits_2d(visited_T, roots, np.arange(B, dtype=np.int64))
    W = visited_T.shape[1]
    rows = np.unique(roots)
    bits = _rows(visited_T, rows)
    fronts = [(rows, bits)]
    out_deg = adj.out_rp[1:] - adj.out_rp[:-1]
    dense_mass = adj.out_ci.size * _DENSE_SHARE
    # Scatter scratch for thin levels, cleared row by row after use.
    acc = np.zeros((n, W), dtype=np.uint64)
    acc_flat = acc.reshape(-1)
    mark = np.zeros(n, dtype=bool)
    word_ramp = np.arange(W, dtype=np.int64)

    while True:
        cnt = out_deg[rows]
        mass = int(cnt.sum())
        if mass == 0:
            break
        if mass > dense_mass:
            # Pull-style: OR every in-row's frontier sources at once.
            front_T = np.zeros((n, W), dtype=np.uint64)
            front_T[rows] = bits
            reach = np.bitwise_or.reduceat(_rows(front_T, adj.in_ci),
                                           adj.in_starts, axis=0)
            cand = adj.in_rows
            new = reach & ~_rows(visited_T, cand)
        else:
            # Push-style: scatter the frontier's lane words along its
            # own out-arcs into the unvisited lanes of each target.
            row0 = np.zeros(rows.size, dtype=np.int64)
            np.cumsum(cnt[:-1], out=row0[1:])
            flat = (np.repeat(adj.out_rp[rows] - row0, cnt)
                    + np.arange(mass, dtype=np.int64))
            dst = adj.out_ci[flat]
            ebits = np.repeat(bits, cnt, axis=0) & ~_rows(visited_T, dst)
            if W == 1:
                np.bitwise_or.at(acc_flat, dst, ebits[:, 0])
            else:
                np.bitwise_or.at(acc_flat,
                                 (dst[:, None] * W + word_ramp).reshape(-1),
                                 ebits.reshape(-1))
            mark[dst] = True
            cand = np.flatnonzero(mark)
            mark[cand] = False
            new = _rows(acc, cand)
            acc[cand] = 0
        keep = np.flatnonzero(_any_word(new))
        if keep.size == 0:
            break
        rows = cand[keep]
        bits = _rows(new, keep)
        visited_T[rows] = _rows(visited_T, rows) | bits
        fronts.append((rows, bits))
    return visited_T, fronts


def _resolve_tree(adj: _Adjacency, fronts: List[Front], roots: np.ndarray,
                  deg: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min parents and levels of every lane, from the recorded fronts.

    Returns ``(state, f_size, m_front)``: ``state`` is an ``(n, B, 2)``
    block interleaving each (vertex, lane) slot's parent and level, so
    a discovery's two writes share a cache line; ``f_size`` /
    ``m_front`` are the ``(levels, B)`` frontier sizes and edge masses
    the counter replay needs.  Slots of unreached vertices are left
    unwritten — assembly backfills them from the visited mask, which on
    connected graphs skips the whole ``2 * n * B`` sentinel sweep.
    """
    n = adj.out_rp.size - 1
    B = roots.size
    state = np.empty((n, B, 2), dtype=np.int64)
    # A per-level pass pays a fixed NumPy overhead per level; the arcs
    # x lanes pass pays once for every cell.
    if len(fronts) * _LEVEL_PASS_CELLS < adj.in_ci.size * B:
        f_size, m_front = _tree_per_level(adj, fronts, roots, deg, state)
    else:
        f_size, m_front = _expand_levels(fronts, deg, state)
        _parents_by_arcs(adj, state, len(fronts))
    lanes = np.arange(B, dtype=np.int64)
    state[roots, lanes, 0] = ROOT_PARENT
    state[roots, lanes, 1] = 0
    return state, f_size, m_front


def _tree_per_level(adj: _Adjacency, fronts: List[Front],
                    roots: np.ndarray, deg: np.ndarray,
                    state: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Packed first-occurrence parents, one pass per level.

    Each level's winner bits expand to exactly that level's discovered
    (vertex, lane) pairs, so the same expansion writes the levels and
    yields the level's frontier statistics.
    """
    n, B = state.shape[:2]
    depth = len(fronts)
    W = fronts[0][1].shape[1]
    state_flat = state.reshape(-1)
    f_size = np.zeros((depth, B), dtype=np.int64)
    m_front = np.zeros((depth, B), dtype=np.float64)
    f_size[0] = 1
    m_front[0] = deg[roots]
    prev_T = np.zeros((n, W), dtype=np.uint64)
    in_deg = adj.in_rp[1:] - adj.in_rp[:-1]
    for d in range(1, depth):
        if d > 1:
            prev_T[fronts[d - 2][0]] = 0
        prev_rows, prev_bits = fronts[d - 1]
        prev_T[prev_rows] = prev_bits
        rows, bits = fronts[d]
        cnt = in_deg[rows]
        total = int(cnt.sum())
        row0 = np.zeros(rows.size, dtype=np.int64)
        np.cumsum(cnt[:-1], out=row0[1:])
        flat = (np.repeat(adj.in_rp[rows] - row0, cnt)
                + np.arange(total, dtype=np.int64))
        src = adj.in_ci[flat]
        di = np.repeat(np.arange(rows.size, dtype=np.int64), cnt)
        if adj.in_sorted:
            dst_bits = np.repeat(bits, cnt, axis=0)
        else:
            order = np.lexsort((src, di))
            src, di = src[order], di[order]
            dst_bits = _rows(bits, di)
        # A lane's candidate parents: its in-arcs from the level above.
        active = _rows(prev_T, src) & dst_bits
        live = np.flatnonzero(_any_word(active))
        src, di, active = src[live], di[live], _rows(active, live)
        # Segmented exclusive prefix-OR down each (dst, src)-sorted run
        # (Hillis-Steele doubling, log2(longest run) masked OR passes
        # over the lane words): a lane's first active row in its run is
        # its min-src parent arc.
        starts = np.empty(di.size, dtype=bool)
        starts[0] = True
        np.not_equal(di[1:], di[:-1], out=starts[1:])
        run_starts = np.flatnonzero(starts)
        max_run = int(np.diff(run_starts, append=di.size).max())
        scan = active.copy()
        span = 1
        while span < max_run:
            scan[span:] |= scan[:-span] & _word_mask(di[span:] == di[:-span])
            span <<= 1
        active[1:] &= ~(scan[:-1] & _word_mask(~starts[1:]))
        # Expand only the arcs that won some lane: compressing first
        # shrinks the expansion domain severalfold on long-run levels,
        # and per-arc slot bases keep the per-pair work to one gather.
        wrows = np.flatnonzero(_any_word(active))
        wr, lane = bitset.nonzero_bits_2d(_rows(active, wrows))
        wdst = rows[di[wrows]]
        slot = ((wdst * B) << 1)[wr] + (lane << 1)
        state_flat[slot] = src[wrows][wr]
        state_flat[slot + 1] = d
        if lane.size > 48 * rows.size:
            m_front[d], f_size[d] = _dense_lane_stats(rows, bits, deg, B)
        else:
            f_size[d] = np.bincount(lane, minlength=B)
            m_front[d] = np.bincount(lane, weights=deg[wdst][wr],
                                     minlength=B)
    return f_size, m_front


def _dense_lane_stats(rows: np.ndarray, bits: np.ndarray, deg: np.ndarray,
                      B: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-lane edge mass and size of a dense front: one 2-row dgemm.

    On mega levels, where most lanes hold most rows, this beats
    streaming the pair arrays through two bincounts ~3x; every product
    and sum is a small integer held exactly in float64.
    """
    w2 = np.empty((2, rows.size), dtype=np.float64)
    w2[0] = deg[rows]
    w2[1] = 1.0
    stats = w2 @ bitset.unpack_bits_2d(bits, B).astype(np.float64)
    return stats[0], stats[1].astype(np.int64)


def _expand_levels(fronts: List[Front], deg: np.ndarray, state: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Levels and per-(level, lane) frontier stats, one pair expansion.

    Every visited (vertex, lane) pair appears in exactly one recorded
    front.  Unreached slots get level -1, which the arcs x lanes parent
    pass relies on.
    """
    B = state.shape[1]
    depth = len(fronts)
    rows_all = np.concatenate([rows for rows, _ in fronts])
    bits_all = np.concatenate([bits for _, bits in fronts])
    sizes = np.fromiter((rows.size for rows, _ in fronts), dtype=np.int64,
                        count=depth)
    r, lane = bitset.set_bit_pairs_2d(bits_all)
    vert = rows_all[r]
    lvl = np.repeat(np.arange(depth, dtype=np.int64), sizes)[r]
    level_T = state[..., 1]
    level_T[...] = -1
    level_T.reshape(-1)[vert * B + lane] = lvl
    key = lvl * B + lane
    f_size = np.bincount(key, minlength=depth * B).reshape(depth, B)
    m_front = np.bincount(key, weights=deg[vert],
                          minlength=depth * B).reshape(depth, B)
    return f_size, m_front


def _parents_by_arcs(adj: _Adjacency, state: np.ndarray,
                     depth: int) -> None:
    """Min parents by one narrow-dtype pass over arcs x lanes.

    A slot's parent is the smallest in-neighbour whose level is one
    less: a ``minimum.reduceat`` over each in-row of the sources that
    match, lanes as columns.  Roots match unreached sources (level 0
    wants -1); the caller overwrites them.
    """
    n, B = state.shape[:2]
    parent_T, level_T = state[..., 0], state[..., 1]
    ldt = np.int16 if depth < np.iinfo(np.int16).max else np.int32
    sdt = np.uint16 if n < np.iinfo(np.uint16).max else np.int64
    sentinel = np.iinfo(sdt).max
    in_rows, in_starts = adj.in_rows, adj.in_starts
    src = adj.in_ci
    dst = np.repeat(np.arange(in_rows.size, dtype=np.int64),
                    np.diff(np.append(in_starts, src.size)))
    src_narrow = src.astype(sdt)[:, None]
    chunk = max(1, _PARENT_CHUNK_CELLS // max(1, src.size))
    for c0 in range(0, B, chunk):
        c1 = min(B, c0 + chunk)
        lv = level_T[:, c0:c1].astype(ldt)
        hit = _rows(lv, src) == _rows(_rows(lv, in_rows) - 1, dst)
        best = np.minimum.reduceat(np.where(hit, src_narrow, sentinel),
                                   in_starts, axis=0)
        found = best != sentinel
        block = parent_T[in_rows, c0:c1]
        block[found] = best[found]
        parent_T[in_rows, c0:c1] = block


class _Counters(NamedTuple):
    n_levels: np.ndarray
    pushes: np.ndarray
    pulls: np.ndarray
    edges_scanned: np.ndarray


def _replay_counters(f_size: np.ndarray, m_front: np.ndarray,
                     total_deg: int, n: int, mode: str,
                     config: FrontierConfig) -> _Counters:
    """Per-lane direction counters, replayed from the level statistics.

    Step ``j`` (1-based) of a lane runs while its level ``j - 1``
    frontier is non-empty, deciding its direction from that frontier's
    edge mass and size and from the unvisited edge mass left after it —
    exactly the operands (and dtypes) the single-root engine compares.
    """
    depth, B = f_size.shape
    mass = m_front.astype(np.int64)
    unvisited = total_deg - np.cumsum(mass, axis=0)
    live = f_size > 0
    if mode == "auto":
        go_pull = m_front * config.alpha > unvisited
        go_push = f_size * config.beta < n
        pulling = np.empty((depth, B), dtype=bool)
        pull_now = np.zeros(B, dtype=bool)
        for j in range(depth):
            pull_now = np.where(pull_now, ~go_push[j], go_pull[j])
            pulling[j] = pull_now
    else:
        pulling = np.full((depth, B), mode == "pull", dtype=bool)
    push = live & ~pulling
    pull = live & pulling
    edges = (np.where(push, mass, 0).sum(axis=0)
             + np.where(pull, unvisited, 0).sum(axis=0))
    return _Counters(live.sum(axis=0), push.sum(axis=0),
                     pull.sum(axis=0), edges)


def _assemble_results(roots: np.ndarray, visited_T: np.ndarray,
                      state: np.ndarray, counters: _Counters,
                      seconds: float) -> List[FrontierResult]:
    """One result per lane, as column views over the shared matrices.

    Lanes own disjoint columns, so handing out views is alias-safe.
    """
    B = roots.size
    visited_all = bitset.unpack_bits_2d(visited_T, B)
    parent_T, level_T = state[..., 0], state[..., 1]
    # Backfill sentinels for slots no pass wrote (unreached vertices).
    miss = ~visited_all
    if miss.any():
        parent_T[miss] = UNVISITED_PARENT
        level_T[miss] = -1
    results: List[FrontierResult] = []
    for b in range(B):
        edges = int(counters.edges_scanned[b])
        traversal = TraversalResult(
            root=int(roots[b]),
            visited=visited_all[:, b],
            parent=parent_T[:, b],
            order=np.empty(0, dtype=np.int64),
            edges_traversed=edges,
        )
        results.append(FrontierResult(
            traversal=traversal,
            level=level_T[:, b],
            n_levels=int(counters.n_levels[b]),
            pushes=int(counters.pushes[b]),
            pulls=int(counters.pulls[b]),
            edges_scanned=edges,
            seconds=seconds,
        ))
    return results
