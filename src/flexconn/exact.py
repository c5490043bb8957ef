"""Exact small-instance oracles.

Optimal solutions are found by iterating candidate sizes s = lb, lb+1, ...
and enumerating s-subsets of edges in lexicographic id order with pruning,
so the first hit is both minimum and lexicographically smallest.  The main
prune: whenever an edge is skipped, the remaining "optimistic" graph (chosen
plus all undecided edges) must still be feasible.

Twin ordering (`exact_kecss` only).  Parallel edges of one endpoint pair
are twins, ordered by id.  The search may include a twin only if its
lower-id twin is included, and excluding an edge also drops its higher
twins from the optimistic graph.  This returns the same edge set as the
unordered search.  k-edge-connectivity does not change when one parallel
edge is swapped for another.  So if a feasible s-subset S used a twin e'
without its lower twin e, then S - e' + e would be feasible too.  It agrees
with S before e and includes e where S does not, so the include-first order
reaches it before S.  The first hit of the unordered search therefore obeys
the twin order, and the ordered search, which visits the twin-ordered
subsets in the same relative order, stops at the same set.  The prune
stays sound: no twin-ordered completion of the branch uses the dropped
twins, and the predicate is monotone.  `exact_solve` does not order twins:
its checkers tell parallel edges apart by their safety.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from .errors import InfeasibleInstanceError, InputError
from .feasibility import Instance, Solution, checker_for
from .graph import (LabeledGraph, is_connected, is_k_edge_connected,
                    subset_k_edge_connected)

DEFAULT_CAP_N = 10


def _minimum_feasible(g: LabeledGraph,
                      predicate: Callable[[Set[int]], bool],
                      lower_bound: int,
                      next_twin: Optional[Dict[int, int]] = None) -> Optional[Set[int]]:
    """Smallest, then lexicographically first, edge set passing `predicate`.

    `next_twin` maps an edge id to the next higher id of an edge the
    predicate treats as interchangeable with it (see the module docstring);
    such an edge is used only after its lower twin.
    """
    next_twin = next_twin or {}
    eids = sorted(g.edge_by_id)
    m = len(eids)
    if not predicate(set(eids)):
        return None
    lb = max(0, lower_bound)

    def search(s: int) -> Optional[List[int]]:
        chosen: List[int] = []

        def rec(idx: int, available: Set[int]) -> Optional[List[int]]:
            if len(chosen) == s:
                return list(chosen) if predicate(set(chosen)) else None
            if len(chosen) + (m - idx) < s:
                return None
            eid = eids[idx]
            if eid not in available:
                # a lower twin was excluded, and with it this edge
                return rec(idx + 1, available)
            # include first: lexicographically smallest solution wins
            chosen.append(eid)
            hit = rec(idx + 1, available)
            if hit is not None:
                return hit
            chosen.pop()
            dropped = [eid]
            twin = next_twin.get(eid)
            while twin is not None:
                dropped.append(twin)
                twin = next_twin.get(twin)
            available.difference_update(dropped)
            # optimistic graph shrank; prune if it can no longer be feasible
            if predicate(set(chosen) | available):
                hit = rec(idx + 1, available)
                if hit is not None:
                    return hit
            available.update(dropped)
            return None

        return rec(0, set(eids))

    for s in range(lb, m + 1):
        hit = search(s)
        if hit is not None:
            return set(hit)
    return None


def _degree_lower_bound(g: LabeledGraph, required: Callable[[int], int]) -> int:
    if g.n == 0:
        return 0
    return math.ceil(sum(required(v) for v in range(g.n)) / 2)


def _fvc_lower_bound(g: LabeledGraph) -> int:
    from .fvc import solve_tree_case  # cycle-free: fvc imports exact lazily
    if g.n <= 1:
        return 0
    if solve_tree_case(g) is not None:
        return g.n - 1
    if g.n == 2:
        return 1

    def req(v: int) -> int:
        # a degree-1 vertex hangs off a cut vertex, which must then be safe
        has_safe_nbr = any(g.vertex_safe[w] for w in g.neighbor_sets[v])
        return 1 if has_safe_nbr else 2

    return max(g.n, _degree_lower_bound(g, req))


def _fgc_lower_bound(g: LabeledGraph) -> int:
    if g.n <= 1:
        return 0

    def req(v: int) -> int:
        return 1 if any(e.safe for e in g.adj[v]) else 2

    return max(g.n - 1, _degree_lower_bound(g, req))


def _kfgc_lower_bound(g: LabeledGraph, k: int) -> int:
    from .kfgc import _kfgc_lower_bound as bound, max_safe_forest
    forest = max_safe_forest(g)
    # contracting a spanning forest leaves one vertex per tree
    return bound(g.n, len(forest), g.n - len(forest), k)


def exact_solve(inst: Instance, cap_n: int = DEFAULT_CAP_N) -> Solution:
    """Minimum-cardinality feasible edge set, or an error if none exists."""
    g = inst.graph
    if g.n > cap_n:
        raise InputError(f"exact_solve: n={g.n} exceeds cap {cap_n}")
    checker = checker_for(inst)
    if not checker(g, set(g.edge_by_id)):
        raise InfeasibleInstanceError("instance is infeasible even with all edges")
    if inst.problem == "fvc":
        lb = _fvc_lower_bound(g)
    elif inst.problem == "fgc":
        lb = _fgc_lower_bound(g)
    else:
        lb = _kfgc_lower_bound(g, inst.k)
    best = _minimum_feasible(g, lambda s: checker(g, s), lb)
    if best is None:
        raise InfeasibleInstanceError("instance is infeasible")
    return Solution(edge_ids=frozenset(best),
                    meta={"problem": inst.problem, "k": inst.k,
                          "apx_size": len(best), "exact": True})


def exact_2ecss(g: LabeledGraph, cap_n: int = DEFAULT_CAP_N) -> Solution:
    """Minimum 2-edge-connected spanning subgraph of a 2EC (multi)graph."""
    return exact_kecss(g, 2, cap_n)


def exact_kecss(g: LabeledGraph, k: int, cap_n: int = DEFAULT_CAP_N) -> Solution:
    if g.n > cap_n:
        raise InputError(f"exact_kecss: n={g.n} exceeds cap {cap_n}")
    if not is_k_edge_connected(g, k):
        raise InputError(f"exact_kecss: graph is not {k}-edge-connected")
    if g.n <= 1:
        return Solution(edge_ids=frozenset(), meta={"apx_size": 0, "exact": True, "k_ec": k})
    lb = max(g.n - 1, math.ceil(g.n * k / 2))
    next_twin: Dict[int, int] = {}
    last: Dict[Tuple[int, int], int] = {}
    for eid in sorted(g.edge_by_id):
        pair = g.edge_by_id[eid].pair()
        if pair in last:
            next_twin[last[pair]] = eid
        last[pair] = eid
    best = _minimum_feasible(
        g,
        lambda s: is_connected(range(g.n), [(e, g.edge_by_id[e].u, g.edge_by_id[e].v) for e in s])
        and subset_k_edge_connected(g, s, k),
        lb, next_twin)
    if best is None:
        raise InputError("exact_kecss: unexpectedly found no solution")
    return Solution(edge_ids=frozenset(best),
                    meta={"apx_size": len(best), "exact": True, "k_ec": k})

