"""k-flexible graph connectivity.

Compute a maximum safe spanning forest, contract it (loops dropped, parallel
unsafe edges kept), solve (k+1)ECSS on the contraction with a pluggable
subsolver, and return forest plus core.  Every edge of the core is unsafe,
so (k+1)ECSS on it is k-FGC on it, and the subsolver decides it with the
k-FGC kernel (`exact.kecss_instance`).  The corrected size analysis gives
|ALG| <= 2 OPT - |forest| whenever the subsolver is exact; the older claim
2 OPT - k|forest| >= |forest| + (k+1)(n - |forest|) is false for k >= 3
(see the safe-spanning-tree family in the harness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from .errors import InfeasibleInstanceError, require
from .exact import DEFAULT_CAP_N, _kfgc_lower_bound, exact_kecss, kecss_instance
from .feasibility import Solution, check_kfgc, predicates_for, prune_minimal
from .graph import LabeledGraph, contract_edges, max_safe_forest


def kecss_prune_heuristic(g: LabeledGraph, k: int) -> FrozenSet[int]:
    """Inclusion-minimal k-edge-connected spanning subgraph by ascending-id
    pruning with the kernel of `kecss_instance(g, k)`.  A minimal kECSS is
    a union of k forests (Nagamochi and Ibaraki, Algorithmica 1992), so it
    keeps at most k(n-1) edges."""
    inst = kecss_instance(g, k)
    kept = prune_minimal(inst.graph, g.eids, predicates_for(inst)[1])
    require(len(kept) <= k * max(0, g.n - 1), "minimal kECSS above the k(n-1) bound")
    return kept


@dataclass(frozen=True)
class KecssSolverHandle:
    """The kECSS subsolver of both drivers: FGC solves 2ECSS on the doubled
    graph, k-FGC solves (k+1)ECSS on the contracted core.  Up to `cap_n`
    vertices `exact_kecss`, above it the prune heuristic; both decide
    kECSS as k-FGC at k - 1 with every edge unsafe (`kecss_instance`), and
    either result is inclusion-minimal (an optimum, or a pruned set)."""
    cap_n: int = DEFAULT_CAP_N

    def kind(self, n: int) -> str:
        return "exact" if n <= self.cap_n else "prune_heuristic"

    def solve(self, g: LabeledGraph, k: int) -> FrozenSet[int]:
        if self.kind(g.n) == "exact":
            return frozenset(exact_kecss(g, k, self.cap_n).edge_ids)
        return kecss_prune_heuristic(g, k)


def solve_kfgc(g: LabeledGraph, k: int,
               sub: Optional[KecssSolverHandle] = None) -> Solution:
    if not check_kfgc(g, set(g.eids), k):   # refuses a k that is not a positive int
        raise InfeasibleInstanceError("k-FGC instance is infeasible")
    forest = max_safe_forest(g)
    core_graph = contract_edges(g, forest)
    # the forest is maximum, so every safe edge became a loop and was dropped
    require(not any(core_graph.edge_safe),
            "contracted core must contain only unsafe edges")
    sub = sub or KecssSolverHandle()
    core = sub.solve(core_graph, k + 1) if core_graph.n > 1 else frozenset()
    alg = frozenset(forest | core)
    require(check_kfgc(g, alg, k), "k-FGC result failed the checker")
    meta = {
        "problem": "kfgc", "n": g.n, "m": g.m, "k": k,
        "apx_size": len(alg),
        "forest_size": len(forest),
        "core_size": len(core),
        "contracted_n": core_graph.n,
        "subsolver_kind": sub.kind(core_graph.n),
        "lower_bound": _kfgc_lower_bound(g.n, len(forest), core_graph.n, k),
    }
    return Solution(edge_ids=alg, meta=meta)
