"""k-flexible graph connectivity.

Compute a maximum safe spanning forest, contract it (loops dropped, parallel
unsafe edges kept), solve (k+1)ECSS on the contraction with a pluggable
subsolver, prune to minimality, and return forest plus core.  The corrected
size analysis gives |ALG| <= 2 OPT - |forest| whenever the subsolver is
exact; the older claim 2 OPT - k|forest| >= |forest| + (k+1)(n - |forest|)
is false for k >= 3 (see the safe-spanning-tree family in the harness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from .errors import InfeasibleInstanceError, InputError, require
from .exact import exact_kecss
from .feasibility import Solution, check_kfgc, prune_minimal
from .graph import (LabeledGraph, UnionFind, contract_edges,
                    is_k_edge_connected, subset_k_edge_connected)


def max_safe_forest(g: LabeledGraph) -> FrozenSet[int]:
    """Maximum spanning forest of the safe subgraph, greedy by ascending id."""
    uf = UnionFind(range(g.n))
    out = set()
    for e in sorted(g.edges, key=lambda e: e.eid):
        if e.safe and uf.union(e.u, e.v):
            out.add(e.eid)
    return frozenset(out)


def kecss_prune_heuristic(g: LabeledGraph, k: int) -> FrozenSet[int]:
    """Inclusion-minimal k-edge-connected spanning subgraph; at most nk edges
    (a minimal solution splits into k forests)."""
    if not is_k_edge_connected(g, k):
        raise InputError(f"graph is not {k}-edge-connected")
    kept = prune_minimal(g, set(g.edge_by_id), lambda gg, s: subset_k_edge_connected(gg, s, k))
    require(len(kept) <= g.n * k, "minimal solution above the nk bound")
    return kept


@dataclass(frozen=True)
class KecssSolverHandle:
    kind: str = "exact"      # "exact" | "prune_heuristic"
    cap_n: int = 10

    def __post_init__(self):
        if self.kind not in ("exact", "prune_heuristic"):
            raise InputError(f"unknown kECSS solver kind {self.kind!r}")

    def solve(self, g: LabeledGraph, k: int) -> FrozenSet[int]:
        if self.kind == "exact":
            if g.n > self.cap_n:
                raise InputError(
                    f"exact kECSS solver refuses n={g.n} above its cap {self.cap_n}")
            return frozenset(exact_kecss(g, k, cap_n=self.cap_n).edge_ids)
        return kecss_prune_heuristic(g, k)


def default_kecss_solver(n_contracted: int) -> KecssSolverHandle:
    if n_contracted <= 10:
        return KecssSolverHandle(kind="exact", cap_n=10)
    return KecssSolverHandle(kind="prune_heuristic")


def solve_kfgc(g: LabeledGraph, k: int,
               sub: Optional[KecssSolverHandle] = None) -> Solution:
    if k < 1:
        raise InputError("k must be a positive integer")
    if not check_kfgc(g, set(g.edge_by_id), k):
        raise InfeasibleInstanceError("k-FGC instance is infeasible")
    forest = max_safe_forest(g)
    contraction = contract_edges(g, forest)
    core_graph = contraction.graph
    # the forest is maximum, so every safe edge became a loop and was dropped
    require(all(not e.safe for e in core_graph.edges),
            "contracted core must contain only unsafe edges")
    sub = sub or default_kecss_solver(core_graph.n)
    if core_graph.n <= 1:
        core: FrozenSet[int] = frozenset()
    else:
        core = sub.solve(core_graph, k + 1)
        core = prune_minimal(core_graph, core,
                             lambda gg, s: subset_k_edge_connected(gg, s, k + 1))
    alg = frozenset(forest | core)
    require(check_kfgc(g, alg, k), "k-FGC result failed the checker")
    meta = {
        "problem": "kfgc", "n": g.n, "m": g.m, "k": k,
        "apx_size": len(alg),
        "forest_size": len(forest),
        "core_size": len(core),
        "contracted_n": core_graph.n,
        "subsolver_kind": sub.kind,
        "lower_bound": _kfgc_lower_bound(g.n, len(forest), core_graph.n, k),
    }
    return Solution(edge_ids=alg, meta=meta)


def _kfgc_lower_bound(n: int, forest: int, contracted_n: int, k: int) -> int:
    import math
    if contracted_n <= 1:
        return max(n - 1, 0)
    return max(n - 1, forest + math.ceil(contracted_n * (k + 1) / 2))
