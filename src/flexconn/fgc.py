"""Flexible graph connectivity driver.

Two branches: F1 comes from a pluggable subroutine (the cited construction
is external; the built-in fallback prunes the full edge set to minimality),
F2 from duplicating every safe edge and running the kECSS subsolver with
k = 2 on the doubled multigraph.  The driver returns the smaller.  The
headline 10/7 guarantee holds only when a genuine F1 oracle with
|F1| <= |OPT_S| + 3/2 |OPT_U| is plugged in; the fallback gives 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, Optional

from .errors import InfeasibleInstanceError, require
from .feasibility import Solution, _fgc_kernel, check_fgc, prune_minimal
from .graph import LabeledGraph
from .kfgc import KecssSolverHandle


@dataclass(frozen=True)
class F1SolverHandle:
    """The F1 branch: the external `fn` when one is given, else the
    fallback that prunes the full edge set to minimality."""
    fn: Optional[Callable[[LabeledGraph], Iterable[int]]] = None

    @property
    def kind(self) -> str:
        return "fallback_prune" if self.fn is None else "external"

    def solve(self, g: LabeledGraph) -> FrozenSet[int]:
        if self.fn is None:
            return prune_minimal(g, set(g.eids), _fgc_kernel)
        out = frozenset(self.fn(g))
        require(check_fgc(g, out), "external F1 produced an infeasible solution")
        return out


def double_safe_edges(g: LabeledGraph) -> LabeledGraph:
    """Add a parallel copy of every safe edge; copies get fresh ids that map
    back to the original by subtracting the offset."""
    offset = (max(g.eids) + 1) if g.eids else 0
    safe = [i for i, s in enumerate(g.edge_safe) if s]
    return LabeledGraph(g.n, g.vertex_safe, g.eids + tuple(offset + g.eids[i] for i in safe),
                        g.ends + tuple(g.ends[i] for i in safe), g.edge_safe + (True,) * len(safe))


def undouble(g: LabeledGraph, eids: Iterable[int]) -> FrozenSet[int]:
    offset = (max(g.eids) + 1) if g.eids else 0
    return frozenset(eid % offset if offset else eid for eid in eids)


def alg2_double_and_solve(g: LabeledGraph, solver: KecssSolverHandle) -> Solution:
    """The safe-edge doubling branch: 2ECSS on the doubled multigraph, then
    duplicate copies collapse back onto the original edges."""
    if not check_fgc(g, set(g.eids)):
        raise InfeasibleInstanceError("FGC instance is infeasible")
    if g.n <= 1:
        return Solution(edge_ids=frozenset(),
                        meta={"apx_size": 0, "doubled_size": 0,
                              "solver_kind": solver.kind(g.n)})
    doubled = double_safe_edges(g)
    inner = solver.solve(doubled, 2)
    f2 = undouble(g, inner)
    require(check_fgc(g, f2), "doubling branch produced an infeasible solution")
    return Solution(edge_ids=f2,
                    meta={"apx_size": len(f2),
                          "doubled_size": len(inner),
                          "solver_kind": solver.kind(doubled.n)})


def solve_fgc(g: LabeledGraph,
              f1: Optional[F1SolverHandle] = None,
              solver: Optional[KecssSolverHandle] = None) -> Solution:
    """The smaller of F1 and F2.  The doubling branch runs first, as its entry
    check rejects an infeasible instance; each branch certifies its own set."""
    f1 = f1 or F1SolverHandle()
    solver = solver or KecssSolverHandle(cap_n=12)
    f2_edges = alg2_double_and_solve(g, solver).edge_ids
    f1_edges = f1.solve(g)
    best = f1_edges if len(f1_edges) <= len(f2_edges) else f2_edges
    meta = {
        "problem": "fgc", "n": g.n, "m": g.m, "k": 1,
        "apx_size": len(best),
        "f1_size": len(f1_edges),
        "f2_size": len(f2_edges),
        "f1_kind": f1.kind,
        "twoecss_kind": solver.kind(g.n),
        "lower_bound": max(g.n - 1, 1) if g.n > 1 else 0,
        "guarantee_note": ("10/7 requires an external F1 satisfying "
                           "|F1| <= |OPT_S| + 3/2 |OPT_U|; the fallback prune "
                           "only gives a factor-2 guarantee"),
    }
    return Solution(edge_ids=frozenset(best), meta=meta)
