"""Feasibility predicates for the three problem variants, plus minimal pruning.

FVC: (V,F) connected and no unsafe vertex is a cut vertex.
k-FGC: (V,F) connected and it survives the simultaneous removal of any k
unsafe edges; equivalently the contraction of (V,F) by its safe edges is
(k+1)-edge-connected.  FGC is k-FGC at k = 1, (1,1)- against (1,k)-FGC in
Boyd, Cheriyan, Haddadan and Ibrahimpur (Math. Prog. 2024): no unsafe edge
of F is a bridge.  So the edge predicate is chosen by k, not by problem.

Public checkers validate the ids and k, then call an unchecked kernel on a
set of the graph's own ids; internal loops validate once and call only the
kernel.  All three problems need (V,F) connected, so a public checker
turns down a set of fewer than n - 1 edges before the incidence list is
built: a header may declare millions of vertices.  The FGC (k = 1) and
FVC kernels run one low-link DFS over the graph's cached incidence list,
filtered by F (`graph.low_link_incidence`): it reaches every vertex iff
(V,F) is connected, and it stops at the first unsafe bridge or cut vertex.  The k-FGC kernel decides the contraction form
at k >= 2; the literal form is compared with both in `tests/test_feasibility.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Set

from .errors import InputError, require_positive_k
from .graph import LabeledGraph, edge_connectivity_at_least, low_link_incidence

PROBLEMS = ("fgc", "fvc", "kfgc")


def require_problem_k(problem: str, k) -> None:
    if problem not in PROBLEMS:
        raise InputError(f"unknown problem {problem!r}")
    require_positive_k(k)
    if problem in ("fgc", "fvc") and k != 1:
        raise InputError(f"{problem.upper()} takes k = 1 (got {k}); use kfgc")


@dataclass(frozen=True)
class Instance:
    graph: LabeledGraph
    problem: str
    k: int = 1

    def __post_init__(self):
        require_problem_k(self.problem, self.k)
        if self.problem == "fvc" and not self.graph.is_simple:
            raise InputError("FVC instances must be simple graphs")


@dataclass(frozen=True)
class Solution:
    edge_ids: FrozenSet[int]
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def size(self) -> int:
        return len(self.edge_ids)


def _edge_set(g: LabeledGraph, eids: Iterable[int]) -> Set[int]:
    """The chosen ids as a set; True and 2.0 are refused, not read as 1 and 2."""
    ids = eids if isinstance(eids, (set, frozenset)) else list(eids)
    if not {int}.issuperset(map(type, ids)):
        raise InputError(f"edge ids must be integers, not {[e for e in ids if type(e) is not int]}")
    chosen = ids if ids is eids else set(ids)
    if not g.edge_ends.keys() >= chosen:
        raise InputError(f"unknown edge ids {sorted(chosen - g.edge_ends.keys())}")
    return chosen


def _fgc_kernel(g: LabeledGraph, chosen: Set[int]) -> bool:
    return low_link_incidence(g.incidence, chosen, None, (), g.unsafe_edge_set)[0] == g.n


def _fvc_kernel(g: LabeledGraph, chosen: Set[int]) -> bool:
    return low_link_incidence(g.incidence, chosen, None, g.unsafe_vertex_set)[0] == g.n


def _kfgc_kernel(g: LabeledGraph, chosen: Set[int], k: int) -> bool:
    """Contract the chosen safe edges, then ask for (k+1)-edge-connectivity,
    which implies that the contraction is connected, and so is (V, F): each
    vertex lies in one contracted class."""
    ends, unsafe = g.edge_ends, g.unsafe_edge_set
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for eid in chosen - unsafe:
        u, v = ends[eid]
        parent[find(u)] = find(v)
    comp = [find(v) for v in range(g.n)]
    contracted = [(e, comp[ends[e][0]], comp[ends[e][1]]) for e in chosen & unsafe]
    return edge_connectivity_at_least(comp, contracted, k + 1)


def check_fgc(g: LabeledGraph, eids: Iterable[int]) -> bool:
    chosen = _edge_set(g, eids)
    return len(chosen) >= g.n - 1 and _fgc_kernel(g, chosen)


def check_fvc(g: LabeledGraph, eids: Iterable[int]) -> bool:
    chosen = _edge_set(g, eids)
    return len(chosen) >= g.n - 1 and _fvc_kernel(g, chosen)


def check_kfgc(g: LabeledGraph, eids: Iterable[int], k: int) -> bool:
    """`check_fgc` at k = 1, the contraction kernel otherwise."""
    require_positive_k(k)
    if k == 1:
        return check_fgc(g, eids)
    chosen = _edge_set(g, eids)
    return len(chosen) >= g.n - 1 and _kfgc_kernel(g, chosen, k)


def predicates_for(instance: Instance):
    """(checker, kernel), by k for FGC and k-FGC.  Names are read at call
    time, so a wrapper set on a module attribute sees the calls."""
    k = instance.k
    if instance.problem == "fvc":
        return check_fvc, _fvc_kernel
    if k == 1:
        return check_fgc, _fgc_kernel
    return (lambda g, eids: check_kfgc(g, eids, k)), (lambda g, chosen: _kfgc_kernel(g, chosen, k))


def prune_minimal(g: LabeledGraph, eids: Iterable[int], checker) -> FrozenSet[int]:
    """Drop edges in ascending id order while the checker stays satisfied.

    The ids are validated once, so `checker` may be a kernel.  Feasibility
    for all three problems is monotone under adding edges, so a single
    ascending pass yields an inclusion-minimal set and re-pruning is a no-op.
    """
    current = set(_edge_set(g, eids))
    if not checker(g, current):
        raise InputError("prune_minimal: starting edge set is infeasible")
    for eid in sorted(current):
        current.discard(eid)
        if not checker(g, current):
            current.add(eid)
    return frozenset(current)
