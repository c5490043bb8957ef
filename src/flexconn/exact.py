"""Exact small-instance oracles.

Optimal solutions are found by iterating candidate sizes s = lb, lb+1, ...
and enumerating s-subsets of edges in lexicographic id order with pruning,
so the first hit is both minimum and lexicographically smallest.  There is
one call per chosen edge: it tries the undecided edges in id order,
including each and then excluding it, so the recursion is s + O(1) deep.
The main prune: whenever an edge is excluded, the remaining "optimistic"
graph (chosen plus all undecided edges) must still be feasible.

Twin ordering.  Parallel edges of one endpoint pair and one safety are
twins, ordered by id.  The search may include a twin only if its lower-id
twin is included, and excluding an edge also drops its higher twins from
the optimistic graph.  This returns the same edge set as the unordered
search.  The FGC and k-FGC kernels decide by the edges' endpoints and
safety alone, and FVC graphs are simple, so no kernel changes its answer
when one twin is swapped for another.  So if a feasible s-subset S used a
twin e' without its lower twin e, then S - e' + e would be feasible too.
It agrees with S before e and includes e where S does not, so the
include-first order reaches it before S.  The first hit of the unordered
search therefore obeys the twin order, and the ordered search, which
visits the twin-ordered subsets in the same relative order, stops at the
same set.  The prune stays sound: no twin-ordered completion of the branch
uses the dropped twins, and the predicate is monotone.

Degree and component bounds.  `req[v]` is a degree that every feasible set
gives v (`_degree_bounds`), and every feasible set is connected.  A node
with r edges still to pick and chosen set C is pruned when
2r < sum_v max(0, req[v] - deg_C(v)) or when (V, C) has more than r + 1
components: one more edge raises the degree of two vertices by one and
joins at most two components, so no s-subset below the node is feasible.
An excluded edge is also pruned when one of its endpoints has fewer than
req edges left in the optimistic graph, which no subset of that graph can
then repair.  The degree bound also makes the first size tried at least
ceil(sum req / 2).  Every pruned subtree holds no feasible s-subset, so the
include-first order stops at the same first hit as the search without
them, and the twin argument above is unchanged.

Unsafe-degree cap.  In FVC with n >= 3, an unsafe vertex x of a feasible
set F is no cut vertex of (V, F), so F - x is connected on n - 1 vertices
and keeps at least n - 2 edges: |F| - deg_F(x) >= n - 2, that is
deg_F(x) <= s - (n - 2) for a feasible s-set.  `away[v]` is such a count
of edges that every feasible set has off v (`_degree_bounds`): n - 2 for
the unsafe FVC vertices, 0 for every other vertex, where the cap s is
never binding, as no node picks more than s edges.  The search includes
an edge, in a branch or in the last pick, only if neither endpoint is
then above its cap s - away[v].  Each skipped subtree holds no feasible
s-subset, so, as with the bounds above, the include-first order stops at
the same first hit and the twin argument is unchanged.

Last pick.  With one edge left to pick, the search tests each leaf
chosen + e in place and skips the optimistic test after excluding e: that
test could prune only later leaves, which are subsets of the optimistic
graph and so fail with it, as the predicate is monotone.

Spanning-tree level.  Every feasible set is connected, so none has fewer
than n - 1 edges, and the feasible (n-1)-sets are the spanning trees that
the problem allows:
- FGC and k-FGC: every edge of a tree is a bridge, and removing an unsafe
  one disconnects the tree, so the feasible trees are the spanning trees
  of the safe edges, the bases of their graphic matroid;
- FVC with n >= 3: the cut vertices of a tree are its non-leaves, so every
  unsafe vertex is a leaf, hung on a safe vertex.  The feasible trees are
  a spanning tree of the safe vertices plus one edge from each unsafe
  vertex to a safe one: the bases of the direct sum of the graphic matroid
  of the safe-safe edges and the partition matroid that takes at most one
  edge per unsafe vertex.  With n <= 2 every spanning tree is feasible.
Kruskal's greedy in ascending id returns a basis whose i-th smallest id is
at most the i-th smallest id of every other basis (Edmonds, "Matroids and
the greedy algorithm", 1971).  That basis is the lexicographically first
(n-1)-set, which is where the include-first search stops at that size.  If
the greedy set has fewer than n - 1 edges, the matroid's rank is below
n - 1, no (n-1)-set is feasible, and the search starts at size n.  The
level answers every feasible instance with n <= 1 (the empty set) and
every feasible FVC one with n = 2 (its lowest edge), so the search runs
only for FGC and k-FGC with n >= 2 and for FVC with n >= 3.

kECSS (`exact_kecss`) is this search on `kecss_instance`: the same columns
with every edge unsafe, as k-FGC at k - 1, whose feasible sets survive the
removal of any k - 1 edges.  At k = 1 every edge is safe and the problem is
FGC, that is connectivity, so the answer is the greedy spanning tree.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .errors import InfeasibleInstanceError, InputError, require, require_positive_k
from .feasibility import Instance, Solution, predicates_for
from .graph import LabeledGraph, UnionFind, max_safe_forest

DEFAULT_CAP_N = 10


def _minimum_feasible(g: LabeledGraph,
                      predicate: Callable[[LabeledGraph, Set[int]], bool],
                      lower_bound: int,
                      req: List[int],
                      away: List[int]) -> Optional[Set[int]]:
    """Smallest, then lexicographically first, edge set passing `predicate`.

    The caller checks that the full edge set passes.  `req[v]` is a degree
    every feasible set gives v, and every feasible set is connected (the
    degree and component bounds in the module docstring).  Every feasible
    s-set has at least `away[v]` edges off v, which caps v's degree at
    s - away[v] (the unsafe-degree cap in the module docstring).  The
    predicate must not tell twins apart (the twin ordering in the module
    docstring).
    """
    n = g.n
    eids, ends = g.eids, g.ends
    m = len(eids)
    next_twin: Dict[int, int] = {}    # edge id -> the id of its next higher twin
    last: Dict[Tuple[int, int, bool], int] = {}
    for eid, (u, v), safe in g._rows():
        key = (u, v, safe) if u <= v else (v, u, safe)
        if key in last:
            next_twin[last[key]] = eid
        last[key] = eid
    room = [g.degree(v) for v in range(n)]    # degree in the optimistic graph
    deg = [0] * n             # degree in the chosen set
    parent = list(range(n))   # union-find over the chosen set, undone on pop
    size = [1] * n
    chosen: List[int] = []
    available = set(eids)     # the optimistic graph; each call restores its exclusions

    def root(x: int) -> int:
        p = parent[x]
        while p != x:
            x = p
            p = parent[x]
        return x

    def rec(idx: int, deficit: int, comps: int) -> Optional[List[int]]:
        """Each candidate j >= idx in id order: include j, then exclude it."""
        left = s - len(chosen) - 1    # edges to pick after one more
        excluded: List[Tuple[int, int, List[int]]] = []
        hit = None
        for j in range(idx, m):
            eid = eids[j]
            if eid not in available:
                continue      # a lower twin was excluded, and with it this edge
            u, v = ends[j]
            du, dv = deg[u], deg[v]
            # include first: lexicographically smallest solution wins.  The
            # bounds skip the subtree when the edges left cannot make up
            # the degree deficit or join the components, or when the edge
            # takes an endpoint past its cap.
            d = deficit - (du < req[u]) - (dv < req[v])
            if 2 * left >= d and du < cap[u] and dv < cap[v]:
                ru, rv = root(u), root(v)
                merge = ru != rv
                c = comps - merge
                if c - 1 <= left:
                    if left == 0:     # the last pick tests its leaf in place
                        if predicate(g, {eid, *chosen}):
                            hit = chosen + [eid]
                            break
                    else:
                        chosen.append(eid)
                        deg[u], deg[v] = du + 1, dv + 1
                        if merge:
                            if size[ru] < size[rv]:
                                ru, rv = rv, ru
                            parent[rv] = ru
                            size[ru] += size[rv]
                        hit = rec(j + 1, d, c)
                        if hit is not None:
                            break
                        if merge:
                            parent[rv] = rv
                            size[ru] -= size[rv]
                        deg[u], deg[v] = du, dv
                        chosen.pop()
            if left == 0:
                continue      # the last pick runs no optimistic test
            dropped = [eid]
            twin = next_twin.get(eid)
            while twin is not None:
                dropped.append(twin)
                twin = next_twin.get(twin)
            available.difference_update(dropped)
            room[u] -= len(dropped)
            room[v] -= len(dropped)
            excluded.append((u, v, dropped))
            # the optimistic graph (available, a superset of chosen) shrank;
            # stop if its degrees or the predicate rule it out
            if room[u] < req[u] or room[v] < req[v] or not predicate(g, available):
                break
        for u, v, dropped in excluded:
            room[u] += len(dropped)
            room[v] += len(dropped)
            available.update(dropped)
        return hit

    start = max(lower_bound, (sum(req) + 1) // 2, n - 1)
    for s in range(start, m + 1):
        cap = [s - a for a in away]
        hit = rec(0, sum(req), n)
        if hit is not None:
            return set(hit)
    return None


def _degree_bounds(inst: Instance) -> Tuple[List[int], List[int]]:
    """(req, away): per vertex v, a degree req[v] that every feasible edge
    set F gives v, and a number away[v] of edges off v that F has at least.

    The search runs only with n >= 2, n >= 3 for FVC (module docstring),
    so F is connected and every degree is at least 1.  Higher,
    computed in one pass over the edges, k + 1 (k = 1 for FVC and FGC):
    - FVC: if v has no safe neighbour, since v's one neighbour in F would
      be a cut vertex;
    - FGC and k-FGC: if v has no safe edge, since removing v's at most k
      edges in F would cut v off.
    away[v] is n - 2 for an unsafe vertex of FVC, since F - v is
    connected (the unsafe-degree cap in the module docstring), else 0.
    """
    g = inst.graph
    n = g.n
    away = [0] * n
    covered = [False] * n
    if inst.problem == "fvc":
        safe = g.vertex_safe
        away = [0 if s else n - 2 for s in safe]
        for u, v in g.ends:
            if safe[v]:
                covered[u] = True
            if safe[u]:
                covered[v] = True
    else:
        for (u, v), s in zip(g.ends, g.edge_safe):
            if s:
                covered[u] = covered[v] = True
    return [1 if c else inst.k + 1 for c in covered], away


def _fvc_tree(g: LabeledGraph) -> FrozenSet[int]:
    """Kruskal's greedy, ascending id, in the FVC tree matroid (module
    docstring): safe-safe edges that join two trees, and the first edge
    from each unsafe vertex to a safe one.  n - 1 edges iff some spanning
    tree is feasible."""
    safe = g.vertex_safe if g.n >= 3 else (True,) * g.n
    uf = UnionFind(range(g.n))
    hung = [False] * g.n
    tree = set()
    for eid, (u, v) in zip(g.eids, g.ends):
        if safe[u] and safe[v]:
            if uf.union(u, v):
                tree.add(eid)
        elif safe[u] or safe[v]:
            leaf = v if safe[u] else u
            if not hung[leaf]:
                hung[leaf] = True
                tree.add(eid)
    return frozenset(tree)


def _kfgc_lower_bound(n: int, forest: int, contracted_n: int, k: int) -> int:
    if contracted_n <= 1:
        return max(n - 1, 0)
    return max(n - 1, forest + math.ceil(contracted_n * (k + 1) / 2))


def exact_solve(inst: Instance, cap_n: int = DEFAULT_CAP_N) -> Solution:
    """Minimum-cardinality, then lexicographically first, feasible edge set,
    or an error if none exists.  A spanning-tree optimum comes from one
    greedy pass (module docstring); otherwise the search starts at n."""
    g = inst.graph
    if g.n > cap_n:
        raise InputError(f"exact_solve: n={g.n} exceeds cap {cap_n}")
    checker, kernel = predicates_for(inst)
    if not checker(g, set(g.eids)):
        raise InfeasibleInstanceError("instance is infeasible even with all edges")
    tree = _fvc_tree(g) if inst.problem == "fvc" else max_safe_forest(g)
    if len(tree) >= g.n - 1:      # n = 0 too, whose tree is empty
        best: Optional[Set[int]] = set(tree)
    else:
        # contracting a spanning forest leaves one vertex per tree; n at k = 1
        lb = (g.n if inst.problem == "fvc"
              else _kfgc_lower_bound(g.n, len(tree), g.n - len(tree), inst.k))
        try:
            best = _minimum_feasible(g, kernel, lb, *_degree_bounds(inst))
        except RecursionError:    # the search recurses once per chosen edge
            raise InputError(f"exact_solve: the search over m={g.m} edges is deeper "
                             "than the recursion limit") from None
    # the entry check passed, the first size tried is at most OPT and every
    # bound prunes only infeasible subtrees: a miss is a fault, not infeasibility
    require(best is not None, "exact_solve: the search found no feasible edge set")
    return Solution(edge_ids=frozenset(best),
                    meta={"problem": inst.problem, "k": inst.k,
                          "apx_size": len(best), "exact": True})


def kecss_instance(g: LabeledGraph, k: int) -> Instance:
    """kECSS on g as an instance on g's columns: k-FGC at k - 1 with every
    edge unsafe, or at k = 1 FGC with every edge safe (connectivity)."""
    require_positive_k(k)
    gk = LabeledGraph(g.n, g.vertex_safe, g.eids, g.ends, (k == 1,) * g.m)
    return Instance(gk, "fgc") if k == 1 else Instance(gk, "kfgc", k - 1)


def exact_kecss(g: LabeledGraph, k: int, cap_n: int = DEFAULT_CAP_N) -> Solution:
    """Minimum, then lexicographically first, k-edge-connected spanning
    subgraph: `exact_solve` on `kecss_instance(g, k)`."""
    try:
        best = exact_solve(kecss_instance(g, k), cap_n).edge_ids
    except InfeasibleInstanceError:
        raise InputError(f"exact_kecss: graph is not {k}-edge-connected") from None
    return Solution(edge_ids=best, meta={"apx_size": len(best), "exact": True, "k_ec": k})
