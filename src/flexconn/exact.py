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

Degree and component bounds (both searches).  `req[v]` is a degree that
every feasible set gives v (`_required_degrees`; k everywhere for kECSS),
and every feasible set is connected.  A node with r edges still to pick
and chosen set C is pruned when 2r < sum_v max(0, req[v] - deg_C(v)) or
when (V, C) has more than r + 1 components: one more edge raises the
degree of two vertices by one and joins at most two components, so no
s-subset below the node is feasible.  An excluded edge is also pruned when
one of its endpoints has fewer than req edges left in the optimistic
graph, which no subset of that graph can then repair.  The degree bound
also makes the first size tried at least ceil(sum req / 2).  Every pruned
subtree holds no feasible s-subset, so the include-first order stops at
the same first hit as the search without them, and the twin argument
above is unchanged.

Last pick (both searches).  With one edge left to pick, the search tests
the leaves chosen + e for the available e in id order that pass both
bounds, and returns the first that passes; it runs no optimistic test at
that level.  Each later leaf is a subset of the optimistic graph left by
excluding e; if that graph fails, so does each such leaf (the predicate is
monotone), so the first hit is unchanged.  Twins give the same set.

Spanning-tree level (`exact_solve` only).  Every feasible set is
connected, so none has fewer than n - 1 edges, and the feasible
(n-1)-sets are the spanning trees that the problem allows:
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
n - 1, no (n-1)-set is feasible, and the search starts at size n.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .errors import InfeasibleInstanceError, InputError
from .feasibility import Instance, Solution, predicates_for
from .graph import (LabeledGraph, UnionFind, is_k_edge_connected, max_safe_forest,
                    subset_k_edge_connected)

DEFAULT_CAP_N = 10


def _minimum_feasible(g: LabeledGraph,
                      predicate: Callable[[LabeledGraph, Set[int]], bool],
                      lower_bound: int,
                      req: List[int],
                      next_twin: Optional[Dict[int, int]] = None) -> Optional[Set[int]]:
    """Smallest, then lexicographically first, edge set passing `predicate`.

    The caller checks that the full edge set passes.  `req[v]` is a degree
    every feasible set gives v, and every feasible set is connected (the
    degree and component bounds in the module docstring).  `next_twin` maps
    an edge id to the next higher id of an edge the predicate treats as
    interchangeable with it; such an edge is used only after its lower twin.
    """
    next_twin = next_twin or {}
    n = g.n
    eids = sorted(g.eids)
    m = len(eids)
    tails = [g.edge_ends[e][0] for e in eids]
    heads = [g.edge_ends[e][1] for e in eids]
    room = [g.degree(v) for v in range(n)]    # degree in the optimistic graph
    deg = [0] * n             # degree in the chosen set
    parent = list(range(n))   # union-find over the chosen set, undone on pop
    size = [1] * n

    def root(x: int) -> int:
        p = parent[x]
        while p != x:
            x = p
            p = parent[x]
        return x

    def search(s: int) -> Optional[List[int]]:
        chosen: List[int] = []
        available = set(eids)

        def rec(idx: int, deficit: int, comps: int) -> Optional[List[int]]:
            picked = len(chosen)
            if picked == s:       # only at s = 0, as the last pick tests the rest
                return list(chosen) if predicate(g, set(chosen)) else None
            if picked == s - 1:   # the last pick (module docstring)
                for j in range(idx, m):
                    u, v = tails[j], heads[j]
                    if (eids[j] in available and deficit <= (deg[u] < req[u]) + (deg[v] < req[v])
                            and comps - (root(u) != root(v)) == 1
                            and predicate(g, {eids[j], *chosen})):
                        return chosen + [eids[j]]
                return None
            if picked + (m - idx) < s:
                return None
            eid = eids[idx]
            if eid not in available:
                # a lower twin was excluded, and with it this edge
                return rec(idx + 1, deficit, comps)
            u, v = tails[idx], heads[idx]
            du, dv = deg[u], deg[v]
            left = s - picked - 1
            # include first: lexicographically smallest solution wins.  The
            # bounds skip the subtree when the edges left cannot make up
            # the degree deficit or join the components.
            d = deficit - (du < req[u]) - (dv < req[v])
            if 2 * left >= d:
                ru, rv = root(u), root(v)
                merge = ru != rv
                c = comps - merge
                if c - 1 <= left:
                    chosen.append(eid)
                    deg[u], deg[v] = du + 1, dv + 1
                    if merge:
                        if size[ru] < size[rv]:
                            ru, rv = rv, ru
                        parent[rv] = ru
                        size[ru] += size[rv]
                    hit = rec(idx + 1, d, c)
                    if hit is not None:
                        return hit
                    if merge:
                        parent[rv] = rv
                        size[ru] -= size[rv]
                    deg[u], deg[v] = du, dv
                    chosen.pop()
            dropped = [eid]
            twin = next_twin.get(eid)
            while twin is not None:
                dropped.append(twin)
                twin = next_twin.get(twin)
            available.difference_update(dropped)
            room[u] -= len(dropped)
            room[v] -= len(dropped)
            # the optimistic graph (available, a superset of chosen) shrank;
            # prune if its degrees or the predicate rule it out
            if room[u] >= req[u] and room[v] >= req[v] and predicate(g, available):
                hit = rec(idx + 1, deficit, comps)
                if hit is not None:
                    return hit
            room[u] += len(dropped)
            room[v] += len(dropped)
            available.update(dropped)
            return None

        return rec(0, sum(req), n)

    start = max(lower_bound, (sum(req) + 1) // 2, n - 1)
    for s in range(start, m + 1):
        hit = search(s)
        if hit is not None:
            return set(hit)
    return None


def _required_degrees(inst: Instance) -> List[int]:
    """Per vertex, a degree that every feasible edge set F gives it.

    With n >= 2, F is connected, so every degree is at least 1.  Higher,
    computed in one pass over the edges, k + 1 (k = 1 for FVC and FGC):
    - FVC, n >= 3: if v has no safe neighbour, since v's one neighbour in F
      would be a cut vertex;
    - FGC and k-FGC: if v has no safe edge, since removing v's at most k
      edges in F would cut v off.
    """
    g = inst.graph
    n = g.n
    if n <= 1:
        return [0] * n
    if inst.problem == "fvc" and n == 2:
        return [1, 1]
    covered = [False] * n
    if inst.problem == "fvc":
        safe = g.vertex_safe
        for u, v in g.ends:
            if safe[v]:
                covered[u] = True
            if safe[u]:
                covered[v] = True
    else:
        for (u, v), s in zip(g.ends, g.edge_safe):
            if s:
                covered[u] = covered[v] = True
    return [1 if c else inst.k + 1 for c in covered]


def _fvc_tree(g: LabeledGraph) -> FrozenSet[int]:
    """Kruskal's greedy, ascending id, in the FVC tree matroid (module
    docstring): safe-safe edges that join two trees, and the first edge
    from each unsafe vertex to a safe one.  n - 1 edges iff some spanning
    tree is feasible."""
    safe = g.vertex_safe if g.n >= 3 else (True,) * g.n
    uf = UnionFind(range(g.n))
    hung = [False] * g.n
    tree = set()
    for eid, (u, v) in sorted(zip(g.eids, g.ends)):
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
    if len(tree) == g.n - 1:
        best: Optional[Set[int]] = set(tree)
    else:
        # contracting a spanning forest leaves one vertex per tree; n at k = 1
        lb = (g.n if inst.problem == "fvc"
              else _kfgc_lower_bound(g.n, len(tree), g.n - len(tree), inst.k))
        best = _minimum_feasible(g, kernel, lb, _required_degrees(inst))
    if best is None:
        raise InfeasibleInstanceError("instance is infeasible")
    return Solution(edge_ids=frozenset(best),
                    meta={"problem": inst.problem, "k": inst.k,
                          "apx_size": len(best), "exact": True})


def exact_kecss(g: LabeledGraph, k: int, cap_n: int = DEFAULT_CAP_N) -> Solution:
    if g.n > cap_n:
        raise InputError(f"exact_kecss: n={g.n} exceeds cap {cap_n}")
    if not is_k_edge_connected(g, k):
        raise InputError(f"exact_kecss: graph is not {k}-edge-connected")
    if g.n <= 1:
        return Solution(edge_ids=frozenset(), meta={"apx_size": 0, "exact": True, "k_ec": k})
    next_twin: Dict[int, int] = {}
    last: Dict[Tuple[int, int], int] = {}
    for eid, (u, v) in sorted(zip(g.eids, g.ends)):
        pair = (u, v) if u <= v else (v, u)
        if pair in last:
            next_twin[last[pair]] = eid
        last[pair] = eid
    # k >= 1, so k-edge-connectivity includes connectivity; the lower bound
    # max(n - 1, ceil(nk / 2)) is the search's own, from degree k everywhere
    best = _minimum_feasible(g, lambda g, s: subset_k_edge_connected(g, s, k),
                             0, [k] * g.n, next_twin)
    if best is None:
        raise InputError("exact_kecss: unexpectedly found no solution")
    return Solution(edge_ids=frozenset(best),
                    meta={"apx_size": len(best), "exact": True, "k_ec": k})

