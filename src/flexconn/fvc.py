"""The flexible vertex connectivity solver.

Pipeline: preprocessing reductions (safe cut-vertex splits, forbidden-cycle
eliminations), then per piece either small-case enumeration, the spanning
tree shortcut, or the two approximations built on a long-ear decomposition:
a direct construction (apx1) and the rainbow/good-cycle construction (apx2),
returning the smaller.  The worst-case guarantee of the combination is 11/7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .cycles import GoodCycleSearch
from .ears import (EarDecomposition, build_long_ear_decomposition,
                   find_forbidden_cycle)
from .errors import InfeasibleInstanceError, InputError, require
from .exact import exact_solve
from .feasibility import Instance, Solution, check_fvc
from .graph import LabeledGraph, UnionFind, block_decomposition_edges, components
from .rainbow import PseudoEdge, RainbowSolution, solve_rainbow


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def preprocess(g: LabeledGraph) -> Tuple[List[LabeledGraph], Set[int], List[Tuple]]:
    """Reduce to 2VC, forbidden-cycle-free pieces (or pieces below 5
    vertices); returns the pieces, the forced edge ids and the reduction
    events in the order they happened.

    One low-link DFS over g decides feasibility (g connected, no unsafe cut
    vertex) and gives g's cut vertices.  Every piece is an induced subgraph
    of g, so the worklist holds each as its vertex set vs, with its cut
    vertices, both in g's labels; each final piece is built once, as
    g[vs], or is g itself when nothing was reduced.  Order per step: tiny
    pieces are left for enumeration; the least cut vertex x, safe, splits
    g[vs] into the x-closures of the components of g[vs] - x; a forbidden
    4-cycle u-w-v-z (deg w = deg z = 2 in g[vs], wz absent) either forces
    the edges uw, wv and drops w (u, v both unsafe) or lets us drop the
    edge uw (v safe, and the names w and z swapped if only w is safe).
    Depth first, children in order, with an explicit worklist so long
    chains of reductions cannot exhaust the call stack.

    Each step gives its children's cut vertices, so no further DFS runs:
    - the x-closure g[C + x] of a component C has those of g[vs] that lie
      in C.  C is connected, so x is none; for y in C, every part of
      g[vs] - y that misses x lies inside C.
    - g[vs - w] has none, when g[vs] is 2VC with |vs| >= 5: u and v stay
      joined through z, and g[vs - w - z] keeps them joined too, or else u
      would cut g[vs], as a fifth vertex lies on one side.
    Dropping uw leaves w a leaf on v, and v the one cut vertex of
    g[vs] - uw, as g[vs - w] is 2VC.  So the step does the split at v at
    once: the closures of {w} and of vs - {v, w}, which is connected, are
    the edge piece {v, w} and g[vs - w], which has no cut vertex; they pop
    in the order of their least vertices, as a split's closures do.  So
    every split is at a cut vertex of g, which the entry check found safe.
    """
    if g.m < g.n - 1:    # disconnected; decided before the incidence list is built
        raise InfeasibleInstanceError("FVC instance is infeasible")
    reached, cuts = g.reach_and_cuts
    if reached < g.n or not g.unsafe_vertex_set.isdisjoint(cuts):
        raise InfeasibleInstanceError("FVC instance is infeasible")
    done: List[Set[int]] = []
    forced: Set[int] = set()
    events: List[Tuple] = []
    todo = [(set(range(g.n)), cuts)]
    while todo:
        vs, cuts = todo.pop()
        if len(vs) < 5:
            done.append(vs)
            continue
        if cuts:
            x = min(cuts)
            comps = sorted(components(g.neighbor_sets, vs - {x}), key=min)
            events.append(("split", len(vs), len(comps)))
            todo += [(comp | {x}, cuts & comp) for comp in reversed(comps)]
            continue
        fc = find_forbidden_cycle(g, vs)
        if fc is None:
            done.append(vs)
            continue
        u, w, v, z = fc
        if not g.vertex_safe[u] and not g.vertex_safe[v]:
            e1, e2 = g.edge_between(u, w), g.edge_between(w, v)
            forced.update((e1, e2))
            events.append(("forbidden_unsafe", e1, e2))
            todo.append((vs - {w}, set()))
            continue
        if g.vertex_safe[u] and not g.vertex_safe[v]:
            u, v = v, u
        if g.vertex_safe[w] and not g.vertex_safe[z]:
            w, z = z, w
        events += [("forbidden_safe", g.edge_between(u, w)), ("split", len(vs), 2)]
        rest, pair = (vs - {w}, set()), ({v, w}, set())
        # {v, w} pops first iff no vertex but v lies below w
        todo += [rest, pair] if w == min(vs - {v}) else [pair, rest]
    return [g if len(vs) == g.n else g.induced(vs) for vs in done], forced, events


# ---------------------------------------------------------------------------
# Tree case
# ---------------------------------------------------------------------------

def solve_tree_case(g: LabeledGraph) -> Optional[FrozenSet[int]]:
    """An (n-1)-edge feasible solution if one exists, else None.

    For n >= 3 such a tree exists iff the safe vertices induce a connected
    subgraph dominating every unsafe vertex; then a safe spanning tree plus
    one pendant edge per unsafe vertex works.  Finding both proves that g
    is connected, so no separate reach test runs.
    """
    if g.n <= 1:
        return frozenset()
    if g.n == 2:
        return frozenset({min(g.eids)}) if g.eids else None
    safe = [v for v in range(g.n) if g.vertex_safe[v]]
    if not safe:
        return None
    uf = UnionFind(safe)
    out: Set[int] = set()
    for e, (u, v) in sorted(zip(g.eids, g.ends)):
        if g.vertex_safe[u] and g.vertex_safe[v] and uf.union(u, v):
            out.add(e)
    if len(out) < len(safe) - 1:    # the safe vertices are not connected
        return None
    for v in range(g.n):
        if g.vertex_safe[v]:
            continue
        anchors = [w for w in g.neighbors(v) if g.vertex_safe[w]]
        if not anchors:
            return None
        out.add(g.edge_between(v, anchors[0]))
    require(len(out) == g.n - 1, "tree-case solution must have n-1 edges")
    return frozenset(out)


# ---------------------------------------------------------------------------
# K-partition and apx1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KPartition:
    """The leftover vertices, those outside V(D), in the paper's classes
    (see `partition_k_sets`).  An anchor of x is a V(D) neighbour, and
    `anchors[x]` lists those of each leftover x in ascending order.
    `fixed` holds the edges that apx1 and S_P both buy: for a K11 vertex,
    the edge to its lowest safe anchor; for a K22 pair, one such edge from
    each end, or else the pair's own edge and one from its safe end."""
    vd: FrozenSet[int]
    k11: FrozenSet[int]
    k12: FrozenSet[int]
    k22: FrozenSet[int]
    k23: FrozenSet[int]
    k22_pairs: Tuple[Tuple[int, int], ...]
    k23_pairs: Tuple[Tuple[int, int], ...]
    anchors: Dict[int, Tuple[int, ...]]
    fixed: FrozenSet[int]

    @property
    def kterm(self) -> Fraction:
        """|K11| + 2|K12| + |K22| + 3/2 |K23|: both the apx1 surcharge and the
        literal per-colour edge count of the rainbow realization."""
        return (len(self.k11) + 2 * len(self.k12) + len(self.k22)
                + Fraction(3, 2) * len(self.k23))


def partition_k_sets(g: LabeledGraph, dec: EarDecomposition) -> KPartition:
    """One ascending pass over the leftover vertices; their edges form a
    matching.  A vertex with no partner is K11 if it has a safe anchor,
    else K12.  A pair uv is K22 if both ends have one, or if a safe end
    has one, else K23.  Both are classified, and their `fixed` edges
    chosen, at their higher end."""
    vd = frozenset(dec.vertices)
    safe = g.vertex_safe
    anchors: Dict[int, Tuple[int, ...]] = {}
    first_safe: Dict[int, Optional[int]] = {}
    k11, k12, fixed = set(), set(), set()
    k22_pairs, k23_pairs = [], []
    for v in range(g.n):
        if v in vd:
            continue
        anchors[v] = tuple(w for w in g.neighbors(v) if w in vd)
        sv = first_safe[v] = next((w for w in anchors[v] if safe[w]), None)
        partners = [w for w in g.neighbors(v) if w not in vd]
        require(len(partners) <= 1, "leftover vertices must form a matching")
        if not partners:
            if sv is None:
                k12.add(v)
            else:
                k11.add(v)
                fixed.add(g.edge_between(v, sv))
            continue
        u = partners[0]
        if u > v:
            continue
        su = first_safe[u]
        if su is not None and sv is not None:
            fixed |= {g.edge_between(u, su), g.edge_between(v, sv)}
        elif safe[u] and su is not None:
            fixed |= {g.edge_between(u, v), g.edge_between(u, su)}
        elif safe[v] and sv is not None:
            fixed |= {g.edge_between(u, v), g.edge_between(v, sv)}
        else:
            k23_pairs.append((u, v))
            continue
        k22_pairs.append((u, v))
    return KPartition(vd=vd, k11=frozenset(k11), k12=frozenset(k12),
                      k22=frozenset(x for p in k22_pairs for x in p),
                      k23=frozenset(x for p in k23_pairs for x in p),
                      k22_pairs=tuple(sorted(k22_pairs)),
                      k23_pairs=tuple(sorted(k23_pairs)),
                      anchors=anchors, fixed=frozenset(fixed))


def build_apx1(g: LabeledGraph, dec: EarDecomposition, kp: KPartition) -> FrozenSet[int]:
    out: Set[int] = dec.edge_ids(g) | kp.fixed
    for v in kp.k12:
        a = kp.anchors[v]
        require(len(a) >= 2, "a K12 vertex must have >= 2 decomposition neighbours")
        out |= {g.edge_between(v, a[0]), g.edge_between(v, a[1])}
    for u, v in kp.k23_pairs:
        out.add(g.edge_between(u, v))
        out |= _k23_anchor_edges(g, kp, u, v)
    bound = Fraction(4, 3) * (len(kp.vd) - 1) + kp.kterm
    require(Fraction(len(out)) <= bound, "apx1 exceeded its size bound")
    return frozenset(out)


def _k23_anchor_edges(g: LabeledGraph, kp: KPartition, u: int, v: int) -> Set[int]:
    for x, y in product(kp.anchors[u], kp.anchors[v]):
        if x != y:
            return {g.edge_between(u, x), g.edge_between(v, y)}
    raise InputError("K23 pair with a single shared anchor contradicts 2VC input")


# ---------------------------------------------------------------------------
# Pseudo-edges and their realization
# ---------------------------------------------------------------------------

def build_pseudo_edges(g: LabeledGraph, kp: KPartition) -> Tuple[PseudoEdge, ...]:
    """One colour per K12 vertex and one per matched K23 pair; pseudo-edges
    are generated by the three anchor rules for pairs and the neighbour-pair
    rule for singletons."""
    out: Set[PseudoEdge] = set()
    for u in kp.k12:
        out.update(PseudoEdge(a, b, ("v", u)) for a, b in combinations(kp.anchors[u], 2))
    for u, v in kp.k23_pairs:
        colour = ("p", u, v)
        au, av = kp.anchors[u], kp.anchors[v]
        # rule 1: one anchor each, distinct
        out.update(PseudoEdge(min(a, b), max(a, b), colour) for a in au for b in av if a != b)
        for x, ax, ay in ((u, au, av), (v, av, au)):
            # rule 2: x safely anchored, pseudo across y's anchor pairs
            if any(g.vertex_safe[a] for a in ax):
                out.update(PseudoEdge(a, b, colour) for a, b in combinations(ay, 2))
            # rule 3: x itself safe, pseudo across x's anchor pairs
            if g.vertex_safe[x]:
                out.update(PseudoEdge(a, b, colour) for a, b in combinations(ax, 2))
    colours = {p.colour for p in out}
    wanted = {("v", u) for u in kp.k12} | {("p", u, v) for u, v in kp.k23_pairs}
    require(colours == wanted, "every colour needs at least one pseudo-edge")
    return tuple(sorted(out))


def realize_sp(g: LabeledGraph, kp: KPartition, rainbow: RainbowSolution) -> FrozenSet[int]:
    """The fixed K11 and K22 edges, plus the real edges of each chosen
    pseudo-edge (first applicable of the six pair cases, lowest-index ties)."""
    out = set(kp.fixed)
    for p in rainbow.chosen:
        if p.colour[0] == "v":
            u = p.colour[1]
            out |= {g.edge_between(u, p.a), g.edge_between(u, p.b)}
        else:
            out |= _realize_pair_pseudo(g, kp, p)
    require(len(out) == kp.kterm,
            "realized edge count must equal the literal per-class formula")
    return frozenset(out)


def _realize_pair_pseudo(g: LabeledGraph, kp: KPartition, p: PseudoEdge) -> Set[int]:
    _, u, v = p.colour
    v1, v2 = p.a, p.b
    uv = g.edge_between(u, v)
    require(uv is not None, "pair colour without the matching edge")
    # the edges joining u and v to the anchors v1 and v2, or None
    u1, u2, w1, w2 = (g.edge_between(x, y) for x in (u, v) for y in (v1, v2))
    # case 1 / 2: a path v1-u-v-v2 (or v1-v-u-v2) plus the matching edge
    if None not in (u1, w2):
        return {u1, w2, uv}
    if None not in (u2, w1):
        return {u2, w1, uv}
    # case 3 / 4: a safe endpoint carries both anchors
    if g.vertex_safe[u] and None not in (u1, u2):
        return {u1, u2, uv}
    if g.vertex_safe[v] and None not in (w1, w2):
        return {w1, w2, uv}
    # case 5 / 6: both anchors on one endpoint, the other on its lowest safe anchor
    for both, x in (((w1, w2), u), ((u1, u2), v)):
        anchor = next((a for a in kp.anchors[x] if g.vertex_safe[a]), None)
        if None not in both and anchor is not None:
            return {*both, g.edge_between(x, anchor)}
    raise InputError(f"no realization case applies to pseudo-edge {p}")


# ---------------------------------------------------------------------------
# Algorithms 1-3
# ---------------------------------------------------------------------------

def _pseudo_triples(chosen: Sequence[PseudoEdge]):
    return [(("pe", i), p.a, p.b) for i, p in enumerate(chosen)]


def _induced_triples(g: LabeledGraph, inside: Set[int]):
    return [(e, u, v) for e, (u, v) in zip(g.eids, g.ends) if u in inside and v in inside]


def algorithm1_buy_good_cycles(g: LabeledGraph, vd: FrozenSet[int],
                               rainbow: RainbowSolution
                               ) -> Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
    """Buy good cycles until none exists; returns (x1, s1, large component A).

    The parts are the components of V(D) under the pseudo-edges and S1.  One
    `GoodCycleSearch` per piece holds them, read once from a union-find of
    the pseudo-edges; each bought cycle merges the parts it touches, which
    is the recount of the components, so the cycles bought are unchanged.
    The search stops only when one large part A is left and no two other
    vertices are adjacent, so V(D) - A is independent without a scan.
    """
    uf = UnionFind(vd)
    for p in rainbow.chosen:
        uf.union(p.a, p.b)
    search = GoodCycleSearch(g, vd, uf.groups())
    s1: Set[int] = set()
    while True:
        cyc = search.find()
        if cyc is None:
            break
        require(not (cyc & s1), "a good cycle must consist of new edges")
        s1 |= cyc
        search.merge(cyc)
    larges = [frozenset(c) for c in search.parts.values() if len(c) >= 2]
    require(len(larges) == 1, "exactly one large component must remain")
    a = larges[0]
    x1 = frozenset(rainbow.singletons & a)
    require(2 * len(s1) <= 4 * rainbow.alpha_large + 3 * len(x1) - 4,
            "|S1| exceeded 2 alpha_large + 3/2 |X1| - 2")
    return x1, frozenset(s1), a


def algorithm2_make_2vc(g: LabeledGraph, vd: FrozenSet[int],
                        rainbow: RainbowSolution, s1: FrozenSet[int],
                        a: FrozenSet[int]) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Grow the large component to a single block; returns (x2, s2).

    B is the bought graph (pseudo-edges, S1 and S2 on cur), H is g[cur]
    plus the pseudo-edges.  Each round decomposes B and stops when B is one
    block.  While H has several blocks it pulls in an outside vertex with
    two attachment edges (phase 1), then it adds one block-reducing edge to
    B (phase 2).  S1 and S2 are edges of g inside cur, so B is a spanning
    subgraph of H, and a one-block B means a one-block H.  Phase-2 rounds
    leave cur, and so H, as it is: H is decomposed until it shows one block.

    Both graphs are connected, as `block_decomposition_edges`, the one block
    decomposition, requires: the pseudo-edges and S1 lie inside A and connect
    it, and each pulled vertex brings two edges into cur.  In a connected
    graph, adding an edge uw lowers the block count iff u and w share no
    block.  Adding a vertex with neighbours S lowers it iff two members of S
    share no block: otherwise, as subtrees of the block-cut tree have the
    Helly property, all of S lies in one block.  So the blocks at each
    vertex decide: phase 1 takes the first v in sorted(vd - cur) whose
    neighbours in cur hold such a pair in H, and the first pair of its edges
    by id whose ends share no block of B; phase 2 the first edge by id
    whose ends share no block of B.
    """
    pseudo = _pseudo_triples(rainbow.chosen)
    cur: Set[int] = set(a)
    s2: Set[int] = set()
    split = True    # H has not shown one block yet
    while True:
        bought = pseudo + [(eid, *g.edge_ends[eid]) for eid in sorted(s1 | s2)]
        bl, _, touching = block_decomposition_edges(cur, bought)
        if len(bl) <= 1:
            break
        if split:
            hbl, _, h_touching = block_decomposition_edges(cur, _induced_triples(g, cur) + pseudo)
            split = len(hbl) > 1
        if split:
            v = next((v for v in sorted(set(vd) - cur)
                      if any(not (h_touching[u] & h_touching[w])
                             for u, w in combinations(g.neighbor_sets[v] & cur, 2))), None)
            require(v is not None, "no block-reducing vertex found")
            incident = sorted((e, w) for w, e in g.incidence[v] if w in cur)
            pair = next(((eid1, eid2) for i, (eid1, u) in enumerate(incident)
                         for eid2, w in incident[i + 1:]
                         if u != w and not (touching[u] & touching[w])), None)
            require(pair is not None, "no block-reducing edge pair found")
            cur.add(v)
            s2.update(pair)
        else:
            key = min((e for e, (u, v) in zip(g.eids, g.ends)
                       if u in cur and v in cur and e not in s1 and e not in s2
                       and not (touching[u] & touching[v])), default=None)
            require(key is not None, "a block-reducing edge must exist")
            s2.add(key)

    x2 = frozenset(cur - a)
    require(len(s2) <= len(x2) + len(vd) - rainbow.alpha - rainbow.alpha_large,
            "|S2| exceeded |X2| + |V(D)| - alpha - alpha_large")
    return x2, frozenset(s2)


def algorithm3_make_feasible(g: LabeledGraph, vd: FrozenSet[int],
                             a: FrozenSet[int], x2: FrozenSet[int]
                             ) -> Tuple[FrozenSet[int], FrozenSet[int], int, int]:
    """Attach every leftover decomposition vertex: one edge to a safe
    neighbour when possible, otherwise two distinct edges."""
    core = set(a) | set(x2)
    x3 = frozenset(set(vd) - core)
    s3: Set[int] = set()
    alpha1p = alpha2p = 0
    for v in sorted(x3):
        safe_nbrs = [w for w in g.neighbors(v) if w in core and g.vertex_safe[w]]
        if safe_nbrs:
            s3.add(g.edge_between(v, safe_nbrs[0]))
            alpha1p += 1
        else:
            nbrs = [w for w in g.neighbors(v) if w in core]
            require(len(nbrs) >= 2,
                    "an unattachable leftover vertex contradicts 2VC input")
            s3.add(g.edge_between(v, nbrs[0]))
            s3.add(g.edge_between(v, nbrs[1]))
            alpha2p += 1
    require(len(s3) == alpha1p + 2 * alpha2p, "|S3| must equal a1' + 2 a2'")
    return x3, frozenset(s3), alpha1p, alpha2p


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def solve_fvc(g: LabeledGraph) -> Solution:
    """Best of the two approximations, after preprocessing.  The stitched
    set is the one output the checker certifies: the stages inside a piece
    check only the paper's O(1) size bounds, and tests hold each stage's
    output to its invariants.  Meta carries the internal lower bound and
    pipeline stats."""
    pieces, forced, events = preprocess(g)
    stitched = set(forced)
    piece_meta: List[dict] = []
    lower_bound = len(forced)
    for piece in pieces:
        sol = _solve_piece(piece)
        stitched |= sol.edge_ids
        piece_meta.append(sol.meta)
        lower_bound += sol.meta["lower_bound"]
    total = frozenset(stitched)
    require(check_fvc(g, total), "stitched FVC solution failed the checker")
    meta = {
        "problem": "fvc", "n": g.n, "m": g.m, "k": 1,
        "apx_size": len(total),
        "lower_bound": lower_bound,
        "forced_edges": len(forced),
        "pieces": piece_meta,
        "reduction_events": [list(ev) for ev in events],
    }
    return Solution(edge_ids=total, meta=meta)


def _solve_piece(g: LabeledGraph) -> Solution:
    if g.n < 5:
        sol = exact_solve(Instance(graph=g, problem="fvc"))
        meta = {"branch": "enumeration", "n": g.n,
                "apx_size": sol.size, "lower_bound": sol.size}
        return Solution(edge_ids=sol.edge_ids, meta=meta)
    tree = solve_tree_case(g)
    if tree is not None:
        return Solution(edge_ids=tree,
                        meta={"branch": "tree", "n": g.n,
                              "apx_size": len(tree), "lower_bound": g.n - 1})
    dec = build_long_ear_decomposition(g)
    kp = partition_k_sets(g, dec)
    apx1 = build_apx1(g, dec, kp)
    meta = {
        "branch": "apx1", "n": g.n,
        "vd": len(kp.vd), "ed": dec.edge_count,
        "k11": len(kp.k11), "k12": len(kp.k12),
        "k22": len(kp.k22), "k23": len(kp.k23),
        "apx1_size": len(apx1),
        "sp_paper_formula": float(len(kp.k11) + 2 * len(kp.k12) + 2 * len(kp.k22)
                                  + Fraction(3, 2) * len(kp.k23)),
    }
    if len(kp.k12) + len(kp.k23) <= 2:
        # apx1 alone is 4/3-approximate here
        meta.update({"apx_size": len(apx1),
                     "lower_bound": max(g.n, math.ceil(kp.kterm))})
        return Solution(edge_ids=apx1, meta=meta)

    pe = build_pseudo_edges(g, kp)
    rainbow = solve_rainbow(pe, sorted(kp.vd))
    x1, s1, a = algorithm1_buy_good_cycles(g, kp.vd, rainbow)
    x2, s2 = algorithm2_make_2vc(g, kp.vd, rainbow, s1, a)
    x3, s3, alpha1p, alpha2p = algorithm3_make_feasible(g, kp.vd, a, x2)
    require(len(x3) == rainbow.alpha - rainbow.alpha_large - len(x1) - len(x2),
            "component bookkeeping mismatch: alpha != alpha_large+|X1|+|X2|+|X3|")
    sp = realize_sp(g, kp, rainbow)
    apx2 = frozenset(sp | s1 | s2 | s3)
    require(len(apx2) == len(sp) + len(s1) + len(s2) + len(s3),
            "apx2 pieces must be disjoint")

    alpha, alpha_large = rainbow.alpha, rainbow.alpha_large
    alphap = alpha1p + alpha2p
    x = Fraction(alpha - alphap, 2) + Fraction(alpha_large, 2) + alpha1p
    ub2 = len(kp.vd) - 2 + len(sp) + alpha - x
    require(Fraction(len(apx2)) <= ub2, "apx2 exceeded its size bound")

    lb = max(len(sp) + alpha - 1,
             2 * len(kp.k12) - 2 * alpha_large + alpha1p + 2 * alpha2p,
             g.n)
    best = apx1 if len(apx1) <= len(apx2) else apx2
    meta.update({
        "branch": "min(apx1,apx2)",
        "apx2_size": len(apx2),
        "apx_size": len(best),
        "alpha": alpha, "alpha_large": alpha_large,
        "alpha1_prime": alpha1p, "alpha2_prime": alpha2p,
        "x1": len(x1), "x2": len(x2), "x3": len(x3),
        "sp_size": len(sp),
        "s1": len(s1), "s2": len(s2), "s3": len(s3),
        "lower_bound": lb,
        "reached_apx2": True,
    })
    return Solution(edge_ids=best, meta=meta)
