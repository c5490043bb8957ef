"""Good cycles with respect to a vertex partition.

A good cycle of a partition is an edge set that contracts to a simple cycle
of length >= 2, attaches to every large part at distinct vertices, touches
at least one large part, and is only allowed to have length two between two
large parts.  ``find_good_cycle`` builds one by merging the partition into a
coarser one, searching a "nice" cycle there (entry and exit vertices of each
large part must differ), and patching the result back.  No returned cycle
is re-checked: ``is_good_cycle`` below is the validator tests hold them to.

Algorithm 1 buys good cycles from one partition that each cycle coarsens,
so ``GoodCycleSearch`` keeps that partition and its coarsening across its
rounds.  A bought cycle merges the parts it touches, which is exactly the
recount, and the coarsening is updated only where that merge reaches, so
the cycles found do not change.  ``find_good_cycle`` is one round of it.

A round costs what it changes plus what its search visits, not a pass over
the singletons or the edges of ``g``.  What it changes: the vertices that
move to another coarse part, their neighbours, and the F1 groups that lose
a member (what is left of such a group is walked again to split it).  A
merged part takes the lowest key of the parts it joins, so the vertices of
the largest part move too when another part has a lower key.  What the
search visits: it leaves a part only at vertices with an edge to another
part, which each part keeps a set of, and the cross edges of a vertex are
built from ``g.incidence`` the first time the search reaches it and kept,
sorted by (other end, edge id); that order fixes which cycle is returned.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import require
from .graph import LabeledGraph, UnionFind, components


def is_good_cycle(parts: Sequence[FrozenSet[int]],
                  cycle_edges: Sequence[Tuple[int, int, int]]) -> bool:
    """Independent validator for the four good-cycle conditions.

    ``cycle_edges`` are (eid, u, v) triples.  Checks, from scratch: the edges
    contract (one vertex per part) to a single simple cycle of length >= 2;
    edges meet each large part at pairwise distinct vertices; at least one
    edge touches a large part; a length-2 cycle joins two large parts.
    """
    if len(cycle_edges) < 2:
        return False
    part_of: Dict[int, int] = {}
    for i, p in enumerate(parts):
        for v in p:
            part_of[v] = i
    degree: Dict[int, int] = {}
    attach: Dict[int, List[int]] = {}
    uf = UnionFind(range(len(parts)))
    seen_eids = set()
    for eid, u, v in cycle_edges:
        if eid in seen_eids:
            return False
        seen_eids.add(eid)
        pu, pv = part_of.get(u), part_of.get(v)
        if pu is None or pv is None or pu == pv:
            return False
        degree[pu] = degree.get(pu, 0) + 1
        degree[pv] = degree.get(pv, 0) + 1
        attach.setdefault(pu, []).append(u)
        attach.setdefault(pv, []).append(v)
        uf.union(pu, pv)
    touched = sorted(degree)
    if any(degree[p] != 2 for p in touched):
        return False
    if len({uf.find(p) for p in touched}) != 1:
        return False
    if len(cycle_edges) != len(touched):
        return False
    for p in touched:
        if len(parts[p]) >= 2 and attach[p][0] == attach[p][1]:
            return False
    if not any(len(parts[p]) >= 2 for p in touched):
        return False
    if len(cycle_edges) == 2 and sum(1 for p in touched if len(parts[p]) >= 2) != 2:
        return False
    return True


def find_good_cycle(g: LabeledGraph, vd: Set[int],
                    parts: Sequence[FrozenSet[int]]) -> Optional[Set[int]]:
    """A good cycle of `parts` using edges of g induced on vd, or None: one
    round of `GoodCycleSearch`.  `parts` may come in any order."""
    return GoodCycleSearch(g, vd, parts).find()


class GoodCycleSearch:
    """Algorithm 1's state: the partition and its coarsening, both kept
    across rounds.

    The parts are keyed by their smallest vertex; the singletons carry
    their V(D)-neighbour lists in `nbr`.  The coarsening merges adjacent
    singletons into F1 groups (`groups`) and lets each large part grab the
    other singletons with two distinct edges into it (a singleton with two
    edges into several large parts goes to the one with the lowest key).
    `coarse_of` maps each covered vertex to its coarse part: the key of its
    large part (also for a grabbed singleton), itself for an A0 singleton,
    or the negative id of its F1 group.  A group keeps its id when it
    splits, so its largest piece is not relabelled.  `bnd` holds, per
    coarse part, a superset of its vertices with an edge to another part,
    the only ones the search can leave it at: a vertex is added when it
    gains such an edge, as it moves in or a neighbour moves out, and the
    search drops the ones it finds without one.

    `merge` joins exactly the parts a bought cycle touches (the cycle
    connects them, so that is the recount of the partition) and updates
    only the coarsening that the join can change: the F1 groups that lost
    a member, and the grab of each singleton next to a vertex whose part
    changed.  Singletons only leave the partition and parts only grow, so
    no other group or grab moves.
    """

    def __init__(self, g: LabeledGraph, vd: Set[int], parts: Iterable[Iterable[int]]):
        self.g = g
        self.parts: Dict[int, Set[int]] = {}
        self.coarse_of: Dict[int, int] = {}
        for p in parts:
            p = set(p)
            key = min(p)
            self.parts[key] = p
            self.coarse_of.update(dict.fromkeys(p, key))
        self.nbr = {v: [w for w in g.neighbors(v) if w in vd]
                    for v, p in self.parts.items() if len(p) == 1}
        self.groups: Dict[int, Set[int]] = {}
        self.order = sorted(self.coarse_of)
        self.cross = _CrossEdges(g, self.coarse_of)
        self.bnd: Dict[int, Set[int]] = {}
        self._group_ids = count(-1, -1)
        _coarsen(self)

    def find(self) -> Optional[Set[int]]:
        """A good cycle of the current parts, or None exactly when none can
        exist: no large part, or one and no two adjacent singletons."""
        larges = len(self.parts) - len(self.nbr)
        if not larges or (larges == 1 and not self.groups):
            return None
        nice = _find_nice_cycle(self)
        require(nice is not None, "a nice cycle must exist on a 2VC graph")
        return _augment_to_good_cycle(self, nice)

    def merge(self, cycle: Iterable[int]) -> None:
        """Join the parts that the edges of a found cycle touch, and update
        the coarsening around them."""
        ends, coarse_of, nbr, parts = self.g.edge_ends, self.coarse_of, self.nbr, self.parts
        keys = {x if x in nbr else coarse_of[x] for eid in cycle for x in ends[eid]}
        key = min(keys)
        touched = [k for k in keys if k in nbr]
        lost: Dict[int, Set[int]] = {}     # F1 group id -> its members in the cycle
        for v in touched:
            if coarse_of[v] in self.groups:
                lost.setdefault(coarse_of[v], set()).add(v)
        stale: Set[int] = set()        # singletons whose grab may have moved
        neighbor_sets, singles = self.g.neighbor_sets, nbr.keys()
        merged = max((parts[k] for k in keys), key=len)
        for k in keys:
            p = parts.pop(k)
            if k != key or k in nbr:
                for v in p:
                    _move(self, v, key)
                    stale |= singles & neighbor_sets[v]
            if p is not merged:
                merged |= p
        parts[key] = merged
        for v in touched:
            del nbr[v]
        for gid, gone in lost.items():
            _split_group(self, gid, gone)
        for v in stale - keys:
            if coarse_of[v] not in self.groups:
                _move(self, v, _grab_key(self, v))


def _move(search: GoodCycleSearch, v: int, cid: int) -> None:
    """Put v in coarse part `cid`.  Its neighbours left in its old part
    gain an edge to another part, and v is marked if it has one."""
    coarse_of, bnd = search.coarse_of, search.bnd
    old = coarse_of[v]
    if old == cid:
        return
    coarse_of[v] = cid
    left = bnd[old]
    left.discard(v)
    out = False
    for w in search.g.neighbor_sets[v]:
        cw = coarse_of.get(w)
        if cw == old:
            left.add(w)
            out = True
        elif cw != cid and cw is not None:
            out = True
    joined = bnd.setdefault(cid, set())
    if out:
        joined.add(v)


def _coarsen(search: GoodCycleSearch) -> None:
    """The full coarsening, run once per search: each component of two or
    more singletons under singleton adjacency is an F1 group, and each
    other singleton is grabbed by a large part or stays A0.  Then each
    vertex with an edge to another part is marked in `bnd`."""
    nbr, coarse_of = search.nbr, search.coarse_of
    for comp in components(nbr, set(nbr)):
        if len(comp) > 1:
            gid = next(search._group_ids)
            search.groups[gid] = comp
            coarse_of.update(dict.fromkeys(comp, gid))
            continue
        v, = comp
        coarse_of[v] = _grab_key(search, v)
    bnd, neighbor_sets = search.bnd, search.g.neighbor_sets
    for v, cid in coarse_of.items():
        bnd.setdefault(cid, set())
        if any(coarse_of.get(w, cid) != cid for w in neighbor_sets[v]):
            bnd[cid].add(v)


def _split_group(search: GoodCycleSearch, gid: int, gone: Set[int]) -> None:
    """Take the singletons `gone` out of F1 group `gid` and split the rest
    into its components.  The largest keeps the id, so its vertices do not
    move; the others become new groups, or are grabbed when they are one
    vertex."""
    nbr, members = search.nbr, search.groups[gid]
    members -= gone
    comps = list(components(nbr, set(members)))
    keep = max(comps, key=len, default=members)
    if len(keep) > 1:
        search.groups[gid] = keep
    else:
        del search.groups[gid]
    for comp in comps:
        if comp is keep and len(keep) > 1:
            continue
        if len(comp) == 1:
            v, = comp
            _move(search, v, _grab_key(search, v))
        else:
            new = next(search._group_ids)
            search.groups[new] = comp
            for v in comp:
                _move(search, v, new)


def _grab_key(search: GoodCycleSearch, v: int) -> int:
    """The coarse part of the singleton v, which has no singleton neighbour:
    the large part with the lowest key that holds two neighbours of v (it
    grabs v), or v itself (A0) if there is none."""
    nbr, coarse_of = search.nbr, search.coarse_of
    hits: Dict[int, int] = {}
    for w in nbr[v]:
        if w not in nbr and w in coarse_of:
            hits[coarse_of[w]] = hits.get(coarse_of[w], 0) + 1
    return min((key for key, c in hits.items() if c >= 2), default=v)


class _CrossEdges(dict):
    """Per vertex, its (other end, edge id) edges to covered vertices,
    sorted; built from `g.incidence` the first time the search asks for
    them and kept for every later round.  The other end's coarse part is
    read when an edge is walked, so a merge changes no list."""

    def __init__(self, g: LabeledGraph, coarse_of: Dict[int, int]):
        super().__init__()
        self.incidence = g.incidence
        self.coarse_of = coarse_of

    def __missing__(self, v: int) -> List[Tuple[int, int]]:
        coarse_of = self.coarse_of
        out = self[v] = sorted((w, eid) for w, eid in self.incidence[v] if w in coarse_of)
        return out


def _find_nice_cycle(search: GoodCycleSearch):
    """Backtracking search for a cycle over coarse parts whose two attachment
    vertices differ inside every non-singleton part.

    Returns [(edge id, exit, entry)] or None.  Start parts are taken in the
    order of their lowest vertex, and the search walks cross edges
    lowest-first; a part may carry one internal "transit" from its entry
    vertex to a different exit vertex.
    """
    coarse_of = search.coarse_of
    tried: Set[int] = set()
    for v in search.order:
        start = coarse_of[v]
        if start in tried:
            continue
        tried.add(start)
        for a0, c, eid, r in _leaving(search, start, sorted(search.bnd[start])):
            found = _extend_cycle(search, start, a0, (eid, a0, c), r, c)
            if found is not None:
                return found
    return None


def _extend_cycle(search: GoodCycleSearch, start: int, start_exit: int,
                  first_edge, cur: int, cur_entry: int):
    """Depth-first extension of a path of parts back to the start part.

    Iterative, with one frame per part on the path, so a cycle through
    thousands of parts cannot exhaust the recursion limit.  A frame walks
    the exits of its part, and per exit its cross edges in order; each
    step into an unvisited part opens a new frame, and an exhausted frame
    takes its part off the path again.
    """
    big_start = _is_big(search, start)
    path = [first_edge]
    visited = {start, cur}
    # frames: (move iterator of a part, that part's key)
    stack = [(_moves(search, cur, cur_entry), cur)]
    while stack:
        for a, c, eid, r in stack[-1][0]:
            if r == start:
                # a big start part is re-entered away from start_exit; one
                # that is not big is an A0 singleton, entered at start_exit
                if big_start and c == start_exit:
                    continue
                # no first edge back: leaving the first part at its entry makes
                # it A0, so the start part is big, re-entered at start_exit, or
                # an A0 singleton next to it, which cannot be: that pair is F1
                return path + [(eid, a, c)]
            if r in visited:
                continue
            path.append((eid, a, c))
            visited.add(r)
            stack.append((_moves(search, r, c), r))
            break
        else:
            _, cid = stack.pop()
            if stack:
                path.pop()
                visited.discard(cid)
    return None


def _is_big(search: GoodCycleSearch, cid: int) -> bool:
    """Whether coarse part `cid` has two or more vertices (is not A0)."""
    return cid not in search.nbr


def _moves(search: GoodCycleSearch, cid: int, entry: int):
    """The cross edges leaving part `cid` entered at `entry`; a part with
    two or more vertices is left at any vertex but its entry."""
    if _is_big(search, cid):
        return _leaving(search, cid, [a for a in sorted(search.bnd[cid]) if a != entry])
    return _leaving(search, cid, (entry,))


def _leaving(search: GoodCycleSearch, cid: int, exits):
    """(exit vertex, other end, edge id, other part) of the cross edges of
    part `cid` at the given exits, in order; an exit found with none is
    dropped from `bnd`."""
    cross, coarse_of = search.cross, search.coarse_of
    for a in exits:
        bare = True
        for c, eid in cross[a]:
            r = coarse_of[c]
            if r != cid:
                bare = False
                yield a, c, eid, r
        if bare:
            search.bnd[cid].discard(a)


def _augment_to_good_cycle(search: GoodCycleSearch, nice) -> Set[int]:
    g, coarse_of = search.g, search.coarse_of
    out = {eid for eid, _, _ in nice}
    attach: Dict[int, List[int]] = {}
    for eid, u, v in nice:
        attach.setdefault(coarse_of[u], []).append(u)
        attach.setdefault(coarse_of[v], []).append(v)
    for cid, pts in attach.items():
        if cid in search.nbr:
            continue                   # A0
        require(len(pts) == 2, "nice cycle must meet each part exactly twice")
        x, y = pts
        group = search.groups.get(cid)
        if group is not None:
            require(x != y, "distinct attachments required inside a merged group")
            out |= _path_edge_ids(g, group, x, y)
            continue
        L = search.parts[cid]          # the large part, maybe with grabbed singletons
        if x in L and y in L:
            continue
        if y in L:
            x, y = y, x
        if x in L:
            w = min(w for w in g.neighbor_sets[y] if w in L and w != x)
            out.add(g.edge_between(y, w))
        else:
            w1 = min(w for w in g.neighbor_sets[x] if w in L)
            w2 = min(w for w in g.neighbor_sets[y] if w in L and w != w1)
            out.add(g.edge_between(x, w1))
            out.add(g.edge_between(y, w2))
    return out


def _path_edge_ids(g: LabeledGraph, inside: Set[int], x: int, y: int) -> Set[int]:
    """Edge ids of the path from x to y in the breadth-first tree of
    `inside` grown from x with sorted adjacency.  The tree edge into y is
    fixed when y is first reached, so the search stops there."""
    parent: Dict[int, Optional[int]] = {x: None}
    queue = deque([x])
    while queue and y not in parent:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w in inside and w not in parent:
                parent[w] = v
                queue.append(w)
    require(y in parent, "merged singleton group must be connected")
    out: Set[int] = set()
    v = y
    while parent[v] is not None:
        out.add(g.edge_between(v, parent[v]))
        v = parent[v]
    return out
