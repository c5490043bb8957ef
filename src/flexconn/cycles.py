"""Good cycles with respect to a vertex partition.

A good cycle of a partition is an edge set that contracts to a simple cycle
of length >= 2, attaches to every large part at distinct vertices, touches
at least one large part, and is only allowed to have length two between two
large parts.  ``find_good_cycle`` builds one by merging the partition into a
coarser one, searching a "nice" cycle there (entry and exit vertices of each
large part must differ), and patching the result back.  No returned cycle
is re-checked: ``is_good_cycle`` below is the validator tests hold them to.

Algorithm 1 buys good cycles from one partition that each cycle coarsens,
so ``GoodCycleSearch`` keeps that partition, each vertex's part, and the
singletons' neighbour lists across its rounds; a bought cycle merges the
parts it touches, which is exactly the recount, so the cycles found do not
change.  ``find_good_cycle`` is one round of it.  A round costs the
singletons' neighbourhoods plus the vertices the search visits, not a pass
over every edge of ``g``: the cross edges of a vertex are built from
``g.incidence`` when the search first reaches it, sorted by (other end,
edge id), and that order fixes which cycle is returned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import require
from .graph import LabeledGraph, UnionFind


@dataclass(frozen=True)
class _Part:
    vertices: FrozenSet[int]
    kind: str                          # "F0" | "F1" | "F2" | "A0"
    large_sub: Optional[FrozenSet[int]] = None   # for F2: the large part inside


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
    """Algorithm 1's state: the parts keyed by their smallest vertex, each
    vertex's key, and the singletons' V(D)-neighbour lists (keyed by the
    singletons).  `merge` joins exactly the parts a bought cycle touches:
    the cycle connects them, so that is the recount of the partition."""

    def __init__(self, g: LabeledGraph, vd: Set[int], parts: Iterable[Iterable[int]]):
        self.g = g
        self.parts: Dict[int, FrozenSet[int]] = {}
        self.part_of: Dict[int, int] = {}
        for p in parts:
            p = frozenset(p)
            key = min(p)
            self.parts[key] = p
            self.part_of.update(dict.fromkeys(p, key))
        self.nbr = {v: [w for w in g.neighbors(v) if w in vd]
                    for v, p in self.parts.items() if len(p) == 1}

    def find(self) -> Optional[Set[int]]:
        """A good cycle of the current parts, or None exactly when none can
        exist: no large part, or one and no two adjacent singletons."""
        g, nbr = self.g, self.nbr
        larges = len(self.parts) - len(nbr)
        if not larges:
            return None
        if larges == 1 and all(nbr.keys().isdisjoint(ws) for ws in nbr.values()):
            return None
        coarse = _coarsen(self.parts, self.part_of, nbr)
        require(len(coarse) >= 2, "coarsened partition must have >= 2 parts")
        part_of = {v: i for i, p in enumerate(coarse) for v in p.vertices}
        nice = _find_nice_cycle(g, coarse, part_of)
        require(nice is not None, "a nice cycle must exist on a 2VC graph")
        return _augment_to_good_cycle(g, coarse, part_of, nice)

    def merge(self, cycle: Iterable[int]) -> None:
        """Join the parts that the edges of a found cycle touch."""
        ends, part_of = self.g.edge_ends, self.part_of
        keys = {part_of[x] for eid in cycle for x in ends[eid]}
        key = min(keys)
        merged = set(self.parts[key])
        for k in keys - {key}:
            p = self.parts.pop(k)
            merged |= p
            part_of.update(dict.fromkeys(p, key))
        self.parts[key] = frozenset(merged)
        for k in keys:
            self.nbr.pop(k, None)


def _coarsen(parts: Dict[int, FrozenSet[int]], part_of: Dict[int, int],
             nbr: Dict[int, List[int]]) -> List[_Part]:
    """Merge adjacent singletons (F1) and absorb, into each large part, the
    singletons holding two distinct edges into it (F2); a singleton with two
    edges into several large parts goes to the one with the lowest vertex.
    Parts are keyed by their lowest vertex; `nbr` holds the singletons."""
    a1 = {v for v, ws in nbr.items() if not nbr.keys().isdisjoint(ws)}
    f1_groups: List[FrozenSet[int]] = []
    left = set(a1)
    while left:
        seed = min(left)
        comp = {seed}
        queue = deque([seed])
        while queue:
            x = queue.popleft()
            for y in nbr[x]:
                if y in a1 and y not in comp:
                    comp.add(y)
                    queue.append(y)
        f1_groups.append(frozenset(comp))
        left -= comp

    grabbed: Dict[int, Set[int]] = {}
    a0: List[int] = []
    for v, ws in nbr.items():
        if v in a1:
            continue
        hits: Dict[int, int] = {}
        for w in ws:
            if w not in nbr and w in part_of:
                hits[part_of[w]] = hits.get(part_of[w], 0) + 1
        key = min((key for key, c in hits.items() if c >= 2), default=None)
        if key is None:
            a0.append(v)
        else:
            grabbed.setdefault(key, set()).add(v)
    coarse = [_Part(L | grabbed[key], "F2", L) if key in grabbed else _Part(L, "F0", None)
              for key, L in parts.items() if key not in nbr]
    coarse += [_Part(grp, "F1", None) for grp in f1_groups]
    coarse += [_Part(frozenset({v}), "A0", None) for v in a0]
    return sorted(coarse, key=lambda p: min(p.vertices))


class _CrossEdges(dict):
    """Per vertex, its (other end, edge id, other part) cross edges, sorted;
    built from `g.incidence` the first time the search asks for them."""

    def __init__(self, g: LabeledGraph, part_of: Dict[int, int]):
        super().__init__()
        self.incidence = g.incidence
        self.part_of = part_of

    def __missing__(self, v: int) -> List[Tuple[int, int, int]]:
        part_of, own = self.part_of, self.part_of[v]
        out = self[v] = sorted((w, eid, part_of[w]) for w, eid in self.incidence[v]
                               if w in part_of and part_of[w] != own)
        return out


def _find_nice_cycle(g: LabeledGraph, coarse: Sequence[_Part], part_of: Dict[int, int]):
    """Backtracking search for a cycle over coarse parts whose two attachment
    vertices differ inside every non-singleton part.

    Returns (edge ids, attachments per part index) or None.  The search walks
    cross edges lowest-first; a part may carry one internal "transit" from its
    entry vertex to a different exit vertex.
    """
    cross = _CrossEdges(g, part_of)
    for start_idx in range(len(coarse)):
        for a0 in sorted(coarse[start_idx].vertices):
            for (c, eid, r) in cross[a0]:
                found = _extend_cycle(coarse, cross, start_idx, a0,
                                      [(eid, a0, c)], {start_idx, r}, r, c)
                if found is not None:
                    return found
    return None


def _extend_cycle(coarse, cross, start_idx, start_exit,
                  path_edges, visited, cur_idx, cur_entry):
    """Depth-first extension of a path of parts back to the start part.

    Iterative, with one frame per part on the path, so a cycle through
    thousands of parts cannot exhaust the recursion limit.  A frame walks
    the exits of its part, and per exit its cross edges in order; each
    step into an unvisited part opens a new frame, and an exhausted frame
    takes its part off the path again.
    """
    big_start = len(coarse[start_idx].vertices) >= 2
    path = list(path_edges)
    visited = set(visited)
    # frames: (move iterator of a part, that part's index)
    stack = [(_moves(coarse, cross, cur_idx, cur_entry), cur_idx)]
    while stack:
        for a, (c, eid, r) in stack[-1][0]:
            if r == start_idx:
                if big_start and c == start_exit:
                    continue
                if not big_start and c != start_exit:
                    continue
                if len(path) == 1 and eid == path[0][0]:
                    continue
                return path + [(eid, a, c)]
            if r in visited:
                continue
            path.append((eid, a, c))
            visited.add(r)
            stack.append((_moves(coarse, cross, r, c), r))
            break
        else:
            _, idx = stack.pop()
            if stack:
                path.pop()
                visited.discard(idx)
    return None


def _moves(coarse, cross, idx: int, entry: int):
    """(exit vertex, cross edge) pairs leaving part idx entered at `entry`."""
    for a in _exit_choices(coarse[idx], entry):
        for step in cross[a]:
            yield a, step


def _exit_choices(part: _Part, entry: int):
    if len(part.vertices) == 1:
        yield entry
        return
    for v in sorted(part.vertices):
        if v != entry:
            yield v


def _augment_to_good_cycle(g: LabeledGraph, coarse: Sequence[_Part],
                           part_of: Dict[int, int], nice) -> Set[int]:
    out = {eid for eid, _, _ in nice}
    attach: Dict[int, List[int]] = {}
    for eid, u, v in nice:
        attach.setdefault(part_of[u], []).append(u)
        attach.setdefault(part_of[v], []).append(v)
    for idx, pts in attach.items():
        part = coarse[idx]
        if part.kind in ("A0", "F0"):
            continue
        require(len(pts) == 2, "nice cycle must meet each part exactly twice")
        x, y = pts
        if part.kind == "F1":
            require(x != y, "distinct attachments required inside a merged group")
            out |= _path_edge_ids(g, part.vertices, x, y)
        else:  # F2
            L = part.large_sub
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


def _path_edge_ids(g: LabeledGraph, inside: FrozenSet[int], x: int, y: int) -> Set[int]:
    parent: Dict[int, Optional[int]] = {x: None}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        if v == y:
            break
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
