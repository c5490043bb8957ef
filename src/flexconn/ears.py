"""Open ear decompositions in which every ear (and the initial cycle) has
length at least four.

Construction: start from the shortest cycle of length >= 4, then repeatedly
attach a potential open ear of length >= 4 until none exists.  All choices
are made lowest-index-first so runs are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Set, Tuple

from .errors import InputError, require
from .graph import LabeledGraph


@dataclass(frozen=True)
class EarDecomposition:
    """First ear is a cycle (closing edge implied); later ears are open paths
    whose two endpoints, and only those, lie in the union of earlier ears."""
    ears: Tuple[Tuple[int, ...], ...]

    @cached_property
    def vertices(self) -> FrozenSet[int]:
        """V(D), computed once per decomposition."""
        return frozenset(v for ear in self.ears for v in ear)

    def edge_ids(self, g: LabeledGraph) -> Set[int]:
        """The ids of the ears' edges in g, the first ear's closing edge
        included."""
        cycle = self.ears[0]
        out = set()
        for ear in (cycle + cycle[:1], *self.ears[1:]):
            for a, b in zip(ear, ear[1:]):
                e = g.edge_between(a, b)
                require(e is not None, f"ear edge {a}-{b} missing from graph")
                out.add(e)
        return out

    @property
    def edge_count(self) -> int:
        return len(self.ears[0]) + sum(len(ear) - 1 for ear in self.ears[1:])


def _is_2vc(g: LabeledGraph) -> bool:
    if g.n < 3:
        return False
    reached, cut = g.reach_and_cuts
    return reached == g.n and not cut


def shortest_long_cycle(g: LabeledGraph) -> Tuple[int, ...]:
    """Shortest cycle of length >= 4, lexicographically smallest vertex
    sequence among those of minimum length.

    The length comes from one breadth-first search per path a..b around a
    vertex `mid` with neighbours a < b, avoiding `mid` and the edge ab; the
    sequence then comes from `_lex_smallest_cycle`, so any exact way of
    computing the length gives the same output.  Three prunings keep the
    length exact (the idea of Itai and Rodeh, "Finding a minimum circuit in a
    graph", SIAM J. Comput. 1978):

    * every cycle is found at its smallest vertex, so `mid` pairs only
      neighbours above it and the search walks only vertices above `mid`;
    * with best length L so far, only paths of at most L - 3 edges can
      improve it, so each search stops at that depth;
    * skipping the edge ab leaves no a..b path shorter than 2 edges, so
      every candidate has length >= 4 and the scan stops once L == 4.

    The `mid` at which the best length last drops to its final value L is
    the smallest vertex of every cycle of length L: a cycle of length L
    whose smallest vertex is some earlier `mid` would have been found
    there, while the best length was still above L.  So the lexicographic
    search starts there only.

    A long sparse cycle costs O(n + m) instead of O(n^2); in general the
    cost is at most one bounded search per (vertex, neighbour pair).
    """
    best_len = start = None
    around = ((mid, a, b) for mid in range(g.n)
              for a, b in combinations([x for x in g.neighbors(mid) if x > mid], 2))
    for mid, a, b in around:
        d = _dist_above(g, a, b, mid, None if best_len is None else best_len - 3)
        if d is not None:
            best_len, start = d + 2, mid
            if best_len == 4:
                break
    if best_len is None:
        raise InputError("no cycle of length >= 4 exists")
    seq = _lex_smallest_cycle(g, best_len, start)
    require(seq is not None, "cycle search inconsistency")
    return seq


def _dist_above(g: LabeledGraph, a: int, b: int, floor: int,
                limit: Optional[int]) -> Optional[int]:
    """Length of a shortest a..b path through vertices > floor that avoids
    the edge ab, if it has at most `limit` edges (no cap when None)."""
    dist = {a: 0}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        dx = dist[x]
        if dx == limit:
            return None
        for y in g.neighbors(x):
            if y <= floor or y in dist or (x, y) == (a, b):
                continue
            if y == b:
                return dx + 1
            dist[y] = dx + 1
            queue.append(y)
    return None


def _lex_smallest_cycle(g: LabeledGraph, length: int, start: int) -> Optional[Tuple[int, ...]]:
    """First sequence of exactly `length` distinct vertices, from `start`
    through vertices above it, that closes a cycle, in lexicographic DFS
    order.  With `start` the smallest vertex of every cycle of this length,
    that is the global lexicographic minimum: a sequence that starts
    elsewhere starts higher.

    One breadth-first search over the vertices above start gives each its
    distance home, up to length // 2: no vertex of a cycle of this length
    through start lies farther.  The DFS keeps an explicit stack of
    neighbour iterators, one per path vertex, so its depth is bounded by
    memory rather than the interpreter's recursion limit; a vertex w is
    entered only if its distance home is at most the number of path slots
    left."""
    dist_home = _dist_home(g, start, length // 2)
    path = [start]
    on_path = {start}
    stack = [iter(g.neighbors(start))]
    while stack:
        remaining = length - len(path)
        for w in stack[-1]:
            if w in on_path or dist_home.get(w, length + 1) > remaining:
                continue
            if remaining == 1:
                # dist_home[w] <= 1, so w is a neighbour of start
                return tuple(path) + (w,)
            path.append(w)
            on_path.add(w)
            stack.append(iter(g.neighbors(w)))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
    return None


def _dist_home(g: LabeledGraph, start: int, radius: int) -> Dict[int, int]:
    """Distances from start, through vertices above it, of the vertices
    within `radius` of it."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        d = dist[x] + 1
        if d > radius:
            break
        for y in g.neighbors(x):
            if y > start and y not in dist:
                dist[y] = d
                queue.append(y)
    return dist


def find_potential_open_ear_ge4(g: LabeledGraph, vd: Set[int],
                                starts: Optional[List[int]] = None) -> Optional[Tuple[int, ...]]:
    """One potential open ear of length >= 4 for the decomposition with
    vertex set `vd`, if any.

    `starts` (all of `vd` when omitted) is a min-heap of the vertices of
    `vd` that may still start an ear, and is changed in place.  They are
    tried lowest first; each one that starts no ear is popped for good, and
    the first that does stays on the heap and its ear is returned (see
    `_ear_at`).  A caller that keeps the heap across ears, as
    `build_long_ear_decomposition` does, pushes each new ear's inner
    vertices.  Popping a failed start for good loses no ear: if x starts no
    ear for D, it starts none for D' = D + P either.  A tuple (x, y1, y2,
    y3) and tail valid for D' are valid for D, since the y_i and the inner
    tail vertices lie outside V(D') and so outside V(D), unless the tail
    ends at an inner vertex t of P.  Then extend it along P, whose inner
    vertices lie outside V(D), from t to the end of P that is not x: that
    is a tail for D.  So the lowest start with an ear for D' is the lowest
    heap entry with one, and the ears are those of a scan of all of
    sorted(vd).
    """
    if starts is None:
        starts = sorted(vd)
    while starts:
        ear = _ear_at(g, vd, starts[0])
        if ear is not None:
            return ear
        heappop(starts)
    return None


def _ear_at(g: LabeledGraph, vd: Set[int], x: int) -> Optional[Tuple[int, ...]]:
    """The ear from x of the first tuple (x, y1, y2, y3), the y_i outside
    `vd` in lexicographic order, whose y3 reaches vd - {x} avoiding x, y1
    and y2: x, y1, y2, then a shortest path from y3 to the decomposition
    (inner vertices stay outside)."""
    for y1 in g.neighbors(x):
        if y1 in vd:
            continue
        for y2 in g.neighbors(y1):
            if y2 in vd or y2 == x:
                continue
            for y3 in g.neighbors(y2):
                if y3 in vd or y3 in (x, y1):
                    continue
                tail = _path_to_set(g, y3, vd, blocked={x, y1, y2})
                if tail is not None:
                    return (x, y1, y2) + tuple(tail)
    return None


def _path_to_set(g: LabeledGraph, start: int, vd: Set[int],
                 blocked: Set[int]) -> Optional[List[int]]:
    """Shortest path from start to a vertex of vd that is not blocked, with
    its inner vertices outside vd and not blocked.  BFS with sorted
    adjacency, so the result is the lexicographically smallest shortest
    path.  A blocked start of an ear is in vd, so it is never the end."""
    parent: Dict[int, Optional[int]] = {start: None}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y in blocked or y in parent:
                continue
            parent[y] = x
            if y in vd:
                path = [y]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            queue.append(y)
    return None


def build_long_ear_decomposition(g: LabeledGraph) -> EarDecomposition:
    """Ear decomposition with all ears of length >= 4 for a simple 2VC graph
    on at least four vertices.

    One V(D) set grows with the ears, and one heap of the starts that may
    still begin an ear goes with it: a start that fails once is not tried
    again (`find_potential_open_ear_ge4` says why that keeps the ears)."""
    if g.n < 4:
        raise InputError("need at least 4 vertices")
    if not g.is_simple:
        raise InputError("graph must be simple")
    if not _is_2vc(g):
        raise InputError("graph must be 2-vertex-connected")
    ears = [shortest_long_cycle(g)]
    vd = set(ears[0])
    starts = sorted(vd)
    while True:
        ear = find_potential_open_ear_ge4(g, vd, starts)
        if ear is None:
            break
        ears.append(ear)
        for v in ear[1:-1]:
            vd.add(v)
            heappush(starts, v)
    dec = EarDecomposition(ears=tuple(ears))
    # Only the O(1) lemma is checked here: tests/test_ears.py gates the shape
    # of each ear and the leftover matching, which costs a scan of all edges.
    require(3 * dec.edge_count <= 4 * (len(vd) - 1),
            "|E(D)| <= 4/3 (|V(D)|-1) failed")
    return dec


def find_forbidden_cycle(g: LabeledGraph, vs: AbstractSet[int]
                         ) -> Optional[Tuple[int, int, int, int]]:
    """In g[vs], the lowest (w, z, u, v) with deg(w)=deg(z)=2, wz not an
    edge, and N(w) = N(z) = {u, v}: the 4-cycle u-w-v-z, as (u, w, v, z).

    Linear scan of g[vs] through `g.incidence`: degree-2 vertices are
    grouped by their neighbour pair, in increasing order.  Two vertices
    with the same neighbours are never adjacent, so the lowest pair is the
    first two members of some group.  A degree-2 vertex on a doubled edge
    has one neighbour and is skipped."""
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for v in sorted(vs):
        ends = [w for w, _ in g.incidence[v] if w in vs]
        if len(ends) == 2:
            groups.setdefault(tuple(sorted(set(ends))), []).append(v)
    best = min(((ws[0], ws[1], nbrs) for nbrs, ws in groups.items()
                if len(ws) >= 2 and len(nbrs) == 2), default=None)
    if best is None:
        return None
    w, z, (u, v) = best
    return (u, w, v, z)
