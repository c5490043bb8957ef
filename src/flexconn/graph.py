"""Core undirected multigraph with safe/unsafe labels and stable edge ids.

Vertices are 0..n-1.  Edge ids are non-negative ints, assigned once
(typically in input file order); they survive contraction, so solutions can
always be reported in original-instance ids.  Graphs are immutable; every
operation here is a pure function returning new values.  Edges are parallel
columns in edge order (`eids`, `ends`, `edge_safe`).  A graph is validated
once, on entry (`build`, `io.parse_instance`); graphs derived from it are
not checked.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import (Container, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple, Union)

from .errors import InputError, require_positive_k


@dataclass(frozen=True)
class LabeledGraph:
    n: int
    vertex_safe: Tuple[bool, ...]
    eids: Tuple[int, ...]
    ends: Tuple[Tuple[int, int], ...]
    edge_safe: Tuple[bool, ...]

    @staticmethod
    def build(n: int,
              pairs: Sequence[Tuple[int, int]],
              vertex_safe: Optional[Sequence[bool]] = None,
              edge_safe: Optional[Sequence[bool]] = None,
              eids: Optional[Sequence[int]] = None) -> "LabeledGraph":
        """The validated graph of the edges `pairs`, in that order, with ids
        `eids` (0, 1, ... by default); vertices and edges default to safe."""
        if type(n) is not int or n < 0:    # True and 2.5 are not vertex counts
            raise InputError("vertex count must be non-negative")
        vs = tuple(True for _ in range(n)) if vertex_safe is None else tuple(vertex_safe)
        es = tuple(True for _ in pairs) if edge_safe is None else tuple(edge_safe)
        ids = tuple(range(len(pairs))) if eids is None else tuple(eids)
        if len(es) != len(pairs):
            raise InputError("edge_safe length must equal number of edges")
        if len(ids) != len(pairs):
            raise InputError("eids length must equal number of edges")
        return LabeledGraph(n, vs, ids, tuple((u, v) for u, v in pairs), es)._checked()

    def _rows(self) -> Iterable[Tuple[int, Tuple[int, int], bool]]:
        """(eid, (u, v), safe) per edge, in edge order."""
        return zip(self.eids, self.ends, self.edge_safe)

    @cached_property
    def edge_ends(self) -> Dict[int, Tuple[int, int]]:
        """Endpoint pair (u, v) per edge id."""
        return dict(zip(self.eids, self.ends))

    @cached_property
    def incidence(self) -> List[List[Tuple[int, int]]]:
        """Per vertex 0..n-1, its (other endpoint, edge id) pairs, in edge
        order: the one adjacency view, which the methods below read."""
        inc: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in zip(self.eids, self.ends):
            inc[u].append((v, e))
            inc[v].append((u, e))
        return inc

    @cached_property
    def reach_and_cuts(self) -> Tuple[int, FrozenSet[int]]:
        """The vertices reached and the cut vertices found by one low-link
        DFS over the whole graph from vertex 0: the graph is connected iff
        it reaches n, and then its cut vertices are these."""
        reached, cut, _ = low_link_incidence(self.incidence)
        return reached, frozenset(cut)

    @cached_property
    def unsafe_vertex_set(self) -> FrozenSet[int]:
        return frozenset(v for v in range(self.n) if not self.vertex_safe[v])

    @cached_property
    def unsafe_edge_set(self) -> FrozenSet[int]:
        return frozenset(e for e, s in zip(self.eids, self.edge_safe) if not s)

    @cached_property
    def neighbor_sets(self) -> List[Set[int]]:
        return [{w for w, _ in pairs} for pairs in self.incidence]

    @cached_property
    def _sorted_neighbors(self) -> List[Tuple[int, ...]]:
        return [tuple(sorted(nbrs)) for nbrs in self.neighbor_sets]

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Distinct neighbours of v in increasing order."""
        return self._sorted_neighbors[v]

    def degree(self, v: int) -> int:
        """Incident edges of v, parallel copies counted apiece."""
        return len(self.incidence[v])

    def edge_between(self, u: int, v: int) -> Optional[int]:
        """Lowest id of an edge joining u and v, or None."""
        best = None
        for w, e in self.incidence[u]:
            if w == v and (best is None or e < best):
                best = e
        return best

    @cached_property
    def is_simple(self) -> bool:
        return len({(u, v) if u <= v else (v, u) for u, v in self.ends}) == len(self.ends)

    @property
    def m(self) -> int:
        return len(self.eids)

    def induced(self, vertices: Iterable[int]) -> "LabeledGraph":
        """Induced subgraph, vertices relabeled to 0..k-1 in sorted order.

        Edge ids are preserved (not relabeled), so solutions on the induced
        graph speak the original instance's edge language.
        """
        vs = sorted(set(vertices))
        if any(not (0 <= v < self.n) for v in vs):
            raise InputError("induced: vertex out of range")
        remap = {v: i for i, v in enumerate(vs)}
        return _from_rows(len(vs), tuple(self.vertex_safe[v] for v in vs),
                          [(e, (remap[u], remap[v]), s) for e, (u, v), s in self._rows()
                           if u in remap and v in remap])

    def _checked(self) -> "LabeledGraph":
        """This graph, once its columns pass the entry checks."""
        n = self.n
        if len(self.vertex_safe) != n:
            raise InputError("vertex_safe length must equal n")
        seen = set()
        for eid, (u, v) in zip(self.eids, self.ends):
            if type(eid) is not int or eid < 0:    # True and 2.0 are not read as 1 and 2
                raise InputError(f"edge id {eid!r} is not a non-negative integer")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {eid} endpoint out of range")
            if u == v:
                raise InputError(f"edge {eid} is a self-loop")
            if eid in seen:
                raise InputError(f"duplicate edge id {eid}")
            seen.add(eid)
        return self


def _from_rows(n: int, vertex_safe: Tuple[bool, ...], rows: List[tuple]) -> LabeledGraph:
    """The graph of (eid, (u, v), safe) rows; unchecked, for derived graphs."""
    return LabeledGraph(n, vertex_safe, *(tuple(zip(*rows)) or ((), (), ())))


# ---------------------------------------------------------------------------
# Low-level routines over keyed edge lists.  These work on arbitrary vertex
# collections and arbitrary hashable edge keys, so the FVC pipeline can run
# them on multigraphs mixing real edges and pseudo-edges.  `components` is
# the one components walk, on an adjacency such as `neighbor_sets`, and
# `low_link_incidence` the one block DFS, on a dense incidence list such as
# `incidence`: callers read a graph's cut vertices and bridges from it.
# `_dense` relabels keyed edges into such a list, once, for `is_connected`
# and for `block_decomposition_edges`, the one block decomposition (blocks,
# cut vertices, the blocks at each vertex), which takes connected input only.
# `edge_connectivity_at_least` is a unit max-flow capped at k paths, on its
# own compact relabelling.
# ---------------------------------------------------------------------------

EdgeTriple = Tuple[Hashable, int, int]   # (key, u, v)


class UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, items: Iterable[int]):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in self.parent}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def groups(self) -> List[Set[int]]:
        """The current classes, in no particular order."""
        comps: Dict[int, Set[int]] = {}
        for x in self.parent:
            comps.setdefault(self.find(x), set()).add(x)
        return list(comps.values())


def max_safe_forest(g: LabeledGraph) -> FrozenSet[int]:
    """Maximum spanning forest of the safe subgraph, greedy by ascending id."""
    uf = UnionFind(range(g.n))
    return frozenset(e for e, (u, v), s in sorted(g._rows()) if s and uf.union(u, v))


def components(nbr: Union[Sequence[Iterable[int]], Mapping[int, Iterable[int]]],
               left: Set[int]) -> Iterator[Set[int]]:
    """The components of the subgraph that the adjacency `nbr` induces on
    `left`, in no set order; consumes `left`."""
    while left:
        seed = left.pop()
        comp = {seed}
        queue = deque([seed])
        while queue:
            for y in nbr[queue.popleft()]:
                if y in left:
                    left.discard(y)
                    comp.add(y)
                    queue.append(y)
        yield comp


def _dense(vertices: Iterable[Hashable], edges: Iterable[EdgeTriple]
           ) -> Tuple[List[Hashable], List[List[Tuple[int, Hashable]]]]:
    """The distinct vertices as a label list, and the keyed edges as an
    incidence list on the labels' positions, for `low_link_incidence`: its
    DFS starts at the first vertex given."""
    labels = list(dict.fromkeys(vertices))
    index = {v: i for i, v in enumerate(labels)}
    inc: List[List[Tuple[int, Hashable]]] = [[] for _ in labels]
    for key, u, v in edges:
        a, b = index[u], index[v]
        inc[a].append((b, key))
        inc[b].append((a, key))
    return labels, inc


def is_connected(vertices: Iterable[int], edges: Iterable[EdgeTriple]) -> bool:
    labels, inc = _dense(vertices, edges)
    return low_link_incidence(inc)[0] == len(labels)


def block_decomposition_edges(vertices: Iterable[int], edges: Iterable[EdgeTriple]
                              ) -> Tuple[List[List[Hashable]], Set[int], Dict[int, Set[int]]]:
    """Blocks (as lists of edge keys), cut vertices and, per vertex, the
    indices of the blocks that hold it, of a connected multigraph, from one
    `low_link_incidence`.  Raises `InputError` if the graph is not connected.

    Parallel edges land in one block; self-loops lie in no block.
    """
    labels, inc = _dense(vertices, edges)
    bl: List[List[Hashable]] = []
    reached, cut, _ = low_link_incidence(inc, None, bl)
    if reached < len(labels):
        raise InputError("block_decomposition_edges: graph must be connected")
    block_of = {key: i for i, block in enumerate(bl) for key in block}
    touching: Dict[int, Set[int]] = {}
    for v, pairs in zip(labels, inc):
        touching[v] = {block_of[key] for _, key in pairs if key in block_of}
    return bl, {labels[v] for v in cut}, touching


def edge_connectivity_at_least(vertices: Iterable[Hashable],
                               edges: Iterable[EdgeTriple],
                               k: int) -> bool:
    """True iff the multigraph's global min edge cut has >= k edges.

    Self-loops are skipped; parallel edges count once per copy, and one
    vertex is k-edge-connected for every k.  On the vertices relabeled
    0..c-1: a vertex of degree < k fails, since its edges form a cut, and
    with c <= 3 these are all the cuts.  Otherwise a max-flow of unit arcs
    from vertex 0 to each other vertex, capped at k paths, O(k * m) each,
    decides; at k <= 0 it asks for no path.
    """
    index = {v: i for i, v in enumerate(dict.fromkeys(vertices))}
    c = len(index)
    pairs = [(index[u], index[v]) for _, u, v in edges if u != v]
    if c <= 1:
        return True
    deg = [0] * c
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
    if min(deg) < k:
        return False
    if c <= 3:
        return True
    head: List[int] = []      # arc j runs head[j ^ 1] -> head[j]
    out: List[List[int]] = [[] for _ in range(c)]
    for a, b in pairs:
        out[a].append(len(head))
        out[b].append(len(head) + 1)
        head += (b, a)
    cap = [1] * len(head)
    return all(_max_flow_at_least(out, head, cap[:], t, k) for t in range(1, c))


def low_link_incidence(inc: Sequence[Sequence[Tuple[int, Hashable]]],
                       keep: Optional[Container[Hashable]] = None,
                       blocks: Optional[List[List[Hashable]]] = None,
                       stop_cuts: Container[int] = (),
                       stop_bridges: Container[Hashable] = ()
                       ) -> Tuple[int, Set[int], Set[Hashable]]:
    """The one iterative low-link DFS (Hopcroft and Tarjan, CACM 1973).

    `inc[v]` lists the (other endpoint, edge key) pairs of vertex v in
    0..len(inc)-1, as `LabeledGraph.incidence` does; with `keep`, only the
    edges with a key in it count.  From vertex 0 the DFS returns (reached,
    cut, bridges) for the component it explores.  Edges are told apart by
    key, so parallel copies are never bridges; a self-loop changes nothing.
    It stops at the first cut vertex v in `stop_cuts`, or bridge e in
    `stop_bridges`, and returns (-1, {v}, set()) or (-1, set(), {e}).

    If `blocks` is a list, each block is appended to it as a list of edge
    keys (a self-loop lies in none) from an opt-in edge stack of the tree
    edges and the back edges to an ancestor: when a child c closes off its
    parent (low[c] >= disc[parent]), the stack from the tree edge into c up
    is one block.
    """
    cut: Set[int] = set()
    bridges: Set[Hashable] = set()
    if not inc:
        return 0, cut, bridges
    disc = [0] + [-1] * (len(inc) - 1)     # by vertex
    low = [0]                 # by discovery number
    root_has_child = False
    edge_stack: List[Hashable] = []
    block_start = [0]     # by discovery number: edge stack height at the tree edge in
    # the current frame, and the stack of its ancestors' frames: (vertex, its
    # discovery number, tree edge into it, incidence iterator)
    v, dv, in_edge, incident = 0, 0, None, iter(inc[0])
    frames = []
    while True:
        for w, e in incident:
            if e == in_edge or (keep is not None and e not in keep):
                continue
            dw = disc[w]
            if dw < 0:
                dw = disc[w] = len(low)
                low.append(dw)
                if blocks is not None:
                    block_start.append(len(edge_stack))
                    edge_stack.append(e)
                frames.append((v, dv, in_edge, incident))
                v, dv, in_edge, incident = w, dw, e, iter(inc[w])
                break
            if dw < dv:           # a back edge to an ancestor
                if dw < low[dv]:
                    low[dv] = dw
                if blocks is not None:
                    edge_stack.append(e)
        else:
            if not frames:
                break
            lc, dc, tree_edge = low[dv], dv, in_edge
            v, dv, in_edge, incident = frames.pop()
            if lc < low[dv]:
                low[dv] = lc
            if lc > dv:
                if tree_edge in stop_bridges:
                    return -1, set(), {tree_edge}
                bridges.add(tree_edge)
            if lc >= dv:
                if blocks is not None:
                    i = block_start[dc]
                    blocks.append(edge_stack[i:])
                    del edge_stack[i:]
                if dv == 0 and not root_has_child:    # the root cuts from child 2 on
                    root_has_child = True
                elif v in stop_cuts:
                    return -1, {v}, set()
                else:
                    cut.add(v)
    return len(low), cut, bridges


def _max_flow_at_least(out: List[List[int]], head: List[int],
                       residual: List[int], t: int, k: int) -> bool:
    """True iff k augmenting paths run from vertex 0 to t; uses up `residual`."""
    for _ in range(k):
        via = [-2] + [-1] * (len(out) - 1)    # by vertex: the arc that reached it
        queue = [0]
        for x in queue:
            for j in out[x]:
                y = head[j]
                if via[y] == -1 and residual[j] > 0:
                    via[y] = j
                    queue.append(y)
            if via[t] != -1:
                break
        else:
            return False
        y = t
        while y:
            j = via[y]
            residual[j] -= 1
            residual[j ^ 1] += 1
            y = head[j ^ 1]
    return True


# ---------------------------------------------------------------------------
# Spec-level operations on LabeledGraph.
# ---------------------------------------------------------------------------

def contract_edges(g: LabeledGraph, eids: Iterable[int]) -> LabeledGraph:
    """Contract every connected component of (V, eids) to a single vertex;
    loops are dropped.

    Merged vertices are numbered by first appearance over 0..n-1, that is
    by their smallest member.  A merged vertex is safe iff all its members
    are.  Cross-edge multiplicity and edge ids are preserved: a surviving
    edge keeps its id.
    """
    chosen = set(eids)
    unknown = chosen - g.edge_ends.keys()
    if unknown:
        raise InputError(f"contract_edges: unknown edge ids {sorted(unknown)}")
    uf = UnionFind(range(g.n))
    for eid in chosen:
        uf.union(*g.edge_ends[eid])
    index: Dict[int, int] = {}
    vertex_map = [index.setdefault(uf.find(v), len(index)) for v in range(g.n)]
    vsafe = [True] * len(index)
    for v in range(g.n):
        if not g.vertex_safe[v]:
            vsafe[vertex_map[v]] = False
    return _from_rows(len(index), tuple(vsafe),
                      [(e, (a, b), s) for e, (u, v), s in g._rows()
                       if (a := vertex_map[u]) != (b := vertex_map[v])])


def is_k_edge_connected(g: LabeledGraph, k: int) -> bool:
    require_positive_k(k)
    return edge_connectivity_at_least(range(g.n),
                                      [(e, u, v) for e, (u, v) in zip(g.eids, g.ends)], k)
