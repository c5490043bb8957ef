import functools
import itertools
import math
import random

import pytest

from flexconn.ears import build_long_ear_decomposition
from flexconn.errors import InputError
from flexconn.feasibility import Solution, check_fvc
from flexconn.fvc import build_pseudo_edges, partition_k_sets, preprocess, solve_tree_case
from flexconn.graph import (LabeledGraph, UnionFind, block_decomposition_edges,
                            is_connected, is_k_edge_connected)


def build(n, pairs, vertex_safe=None, edge_safe=None):
    return LabeledGraph.build(n, pairs, vertex_safe=vertex_safe, edge_safe=edge_safe)


def without_edges(g, eids):
    """g less the edges with an id in `eids`, the others kept in order."""
    drop = set(eids)
    rows = [row for row in zip(g.eids, g.ends, g.edge_safe) if row[0] not in drop]
    return LabeledGraph.build(g.n, [uv for _, uv, _ in rows], g.vertex_safe,
                              [s for _, _, s in rows], [e for e, _, _ in rows])


def connected_components(vertices, edges):
    """The components of the graph on `vertices` with the (key, u, v)
    `edges`, sorted by least vertex, by a union-find: an oracle apart from
    the library's one components walk, `graph.components`."""
    uf = UnionFind(vertices)
    for _, u, v in edges:
        uf.union(u, v)
    return sorted(uf.groups(), key=min)


def cut_vertices(g):
    """The cut vertices of g, by networkx's articulation points: an
    oracle independent of the library's low-link DFS."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.ends)
    return set(nx.articulation_points(h))


@pytest.fixture
def c4():
    return build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def k4():
    return build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def bowtie():
    # two triangles sharing vertex 2
    return build(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


FIX_A_PAIRS = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 4), (1, 5), (3, 5)]
FIX_A_SAFE = [False, False, False, False, False, True]


@pytest.fixture
def fix_a():
    return build(6, FIX_A_PAIRS, vertex_safe=FIX_A_SAFE)


@pytest.fixture
def fix_b():
    return build(7, FIX_A_PAIRS + [(0, 6), (1, 6)], vertex_safe=FIX_A_SAFE + [False])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build(10, outer + spokes + inner)


def random_connected(rng, n, p, vertex_safe_prob=1.0, edge_safe_prob=1.0):
    while True:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        triples = [(i, u, v) for i, (u, v) in enumerate(pairs)]
        if is_connected(range(n), triples):
            vs = [rng.random() < vertex_safe_prob for _ in range(n)]
            es = [rng.random() < edge_safe_prob for _ in pairs]
            return build(n, pairs, vertex_safe=vs, edge_safe=es)


def diamond_necklace(k, hubs_safe=False):
    """k diamonds in a ring: hubs 0..k-1, and hubs i, i+1 (mod k) both joined
    to the two degree-2 vertices k+2i and k+2i+1, which are unsafe.  Each
    diamond is a forbidden 4-cycle: with unsafe hubs its reduction forces
    two edges and drops a vertex; with safe hubs it drops one edge, and the
    hub left holding a leaf then splits the graph."""
    pairs = []
    for i in range(k):
        for w in (k + 2 * i, k + 2 * i + 1):
            pairs += [(i, w), ((i + 1) % k, w)]
    return build(3 * k, pairs, vertex_safe=[hubs_safe] * k + [False] * (2 * k))


def fvc_chord_cycle(n, seed):
    """The FVC scale family: the Hamiltonian cycle 0..n-1 plus random
    chords up to n + n//2 distinct edges, each vertex safe with probability
    0.15.  The graph is 2VC, so it is feasible, and on the sizes drawn here
    it is one apx2 piece."""
    rng = random.Random(seed)
    pairs = {(min(v, (v + 1) % n), max(v, (v + 1) % n)) for v in range(n)}
    while len(pairs) < n + n // 2:
        a, b = rng.sample(range(n), 2)
        pairs.add((min(a, b), max(a, b)))
    vertex_safe = [rng.random() < 0.15 for _ in range(n)]
    return build(n, sorted(pairs), vertex_safe=vertex_safe)


def brute_force_blocks(g):
    """Maximal connected cut-vertex-free edge subsets, straight from the
    block definition; exponential, for small graphs only."""
    eids = sorted(g.eids)
    candidates = []
    for r in range(1, len(eids) + 1):
        for combo in itertools.combinations(eids, r):
            verts = set()
            for eid in combo:
                verts.update(g.edge_ends[eid])
            if _connected_no_cut(g, verts, set(combo)):
                candidates.append(frozenset(combo))
    return {c for c in candidates
            if not any(c < other for other in candidates)}


def _connected_no_cut(g, verts, eids):
    def components(skip=None):
        remaining = verts - ({skip} if skip is not None else set())
        if not remaining:
            return 0
        seen = set()
        count = 0
        for s in remaining:
            if s in seen:
                continue
            count += 1
            stack = [s]
            seen.add(s)
            while stack:
                x = stack.pop()
                for y, eid in g.incidence[x]:
                    if eid not in eids:
                        continue
                    if y in remaining and y not in seen:
                        seen.add(y)
                        stack.append(y)
        return count

    if components() != 1:
        return False
    return all(components(skip=v) <= 1 for v in verts)


def reference_block_decomposition_edges(vertices, edges):
    """Blocks (as lists of edge keys) and cut vertices of a multigraph: the
    separate Hopcroft-Tarjan DFS that `graph.py` used before its low-link DFS
    returned blocks, kept frozen as a reference that does not share code
    with the library.  Adjacency lists are sorted by (neighbour, repr(key)).
    """
    verts = sorted(set(vertices))
    adj = {v: [] for v in verts}
    for key, u, v in edges:
        adj[u].append((v, key))
        adj[v].append((u, key))
    for v in verts:
        adj[v].sort(key=lambda t: (t[0], repr(t[1])))

    disc, low = {}, {}
    blocks_out, cut = [], set()
    timer = itertools.count()
    for root in verts:
        if root in disc:
            continue
        stack = [(root, None, 0)]
        edge_stack = []
        root_children = 0
        disc[root] = low[root] = next(timer)
        while stack:
            v, in_key, idx = stack[-1]
            if idx < len(adj[v]):
                stack[-1] = (v, in_key, idx + 1)
                w, key = adj[v][idx]
                if key == in_key:
                    continue
                if w not in disc:
                    disc[w] = low[w] = next(timer)
                    edge_stack.append((key, v, w))
                    stack.append((w, key, 0))
                elif disc[w] < disc[v]:
                    edge_stack.append((key, v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if not stack:
                    break
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if parent == root:
                    root_children += 1
                if low[v] >= disc[parent]:
                    comp = []
                    while edge_stack:
                        key, a, b = edge_stack[-1]
                        if disc[a] >= disc[v] or disc[b] >= disc[v]:
                            comp.append(key)
                            edge_stack.pop()
                        else:
                            break
                    blocks_out.append(comp)
                    if parent != root:
                        cut.add(parent)
        if root_children >= 2:
            cut.add(root)
    return blocks_out, cut


def brute_force_k_edge_connected(g, k):
    """k-edge-connectivity by removing every (k-1)-subset of edges."""
    if g.n <= 1:
        return True
    eids = sorted(g.eids)
    if not is_connected(range(g.n), [(e, *g.edge_ends[e]) for e in eids]):
        return False
    for removed in itertools.combinations(eids, min(k - 1, len(eids))):
        keep = [e for e in eids if e not in set(removed)]
        if not is_connected(range(g.n), [(e, *g.edge_ends[e]) for e in keep]):
            return False
    return True


@functools.lru_cache(maxsize=None)
def fvc_scale_pieces():
    """The preprocessed pieces on >= 5 vertices of 265 seeded feasible FVC
    instances, drawn as the fvc-scale benchmark draws them but with n from
    15: G(n, p) just above the connectivity threshold, 15% safe vertices.
    Every such piece is 2VC, simple and forbidden-cycle-free."""
    rng = random.Random(17_2026)
    pieces, done = [], 0
    while done < 265:
        n = rng.randint(15, 60)
        g = random_connected(rng, n, min(0.5, (math.log(n) + 1.5) / n + 0.06),
                             vertex_safe_prob=0.15)
        if check_fvc(g, set(g.eids)):
            done += 1
            pieces += [piece for piece in preprocess(g)[0] if piece.n >= 5]
    return tuple(pieces)


@functools.lru_cache(maxsize=None)
def apx2_inputs():
    """(piece, K-partition, pseudo-edges) of each piece of `fvc_scale_pieces`
    that `fvc._solve_piece` takes to apx2: no spanning-tree solution and
    |K12| + |K23| > 2."""
    out = []
    for g in fvc_scale_pieces():
        if solve_tree_case(g) is None:
            kp = partition_k_sets(g, build_long_ear_decomposition(g))
            if len(kp.k12) + len(kp.k23) > 2:
                out.append((g, kp, build_pseudo_edges(g, kp)))
    return tuple(out)


def by_colour(pe):
    """The pseudo-edges of each colour, in sorted order."""
    out = {}
    for p in sorted(pe):
        out.setdefault(p.colour, []).append(p)
    return out


def rainbow_components(vd, chosen):
    """The number of components of (vd, chosen pseudo-edges)."""
    uf = UnionFind(sorted(vd))
    for p in chosen:
        uf.union(p.a, p.b)
    return len(uf.groups())


def brute_force_rainbow_components(pe, vd):
    """Exhaustive one-edge-per-colour minimum of the component count; the
    independent oracle for rainbow optimality (use only for few colours)."""
    return min(rainbow_components(vd, combo)
               for combo in itertools.product(*by_colour(pe).values()))


def leftover_is_matching(g, vd):
    """Whether the edges with no end in vd form a matching: the ear
    decomposition invariant on forbidden-cycle-free 2VC graphs."""
    deg = {}
    for u, v in g.ends:
        if u not in vd and v not in vd:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
    return all(d <= 1 for d in deg.values())


def solve_2ecss_blockwise(g, per_block):
    """Solve 2ECSS independently inside each block and take the union.

    Valid because an edge set is a 2ECSS of the whole graph iff its
    restriction to every block is a 2ECSS of that block.
    """
    bl, _, _ = block_decomposition_edges(range(g.n), [(e, u, v) for e, (u, v) in zip(g.eids, g.ends)])
    out = set()
    for blk in bl:
        verts = set()
        for eid in blk:
            verts.update(g.edge_ends[eid])
        sub = g.induced(verts)
        if sub.m == 1:
            raise InputError("a bridge block cannot be 2-edge-connected")
        out |= per_block.solve(sub, 2)
    assert is_k_edge_connected(without_edges(g, set(g.eids) - out), 2)
    return Solution(edge_ids=frozenset(out), meta={"apx_size": len(out)})
