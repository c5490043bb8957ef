"""Differential tests of the pruned ear-seed searches against their
definitions.

`reference_shortest_long_cycle` is the exhaustive search: one unbounded BFS
per (vertex, neighbour pair), followed by a recursive lexicographic DFS.
`reference_find_forbidden_cycle` compares every pair of degree-2 vertices,
and a frozen copy of the whole-graph finder, run on `g.induced(vs)`, checks
the finder's scan of a vertex set vs inside g.
`reference_long_ear_decomposition` is the ear loop as it was before it kept
state between ears: it rebuilds V(D) for every ear and scans every vertex of
V(D) as a start, lowest first, and its first cycle comes from the
exhaustive search above, which tries every start vertex.  The library
versions must return the same tuples (for the ear loop, the same ears in
the same order) and raise the same `InputError` messages on every graph
drawn here.
"""

import random
from collections import deque

import pytest

from flexconn.ears import build_long_ear_decomposition, find_forbidden_cycle, shortest_long_cycle
from flexconn.errors import InputError
from flexconn.graph import is_connected

from conftest import build, cut_vertices, fvc_chord_cycle


def reference_shortest_long_cycle(g):
    best_len = None
    for mid in range(g.n):
        nbrs = sorted(g.neighbor_sets[mid])
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                d = _reference_dist_avoiding(g, a, b, forbidden={mid}, skip_edge=(a, b))
                if d is None:
                    continue
                length = d + 2
                if length >= 4 and (best_len is None or length < best_len):
                    best_len = length
    if best_len is None:
        raise InputError("no cycle of length >= 4 exists")
    seq = _reference_lex_smallest_cycle(g, best_len)
    assert seq is not None
    return seq


def _reference_dist_avoiding(g, a, b, forbidden, skip_edge):
    skip = frozenset(skip_edge)
    dist = {a: 0}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            return dist[x]
        for y in sorted(g.neighbor_sets[x]):
            if y in forbidden or y in dist:
                continue
            if frozenset((x, y)) == skip:
                continue
            dist[y] = dist[x] + 1
            queue.append(y)
    return None


def _reference_lex_smallest_cycle(g, length):
    path = []
    on_path = set()

    def rec(v, dist_home):
        path.append(v)
        on_path.add(v)
        if len(path) == length:
            hit = tuple(path) if path[0] in g.neighbor_sets[v] else None
            path.pop()
            on_path.discard(v)
            return hit
        remaining = length - len(path)
        for w in sorted(g.neighbor_sets[v]):
            if w in on_path or dist_home.get(w, length + 1) > remaining:
                continue
            hit = rec(w, dist_home)
            if hit is not None:
                return hit
        path.pop()
        on_path.discard(v)
        return None

    for start in range(g.n):
        dist_home = {start: 0}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in sorted(g.neighbor_sets[x]):
                if y not in dist_home:
                    dist_home[y] = dist_home[x] + 1
                    queue.append(y)
        hit = rec(start, dist_home)
        if hit is not None:
            return hit
    return None


def reference_find_forbidden_cycle(g):
    deg2 = [v for v in range(g.n) if g.degree(v) == 2]
    for i, w in enumerate(deg2):
        for z in deg2[i + 1:]:
            if z in g.neighbor_sets[w]:
                continue
            if g.neighbor_sets[w] == g.neighbor_sets[z]:
                u, v = sorted(g.neighbor_sets[w])
                return (u, w, v, z)
    return None


def reference_long_ear_decomposition(g):
    if g.n < 4:
        raise InputError("need at least 4 vertices")
    if not g.is_simple:
        raise InputError("graph must be simple")
    triples = [(e, u, v) for e, (u, v) in zip(g.eids, g.ends)]
    if g.n < 3 or not is_connected(range(g.n), triples) or cut_vertices(g):
        raise InputError("graph must be 2-vertex-connected")
    ears = [reference_shortest_long_cycle(g)]
    while True:
        ear = _reference_open_ear(g, {v for ear in ears for v in ear})
        if ear is None:
            return tuple(ears)
        ears.append(ear)


def _reference_open_ear(g, vd):
    """The first (x, y1, y2, y3) in lexicographic order, x in vd and the y_i
    outside, whose y3 reaches vd - {x} avoiding x, y1, y2 through vertices
    outside vd; the ear ends with the first such shortest path found."""
    for x in sorted(vd):
        for y1 in sorted(g.neighbor_sets[x] - vd):
            for y2 in sorted(g.neighbor_sets[y1] - vd - {x}):
                for y3 in sorted(g.neighbor_sets[y2] - vd - {x, y1}):
                    tail = _reference_tail(g, y3, vd - {x}, {x, y1, y2}, vd)
                    if tail is not None:
                        return (x, y1, y2) + tail
    return None


def _reference_tail(g, start, targets, blocked, outside):
    parent = {start: None}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in sorted(g.neighbor_sets[x]):
            if y in blocked or y in parent:
                continue
            parent[y] = x
            if y in targets:
                path = [y]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            if y not in outside:
                queue.append(y)
    return None


def _ears(g):
    return build_long_ear_decomposition(g).ears


def _outcome(fn, g):
    try:
        return ("ok", fn(g))
    except InputError as exc:
        return ("error", str(exc))


# ---------------------------------------------------------------------------
# Graph families: each returns (n, edge pairs) for a simple graph
# ---------------------------------------------------------------------------

def _gnp(rng):
    n = rng.randint(3, 14)
    p = rng.uniform(0.15, 0.9)
    return n, {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}


def _triangles(rng):
    """Triangles glued at vertices or along edges, plus a few random chords:
    many of these have no cycle of length >= 4 at all."""
    n = 3
    pairs = {(0, 1), (0, 2), (1, 2)}
    while n < rng.randint(4, 14):
        if rng.random() < 0.5:
            a = rng.randrange(n)        # new triangle sharing vertex a
            pairs |= {(a, n), (a, n + 1), (n, n + 1)}
            n += 2
        else:
            a, b = rng.choice(sorted(pairs))   # new apex on edge ab
            pairs |= {(a, n), (b, n)}
            n += 1
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        pairs.add((a, b))
    return n, pairs


def _twins(rng):
    """A random base plus groups of degree-2 vertices on a shared pair."""
    n, pairs = _gnp(rng)
    n = min(n, 10)
    pairs = {(a, b) for a, b in pairs if b < n}
    for _ in range(rng.randint(1, 3)):
        if n < 2 or n >= 14:
            break
        u, v = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            pairs.add((u, v))
        for _ in range(rng.randint(1, 3)):
            if n >= 14:
                break
            pairs |= {(u, n), (v, n)}
            n += 1
    return n, pairs


def _sparse(rng):
    """A random tree plus a few extra edges: few cycles, of any length."""
    n = rng.randint(4, 14)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(n), 2)
        pairs.add((a, b))
    return n, pairs


def _subdivided(rng):
    """A small random graph with each edge subdivided 0-2 times, so the
    shortest long cycle is often 5 or more."""
    n = rng.randint(3, 6)
    pairs = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                a = u
                for _ in range(rng.randint(0, 2)):
                    if n >= 14:
                        break
                    pairs.add((a, n))
                    a, n = n, n + 1
                pairs.add((a, v))
    return n, pairs


FAMILIES = (_gnp, _triangles, _twins, _sparse, _subdivided)


def _relabelled(rng, n, pairs):
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) for a, b in pairs]
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    rng.shuffle(edges)
    return build(n, edges)


def _graphs(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        n, pairs = FAMILIES[i % len(FAMILIES)](rng)
        pairs = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
        yield _relabelled(rng, n, sorted(pairs))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shortest_long_cycle_matches_reference(seed):
    outcomes = set()
    for g in _graphs(seed, 800):
        got = _outcome(shortest_long_cycle, g)
        assert got == _outcome(reference_shortest_long_cycle, g), g
        outcomes.add(got[0] if got[0] == "error" else len(got[1]))
    # the error path and several cycle lengths were exercised
    assert {"error", 4, 5, 6, 7} <= outcomes


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_find_forbidden_cycle_matches_reference(seed):
    found = 0
    for g in _graphs(seed, 800):
        got = _outcome(lambda h: find_forbidden_cycle(h, frozenset(range(h.n))), g)
        assert got == _outcome(reference_find_forbidden_cycle, g), g
        found += got[1] is not None
    assert found >= 50


def _whole_graph_find_forbidden_cycle(g):
    """`find_forbidden_cycle` as it was when it scanned all of g."""
    groups = {}
    for v in range(g.n):
        if g.degree(v) == 2:
            groups.setdefault(g.neighbors(v), []).append(v)
    best = min(((ws[0], ws[1], nbrs) for nbrs, ws in groups.items()
                if len(ws) >= 2 and len(nbrs) == 2), default=None)
    if best is None:
        return None
    w, z, (u, v) = best
    return (u, w, v, z)


def test_find_forbidden_cycle_on_a_vertex_set_matches_whole_graph_finder():
    """The scan of g[vs] inside g finds what the whole-graph finder finds
    on g.induced(vs), mapped back to g's labels, for three random vertex
    subsets of each graph of the five families, every other one with
    parallel copies of about a fifth of its edges, which count apiece in
    a degree."""
    rng = random.Random(25_2026)
    cases = found = multi = 0
    for i, g in enumerate(_graphs(10, 3000)):
        if i % 2:
            g = build(g.n, list(g.ends) + [uv for uv in g.ends if rng.random() < 0.2])
        for _ in range(3):
            keep = rng.uniform(0.5, 1.0)
            vs = frozenset(v for v in range(g.n) if rng.random() < keep)
            labels = sorted(vs)
            want = _whole_graph_find_forbidden_cycle(g.induced(vs))
            got = find_forbidden_cycle(g, vs)
            assert got == (want and tuple(labels[x] for x in want)), (g, labels)
            cases += 1
            found += got is not None
            multi += got is not None and not g.is_simple
    assert cases == 9000 and found >= 500 and multi >= 100, (found, multi)


def _relabel(rng, g):
    return _relabelled(rng, g.n, list(g.ends))


def _chord_cycles():
    """The chord-cycle scale family at n <= 200, and a relabelled copy of
    each, so the start order is not the cycle order."""
    rng = random.Random(2026)
    for n in (8, 20, 50, 100, 200):
        for seed in (1, 2, 3):
            g = fvc_chord_cycle(n, seed)
            yield g
            yield _relabel(rng, g)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_ear_decomposition_matches_reference(seed):
    """Whole decompositions, ear by ear, on the five families (relabelled)
    and on a relabelled copy of each of their graphs."""
    rng = random.Random(seed)
    outcomes, grew = set(), 0
    for g in _graphs(seed, 500):
        for h in (g, _relabel(rng, g)):
            got = _outcome(_ears, h)
            assert got == _outcome(reference_long_ear_decomposition, h), h.ends
            outcomes.add(got[1] if got[0] == "error" else "ok")
            grew += got[0] == "ok" and len(got[1]) > 2
    # both reachable error paths and decompositions of three or more ears
    # were reached (a 2VC graph on four or more vertices has a long cycle)
    assert outcomes == {"ok", "need at least 4 vertices", "graph must be 2-vertex-connected"}, outcomes
    assert grew >= 20, grew


def test_ear_decomposition_matches_reference_on_chord_cycles():
    ears = 0
    for g in _chord_cycles():
        got = _ears(g)
        assert got == reference_long_ear_decomposition(g), (g.n, g.ends)
        ears += len(got)
    assert ears >= 300, ears
