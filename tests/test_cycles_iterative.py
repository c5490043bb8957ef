"""The iterative nice-cycle extension against the recursive one it replaced.

`reference_extend_cycle` is the recursive `cycles._extend_cycle`.  It
takes the library's arguments (the search state, the start part, its exit,
the first edge, and the part entered with its entry vertex) and reads the
coarse parts from `coarse_of` alone: it lists each part's vertices and
cross edges itself.  Every call the library makes while finding good
cycles on random 2-vertex-connected graphs is answered by both, and the
answers must agree.  A ring of 300 two-vertex parts needs a path through
all of them, which the recursive version cannot build under a tight
recursion limit.
"""

import random
import sys

from flexconn import cycles
from flexconn.cycles import find_good_cycle, is_good_cycle
from flexconn.graph import is_connected

from conftest import build, cut_vertices, random_connected


DEAD_ENDS = []   # parts at which the reference gave up, at any depth


def reference_extend_cycle(search, start, start_exit, first_edge, cur, cur_entry,
                           path_edges=None, visited=None):
    g, coarse_of = search.g, search.coarse_of
    path_edges = path_edges or [first_edge]
    visited = visited or {start, cur}
    members = sorted(v for v in coarse_of if coarse_of[v] == cur)
    exits = [a for a in members if a != cur_entry] if len(members) >= 2 else [cur_entry]
    for a in exits:
        cross = sorted((w, eid) for w, eid in g.incidence[a]
                       if w in coarse_of and coarse_of[w] != cur)
        for c, eid in cross:
            r = coarse_of[c]
            if r == start:
                big_start = sum(1 for v in coarse_of if coarse_of[v] == start) >= 2
                if big_start and c == start_exit:
                    continue
                if not big_start and c != start_exit:
                    continue
                if len(path_edges) == 1 and eid == path_edges[0][0]:
                    continue
                return path_edges + [(eid, a, c)]
            if r in visited:
                continue
            found = reference_extend_cycle(search, start, start_exit, first_edge, r, c,
                                           path_edges + [(eid, a, c)], visited | {r})
            if found is not None:
                return found
    DEAD_ENDS.append(cur)
    return None


def _random_connected_partition(rng, g):
    """Parts grown from random seeds, so every part is connected."""
    seeds = rng.sample(range(g.n), rng.randint(2, max(2, g.n - 1)))
    owner = {s: i for i, s in enumerate(seeds)}
    frontier = list(seeds)
    while len(owner) < g.n:
        v = rng.choice(frontier)
        nxt = [w for w in g.neighbors(v) if w not in owner]
        if not nxt:
            frontier.remove(v)
            continue
        w = rng.choice(nxt)
        owner[w] = owner[v]
        frontier.append(w)
    parts = {}
    for v, i in owner.items():
        parts.setdefault(i, set()).add(v)
    return [frozenset(p) for p in parts.values()]


def test_same_cycle_as_recursive_reference(monkeypatch):
    iterative = cycles._extend_cycle
    results = []

    def both(*args):
        got = iterative(*args)
        assert got == reference_extend_cycle(*args)
        results.append(got is not None)
        return got

    monkeypatch.setattr(cycles, "_extend_cycle", both)
    DEAD_ENDS.clear()
    rng = random.Random(31)
    found = 0
    while found < 300:
        g = random_connected(rng, rng.randint(8, 16), rng.uniform(0.15, 0.35))
        if g.n < 3 or cut_vertices(g):
            continue
        parts = _random_connected_partition(rng, g)
        cyc = find_good_cycle(g, set(range(g.n)), parts)
        if cyc is not None:
            triples = [(e, *g.edge_ends[e]) for e in sorted(cyc)]
            assert is_good_cycle(parts, triples)
            found += 1
    # calls that fail, and calls that backtrack out of dead ends, were compared
    assert results.count(True) >= 300 and results.count(False) >= 1
    assert len(DEAD_ENDS) >= 100, len(DEAD_ENDS)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_ring_of_300_parts_without_deep_recursion():
    # parts {2i, 2i+1}; edge 2i joins them, edge 2i+1 leads to the next part
    k = 300
    n = 2 * k
    g = build(n, [(i, (i + 1) % n) for i in range(n)])
    assert is_connected(range(n), [(e, u, v) for e, (u, v) in zip(g.eids, g.ends)])
    parts = [frozenset({2 * i, 2 * i + 1}) for i in range(k)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        cyc = find_good_cycle(g, set(range(n)), parts)
    finally:
        sys.setrecursionlimit(limit)
    assert cyc == {2 * i + 1 for i in range(k)}
