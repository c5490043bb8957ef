"""Differential test of `fvc.algorithm2_make_2vc` against its earlier form.

The earlier form, copied below, re-counted the blocks of the grown graph
once per trial vertex and looked for a block-reducing edge with a separate
block decomposition.  The current one decomposes the bought graph once per
round, and g[cur] plus the pseudo-edges only until that graph shows one
block, and decides from shared blocks alone.  The goldens barely reach this
code (on the FVC golden corpus Algorithm 2 pulls no vertex and adds no
phase-2 edge), so the comparison runs on synthetic inputs that meet
Algorithm 2's preconditions:
- a random connected simple graph g with V(D) = V;
- a connected vertex set A, random pseudo-edges inside A, and S1 the
  lowest-id edges of g[A] that make A connected together with them;
- alpha = alpha_large = 0, so the final size check can fail too.
Both versions must return the same (x2, s2) or raise the same error.
"""

import random

from flexconn.errors import require
from flexconn.fvc import algorithm2_make_2vc
from flexconn.graph import UnionFind
from flexconn.rainbow import PseudoEdge, RainbowSolution

from conftest import random_connected, reference_block_decomposition_edges


# The earlier Algorithm 2 and its block helpers.

def _old_block_count(vertices, edges):
    return len(reference_block_decomposition_edges(vertices, edges)[0])


def _old_block_vertex_labels(vertices, edges):
    by_key = {key: (u, v) for key, u, v in edges}
    bl, _ = reference_block_decomposition_edges(vertices, edges)
    touching = {v: set() for v in set(vertices)}
    for i, comp in enumerate(bl):
        for key in comp:
            u, v = by_key[key]
            touching[u].add(i)
            touching[v].add(i)
    return len(bl), touching


def _old_find_block_reducing_key(vertices, current, candidates):
    _, touching = _old_block_vertex_labels(vertices, current)
    uf = UnionFind(vertices)
    for _, u, v in current:
        uf.union(u, v)
    for key, u, v in candidates:
        if uf.find(u) != uf.find(v):
            continue
        if touching[u] & touching[v]:
            continue
        return key
    return None


def _old_algorithm2(g, vd, rainbow, s1, a):
    pseudo = [(("pe", i), p.a, p.b) for i, p in enumerate(rainbow.chosen)]

    def induced(inside):
        return [(e, u, v) for e, (u, v) in zip(g.eids, g.ends) if u in inside and v in inside]

    cur = set(a)
    s2 = set()

    def bought_triples():
        return pseudo + [(eid, *g.edge_ends[eid])
                         for eid in sorted(s1 | s2)]

    while _old_block_count(cur, induced(cur) + pseudo) > 1:
        base = _old_block_count(cur, induced(cur) + pseudo)
        pick = None
        for v in sorted(set(vd) - cur):
            trial = cur | {v}
            if _old_block_count(trial, induced(trial) + pseudo) < base:
                pick = v
                break
        require(pick is not None, "no block-reducing vertex found")
        v = pick
        _, touching = _old_block_vertex_labels(cur, bought_triples())
        incident = sorted((e, w) for w, e in g.incidence[v] if w in cur)
        chosen_pair = None
        for i, (eid1, u) in enumerate(incident):
            for eid2, w in incident[i + 1:]:
                if u != w and not (touching[u] & touching[w]):
                    chosen_pair = (eid1, eid2)
                    break
            if chosen_pair:
                break
        require(chosen_pair is not None, "no block-reducing edge pair found")
        cur.add(v)
        s2.update(chosen_pair)

    while _old_block_count(cur, bought_triples()) > 1:
        candidates = [(e, u, v) for e, (u, v) in zip(g.eids, g.ends)
                      if u in cur and v in cur and e not in (s1 | s2)]
        key = _old_find_block_reducing_key(cur, bought_triples(), sorted(candidates))
        require(key is not None, "a block-reducing edge must exist")
        s2.add(key)

    x2 = frozenset(cur - a)
    require(len(s2) <= len(x2) + len(vd) - rainbow.alpha - rainbow.alpha_large,
            "|S2| exceeded |X2| + |V(D)| - alpha - alpha_large")
    return x2, frozenset(s2)


def _draw(rng):
    """One input meeting Algorithm 2's preconditions (see the module doc)."""
    n = rng.randint(5, 12)
    g = random_connected(rng, n, rng.uniform(0.3, 0.6))
    # A grows like a walk, each vertex next to the last one where possible,
    # and gets few pseudo-edges, so g[A] plus them often has several blocks
    size = rng.randint(2, int(0.6 * n))
    last = rng.randrange(n)
    a = {last}
    while len(a) < size:
        nxt = (sorted(g.neighbor_sets[last] - a)
               or sorted(w for v in a for w in g.neighbor_sets[v] - a))
        last = rng.choice(nxt)
        a.add(last)
    inside = sorted(a)
    pairs = {tuple(sorted(rng.sample(inside, 2))) for _ in range(rng.randint(0, len(a) // 3))}
    chosen = tuple(PseudoEdge(u, w, ("v", i)) for i, (u, w) in enumerate(sorted(pairs)))
    uf = UnionFind(inside)
    for p in chosen:
        uf.union(p.a, p.b)
    s1 = frozenset(e for e, (u, v) in zip(g.eids, g.ends)
                   if u in a and v in a and uf.union(u, v))
    rainbow = RainbowSolution(chosen=chosen, alpha=0, alpha_large=0,
                              singletons=frozenset())
    return g, frozenset(range(n)), rainbow, s1, frozenset(a)


def _outcome(fn, args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_matches_earlier_algorithm2():
    rng = random.Random(20261018)
    phase1 = phase2 = errors = 0
    for _ in range(2500):
        args = _draw(rng)
        new = _outcome(algorithm2_make_2vc, args)
        assert new == _outcome(_old_algorithm2, args), args
        if isinstance(new[0], type):
            errors += 1
            continue
        x2, s2 = new
        phase1 += bool(x2)
        phase2 += len(s2) > 2 * len(x2)
    assert phase1 >= 300 and phase2 >= 700, (phase1, phase2, errors)
