"""Differential tests of `graph.low_link_incidence` and of the code built on
it: `is_connected`, `block_decomposition_edges` and the checkers.

The reference is networkx (test-only): `articulation_points`, `bridges` and
`biconnected_component_edges` of the underlying simple graph, restricted to
the component of the first vertex, which is the one the DFS explores.  On a
multigraph the cut vertices are those of the simple graph, since a parallel
copy adds no new path; an edge is a bridge iff its endpoint pair has
multiplicity 1 and is a bridge of the simple graph; and every copy of a pair
lies in the block of that pair.  Self-loops are left out of the reference:
they change nothing and lie in no block.  `block_decomposition_edges` takes
connected graphs only; it is checked whole on those, and must reject the
others.

`check_fvc` and `check_fgc` are also compared with their earlier
definitions, a union-find connectivity test followed by the earlier block
decomposition (`conftest.reference_block_decomposition_edges`).
"""

import random
from collections import Counter

import pytest

from flexconn.errors import InputError
from flexconn.feasibility import check_fgc, check_fvc
from flexconn.graph import (LabeledGraph, block_decomposition_edges, is_connected,
                            low_link_incidence)

from conftest import (brute_force_blocks, random_connected,
                      reference_block_decomposition_edges, without_edges)

nx = pytest.importorskip("networkx")


def _incidence(vertices, ends, eids):
    """The incidence list of the edges `eids` on the positions of the
    distinct `vertices`, where `ends[e]` is the endpoint pair of edge e (a
    mapping by id, or a list by position)."""
    index = {v: i for i, v in enumerate(vertices)}
    inc = [[] for _ in index]
    for e in eids:
        a, b = (index[x] for x in ends[e])
        inc[a].append((b, e))
        inc[b].append((a, e))
    return inc


def _reference(vertices, ends, eids):
    vertices = list(vertices)
    if not vertices:
        return 0, set(), set()
    simple = nx.Graph()
    simple.add_nodes_from(vertices)
    simple.add_edges_from(ends[e] for e in eids if ends[e][0] != ends[e][1])
    component = nx.node_connected_component(simple, vertices[0])
    sub = simple.subgraph(component)
    multiplicity = Counter(frozenset(ends[e]) for e in eids)
    simple_bridges = {frozenset(b) for b in nx.bridges(sub)}
    bridges = {e for e in eids
               if frozenset(ends[e]) in simple_bridges
               and multiplicity[frozenset(ends[e])] == 1}
    return len(component), set(nx.articulation_points(sub)), bridges


def _simple(vertices, ends, eids):
    simple = nx.Graph()
    simple.add_nodes_from(vertices)
    simple.add_edges_from(ends[e] for e in eids if ends[e][0] != ends[e][1])
    return simple


def _reference_blocks(vertices, ends, eids, first_component_only):
    """Blocks as (frozenset of edge ids, frozenset of vertices) pairs."""
    simple = _simple(vertices, ends, eids)
    if first_component_only and vertices:
        simple = simple.subgraph(nx.node_connected_component(simple, vertices[0]))
    block_of, held = {}, []
    for i, comp in enumerate(nx.biconnected_component_edges(simple)):
        held.append(frozenset(x for uv in comp for x in uv))
        for u, v in comp:
            block_of[frozenset((u, v))] = i
    out = {}
    for e in eids:
        i = block_of.get(frozenset(ends[e]))
        if i is not None:
            out.setdefault(i, set()).add(e)
    return [(frozenset(b), held[i]) for i, b in out.items()]


def _as_counter(bl):
    assert all(len(b) == len(set(b)) for b in bl)
    return Counter(frozenset(b) for b in bl)


def _check_blocks(vertices, ends, eids):
    """`low_link_incidence` blocks against networkx on the first vertex's
    component of any graph; `block_decomposition_edges` (blocks, cut
    vertices, the blocks at each vertex) on a connected graph, and its
    rejection of a disconnected one.  Returns whether the graph is
    connected."""
    vertices, eids = list(vertices), list(eids)
    bl = []
    low_link_incidence(_incidence(vertices, ends, eids), None, bl)
    assert _as_counter(bl) == Counter(b for b, _ in _reference_blocks(vertices, ends, eids, True))
    triples = [(e, *ends[e]) for e in eids]
    simple = _simple(vertices, ends, eids)
    if vertices and not nx.is_connected(simple):
        with pytest.raises(InputError, match="must be connected"):
            block_decomposition_edges(vertices, triples)
        return False
    got, cut, touching = block_decomposition_edges(vertices, triples)
    ref = _reference_blocks(vertices, ends, eids, False)
    assert _as_counter(got) == Counter(b for b, _ in ref)
    assert cut == set(nx.articulation_points(simple))
    assert {v: {frozenset(got[i]) for i in touching[v]} for v in touching} == \
        {v: {b for b, held in ref if v in held} for v in vertices}
    return True


def _random_labeled(rng, n):
    """A multigraph on 0..n-1 with ids 0..m-1: parallel edges, any density,
    often disconnected."""
    m = rng.randint(0, 3 * n) if n >= 2 else 0
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(m)]
    for _ in range(rng.randint(0, 3) if pairs else 0):
        pairs.append(rng.choice(pairs))
    rng.shuffle(pairs)
    return LabeledGraph.build(n, pairs,
                              vertex_safe=[rng.random() < 0.5 for _ in range(n)],
                              edge_safe=[rng.random() < 0.5 for _ in pairs])


class TestAgainstNetworkx:
    def test_labeled_graphs_on_chosen_subsets(self):
        """400 graphs, n 0-12; the DFS runs on a random subset of the ids,
        so the ids it sees are not contiguous."""
        rng = random.Random(9001)
        seen_parallel = seen_disconnected = 0
        for i in range(400):
            g = _random_labeled(rng, i % 13)
            keep = rng.uniform(0.4, 1.0)
            chosen = {e for e in g.eids if rng.random() < keep}
            got = low_link_incidence(g.incidence, chosen)
            assert got == _reference(range(g.n), g.edge_ends, chosen), (g, chosen)
            seen_parallel += not g.is_simple
            seen_disconnected += got[0] < g.n
        assert seen_parallel > 50 and seen_disconnected > 50

    def test_general_labels_and_positional_ends(self):
        """200 graphs with arbitrary vertex labels, endpoints listed by
        position and a few self-loops, on their incidence list and through
        `is_connected`."""
        rng = random.Random(9002)
        for i in range(200):
            n = i % 10
            labels = rng.sample(range(100), n)
            m = rng.randint(0, 3 * n) if n else 0
            ends = [(rng.choice(labels), rng.choice(labels)) for _ in range(m)]
            reached, cut, bridges = low_link_incidence(_incidence(labels, ends, range(m)))
            got = reached, {labels[v] for v in cut}, bridges
            assert got == _reference(labels, ends, range(m)), (labels, ends)
            assert is_connected(labels, [(e, *ends[e]) for e in range(m)]) == (reached == n)

    def test_long_cycle_and_path(self):
        n = 5000
        cycle = {i: (i, (i + 1) % n) for i in range(n)}
        assert low_link_incidence(_incidence(range(n), cycle, cycle)) == (n, set(), set())
        path = {i: (i, i + 1) for i in range(n - 1)}
        reached, cut, bridges = low_link_incidence(_incidence(range(n), path, path))
        assert (reached, cut, bridges) == (n, set(range(1, n - 1)), set(path))
        # the DFS starts at the first vertex given, here the middle one
        middle = [n // 2] + [v for v in range(n) if v != n // 2]
        reached, cut, bridges = low_link_incidence(_incidence(middle, path, path))
        assert (reached, {middle[v] for v in cut}, bridges) == (n, set(range(1, n - 1)), set(path))
        triples = [(e, *path[e]) for e in path]
        assert is_connected(middle, triples)
        assert block_decomposition_edges(middle, triples)[1] == set(range(1, n - 1))

    def test_small_cases(self):
        assert low_link_incidence([]) == (0, set(), set())
        assert low_link_incidence([[]]) == (1, set(), set())
        assert low_link_incidence([[], []]) == (1, set(), set())
        assert low_link_incidence([[(1, 5)], [(0, 5)]]) == (2, set(), {5})
        assert low_link_incidence([[(1, 5), (1, 8)], [(0, 5), (0, 8)]]) == (2, set(), set())
        assert low_link_incidence([[(1, 0)], [(0, 0), (2, 1)], [(1, 1)]]) == (3, {1}, {0, 1})
        assert is_connected([7], []) and not is_connected([0, 1], [])
        assert is_connected([0, 1], [(5, 0, 1)]) and is_connected([], [])


class TestBlocksAgainstNetworkx:
    def test_labeled_multigraphs(self):
        """400 multigraphs, n 0-12, parallel edges, often disconnected; each
        on a random subset of its ids and whole."""
        rng = random.Random(9004)
        seen_parallel = seen_disconnected = seen_connected = 0
        for i in range(400):
            g = _random_labeled(rng, i % 13)
            keep = rng.uniform(0.4, 1.0)
            chosen = {e for e in g.eids if rng.random() < keep}
            connected = _check_blocks(range(g.n), g.edge_ends, chosen)
            seen_connected += _check_blocks(range(g.n), g.edge_ends, g.edge_ends)
            seen_parallel += not g.is_simple
            seen_disconnected += not connected
        assert seen_parallel > 50 and seen_disconnected > 50 and seen_connected > 50

    def test_mixed_keys_and_labels(self):
        """300 multigraphs as Algorithm 2 builds them: int edge ids mixed
        with tuple keys ("pe", i), arbitrary vertex labels, a few self-loops."""
        rng = random.Random(9005)
        seen = Counter()
        for i in range(300):
            n = i % 11
            labels = rng.sample(range(100), n)
            m = rng.randint(0, 3 * n) if n else 0
            ends = {}
            for j in range(m):
                key = ("pe", j) if rng.random() < 0.4 else j
                ends[key] = (rng.choice(labels), rng.choice(labels))
            seen[_check_blocks(labels, ends, ends)] += 1
        assert seen[True] > 50 and seen[False] > 50, seen

    def test_long_cycle_and_path(self):
        n = 5000
        cycle = {i: (i, (i + 1) % n) for i in range(n)}
        path = {i: (i, i + 1) for i in range(n - 1)}
        for ends, expected in ((cycle, [set(cycle)]), (path, [{i} for i in path])):
            bl = []
            low_link_incidence(_incidence(range(n), ends, ends), None, bl)
            assert _as_counter(bl) == Counter(frozenset(b) for b in expected)
            got, _, touching = block_decomposition_edges(range(n), [(e, *ends[e]) for e in ends])
            assert _as_counter(got) == _as_counter(bl)
            inner = 1 if ends is cycle else 2
            assert [len(touching[v]) for v in range(n)] == [1] + [inner] * (n - 2) + [1]

    def test_small_cases(self):
        bl = []
        assert low_link_incidence([], None, bl) == (0, set(), set()) and bl == []
        assert low_link_incidence([[], []], None, bl) == (1, set(), set()) and bl == []
        pair = [[(1, 5), (1, 8)], [(0, 5), (0, 8)]]
        assert low_link_incidence(pair, None, bl) == (2, set(), set())
        assert _as_counter(bl) == Counter([frozenset({5, 8})])
        bl = []
        low_link_incidence([[(0, 3), (0, 3)]], None, bl)
        assert bl == []
        assert block_decomposition_edges([], []) == ([], set(), {})
        assert block_decomposition_edges([7], [(3, 7, 7)]) == ([], set(), {7: set()})
        assert block_decomposition_edges([0, 1], [(5, 0, 1), (8, 1, 0)]) == \
            ([[5, 8]], set(), {0: {0}, 1: {0}})
        with pytest.raises(InputError, match="must be connected"):
            block_decomposition_edges([0, 1], [])


class TestBlockMergingEdge:
    """In a connected graph, adding an edge uw lowers the block count iff u
    and w share no block; a same-block edge leaves it unchanged.  This is
    the rule Algorithm 2 picks its edges by, and "share" is read as it reads
    it, from the decomposition's blocks at u and at w; the counts come from
    the brute force block definition."""

    @staticmethod
    def _sub(g, eids):
        return without_edges(g, set(g.eids) - eids)

    def test_random_spanning_subgraphs(self):
        rng = random.Random(3)
        merged = kept = 0
        for _ in range(100):
            g = random_connected(rng, rng.randint(3, 7), 0.6)
            order = sorted(g.eids, key=lambda e: rng.random())
            sub = set()
            for e in order:
                if low_link_incidence(g.incidence, sub)[0] < g.n or rng.random() < 0.2:
                    sub.add(e)
            before = len(brute_force_blocks(self._sub(g, sub)))
            bl, _, touching = block_decomposition_edges(
                range(g.n), [(k, *g.edge_ends[k]) for k in sub])
            assert len(bl) == before
            for e, (u, v) in zip(g.eids, g.ends):
                if e in sub:
                    continue
                share = bool(touching[u] & touching[v])
                after = len(brute_force_blocks(self._sub(g, sub | {e})))
                assert after == before if share else after < before, (g, sub, e)
                merged += not share
                kept += share
        assert merged > 80 and kept > 30, (merged, kept)


# The checkers as they were defined before the one low-link DFS.

def _old_edge_triples(g, eids):
    return [(eid, *g.edge_ends[eid]) for eid in set(eids)]


def _old_check_fgc(g, eids):
    triples = _old_edge_triples(g, eids)
    if not is_connected(range(g.n), triples):
        return False
    bl, _ = reference_block_decomposition_edges(range(g.n), triples)
    bridges = {comp[0] for comp in bl if len(comp) == 1}
    return all(eid not in g.unsafe_edge_set for eid in bridges)


def _old_check_fvc(g, eids):
    triples = _old_edge_triples(g, eids)
    if not is_connected(range(g.n), triples):
        return False
    _, cut = reference_block_decomposition_edges(range(g.n), triples)
    return all(g.vertex_safe[v] for v in cut)


class TestCheckersAgainstOldDefinitions:
    def test_random_subsets(self):
        rng = random.Random(9003)
        answers = Counter()
        for i in range(300):
            g = _random_labeled(rng, 1 + i % 9)
            for _ in range(8):
                keep = rng.uniform(0.5, 1.0)
                chosen = {e for e in g.eids if rng.random() < keep}
                fgc, fvc = check_fgc(g, chosen), check_fvc(g, chosen)
                assert fgc == _old_check_fgc(g, chosen), (g, chosen)
                assert fvc == _old_check_fvc(g, chosen), (g, chosen)
                answers[fgc, fvc] += 1
        assert len(answers) == 4

    def test_unknown_ids_rejected(self):
        g = LabeledGraph.build(3, [(0, 1), (1, 2)])
        for checker in (check_fgc, check_fvc):
            with pytest.raises(InputError, match=r"unknown edge ids \[7, 9\]"):
                checker(g, {0, 9, 7})
