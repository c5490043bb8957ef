import random

import pytest
from hypothesis import given, settings, strategies as st

from flexconn.errors import InputError
from flexconn.fgc import double_safe_edges
from flexconn.graph import (ContractionResult, Edge, LabeledGraph, UnionFind,
                            block_decomposition_edges, contract_edges,
                            contract_vertices, cut_vertices, is_k_edge_connected)

from conftest import (brute_force_blocks, brute_force_k_edge_connected, build,
                      random_connected)


class TestContraction:
    def test_c4_vertex_pair(self, c4):
        res = contract_vertices(c4, {0, 1})
        assert res.graph.n == 3
        assert sorted(e.eid for e in res.graph.edges) == [1, 2, 3]  # edge 01 dropped
        # merged vertex is 0; old 2 -> 1, old 3 -> 2
        assert res.vertex_map == {0: 0, 1: 0, 2: 1, 3: 2}
        assert sorted(e.pair() for e in res.graph.edges) == [(0, 1), (0, 2), (1, 2)]

    def test_contract_everything(self, c4):
        res = contract_vertices(c4, {0, 1, 2, 3})
        assert res.graph.n == 1
        assert res.graph.edges == ()

    def test_k4_vertex_pair(self, k4):
        res = contract_vertices(k4, {0, 1})
        assert res.graph.n == 3
        assert len(res.graph.edges) == 5
        pairs = sorted(e.pair() for e in res.graph.edges)
        assert pairs == [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2)]

    def test_errors(self, c4):
        with pytest.raises(InputError):
            contract_vertices(c4, set())
        with pytest.raises(InputError):
            contract_vertices(c4, {0, 9})

    def test_contract_single_edge(self, c4):
        res = contract_edges(c4, {0})
        assert res.graph.n == 3
        assert sorted(e.eid for e in res.graph.edges) == [1, 2, 3]

    def test_contract_nothing_is_identity(self, c4):
        res = contract_edges(c4, set())
        assert res.graph.n == 4
        assert res.vertex_map == {v: v for v in range(4)}
        assert sorted(e.pair() for e in res.graph.edges) == \
            sorted(e.pair() for e in c4.edges)

    def test_contract_opposite_edges(self, c4):
        res = contract_edges(c4, {0, 2})  # edges 01 and 23
        assert res.graph.n == 2
        assert sorted(e.pair() for e in res.graph.edges) == [(0, 1), (0, 1)]

    def test_unknown_edge_id(self, c4):
        with pytest.raises(InputError):
            contract_edges(c4, {99})

    def test_edge_loss_matches_component_interiors(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_connected(rng, rng.randint(3, 8), 0.5)
            chosen = {e.eid for e in g.edges if rng.random() < 0.4}
            res = contract_edges(g, chosen)
            kept = {e.eid for e in res.graph.edges}
            lost = set(g.edge_by_id) - kept
            for eid in lost:
                e = g.edge_by_id[eid]
                assert res.vertex_map[e.u] == res.vertex_map[e.v]
            for eid in kept:
                e = g.edge_by_id[eid]
                assert res.vertex_map[e.u] != res.vertex_map[e.v]


    def test_matches_previous_relabelling(self):
        # both contractions now share one first-seen relabel pass; compare
        # them with the separate routines they replaced, kept below
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 9)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5 for _ in range(rng.choice((1, 1, 2)))]
            rng.shuffle(pairs)
            g = build(n, pairs, vertex_safe=[rng.random() < 0.6 for _ in range(n)],
                      edge_safe=[rng.random() < 0.5 for _ in pairs])
            chosen = {eid for eid in g.edge_by_id if rng.random() < 0.4}
            assert _same(contract_edges(g, chosen), _old_contract_edges(g, chosen))
            group = set(rng.sample(range(n), rng.randint(1, n)))
            assert _same(contract_vertices(g, group), _old_contract_vertices(g, group))


def _same(a, b):
    return ((a.graph.n, a.graph.vertex_safe, a.graph.edges, a.vertex_map)
            == (b.graph.n, b.graph.vertex_safe, b.graph.edges, b.vertex_map))


def _old_contract_vertices(g, group):
    members = set(group)
    anchor = min(members)
    kept = [v for v in range(g.n) if v not in members or v == anchor]
    vmap_kept = {v: i for i, v in enumerate(kept)}
    vertex_map = {v: vmap_kept[anchor] if v in members else vmap_kept[v]
                  for v in range(g.n)}
    merged_safe = all(g.vertex_safe[v] for v in members)
    vsafe = tuple(merged_safe if v == anchor else g.vertex_safe[v] for v in kept)
    return _old_relabelled(g, len(kept), vsafe, vertex_map)


def _old_contract_edges(g, eids):
    uf = UnionFind(range(g.n))
    for eid in eids:
        e = g.edge_by_id[eid]
        uf.union(e.u, e.v)
    roots = sorted({uf.find(v) for v in range(g.n)}, key=lambda r: min(
        v for v in range(g.n) if uf.find(v) == r))
    comp_index = {r: i for i, r in enumerate(roots)}
    vertex_map = {v: comp_index[uf.find(v)] for v in range(g.n)}
    members = {}
    for v in range(g.n):
        members.setdefault(vertex_map[v], []).append(v)
    vsafe = tuple(all(g.vertex_safe[v] for v in members[i]) for i in range(len(roots)))
    return _old_relabelled(g, len(roots), vsafe, vertex_map)


def _old_relabelled(g, n, vsafe, vertex_map):
    new_edges = []
    for e in g.edges:
        nu, nv = vertex_map[e.u], vertex_map[e.v]
        if nu == nv:
            continue
        new_edges.append(Edge(e.eid, nu, nv, e.safe))
    return ContractionResult(graph=LabeledGraph.from_edges(n, vsafe, new_edges),
                             vertex_map=vertex_map)


class TestAdjacencyView:
    """`edge_between`, `degree` and `neighbors` read `incidence`, and every
    view and derived graph is computed from the edge columns; compare them
    with a scan of the `Edge` records on multigraphs whose ids are sparse and
    out of edge order, so the lowest id of a parallel class is not its first
    copy."""

    @staticmethod
    def _random_records(rng):
        n = rng.randint(1, 8)
        pairs = [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.3 for _ in range(rng.choice((1, 1, 2, 3)))]
        ids = rng.sample(range(3 * len(pairs) + 1), len(pairs))
        return n, tuple(Edge(i, u, v, rng.random() < 0.5) for i, (u, v) in zip(ids, pairs))

    @classmethod
    def _random_multigraph(cls, rng):
        n, edges = cls._random_records(rng)
        return LabeledGraph.from_edges(n, (True,) * n, edges)

    def test_matches_edge_scan(self):
        rng = random.Random(19)
        seen_parallel = seen_absent = 0
        for _ in range(300):
            g = self._random_multigraph(rng)
            for u in range(g.n):
                incident = [e for e in g.edges if u in (e.u, e.v)]
                assert g.degree(u) == len(incident)
                assert g.neighbors(u) == tuple(sorted({e.v if e.u == u else e.u
                                                       for e in incident}))
                for v in range(g.n):
                    joining = [e.eid for e in g.edges if {e.u, e.v} == {u, v}]
                    assert g.edge_between(u, v) == (min(joining) if joining else None)
                    seen_parallel += len(joining) >= 2
                    seen_absent += not joining
        assert seen_parallel and seen_absent

    def test_columns_match_records(self):
        rng = random.Random(23)
        for _ in range(300):
            n, records = self._random_records(rng)
            g = LabeledGraph.from_edges(n, (True,) * n, records)
            assert g.eids == tuple(e.eid for e in records)
            assert g.ends == tuple((e.u, e.v) for e in records)
            assert g.edge_safe == tuple(e.safe for e in records)
            assert g.edges == records
            assert g.edge_by_id == {e.eid: e for e in records}
            assert g.edge_ends == {e.eid: (e.u, e.v) for e in records}
            assert g.unsafe_edge_set == {e.eid for e in records if not e.safe}
            assert g.is_simple == (len({e.pair() for e in records}) == len(records))
            assert g.m == len(records)
            for v in range(g.n):
                assert g.incidence[v] == [(e.v if e.u == v else e.u, e.eid)
                                          for e in records if v in (e.u, e.v)]

    def test_derived_graphs_match_records(self):
        rng = random.Random(29)
        for _ in range(300):
            h = self._random_multigraph(rng)
            g = LabeledGraph.from_edges(h.n, [rng.random() < 0.6 for _ in range(h.n)], h.edges)
            keep = {v for v in range(g.n) if rng.random() < 0.7}
            remap = {v: i for i, v in enumerate(sorted(keep))}
            assert g.induced(keep) == LabeledGraph.from_edges(
                len(keep), [g.vertex_safe[v] for v in sorted(keep)],
                [Edge(e.eid, remap[e.u], remap[e.v], e.safe) for e in g.edges
                 if e.u in keep and e.v in keep])
            drop = {e.eid for e in g.edges if rng.random() < 0.3}
            assert g.without_edges(drop) == LabeledGraph.from_edges(
                g.n, g.vertex_safe, [e for e in g.edges if e.eid not in drop])
            chosen = {e.eid for e in g.edges if rng.random() < 0.4}
            assert _same(contract_edges(g, chosen), _old_contract_edges(g, chosen))
            offset = max(g.edge_by_id, default=-1) + 1
            assert double_safe_edges(g) == LabeledGraph.from_edges(
                g.n, g.vertex_safe,
                g.edges + tuple(Edge(offset + e.eid, e.u, e.v, e.safe) for e in g.edges if e.safe))

    @pytest.mark.parametrize("make, message", [
        (lambda: LabeledGraph.build(2, [(0, 1)], edge_safe=[]),
         "edge_safe length must equal number of edges"),
        (lambda: LabeledGraph.build(-1, []), "vertex count must be non-negative"),
        (lambda: LabeledGraph.build(2, [], vertex_safe=[True]), "vertex_safe length must equal n"),
        (lambda: LabeledGraph.build(2, [(0, 1), (1, 2)]), "edge 1 endpoint out of range"),
        (lambda: LabeledGraph.build(2, [(0, 1), (1, 1)]), "edge 1 is a self-loop"),
        (lambda: LabeledGraph.from_edges(-2, (), ()), "vertex count must be non-negative"),
        (lambda: LabeledGraph.from_edges(2, (True,), ()), "vertex_safe length must equal n"),
        (lambda: LabeledGraph.from_edges(2, (True,) * 2, [Edge(7, 0, -1)]),
         "edge 7 endpoint out of range"),
        (lambda: LabeledGraph.from_edges(2, (True,) * 2, [Edge(7, 1, 1)]),
         "edge 7 is a self-loop"),
        (lambda: LabeledGraph.from_edges(3, (True,) * 3, [Edge(7, 0, 1), Edge(7, 1, 2)]),
         "duplicate edge id 7"),
        (lambda: LabeledGraph.from_edges(3, (True,) * 3, [Edge(-1, 0, 1), Edge(2, 1, 2)]),
         "edge id -1 is not a non-negative integer"),
        (lambda: LabeledGraph.from_edges(2, (True,) * 2, [Edge(True, 0, 1)]),
         "edge id True is not a non-negative integer"),
        (lambda: LabeledGraph.from_edges(2, (True,) * 2, [Edge(2.0, 0, 1)]),
         "edge id 2.0 is not a non-negative integer"),
        (lambda: LabeledGraph.from_edges(2, (True,) * 2, [Edge("3", 0, 1)]),
         "edge id '3' is not a non-negative integer"),
    ])
    def test_entry_points_validate(self, make, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            make()

    def test_parallel_copies_count_toward_degree(self):
        g = LabeledGraph.from_edges(3, (True,) * 3,
                                    (Edge(7, 0, 1), Edge(2, 1, 0), Edge(5, 1, 2)))
        assert [g.degree(v) for v in range(3)] == [2, 3, 1]
        assert g.neighbors(1) == (0, 2)
        assert g.edge_between(0, 1) == g.edge_between(1, 0) == 2
        assert g.edge_between(0, 2) is None
        assert g.edge_between(0, 0) is None


def _blocks(g):
    """The blocks of g as frozensets of edge ids, and its cut vertices."""
    bl, cut, _ = block_decomposition_edges(range(g.n), [(e, *uv) for e, uv in zip(g.eids, g.ends)])
    return [frozenset(b) for b in bl], cut


class TestBlocks:
    def test_bowtie(self, bowtie):
        bl, cut = _blocks(bowtie)
        assert len(bl) == 2
        assert cut == {2}

    def test_c4_single_block(self, c4):
        bl, cut = _blocks(c4)
        assert len(bl) == 1
        assert not cut

    def test_parallel_pair_is_one_block(self):
        g = LabeledGraph.build(2, [(0, 1), (0, 1)])
        assert _blocks(g) == ([frozenset({0, 1})], set())

    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_connected(rng, rng.randint(2, 7), 0.5)
            assert set(_blocks(g)[0]) == brute_force_blocks(g)

    def test_connected_block_count_bound(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_connected(rng, rng.randint(2, 8), 0.45)
            assert len(_blocks(g)[0]) <= g.n - 1

    def test_edgeless(self):
        """The decomposition takes connected graphs only."""
        with pytest.raises(InputError, match="must be connected"):
            _blocks(LabeledGraph.build(3, []))


class TestCutVertices:
    def test_path(self):
        g = build(3, [(0, 1), (1, 2)])
        assert cut_vertices(g) == frozenset({1})

    def test_c4(self, c4):
        assert cut_vertices(c4) == frozenset()

    def test_bowtie(self, bowtie):
        assert cut_vertices(bowtie) == frozenset({2})

    def test_disconnected_rejected(self):
        g = build(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            cut_vertices(g)


class TestEdgeConnectivity:
    def test_c4(self, c4):
        assert is_k_edge_connected(c4, 2)
        assert not is_k_edge_connected(c4, 3)

    def test_k4_three_connected(self, k4):
        assert is_k_edge_connected(k4, 3)
        assert not is_k_edge_connected(k4, 4)

    def test_parallel_multigraph(self):
        g = LabeledGraph.build(2, [(0, 1), (0, 1)])
        assert is_k_edge_connected(g, 2)
        assert not is_k_edge_connected(g, 3)

    def test_single_vertex(self):
        g = LabeledGraph.build(1, [])
        assert is_k_edge_connected(g, 5)

    def test_bad_k(self, c4):
        with pytest.raises(InputError):
            is_k_edge_connected(c4, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    def test_matches_exhaustive_removal(self, seed, k):
        rng = random.Random(seed)
        g = random_connected(rng, rng.randint(2, 7), 0.5)
        assert is_k_edge_connected(g, k) == brute_force_k_edge_connected(g, k)
