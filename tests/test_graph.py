import random

import pytest
from hypothesis import given, settings, strategies as st

from flexconn.errors import InfeasibleInstanceError, InputError
from flexconn.exact import kecss_instance
from flexconn.feasibility import Instance
from flexconn.fgc import double_safe_edges
from flexconn.fvc import preprocess
from flexconn.graph import (LabeledGraph, UnionFind, block_decomposition_edges,
                            contract_edges, is_k_edge_connected)
from flexconn.io import parse_instance, write_instance

from conftest import (brute_force_blocks, brute_force_k_edge_connected, build,
                      diamond_necklace, random_connected, without_edges)


def _pairs(g):
    return sorted((u, v) if u <= v else (v, u) for u, v in g.ends)


def _graph(n, vertex_safe, rows):
    """The validated graph of the (id, (u, v), safe) rows, in row order."""
    return LabeledGraph.build(n, [uv for _, uv, _ in rows], vertex_safe,
                              [s for _, _, s in rows], [e for e, _, _ in rows])


class TestContraction:
    def test_c4_vertex_pair(self, c4):
        # merging the adjacent vertices 0 and 1 is contracting their edge 0
        res = contract_edges(c4, {0})
        assert res.n == 3
        assert sorted(res.eids) == [1, 2, 3]  # edge 01 dropped
        # merged vertex is 0; old 2 -> 1, old 3 -> 2
        assert _pairs(res) == [(0, 1), (0, 2), (1, 2)]

    def test_contract_everything(self, c4):
        res = contract_edges(c4, set(c4.eids))
        assert res.n == 1
        assert res.eids == ()

    def test_k4_vertex_pair(self, k4):
        res = contract_edges(k4, {k4.edge_between(0, 1)})
        assert res.n == 3
        assert res.m == 5
        assert _pairs(res) == [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2)]

    def test_contract_single_edge(self, c4):
        res = contract_edges(c4, {0})
        assert res.n == 3
        assert sorted(res.eids) == [1, 2, 3]

    def test_contract_nothing_is_identity(self, c4):
        assert contract_edges(c4, set()) == c4

    def test_contract_opposite_edges(self, c4):
        res = contract_edges(c4, {0, 2})  # edges 01 and 23
        assert res.n == 2
        assert _pairs(res) == [(0, 1), (0, 1)]

    def test_unknown_edge_id(self, c4):
        with pytest.raises(InputError):
            contract_edges(c4, {99})

    def test_edge_loss_matches_component_interiors(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_connected(rng, rng.randint(3, 8), 0.5)
            chosen = {e for e in g.eids if rng.random() < 0.4}
            uf = UnionFind(range(g.n))
            for e in chosen:
                uf.union(*g.edge_ends[e])
            res = contract_edges(g, chosen)
            assert set(res.eids) == {e for e, (u, v) in zip(g.eids, g.ends)
                                     if uf.find(u) != uf.find(v)}

    def test_matches_previous_relabelling(self):
        # the contraction relabels in one first-seen pass; compare it with
        # the separate routine it replaced, kept below
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 9)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5 for _ in range(rng.choice((1, 1, 2)))]
            rng.shuffle(pairs)
            g = build(n, pairs, vertex_safe=[rng.random() < 0.6 for _ in range(n)],
                      edge_safe=[rng.random() < 0.5 for _ in pairs])
            chosen = {eid for eid in g.eids if rng.random() < 0.4}
            assert contract_edges(g, chosen) == _old_contract_edges(g, chosen)


def _old_contract_edges(g, eids):
    uf = UnionFind(range(g.n))
    for eid in eids:
        uf.union(*g.edge_ends[eid])
    roots = sorted({uf.find(v) for v in range(g.n)}, key=lambda r: min(
        v for v in range(g.n) if uf.find(v) == r))
    comp_index = {r: i for i, r in enumerate(roots)}
    vertex_map = {v: comp_index[uf.find(v)] for v in range(g.n)}
    members = {}
    for v in range(g.n):
        members.setdefault(vertex_map[v], []).append(v)
    vsafe = tuple(all(g.vertex_safe[v] for v in members[i]) for i in range(len(roots)))
    rows = [(e, (vertex_map[u], vertex_map[v]), s)
            for e, (u, v), s in zip(g.eids, g.ends, g.edge_safe)
            if vertex_map[u] != vertex_map[v]]
    return _graph(len(roots), vsafe, rows)


class TestAdjacencyView:
    """`edge_between`, `degree` and `neighbors` read `incidence`, and every
    view and derived graph is computed from the edge columns; compare them
    with a scan of the (id, ends, safe) rows on multigraphs whose ids are
    sparse and ascend with the columns, as `build` requires."""

    @staticmethod
    def _random_records(rng):
        """n and the (id, (u, v), safe) rows of a random multigraph."""
        n = rng.randint(1, 8)
        pairs = [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.3 for _ in range(rng.choice((1, 1, 2, 3)))]
        ids = sorted(rng.sample(range(3 * len(pairs) + 1), len(pairs)))
        return n, [(i, uv, rng.random() < 0.5) for i, uv in zip(ids, pairs)]

    @classmethod
    def _random_multigraph(cls, rng):
        n, rows = cls._random_records(rng)
        return _graph(n, (True,) * n, rows)

    def test_matches_edge_scan(self):
        rng = random.Random(19)
        seen_parallel = seen_absent = 0
        for _ in range(300):
            g = self._random_multigraph(rng)
            rows = list(zip(g.eids, g.ends))
            for u in range(g.n):
                incident = [(e, a, b) for e, (a, b) in rows if u in (a, b)]
                assert g.degree(u) == len(incident)
                assert g.neighbors(u) == tuple(sorted({b if a == u else a
                                                       for _, a, b in incident}))
                for v in range(g.n):
                    joining = [e for e, (a, b) in rows if {a, b} == {u, v}]
                    assert g.edge_between(u, v) == (min(joining) if joining else None)
                    seen_parallel += len(joining) >= 2
                    seen_absent += not joining
        assert seen_parallel and seen_absent

    def test_columns_match_records(self):
        rng = random.Random(23)
        for _ in range(300):
            n, rows = self._random_records(rng)
            g = _graph(n, (True,) * n, rows)
            assert g.eids == tuple(e for e, _, _ in rows)
            assert g.ends == tuple(uv for _, uv, _ in rows)
            assert g.edge_safe == tuple(s for _, _, s in rows)
            assert g.edge_ends == {e: uv for e, uv, _ in rows}
            assert g.unsafe_edge_set == {e for e, _, s in rows if not s}
            assert g.is_simple == (len({tuple(sorted(uv)) for _, uv, _ in rows}) == len(rows))
            assert g.m == len(rows)
            for v in range(g.n):
                assert g.incidence[v] == [(b if a == v else a, e)
                                          for e, (a, b), _ in rows if v in (a, b)]

    def test_derived_graphs_match_records(self):
        rng = random.Random(29)
        for _ in range(300):
            h = self._random_multigraph(rng)
            rows = list(zip(h.eids, h.ends, h.edge_safe))
            g = _graph(h.n, [rng.random() < 0.6 for _ in range(h.n)], rows)
            keep = {v for v in range(g.n) if rng.random() < 0.7}
            remap = {v: i for i, v in enumerate(sorted(keep))}
            assert g.induced(keep) == _graph(
                len(keep), [g.vertex_safe[v] for v in sorted(keep)],
                [(e, (remap[u], remap[v]), s) for e, (u, v), s in rows
                 if u in keep and v in keep])
            drop = {e for e in g.eids if rng.random() < 0.3}
            assert without_edges(g, drop) == _graph(
                g.n, g.vertex_safe, [row for row in rows if row[0] not in drop])
            chosen = {e for e in g.eids if rng.random() < 0.4}
            assert contract_edges(g, chosen) == _old_contract_edges(g, chosen)
            offset = max(g.eids, default=-1) + 1
            assert double_safe_edges(g) == _graph(
                g.n, g.vertex_safe,
                rows + [(offset + e, uv, s) for e, uv, s in rows if s])

    @pytest.mark.parametrize("make, message", [
        (lambda: LabeledGraph.build(2, [(0, 1)], edge_safe=[]),
         "edge_safe length must equal number of edges"),
        (lambda: LabeledGraph.build(2, [(0, 1)], eids=[0, 1]),
         "eids length must equal number of edges"),
        (lambda: LabeledGraph.build(-1, []), "vertex count must be non-negative"),
        (lambda: LabeledGraph.build(True, []), "vertex count must be non-negative"),
        (lambda: LabeledGraph.build(2.5, []), "vertex count must be non-negative"),
        (lambda: LabeledGraph.build(2, [], vertex_safe=[True]), "vertex_safe length must equal n"),
        (lambda: LabeledGraph.build(2, [(0, 1), (1, 2)]), "edge 1 endpoint out of range"),
        (lambda: LabeledGraph.build(2, [(0, 1), (1, 1)]), "edge 1 is a self-loop"),
        (lambda: LabeledGraph.build(-2, [], (), eids=()), "vertex count must be non-negative"),
        (lambda: LabeledGraph.build(2, [], (True,), eids=()), "vertex_safe length must equal n"),
        (lambda: LabeledGraph.build(2, [(0, -1)], eids=[7]), "edge 7 endpoint out of range"),
        (lambda: LabeledGraph.build(2, [(1, 1)], eids=[7]), "edge 7 is a self-loop"),
        (lambda: LabeledGraph.build(3, [(0, 1), (1, 2)], eids=[7, 7]), "duplicate edge id 7"),
        (lambda: LabeledGraph.build(3, [(0, 1), (1, 2), (0, 2)], eids=[2, 5, 5]),
         "duplicate edge id 5"),
        (lambda: LabeledGraph.build(3, [(0, 1), (1, 2)], eids=[7, 2]),
         "edge id 2 follows the higher id 7"),
        (lambda: LabeledGraph.build(3, [(0, 1), (1, 2), (0, 2)], eids=[3, 5, 3]),
         "edge id 3 follows the higher id 5"),
        (lambda: LabeledGraph.build(3, [(0, 1), (1, 2)], eids=[-1, 2]),
         "edge id -1 is not a non-negative integer"),
        (lambda: LabeledGraph.build(2, [(0, 1)], eids=[True]),
         "edge id True is not a non-negative integer"),
        (lambda: LabeledGraph.build(2, [(0, 1)], eids=[2.0]),
         "edge id 2.0 is not a non-negative integer"),
        (lambda: LabeledGraph.build(2, [(0, 1)], eids=["3"]),
         "edge id '3' is not a non-negative integer"),
    ])
    def test_entry_points_validate(self, make, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            make()

    def test_parallel_copies_count_toward_degree(self):
        g = LabeledGraph.build(3, [(0, 1), (1, 0), (1, 2)], eids=[2, 5, 7])
        assert [g.degree(v) for v in range(3)] == [2, 3, 1]
        assert g.neighbors(1) == (0, 2)
        assert g.edge_between(0, 1) == g.edge_between(1, 0) == 2
        assert g.edge_between(0, 2) is None
        assert g.edge_between(0, 0) is None


class TestIdOrder:
    """Ids ascend with the columns of every graph that the library parses,
    builds or derives, so no routine sorts them again."""

    @staticmethod
    def _sparse(rng, g):
        """g with ascending ids drawn sparse from 0..3m."""
        ids = sorted(rng.sample(range(3 * g.m + 1), g.m))
        return _graph(g.n, g.vertex_safe, list(zip(ids, g.ends, g.edge_safe)))

    def test_every_graph_ascends(self):
        rng = random.Random(37)
        graphs, pieces = [], 0
        for _ in range(200):
            n, rows = TestAdjacencyView._random_records(rng)
            g = _graph(n, [rng.random() < 0.7 for _ in range(n)], rows)
            b = build(n, [uv for _, uv, _ in rows])
            graphs += [g, b, parse_instance(write_instance(Instance(b, "kfgc", 2)), "kfgc").graph,
                       g.induced(v for v in range(n) if rng.random() < 0.7),
                       contract_edges(g, {e for e in g.eids if rng.random() < 0.4}),
                       double_safe_edges(g), kecss_instance(g, 1).graph,
                       kecss_instance(g, 3).graph]
            h = self._sparse(rng, random_connected(rng, rng.randint(2, 9), 0.5, 0.8))
            for fvc in (h, self._sparse(rng, diamond_necklace(rng.randint(2, 4)))):
                try:
                    found = preprocess(fvc)[0]
                except InfeasibleInstanceError:
                    continue
                pieces += sum(piece is not fvc for piece in found)
                graphs += found
        assert pieces
        assert all(a < b for g in graphs for a, b in zip(g.eids, g.eids[1:]))


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
