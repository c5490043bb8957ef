import itertools
import random

import pytest

from flexconn.errors import InputError
from flexconn.feasibility import (Instance, check_fgc, check_fvc, check_kfgc,
                                  prune_minimal)
from flexconn.graph import LabeledGraph, is_connected

from conftest import build, random_connected


class TestCheckFgc:
    def test_c4_all_unsafe(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)], edge_safe=[False] * 4)
        assert check_fgc(g, {0, 1, 2, 3})
        for drop in range(4):
            assert not check_fgc(g, {0, 1, 2, 3} - {drop})

    def test_unsafe_bridge_rejected(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                  edge_safe=[True, False, False, False])
        assert not check_fgc(g, {0, 1, 2})  # edge 12 is an unsafe bridge

    def test_safe_tree_accepted(self):
        g = build(3, [(0, 1), (1, 2)], edge_safe=[True, True])
        assert check_fgc(g, {0, 1})


class TestCheckFvc:
    def test_c4_cycle(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)], vertex_safe=[False] * 4)
        assert check_fvc(g, {0, 1, 2, 3})
        assert not check_fvc(g, {0, 1, 2})  # spanning path: unsafe cut vertices

    def test_safe_middle_path(self):
        g = build(3, [(0, 1), (1, 2)], vertex_safe=[False, True, False])
        assert check_fvc(g, {0, 1})


class TestCheckKfgc:
    def test_k4_all_unsafe_k2(self, k4):
        g = build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                  edge_safe=[False] * 6)
        assert check_kfgc(g, set(range(6)), 2)

    def test_c4_inside_k4_k2(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)],
                  edge_safe=[False] * 6)
        assert not check_kfgc(g, {0, 1, 2, 3}, 2)

    def test_safe_star_contracts_away(self):
        g = build(4, [(0, 1), (0, 2), (0, 3), (1, 2)],
                  edge_safe=[True, True, True, False])
        for k in (1, 2, 5):
            assert check_kfgc(g, {0, 1, 2}, k)

    def test_fast_path_equals_literal(self):
        # the checker decides the contraction form only; compare it with
        # the literal form (remove every k-subset of the unsafe edges)
        rng = random.Random(5)
        for _ in range(40):
            g = random_connected(rng, rng.randint(2, 7), 0.6, edge_safe_prob=0.5)
            chosen = {e for e in g.eids if rng.random() < 0.8}
            for k in (1, 2):
                got = check_kfgc(g, chosen, k)
                assert got == _literal_kfgc(g, chosen, k)

    def test_matches_fgc_for_k1(self):
        rng = random.Random(6)
        for _ in range(40):
            g = random_connected(rng, rng.randint(2, 8), 0.5, edge_safe_prob=0.5)
            chosen = {e for e in g.eids if rng.random() < 0.8}
            assert check_kfgc(g, chosen, 1) == check_fgc(g, chosen)


def _literal_kfgc(g, chosen, k):
    triples = [(e, *g.edge_ends[e]) for e in chosen]
    if not is_connected(range(g.n), triples):
        return False
    unsafe = sorted(e for e in chosen if e in g.unsafe_edge_set)
    for removed in itertools.combinations(unsafe, min(k, len(unsafe))):
        keep = chosen - set(removed)
        kept = [(e, *g.edge_ends[e]) for e in keep]
        if not is_connected(range(g.n), kept):
            return False
    return True


def _random_multigraph(rng, n, m):
    """m edges with endpoints drawn with replacement, so parallel edges and
    disconnected graphs both occur; about half the edges are safe."""
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(m)] if n >= 2 else []
    return build(n, pairs, edge_safe=[rng.random() < 0.5 for _ in pairs])


class TestKfgcLiteralForm:
    """`check_kfgc` decides the contraction form only.  These compare it with
    the literal definition, `_literal_kfgc`, for k = 1, 2: on every edge
    subset of graphs with m <= 10, and on sampled subsets with up to 12
    unsafe edges of larger graphs."""

    def test_every_subset_of_small_graphs(self):
        rng = random.Random(4242)
        subsets = 0
        for i in range(150):
            n = i % 7
            g = _random_multigraph(rng, n, rng.randint(0, 10) if n >= 2 else 0)
            eids = sorted(g.eids)
            assert len(eids) <= 10
            for r in range(len(eids) + 1):
                for combo in itertools.combinations(eids, r):
                    chosen = set(combo)
                    subsets += 1
                    for k in (1, 2):
                        assert check_kfgc(g, chosen, k) == _literal_kfgc(g, chosen, k), \
                            (g, chosen, k)
        assert subsets > 15000

    def test_sampled_subsets_of_larger_graphs(self):
        rng = random.Random(4343)
        sampled = 0
        for _ in range(40):
            n = rng.randint(6, 10)
            base = random_connected(rng, n, rng.uniform(0.3, 0.7),
                                    edge_safe_prob=rng.uniform(0.2, 0.7))
            extra = [tuple(sorted(uv)) for uv in base.ends if rng.random() < 0.2]
            pairs = list(base.ends) + extra
            g = build(n, pairs, edge_safe=list(base.edge_safe)
                      + [rng.random() < 0.5 for _ in extra])
            for _ in range(25):
                chosen = {e for e in g.eids if rng.random() < 0.85}
                unsafe = sorted(e for e in chosen if e in g.unsafe_edge_set)
                chosen -= set(rng.sample(unsafe, max(0, len(unsafe) - 12)))
                sampled += 1
                for k in (1, 2):
                    assert check_kfgc(g, chosen, k) == _literal_kfgc(g, chosen, k), \
                        (g, chosen, k)
        assert sampled == 1000


class TestPruneMinimal:
    def test_fgc_c4_all_safe(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        pruned = prune_minimal(g, {0, 1, 2, 3}, check_fgc)
        assert len(pruned) == 3

    def test_fvc_c4_nothing_removable(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)], vertex_safe=[False] * 4)
        pruned = prune_minimal(g, {0, 1, 2, 3}, check_fvc)
        assert pruned == frozenset({0, 1, 2, 3})

    def test_idempotent_and_minimal(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_connected(rng, rng.randint(3, 8), 0.5,
                                 vertex_safe_prob=0.5, edge_safe_prob=0.5)
            if not check_fgc(g, set(g.eids)):
                continue
            pruned = prune_minimal(g, set(g.eids), check_fgc)
            assert prune_minimal(g, pruned, check_fgc) == pruned
            for eid in pruned:
                assert not check_fgc(g, set(pruned) - {eid})

    def test_infeasible_start_rejected(self):
        g = build(3, [(0, 1), (1, 2)], edge_safe=[False, False])
        with pytest.raises(InputError):
            prune_minimal(g, {0}, check_fgc)


class TestInstance:
    def test_fvc_rejects_parallel(self):
        g = LabeledGraph.build(2, [(0, 1), (0, 1)])
        with pytest.raises(InputError):
            Instance(graph=g, problem="fvc")

    def test_unknown_problem(self, c4):
        with pytest.raises(InputError):
            Instance(graph=c4, problem="steiner")

    @pytest.mark.parametrize("k", [0, -1, True, 2.0, 2.5, "2", None])
    def test_k_must_be_a_positive_int(self, c4, k):
        with pytest.raises(InputError, match="k must be a positive integer"):
            Instance(graph=c4, problem="kfgc", k=k)


    @pytest.mark.parametrize("problem", ["fgc", "fvc"])
    def test_k_is_one_outside_kfgc(self, c4, problem):
        assert Instance(graph=c4, problem=problem, k=1).k == 1
        for k in (2, 3):
            with pytest.raises(InputError, match=f"takes k = 1 \\(got {k}\\)"):
                Instance(graph=c4, problem=problem, k=k)
        assert Instance(graph=c4, problem="kfgc", k=2).k == 2


class TestEdgeIdTypes:
    """Edge ids must be ints.  True and 2.0 equal the ids 1 and 2, so a set
    of them would silently stand for those edges."""
    TRIANGLE = [(0, 1), (1, 2), (2, 0)]
    BAD = [[0, True, 2.0], [0.0, True, 2], [1, True], {0, 1, 2.0}, (0, 1, "2")]

    @pytest.mark.parametrize("eids", BAD)
    def test_check_fvc(self, eids):
        g = build(3, self.TRIANGLE)
        with pytest.raises(InputError, match="edge ids must be integers"):
            check_fvc(g, eids)

    @pytest.mark.parametrize("eids", BAD)
    def test_check_fgc(self, eids):
        g = build(3, self.TRIANGLE)
        with pytest.raises(InputError, match="edge ids must be integers"):
            check_fgc(g, eids)

    @pytest.mark.parametrize("eids", BAD)
    def test_check_kfgc(self, eids):
        g = build(3, self.TRIANGLE)
        with pytest.raises(InputError, match="edge ids must be integers"):
            check_kfgc(g, eids, 1)

    @pytest.mark.parametrize("eids", BAD)
    def test_prune_minimal(self, eids):
        g = build(3, self.TRIANGLE)
        with pytest.raises(InputError, match="edge ids must be integers"):
            prune_minimal(g, eids, check_fgc)

    def test_int_ids_accepted_in_any_iterable(self):
        g = build(3, self.TRIANGLE)
        for eids in ([0, 1, 2], (0, 1, 2), {0, 1, 2}, frozenset({0, 1, 2}), iter([0, 1, 2])):
            assert check_fvc(g, eids)
        assert check_fgc(g, [0, 1, 1])   # a safe spanning path; a repeated id is one edge
        assert check_kfgc(g, range(3), 1)
