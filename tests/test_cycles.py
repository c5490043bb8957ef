import random

from flexconn.cycles import GoodCycleSearch, find_good_cycle, is_good_cycle
from flexconn.fvc import algorithm1_buy_good_cycles
from flexconn.graph import LabeledGraph, is_connected
from flexconn.rainbow import solve_rainbow

from conftest import apx2_inputs, build, connected_components, cut_vertices, random_connected


def triples_of(g, eids):
    return [(eid, *g.edge_ends[eid]) for eid in sorted(eids)]


class TestChecker:
    def test_two_edge_cycle_between_large_parts(self):
        g = build(4, [(0, 2), (1, 3), (0, 1), (2, 3)])
        parts = [frozenset({0, 1}), frozenset({2, 3})]
        assert is_good_cycle(parts, triples_of(g, {0, 1}))

    def test_two_edge_cycle_with_singleton_rejected(self):
        g = build(3, [(0, 2), (1, 2), (0, 1)])
        parts = [frozenset({0, 1}), frozenset({2})]
        assert not is_good_cycle(parts, triples_of(g, {0, 1}))

    def test_shared_attachment_rejected(self):
        g = build(4, [(0, 2), (0, 3), (2, 3)])
        parts = [frozenset({0, 1}), frozenset({2}), frozenset({3})]
        # both part-0 edges attach at vertex 0
        assert not is_good_cycle(parts, triples_of(g, {0, 1, 2}))

    def test_three_edge_cycle_through_singletons(self):
        g = build(4, [(0, 2), (1, 3), (2, 3)])
        parts = [frozenset({0, 1}), frozenset({2}), frozenset({3})]
        assert is_good_cycle(parts, triples_of(g, {0, 1, 2}))


class TestFindGoodCycle:
    def test_two_large_parts(self):
        g = build(4, [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3)])
        parts = [frozenset({0, 1}), frozenset({2, 3})]
        cyc = find_good_cycle(g, {0, 1, 2, 3}, parts)
        assert cyc is not None
        assert is_good_cycle(parts, triples_of(g, cyc))

    def test_large_plus_adjacent_singletons(self):
        # large part {0,1}; singletons 2 and 3 adjacent to each other and the part
        g = build(4, [(0, 1), (0, 2), (2, 3), (3, 1)])
        parts = [frozenset({0, 1}), frozenset({2}), frozenset({3})]
        cyc = find_good_cycle(g, {0, 1, 2, 3}, parts)
        assert cyc is not None
        assert is_good_cycle(parts, triples_of(g, cyc))

    def test_large_part_met_at_two_grabbed_singletons(self):
        # the large part {0,1,2} grabs singletons 3 and 4, and the nice
        # cycle leaves it at 3 and comes back at 4 through {5,6} (edges 3-5
        # and 6-4); the good cycle hangs 3 and 4 on two vertices of the
        # part: 3-0, then 4-1, or 4-2 when 4 also sees 0
        parts = [frozenset({0, 1, 2}), frozenset({3}), frozenset({4}), frozenset({5, 6})]
        for w, hit in ((1, {3, 5, 8, 9}), (0, {3, 6, 8, 9})):
            g = LabeledGraph.build(7, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (4, w), (4, 2),
                                       (5, 6), (3, 5), (6, 4)])
            cyc = find_good_cycle(g, set(range(7)), parts)
            assert cyc == hit
            assert is_good_cycle(parts, triples_of(g, cyc))

    def test_none_when_single_large_and_independent_singletons(self):
        g = build(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        parts = [frozenset({0, 1}), frozenset({2}), frozenset({3})]
        assert find_good_cycle(g, {0, 1, 2, 3}, parts) is None

    def test_none_without_large_part(self):
        g = build(3, [(0, 1), (1, 2), (0, 2)])
        parts = [frozenset({0}), frozenset({1}), frozenset({2})]
        assert find_good_cycle(g, {0, 1, 2}, parts) is None

    def test_random_2vc_partitions_validate(self):
        rng = random.Random(4)
        produced = 0
        while produced < 40:
            g = random_connected(rng, rng.randint(4, 10), 0.55)
            triples = [(e, u, v) for e, (u, v) in zip(g.eids, g.ends)]
            if not is_connected(range(g.n), triples) or g.n < 3 or cut_vertices(g):
                continue
            # random partition with connected parts: grow parts from seeds
            seeds = rng.sample(range(g.n), rng.randint(2, max(2, g.n // 2)))
            owner = {s: i for i, s in enumerate(seeds)}
            frontier = list(seeds)
            while len(owner) < g.n:
                v = rng.choice(frontier)
                nxt = [w for w in g.neighbors(v) if w not in owner]
                if not nxt:
                    frontier.remove(v)
                    if not frontier:
                        frontier = [w for w in owner]
                    continue
                w = rng.choice(nxt)
                owner[w] = owner[v]
                frontier.append(w)
            parts = {}
            for v, i in owner.items():
                parts.setdefault(i, set()).add(v)
            part_list = [frozenset(p) for p in parts.values()]
            cyc = find_good_cycle(g, set(range(g.n)), part_list)
            larges = [p for p in part_list if len(p) >= 2]
            if cyc is None:
                # absence is only allowed in the documented cases
                singles = [min(p) for p in part_list if len(p) == 1]
                assert (not larges) or (
                    len(larges) == 1
                    and not any(b in g.neighbor_sets[a]
                                for i, a in enumerate(singles)
                                for b in singles[i + 1:]))
                continue
            assert is_good_cycle(part_list, triples_of(g, cyc))
            # Algorithm 1 hands the parts over in union-find order, as sets
            shuffled = [set(p) for p in part_list]
            random.Random(produced).shuffle(shuffled)
            assert find_good_cycle(g, set(range(g.n)), shuffled) == cyc
            produced += 1


def test_algorithm1_buys_good_cycles_on_pipeline_pieces(monkeypatch):
    """`GoodCycleSearch.find` does not re-validate the cycles it builds;
    this test holds every cycle Algorithm 1 buys on the apx2 pieces of a
    seeded fvc-scale corpus to `is_good_cycle`, against the parts it was
    found on.  Checked mutant: `_exit_choices` also yielding `entry` for a
    multi-vertex part lets a cycle enter and leave a large part at one
    vertex, and this test fails."""
    real_find = GoodCycleSearch.find
    bought = []

    def checked_find(self):
        parts = list(self.parts.values())
        cyc = real_find(self)
        if cyc is not None:
            assert is_good_cycle(parts, triples_of(self.g, cyc)), (self.g.ends, parts, cyc)
            bought.append(cyc)
        return cyc

    monkeypatch.setattr(GoodCycleSearch, "find", checked_find)
    for g, kp, pe in apx2_inputs():
        algorithm1_buy_good_cycles(g, kp.vd, solve_rainbow(pe, sorted(kp.vd)))
    assert len(bought) >= 4 * len(apx2_inputs()), len(bought)
