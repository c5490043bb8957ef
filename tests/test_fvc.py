import functools
import math
import random
import sys
from fractions import Fraction

import pytest

from flexconn.ears import build_long_ear_decomposition
from flexconn.errors import InfeasibleInstanceError, InputError
from flexconn.exact import exact_solve
from flexconn.feasibility import Instance, check_fvc
from flexconn.fvc import (algorithm1_buy_good_cycles, algorithm2_make_2vc,
                          algorithm3_make_feasible, build_apx1,
                          build_pseudo_edges, partition_k_sets, preprocess,
                          realize_sp, solve_fvc, solve_tree_case)
from flexconn.rainbow import PseudoEdge, solve_rainbow

from conftest import (FIX_A_PAIRS, FIX_A_SAFE, apx2_inputs, build, cut_vertices, diamond_necklace,
                      random_connected, without_edges)


def fvc_opt(g):
    return exact_solve(Instance(graph=g, problem="fvc")).size


class TestPreprocess:
    def test_bowtie_with_safe_centre_splits(self):
        g = build(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
                  vertex_safe=[False, False, True, False, False])
        pieces, forced, _ = preprocess(g)
        assert len(pieces) == 2
        assert {p.n for p in pieces} == {3}
        assert not forced

    def test_unsafe_cut_vertex_is_infeasible(self):
        g = build(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
                  vertex_safe=[True, True, False, True, True])
        with pytest.raises(InfeasibleInstanceError):
            preprocess(g)

    def test_fix_a_unchanged(self, fix_a):
        pieces, forced, _ = preprocess(fix_a)
        assert len(pieces) == 1
        assert pieces[0].n == fix_a.n
        assert not forced

    def _host_with_forbidden_cycle(self, u_unsafe, v_unsafe):
        # single forbidden square 0-4-2-5 (deg(4)=deg(5)=2) in a 2VC host;
        # the chord 13 keeps vertices 1 and 3 at degree three
        pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 4),
                 (0, 5), (2, 5), (1, 3)]
        vs = [not u_unsafe, True, not v_unsafe, True, False, False]
        return build(6, pairs, vertex_safe=vs)

    def test_unsafe_forbidden_cycle_forces_edges(self):
        g = self._host_with_forbidden_cycle(True, True)
        pieces, forced, _ = preprocess(g)
        assert forced == {4, 5}  # edges 04 and 24
        assert sum(p.n for p in pieces) == g.n - 1  # vertex 4 dropped
        # soundness: OPT(G) = OPT(G minus the degree-2 vertex) + 2
        opt_g = fvc_opt(g)
        opt_without = fvc_opt(g.induced({0, 1, 2, 3, 5}))
        assert opt_g == opt_without + 2
        apx = solve_fvc(g)
        assert check_fvc(g, apx.edge_ids)
        assert 7 * apx.size <= 11 * opt_g

    def test_safe_forbidden_cycle_drops_an_edge(self):
        g = self._host_with_forbidden_cycle(True, False)  # vertex 2 safe
        pieces, forced, events = preprocess(g)
        assert not forced
        dropped = [ev for ev in events if ev[0] == "forbidden_safe"]
        assert dropped
        # soundness via the oracle: dropping that edge preserves the optimum
        eid = dropped[0][1]
        g2 = without_edges(g, {eid})
        assert fvc_opt(g2) == fvc_opt(g)

    def test_reduction_soundness_on_random_hosts(self):
        rng = random.Random(41)
        done = 0
        while done < 10:
            g = random_connected(rng, rng.randint(5, 8), 0.4,
                                 vertex_safe_prob=0.35)
            if not check_fvc(g, set(g.eids)):
                continue
            sol = solve_fvc(g)
            assert check_fvc(g, sol.edge_ids)
            assert 7 * sol.size <= 11 * fvc_opt(g)
            done += 1

    def test_planted_forbidden_cycles_keep_the_optimum(self):
        # plant a forbidden square u-w-v-z onto random 2VC hosts and verify
        # the two reduction identities with the oracle
        rng = random.Random(43)
        done = 0
        while done < 12:
            base = random_connected(rng, rng.randint(4, 6), 0.6,
                                    vertex_safe_prob=0.5)
            if cut_vertices(base):
                continue
            u, v = rng.sample(range(base.n), 2)
            w, z = base.n, base.n + 1
            pairs = list(base.ends)
            pairs += [(u, w), (w, v), (v, z), (z, u)]
            vs = list(base.vertex_safe) + [False, False]
            g = build(base.n + 2, pairs, vertex_safe=vs)
            if not check_fvc(g, set(g.eids)):
                continue
            if g.degree(w) != 2 or g.degree(z) != 2:
                continue
            opt_g = fvc_opt(g)
            if not g.vertex_safe[u] and not g.vertex_safe[v]:
                # unsafe case: the square costs exactly two forced edges
                rest = fvc_opt(g.induced(set(range(g.n)) - {w}))
                assert opt_g == rest + 2
            else:
                # safe case: some optimum avoids one chosen square edge
                _, _, events = preprocess(g)
                dropped = [ev[1] for ev in events if ev[0] == "forbidden_safe"]
                if dropped:
                    assert fvc_opt(without_edges(g, {dropped[0]})) == opt_g
            sol = solve_fvc(g)
            assert check_fvc(g, sol.edge_ids)
            assert 7 * sol.size <= 11 * opt_g
            done += 1


class TestTreeCase:
    def test_safe_star(self):
        g = build(5, [(0, i) for i in range(1, 5)],
                  vertex_safe=[True, False, False, False, False])
        tree = solve_tree_case(g)
        assert tree is not None and len(tree) == 4

    def test_c4_all_unsafe(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)], vertex_safe=[False] * 4)
        assert solve_tree_case(g) is None

    def test_fix_b_has_no_tree(self, fix_b):
        assert solve_tree_case(fix_b) is None

    def test_two_vertices(self):
        g = build(2, [(0, 1)], vertex_safe=[False, False])
        assert solve_tree_case(g) == frozenset({0})

    def test_disconnected_has_no_tree(self):
        """No reach test runs: for n >= 3 the safe spanning tree and the
        anchors prove connectivity, and n = 2 needs an edge."""
        assert solve_tree_case(build(2, [])) is None
        assert solve_tree_case(build(2, [], vertex_safe=[True, False])) is None
        assert solve_tree_case(build(4, [(0, 1), (2, 3)])) is None
        assert solve_tree_case(build(5, [(0, 1), (1, 2), (3, 4)],
                                     vertex_safe=[True, False, True, True, False])) is None
        assert solve_tree_case(build(3, [(0, 1)], vertex_safe=[True, True, True])) is None


class TestKPartition:
    def test_fix_a(self, fix_a):
        dec = build_long_ear_decomposition(fix_a)
        kp = partition_k_sets(fix_a, dec)
        assert kp.vd == frozenset({0, 1, 2, 3})
        assert kp.k12 == frozenset({4, 5})
        assert not kp.k11 and not kp.k22 and not kp.k23

    def test_fix_a_with_safe_zero(self):
        g = build(6, FIX_A_PAIRS, vertex_safe=[True] + FIX_A_SAFE[1:])
        dec = build_long_ear_decomposition(g)
        kp = partition_k_sets(g, dec)
        assert kp.k11 == frozenset({4})
        assert kp.k12 == frozenset({5})

    def test_k4_everything_in_vd(self, k4):
        dec = build_long_ear_decomposition(k4)
        kp = partition_k_sets(k4, dec)
        assert kp.vd == frozenset(range(4))
        assert not (kp.k11 | kp.k12 | kp.k22 | kp.k23)

    def test_partition_covers_everything(self):
        rng = random.Random(55)
        done = 0
        while done < 15:
            g = random_connected(rng, rng.randint(5, 10), 0.45,
                                 vertex_safe_prob=0.3)
            if not check_fvc(g, set(g.eids)):
                continue
            pieces, _, _ = preprocess(g)
            for piece in pieces:
                if piece.n < 5 or solve_tree_case(piece) is not None:
                    continue
                dec = build_long_ear_decomposition(piece)
                kp = partition_k_sets(piece, dec)
                union = set(kp.vd) | set(kp.k11) | set(kp.k12) | set(kp.k22) | set(kp.k23)
                assert union == set(range(piece.n))
                done += 1


class TestApx1:
    def test_k4_is_just_the_cycle(self, k4):
        dec = build_long_ear_decomposition(k4)
        kp = partition_k_sets(k4, dec)
        assert len(build_apx1(k4, dec, kp)) == 4

    def test_fix_a_size_eight(self, fix_a):
        dec = build_long_ear_decomposition(fix_a)
        kp = partition_k_sets(fix_a, dec)
        apx1 = build_apx1(fix_a, dec, kp)
        assert len(apx1) == 8
        assert check_fvc(fix_a, apx1)

    def test_fix_b_size_ten(self, fix_b):
        dec = build_long_ear_decomposition(fix_b)
        kp = partition_k_sets(fix_b, dec)
        assert len(build_apx1(fix_b, dec, kp)) == 10


class TestApx2Machinery:
    def _pipeline(self, g):
        dec = build_long_ear_decomposition(g)
        kp = partition_k_sets(g, dec)
        pe = build_pseudo_edges(g, kp)
        rainbow = solve_rainbow(pe, sorted(kp.vd))
        return dec, kp, pe, rainbow

    def test_fix_b_pseudo_colours(self, fix_b):
        dec, kp, pe, rainbow = self._pipeline(fix_b)
        got = {(p.a, p.b, p.colour) for p in pe}
        assert got == {(0, 2, ("v", 4)), (1, 3, ("v", 5)), (0, 1, ("v", 6))}
        assert rainbow.alpha == 1 and rainbow.alpha_large == 1
        assert not rainbow.singletons

    def test_rainbow_rejects_a_repeated_vertex(self):
        """A repeated vertex of V(D) would count as a second component."""
        pe = (PseudoEdge(0, 1, ("v", 5)),)
        sol = solve_rainbow(pe, [0, 1, 2])
        assert (sol.alpha, sol.alpha_large) == (2, 1)
        with pytest.raises(InputError, match="repeated decomposition vertex"):
            solve_rainbow(pe, [0, 0, 1, 2])

    def test_fix_b_algorithms(self, fix_b):
        dec, kp, pe, rainbow = self._pipeline(fix_b)
        x1, s1, a = algorithm1_buy_good_cycles(fix_b, kp.vd, rainbow)
        assert not x1 and not s1 and a == frozenset({0, 1, 2, 3})
        x2, s2 = algorithm2_make_2vc(fix_b, kp.vd, rainbow, s1, a)
        assert not x2
        assert s2 == frozenset({1, 2})  # edges 12 and 23 by ascending id
        x3, s3, a1p, a2p = algorithm3_make_feasible(fix_b, kp.vd, a, x2)
        assert not x3 and not s3 and a1p == 0 and a2p == 0
        sp = realize_sp(fix_b, kp, rainbow)
        assert sp == frozenset({4, 5, 6, 7, 8, 9})
        apx2 = sp | s1 | s2 | s3
        assert len(apx2) == 8
        assert check_fvc(fix_b, apx2)

    def test_algorithm1_leaves_an_independent_remainder(self):
        """Algorithm 1 stops when no good cycle exists, which with one
        large part A left means no two vertices of V(D) - A are adjacent, so
        it does not scan the remainder; this test does, on the apx2 pieces
        of a seeded fvc-scale corpus.  Checked mutant: `GoodCycleSearch.find`
        returning None whenever one large part is left stops the buying
        early, and this test fails."""
        bare = 0
        for g, kp, pe in apx2_inputs():
            _, _, a = algorithm1_buy_good_cycles(g, kp.vd, solve_rainbow(pe, sorted(kp.vd)))
            rest = kp.vd - a
            assert all(not (g.neighbor_sets[u] & rest) for u in rest), (g.ends, a)
            bare += len(rest) >= 2
        assert bare >= 50, bare


def _apx2(g, kp):
    """The apx2 set from the public stage functions, as `_solve_piece`
    assembles it."""
    rainbow = solve_rainbow(build_pseudo_edges(g, kp), sorted(kp.vd))
    x1, s1, a = algorithm1_buy_good_cycles(g, kp.vd, rainbow)
    x2, s2 = algorithm2_make_2vc(g, kp.vd, rainbow, s1, a)
    _, s3, _, _ = algorithm3_make_feasible(g, kp.vd, a, x2)
    return realize_sp(g, kp, rainbow) | s1 | s2 | s3


@functools.lru_cache(maxsize=None)
def _stage_sets(per_stage=40):
    """(stage, piece, returned set) over seeded preprocessed pieces with
    n >= 5, drawn as `test_criterion_4_ear_invariants` draws them, each piece
    taking the branch `_solve_piece` gives it, until every stage has
    `per_stage` sets.  The vertex safety range reaches down to 0.05 so that
    enough pieces reach apx2 (k12 + k23 > 2)."""
    rng = random.Random(4013)
    out = {"tree": [], "apx1": [], "apx2": []}
    while min(map(len, out.values())) < per_stage:
        n = rng.randint(5, 40)
        p = min(0.6, (math.log(n) + 1.6) / n + 0.08)
        g = random_connected(rng, n, p, vertex_safe_prob=rng.uniform(0.05, 0.9))
        if not check_fvc(g, set(g.eids)):
            continue
        for piece in preprocess(g)[0]:
            if piece.n < 5:
                continue
            tree = solve_tree_case(piece)
            if tree is not None:
                out["tree"].append((piece, tree))
                continue
            dec = build_long_ear_decomposition(piece)
            kp = partition_k_sets(piece, dec)
            out["apx1"].append((piece, build_apx1(piece, dec, kp)))
            if len(kp.k12) + len(kp.k23) > 2:
                out["apx2"].append((piece, _apx2(piece, kp)))
    return out


class TestStageCertificates:
    """`solve_fvc` certifies only its stitched set; the per-stage checker
    calls that `_solve_piece` used to make on every piece are gated here.
    Dropping the lowest-id edge of a stage's output makes each test fail."""

    @pytest.mark.parametrize("stage", ["tree", "apx1", "apx2"])
    def test_stage_output_is_feasible(self, stage):
        for piece, chosen in _stage_sets()[stage]:
            assert check_fvc(piece, chosen), (stage, piece)


class TestSolveFvc:
    def test_fix_a(self, fix_a):
        sol = solve_fvc(fix_a)
        assert sol.size == 8
        assert fvc_opt(fix_a) == 6
        assert 3 * sol.size <= 4 * 6  # 8 <= 4/3 * 6

    def test_fix_b(self, fix_b):
        sol = solve_fvc(fix_b)
        assert sol.size == 8
        piece = sol.meta["pieces"][0]
        assert piece["apx1_size"] == 10 and piece["apx2_size"] == 8
        assert piece["lower_bound"] == 7
        assert fvc_opt(fix_b) == 7

    def test_safe_star_costs_n_minus_one(self):
        # the safe centre is a cut vertex, so preprocessing splits the star
        # into tiny pieces; the optimal size n-1 comes out either way
        g = build(6, [(0, i) for i in range(1, 6)] + [(1, 2)],
                  vertex_safe=[True] + [False] * 5)
        sol = solve_fvc(g)
        assert sol.size == 5
        assert fvc_opt(g) == 5

    def test_tree_branch_on_a_2vc_piece(self):
        g = build(5, [(i, (i + 1) % 5) for i in range(5)])  # all safe C5
        sol = solve_fvc(g)
        assert sol.size == 4
        assert sol.meta["pieces"][0]["branch"] == "tree"

    def test_disconnected_rejected(self):
        g = build(4, [(0, 1), (2, 3)])
        with pytest.raises(InfeasibleInstanceError):
            solve_fvc(g)

    def test_random_instances_feasible_and_within_bound(self):
        rng = random.Random(77)
        done = 0
        while done < 40:
            g = random_connected(rng, rng.randint(4, 9), 0.45,
                                 vertex_safe_prob=0.4)
            if not check_fvc(g, set(g.eids)):
                continue
            sol = solve_fvc(g)
            assert check_fvc(g, sol.edge_ids)
            opt = fvc_opt(g)
            assert 7 * sol.size <= 11 * opt
            assert sol.meta["lower_bound"] <= opt
            done += 1

    def test_lb_guarantee_without_oracle(self):
        rng = random.Random(101)
        done = 0
        while done < 8:
            g = random_connected(rng, rng.randint(15, 24), 0.25,
                                 vertex_safe_prob=0.15)
            if not check_fvc(g, set(g.eids)):
                continue
            sol = solve_fvc(g)
            for piece in sol.meta["pieces"]:
                if piece.get("reached_apx2"):
                    best = min(piece["apx1_size"], piece["apx2_size"])
                    assert Fraction(best) <= Fraction(11, 7) * piece["lower_bound"]
                    done += 1


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestScale:
    """Inputs whose size once exhausted the interpreter's recursion limit."""

    def test_all_unsafe_2000_cycle(self):
        n = 2000
        g = build(n, [(i, (i + 1) % n) for i in range(n)], vertex_safe=[False] * n)
        sol = solve_fvc(g)
        assert sol.edge_ids == frozenset(range(n))
        assert sol.meta["pieces"][0]["vd"] == n

    def test_all_unsafe_600_rung_ladder(self):
        k = 600
        pairs = ([(i, i + 1) for i in range(k - 1)]
                 + [(k + i, k + i + 1) for i in range(k - 1)]
                 + [(i, k + i) for i in range(k)])
        g = build(2 * k, pairs, vertex_safe=[False] * (2 * k))
        sol = solve_fvc(g)
        assert check_fvc(g, sol.edge_ids)
        assert 7 * sol.size <= 11 * sol.meta["lower_bound"]

    def test_diamond_necklace_reduces_without_deep_recursion(self):
        g = diamond_necklace(100)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 60)
        try:
            sol = solve_fvc(g)
        finally:
            sys.setrecursionlimit(limit)
        events = sol.meta["reduction_events"]
        assert len(events) == 100
        assert all(ev[0] == "forbidden_unsafe" for ev in events)
        assert check_fvc(g, sol.edge_ids)
