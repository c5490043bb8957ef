import random

import pytest

from flexconn.errors import InfeasibleInstanceError, InputError
from flexconn.exact import exact_kecss, exact_solve
from flexconn.feasibility import Instance, check_fgc, check_kfgc
from flexconn.graph import contract_edges, is_k_edge_connected
from flexconn.harness import gen_safe_tree_family
from flexconn.kfgc import (KecssSolverHandle, kecss_prune_heuristic,
                           max_safe_forest, solve_kfgc)

from conftest import build, random_connected


def kfgc_opt(g, k):
    return exact_solve(Instance(graph=g, problem="kfgc", k=k)).size


class TestMaxSafeForest:
    def test_all_safe_spanning_tree(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert len(max_safe_forest(g)) == 3

    def test_all_unsafe_empty(self):
        g = build(4, [(0, 1), (1, 2), (2, 3)], edge_safe=[False] * 3)
        assert max_safe_forest(g) == frozenset()

    def test_two_safe_components(self):
        pairs = [(0, 1), (1, 2), (3, 4), (2, 3)]
        g = build(5, pairs, edge_safe=[True, True, True, False])
        assert len(max_safe_forest(g)) == 3  # 2 + 1 safe tree edges


class TestKecssPrune:
    def test_k4_k3_nothing_removable(self, k4):
        g = build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert len(kecss_prune_heuristic(g, 3)) == 6

    def test_doubled_c4_one_copy_per_position(self):
        pairs = [(i, (i + 1) % 4) for i in range(4)] * 2
        g = build(4, pairs)
        kept = kecss_prune_heuristic(g, 2)
        assert len(kept) == 4
        assert kept == frozenset({4, 5, 6, 7})

    def test_bounds_on_random_multigraphs(self):
        rng = random.Random(83)
        done = 0
        while done < 12:
            base = random_connected(rng, rng.randint(3, 6), 0.7)
            # double a random subset of edges to create a multigraph
            pairs = list(base.ends)
            pairs += [uv for uv in base.ends if rng.random() < 0.6]
            g = build(base.n, pairs)
            for k in (2, 3):
                if not is_k_edge_connected(g, k):
                    continue
                kept = kecss_prune_heuristic(g, k)
                assert len(kept) <= g.n * k
                assert 2 * len(kept) >= g.n * k  # min degree k
                opt = exact_kecss(g, k, cap_n=8).size
                assert opt <= len(kept)
                done += 1


@pytest.mark.parametrize("k", [True, 0, 2.5, 3.0, "2"], ids=repr)
def test_kecss_entry_points_refuse_a_k_that_is_not_a_positive_int(k):
    # as check_kfgc does: True is not read as 1, nor 3.0 as 3
    k5 = build(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    for entry in (exact_kecss, kecss_prune_heuristic, is_k_edge_connected,
                  lambda g, k: check_kfgc(g, g.eids, k)):
        with pytest.raises(InputError, match="k must be a positive integer"):
            entry(k5, k)


class TestKecssSolverHandle:
    # n = 5: ascending-id pruning keeps 6 edges, the optimum has 5
    PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]

    def test_exact_at_or_below_the_cap(self):
        g = build(5, self.PAIRS)
        handle = KecssSolverHandle(cap_n=5)
        assert handle.kind(5) == "exact"
        assert handle.solve(g, 2) == frozenset({0, 1, 4, 5, 6})
        assert handle.solve(g, 2) == exact_kecss(g, 2).edge_ids

    def test_prune_heuristic_above_the_cap(self):
        g = build(5, self.PAIRS)
        handle = KecssSolverHandle(cap_n=4)
        assert handle.kind(5) == "prune_heuristic"
        assert handle.kind(4) == "exact"
        assert handle.solve(g, 2) == frozenset({1, 2, 3, 4, 5, 6})
        assert handle.solve(g, 2) == kecss_prune_heuristic(g, 2)


class TestSolveKfgc:
    def test_safe_tree_family(self):
        for n, k in ((5, 3), (6, 1), (7, 4)):
            inst = gen_safe_tree_family(n, k)
            sol = solve_kfgc(inst.graph, k)
            assert sol.size == n - 1
            assert sol.meta["forest_size"] == n - 1
            assert sol.meta["core_size"] == 0
            if n <= 8:
                assert kfgc_opt(inst.graph, k) == n - 1

    def test_c4_all_unsafe_k1(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)], edge_safe=[False] * 4)
        sol = solve_kfgc(g, 1)
        assert sol.size == 4
        assert kfgc_opt(g, 1) == 4

    def test_infeasible(self):
        g = build(3, [(0, 1), (1, 2)], edge_safe=[False, False])
        with pytest.raises(InfeasibleInstanceError):
            solve_kfgc(g, 1)

    @pytest.mark.parametrize("k", [True, 2.5, 1.5, "2", 0])
    def test_k_must_be_a_positive_int(self, k):
        g = build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                  edge_safe=[False] * 6)
        with pytest.raises(InputError, match="k must be a positive integer"):
            solve_kfgc(g, k)
        with pytest.raises(InputError, match="k must be a positive integer"):
            check_kfgc(g, set(g.eids), k)

    def test_random_vs_oracle(self):
        rng = random.Random(91)
        done = 0
        while done < 15:
            g = random_connected(rng, rng.randint(3, 7), 0.75, edge_safe_prob=0.6)
            for k in (1, 2):
                if not check_kfgc(g, set(g.eids), k):
                    continue
                sol = solve_kfgc(g, k)
                assert check_kfgc(g, sol.edge_ids, k)
                opt = kfgc_opt(g, k)
                ell = sol.meta["forest_size"]
                assert sol.size <= 2 * opt - ell
                if k == 1:
                    assert check_fgc(g, sol.edge_ids)
                done += 1

    def test_output_contraction_is_k_plus_1_connected(self):
        rng = random.Random(97)
        done = 0
        while done < 10:
            g = random_connected(rng, rng.randint(3, 6), 0.8, edge_safe_prob=0.5)
            if not check_kfgc(g, set(g.eids), 2):
                continue
            sol = solve_kfgc(g, 2)
            safe_in = {e for e in sol.edge_ids if e not in g.unsafe_edge_set}
            sub = build(g.n, [g.edge_ends[e] for e in sorted(sol.edge_ids)],
                        edge_safe=[e not in g.unsafe_edge_set for e in sorted(sol.edge_ids)])
            res = contract_edges(sub, {i for i, e in enumerate(sorted(sol.edge_ids))
                                       if e not in g.unsafe_edge_set})
            assert is_k_edge_connected(res, 3)
            done += 1


class TestFlawedInequalityRegression:
    def test_old_bound_fails_for_large_k(self):
        for n in range(5, 13):
            for k in (3, 4, 5):
                inst = gen_safe_tree_family(n, k)
                opt = n - 1          # the safe star is optimal
                ell = len(max_safe_forest(inst.graph))
                assert ell == n - 1
                old_rhs = ell + (k + 1) * (inst.graph.n - ell)
                assert 2 * opt - k * ell < old_rhs  # the claimed chain breaks
                assert 2 * opt - ell >= ell         # the corrected one holds

    def test_small_k_not_a_counterexample(self):
        inst = gen_safe_tree_family(6, 1)
        ell = len(max_safe_forest(inst.graph))
        assert 2 * (6 - 1) - 1 * ell >= ell
