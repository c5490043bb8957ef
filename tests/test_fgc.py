import random

import pytest

from flexconn.errors import InfeasibleInstanceError, InputError
from flexconn.exact import exact_kecss, exact_solve
from flexconn.feasibility import Instance, check_fgc
from flexconn.fgc import (F1SolverHandle, alg2_double_and_solve,
                          double_safe_edges, solve_fgc)
from flexconn.graph import is_k_edge_connected
from flexconn.kfgc import KecssSolverHandle, kecss_prune_heuristic

from conftest import build, random_connected, solve_2ecss_blockwise

EXACT = KecssSolverHandle(cap_n=12)


def fgc_opt(g):
    return exact_solve(Instance(graph=g, problem="fgc")).edge_ids


class TestDoubling:
    def test_doubles_only_safe_edges(self):
        g = build(3, [(0, 1), (1, 2), (0, 2)], edge_safe=[True, False, True])
        doubled = double_safe_edges(g)
        assert doubled.m == 5
        assert sorted(doubled.eids) == [0, 1, 2, 3, 5]

    def test_c4_all_unsafe(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)], edge_safe=[False] * 4)
        sol = alg2_double_and_solve(g, EXACT)
        assert sol.size == 4

    def test_c4_one_safe_edge(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                  edge_safe=[True, False, False, False])
        sol = alg2_double_and_solve(g, EXACT)
        assert sol.size == 4
        assert len(fgc_opt(g)) == 4

    def test_safe_path_collapses_duplicates(self):
        g = build(3, [(0, 1), (1, 2)], edge_safe=[True, True])
        sol = alg2_double_and_solve(g, EXACT)
        assert sol.edge_ids == frozenset({0, 1})

    def test_meta_keys_on_tiny_graphs(self):
        # at most one vertex: the same meta keys as every other call
        for n in (0, 1):
            sol = alg2_double_and_solve(build(n, []), EXACT)
            assert sol.edge_ids == frozenset()
            assert sol.meta["doubled_size"] == 0
            assert sol.meta["solver_kind"] == "exact"
        sol = alg2_double_and_solve(build(2, [(0, 1)]), EXACT)
        assert (sol.meta["doubled_size"], sol.meta["solver_kind"]) == (2, "exact")

    def test_unsafe_bridge_infeasible(self):
        g = build(3, [(0, 1), (1, 2)], edge_safe=[True, False])
        with pytest.raises(InfeasibleInstanceError):
            alg2_double_and_solve(g, EXACT)


class TestPruneHeuristic:
    def test_k4_hamiltonian(self, k4):
        kept = kecss_prune_heuristic(k4, 2)
        assert len(kept) == 4
        assert sorted(kept) == [1, 2, 3, 4]  # 02, 03, 12, 13

    def test_c5_nothing_removable(self):
        g = build(5, [(i, (i + 1) % 5) for i in range(5)])
        assert len(kecss_prune_heuristic(g, 2)) == 5

    def test_within_twice_optimum(self):
        rng = random.Random(61)
        done = 0
        while done < 15:
            g = random_connected(rng, rng.randint(3, 8), 0.55)
            if not is_k_edge_connected(g, 2):
                continue
            heur = len(kecss_prune_heuristic(g, 2))
            opt = exact_kecss(g, 2).size
            assert heur <= 2 * opt
            assert heur <= 2 * g.n - 2
            done += 1

    def test_rejects_bridges(self):
        g = build(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            kecss_prune_heuristic(g, 2)


class TestBlockwise:
    def test_bowtie_union_of_triangles(self, bowtie):
        sol = solve_2ecss_blockwise(bowtie, EXACT)
        assert sol.size == 6

    def test_single_block_matches_direct(self, k4):
        assert solve_2ecss_blockwise(k4, EXACT).size == exact_kecss(k4, 2).size

    def test_bridge_block_rejected(self):
        g = build(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        with pytest.raises(InputError):
            solve_2ecss_blockwise(g, EXACT)

    def test_block_chains_match_whole_graph(self):
        rng = random.Random(67)
        done = 0
        while done < 10:
            # chain two random 2EC blobs at a shared vertex
            g1 = random_connected(rng, rng.randint(3, 5), 0.7)
            g2 = random_connected(rng, rng.randint(3, 5), 0.7)
            if not (is_k_edge_connected(g1, 2) and is_k_edge_connected(g2, 2)):
                continue
            offset = g1.n - 1  # glue vertex: last of g1 = vertex 0 of g2
            pairs = list(g1.ends)
            pairs += [(u + offset, v + offset) for u, v in g2.ends]
            g = build(g1.n + g2.n - 1, pairs)
            blockwise = solve_2ecss_blockwise(g, EXACT).size
            direct = exact_kecss(g, 2, cap_n=12).size
            assert blockwise == direct
            done += 1


class TestSolveFgc:
    def test_c4_all_safe(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        sol = solve_fgc(g)
        assert sol.size == 3

    def test_c4_one_safe_edge(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                  edge_safe=[True, False, False, False])
        sol = solve_fgc(g)
        assert sol.size == 4

    def test_external_f1_is_validated(self, c4):
        bad = F1SolverHandle(fn=lambda g: {0})
        with pytest.raises(Exception):
            solve_fgc(c4, f1=bad)

    def test_external_f1_is_called(self, c4):
        seen = []

        def f1(g):
            seen.append(g)
            return set(g.eids)

        sol = solve_fgc(c4, f1=F1SolverHandle(fn=f1))
        assert seen == [c4]
        assert sol.meta["f1_kind"] == "external"
        assert sol.meta["f1_size"] == 4
        assert solve_fgc(c4).meta["f1_kind"] == "fallback_prune"

    def test_random_instances_vs_oracle(self):
        rng = random.Random(71)
        done = 0
        while done < 25:
            g = random_connected(rng, rng.randint(3, 8), 0.5, edge_safe_prob=0.5)
            if not check_fgc(g, set(g.eids)):
                continue
            sol = solve_fgc(g, solver=EXACT)
            assert check_fgc(g, sol.edge_ids)
            opt = fgc_opt(g)
            opt_s = sum(1 for e in opt if e not in g.unsafe_edge_set)
            opt_u = len(opt) - opt_s
            assert sol.meta["f2_size"] <= 2 * opt_s + opt_u
            assert sol.size <= 2 * len(opt)
            done += 1
