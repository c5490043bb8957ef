import random
from fractions import Fraction

import pytest

from flexconn.errors import InfeasibleInstanceError, InputError
from flexconn.exact import exact_kecss, exact_solve
from flexconn.feasibility import Instance, check_fvc, predicates_for
from flexconn.graph import is_k_edge_connected

from conftest import FIX_A_PAIRS, FIX_A_SAFE, build, random_connected


class TestExactSolve:
    def test_fvc_c4_all_safe(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        sol = exact_solve(Instance(graph=g, problem="fvc"))
        assert sol.size == 3

    def test_fvc_c4_all_unsafe(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)], vertex_safe=[False] * 4)
        sol = exact_solve(Instance(graph=g, problem="fvc"))
        assert sol.size == 4

    def test_fix_b_opt_is_seven(self, fix_b):
        sol = exact_solve(Instance(graph=fix_b, problem="fvc"))
        assert sol.size == 7

    def test_cap_refusal(self):
        g = build(12, [(i, (i + 1) % 12) for i in range(12)])
        with pytest.raises(InputError):
            exact_solve(Instance(graph=g, problem="fgc"), cap_n=10)

    def test_infeasible(self):
        g = build(3, [(0, 1), (1, 2)], vertex_safe=[True, False, True])
        with pytest.raises(InfeasibleInstanceError):
            exact_solve(Instance(graph=g, problem="fvc"))

    def test_lexicographic_tie_break(self):
        # triangle, FGC all safe: all three 2-subsets are trees; {0,1} is smallest
        g = build(3, [(0, 1), (1, 2), (0, 2)])
        sol = exact_solve(Instance(graph=g, problem="fgc"))
        assert sorted(sol.edge_ids) == [0, 1]

    def test_output_is_minimal_and_feasible(self):
        rng = random.Random(21)
        for _ in range(25):
            g = random_connected(rng, rng.randint(3, 7), 0.55,
                                 vertex_safe_prob=0.5, edge_safe_prob=0.5)
            for problem in ("fvc", "fgc"):
                inst = Instance(graph=g, problem=problem)
                checker = predicates_for(inst)[0]
                if not checker(g, set(g.eids)):
                    continue
                sol = exact_solve(inst)
                assert checker(g, sol.edge_ids)
                for eid in sol.edge_ids:
                    assert not checker(g, set(sol.edge_ids) - {eid})

    def test_fvc_floor_is_n_minus_one(self):
        rng = random.Random(23)
        for _ in range(15):
            g = random_connected(rng, rng.randint(3, 7), 0.6,
                                 vertex_safe_prob=0.6)
            inst = Instance(graph=g, problem="fvc")
            if not check_fvc(g, set(g.eids)):
                continue
            from flexconn.fvc import solve_tree_case
            sol = exact_solve(inst)
            assert sol.size >= g.n - 1
            assert (sol.size == g.n - 1) == (solve_tree_case(g) is not None)


class TestExact2Ecss:
    def test_k4(self, k4):
        assert exact_kecss(k4, 2).size == 4

    def test_c5(self):
        g = build(5, [(i, (i + 1) % 5) for i in range(5)])
        assert exact_kecss(g, 2).size == 5

    def test_rejects_non_2ec(self):
        g = build(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            exact_kecss(g, 2)

    def test_size_bounds(self):
        rng = random.Random(31)
        checked = 0
        while checked < 20:
            g = random_connected(rng, rng.randint(3, 8), 0.55)
            if not is_k_edge_connected(g, 2):
                continue
            opt = exact_kecss(g, 2).size
            x = opt - g.n
            assert opt <= 2 * g.n - 2
            assert Fraction(opt) <= Fraction(4, 3) * g.n + Fraction(2, 3) * (x - 1)
            checked += 1


class TestExactKecss:
    def test_k4_three_ec(self, k4):
        sol = exact_kecss(k4, 3)
        assert sol.size == 6

    def test_doubled_cycle(self):
        pairs = [(i, (i + 1) % 4) for i in range(4)] * 2
        g = build(4, pairs)
        sol = exact_kecss(g, 2)
        assert sol.size == 4
