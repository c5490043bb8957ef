import random

import pytest

from flexconn.errors import InputError
from flexconn.rainbow import PseudoEdge, max_rainbow_forest, solve_rainbow

from conftest import apx2_inputs, brute_force_rainbow_components, by_colour, rainbow_components


def make(edges):
    return tuple(sorted(PseudoEdge(a, b, c) for a, b, c in edges))


class TestSolveRainbow:
    def test_single_candidate_per_colour(self):
        pe = make([(0, 2, ("v", 4)), (1, 3, ("v", 5)), (0, 1, ("v", 6))])
        sol = solve_rainbow(pe, range(4))
        assert {(p.a, p.b) for p in sol.chosen} == {(0, 2), (1, 3), (0, 1)}
        assert sol.alpha == 1
        assert sol.alpha_large == 1
        assert not sol.singletons

    def test_two_colours_same_edge(self):
        pe = make([(0, 1, ("v", 9)), (0, 1, ("p", 7, 8))])
        sol = solve_rainbow(pe, range(5))
        assert sol.alpha == 4
        assert sol.alpha_large == 1
        assert sol.singletons == frozenset({2, 3, 4})

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            solve_rainbow((), range(3))

    def test_matches_brute_force(self):
        rng = random.Random(99)
        for trial in range(60):
            nv = rng.randint(3, 9)
            ncol = rng.randint(1, min(6, nv))
            edges = set()
            for ci in range(ncol):
                colour = ("v", 100 + ci)
                for _ in range(rng.randint(1, 4)):
                    a, b = rng.sample(range(nv), 2)
                    edges.add((min(a, b), max(a, b), colour))
            pe = make(edges)
            sol = solve_rainbow(pe, range(nv))
            assert sol.alpha == brute_force_rainbow_components(pe, range(nv))

    def test_no_improving_singleton_swap(self):
        rng = random.Random(7)
        for trial in range(40):
            nv = rng.randint(4, 8)
            edges = set()
            for ci in range(rng.randint(1, 5)):
                colour = ("v", 50 + ci)
                for _ in range(rng.randint(1, 4)):
                    a, b = rng.sample(range(nv), 2)
                    edges.add((min(a, b), max(a, b), colour))
            pe = make(edges)
            sol = solve_rainbow(pe, range(nv))
            cands = by_colour(pe)
            base = len(sol.singletons)
            for p in sol.chosen:
                for cand in cands[p.colour]:
                    trial_set = [cand if q == p else q for q in sol.chosen]
                    touched = set()
                    for q in trial_set:
                        touched.update((q.a, q.b))
                    assert nv - len(touched) >= base

    def test_alpha_counts_are_consistent(self):
        pe = make([(0, 1, ("v", 4)), (2, 3, ("p", 5, 6))])
        sol = solve_rainbow(pe, range(5))
        assert sol.alpha == sol.alpha_large + len(sol.singletons)
        assert sol.alpha == 3  # {0,1}, {2,3}, {4}


def test_pipeline_picks_keep_the_minimum_component_count():
    """`solve_rainbow` does not recount components; this test does, on the
    pseudo-edges of the apx2 pieces of a seeded fvc-scale corpus.  The
    maximum rainbow forest is a forest, and the returned picks, after the
    unused colours are filled and the singleton swaps taken, have exactly
    `alpha` = |V(D)| - |forest| components.  Checked mutant:
    `max_rainbow_forest`'s greedy pass taking every pseudo-edge of a new
    colour, whether or not `uf.union` merged two trees, adds edges that
    close cycles, and this test fails."""
    swapped = 0
    for _, kp, pe in apx2_inputs():
        vd = sorted(kp.vd)
        forest = max_rainbow_forest(pe)
        assert rainbow_components(vd, forest) == len(vd) - len(forest), pe
        sol = solve_rainbow(pe, vd)
        assert sol.alpha == len(vd) - len(forest)
        assert rainbow_components(vd, sol.chosen) == sol.alpha, pe
        swapped += sol.chosen != tuple(sorted(forest))
    # the swap pass changed the picks on a good share of the pieces
    assert swapped >= len(apx2_inputs()) // 3, swapped
