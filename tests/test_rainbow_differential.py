"""Differential test of `rainbow._minimize_singletons` against its earlier
form.

The earlier form, copied below, recounted every singleton of the whole
trial list for each swap it tried.  The current one scores a trial from
per-vertex touch counts.  Few golden instances reach apx2, so the two run
on the picks that `solve_rainbow` hands over for 2,000 random pseudo-edge
sets; they must return the same picks or raise the same error.  The
earlier form also recounted the components of every accepted swap; the
current one takes the count as kept, so the wrapper hands the earlier form
the count of the picks it gets and its check stays in force here.
"""

import random

from flexconn import rainbow
from flexconn.errors import require
from flexconn.rainbow import PseudoEdge, PseudoEdgeSet, solve_rainbow

from conftest import rainbow_components


def _old_singletons(vd, chosen):
    touched = set()
    for p in chosen:
        touched.add(p.a)
        touched.add(p.b)
    return set(vd) - touched


def _old_minimize_singletons(vd, picks, by_colour, alpha):
    current = list(picks)
    best = len(_old_singletons(vd, current))
    improved = True
    while improved:
        improved = False
        for p in sorted(current):
            for cand in by_colour[p.colour]:
                if cand == p:
                    continue
                trial = [cand if q == p else q for q in current]
                if len(_old_singletons(vd, trial)) < best:
                    require(rainbow_components(vd, trial) == alpha,
                            "singleton swap changed the component count")
                    current = trial
                    best = len(_old_singletons(vd, current))
                    improved = True
                    break
            if improved:
                break
    return sorted(current)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _random_pseudo_edges(rng):
    """Colours of singletons and of pairs over a small V(D), each with a few
    candidate pseudo-edges, so that many colours compete for few vertices."""
    nv = rng.randint(3, 14)
    edges = set()
    for ci in range(rng.randint(1, nv)):
        colour = ("v", 100 + ci) if rng.random() < 0.6 else ("p", 100 + 2 * ci, 101 + 2 * ci)
        for _ in range(rng.randint(1, 5)):
            a, b = rng.sample(range(nv), 2)
            edges.add(PseudoEdge(min(a, b), max(a, b), colour))
    return nv, PseudoEdgeSet(edges=tuple(sorted(edges)))


def test_minimize_singletons_matches_earlier_form(monkeypatch):
    real = rainbow._minimize_singletons
    seen = {"calls": 0, "swapped": 0}

    def both(vd, picks, by_colour):
        alpha = rainbow_components(vd, picks)
        want = _outcome(_old_minimize_singletons, vd, list(picks), by_colour, alpha)
        got = _outcome(real, vd, list(picks), by_colour)
        assert got == want, (vd, picks)
        seen["calls"] += 1
        seen["swapped"] += want != sorted(picks)
        return real(vd, picks, by_colour)

    monkeypatch.setattr(rainbow, "_minimize_singletons", both)
    rng = random.Random(15_2024)
    for _ in range(2000):
        nv, pe = _random_pseudo_edges(rng)
        solve_rainbow(pe, range(nv))
    assert seen["calls"] == 2000
    # the swap pass changed the picks on a good share of the inputs
    assert seen["swapped"] >= 500, seen
