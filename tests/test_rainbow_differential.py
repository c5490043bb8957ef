"""Differential tests of `rainbow.max_rainbow_forest` and
`rainbow._minimize_singletons` against their earlier forms.

The earlier `_minimize_singletons`, copied below, recounted every singleton
of the whole trial list for each swap it tried.  The current one scores a
trial from per-vertex touch counts.  Few golden instances reach apx2, so the
two run on the picks that `solve_rainbow` hands over for 2,000 random
pseudo-edge sets; they must return the same picks or raise the same error.
The earlier form also recounted the components of every accepted swap; the
current one takes the count as kept, so the wrapper hands the earlier form
the count of the picks it gets and its check stays in force here.

The earlier `max_rainbow_forest`, also copied below, built the whole
exchange graph on every augmentation, with a forest path for each ground
pseudo-edge.  The current one lists a member's exchange arcs only when its
search reaches the member.  Both must return the same forest.
"""

import random
from collections import deque

from flexconn import rainbow
from flexconn.errors import require
from flexconn.rainbow import PseudoEdge, solve_rainbow

from conftest import apx2_inputs, rainbow_components


def _old_max_rainbow_forest(pe):
    ground = sorted(pe)
    in_set = [False] * len(ground)

    def forest_adj(members):
        adj = {}
        for i in members:
            p = ground[i]
            adj.setdefault(p.a, []).append((p.b, i))
            adj.setdefault(p.b, []).append((p.a, i))
        return adj

    def forest_path(adj, src, dst):
        if src == dst:
            return []
        if src not in adj:
            return None
        parent = {src: (-1, -1)}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            if x == dst:
                break
            for y, i in adj.get(x, ()):
                if y not in parent:
                    parent[y] = (x, i)
                    queue.append(y)
        if dst not in parent:
            return None
        out = []
        x = dst
        while x != src:
            px, i = parent[x]
            out.append(i)
            x = px
        return out

    while True:
        members = [i for i, flag in enumerate(in_set) if flag]
        colour_of_member = {ground[i].colour: i for i in members}
        adj = forest_adj(members)
        sources = []
        path_through = {}
        for i, p in enumerate(ground):
            if in_set[i]:
                continue
            fp = forest_path(adj, p.a, p.b)
            if fp is None:
                sources.append(i)
            else:
                path_through[i] = fp
        sinks = {i for i, p in enumerate(ground)
                 if not in_set[i] and p.colour not in colour_of_member}

        quick = sorted(set(sources) & sinks)
        if quick:
            in_set[quick[0]] = True
            continue

        out_of_member = {i: [] for i in members}
        for z, fp in path_through.items():
            for y in fp:
                out_of_member[y].append(z)
        for y in out_of_member:
            out_of_member[y].sort()

        parent_arc = {}
        queue = deque()
        for z in sorted(sources):
            parent_arc[z] = -1
            queue.append(z)
        reached_sink = None
        while queue and reached_sink is None:
            x = queue.popleft()
            if not in_set[x]:
                if x in sinks:
                    reached_sink = x
                    break
                y = colour_of_member.get(ground[x].colour)
                if y is not None and y not in parent_arc:
                    parent_arc[y] = x
                    queue.append(y)
            else:
                for z in out_of_member[x]:
                    if z not in parent_arc:
                        parent_arc[z] = x
                        queue.append(z)
        if reached_sink is None:
            return [ground[i] for i in members]
        x = reached_sink
        while x != -1:
            in_set[x] = not in_set[x]
            x = parent_arc[x]


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


def _random_pseudo_edges(rng, low=3, high=14):
    """Colours of singletons and of pairs over a small V(D), each with a few
    candidate pseudo-edges, so that many colours compete for few vertices."""
    nv = rng.randint(low, high)
    edges = set()
    for ci in range(rng.randint(1, nv)):
        colour = ("v", 100 + ci) if rng.random() < 0.6 else ("p", 100 + 2 * ci, 101 + 2 * ci)
        for _ in range(rng.randint(1, 5)):
            a, b = rng.sample(range(nv), 2)
            edges.add(PseudoEdge(min(a, b), max(a, b), colour))
    return nv, tuple(sorted(edges))


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


def test_max_rainbow_forest_matches_earlier_form():
    """Same forest on the 2,000 draws of the test above, on 300 larger
    ones (|V(D)| 10-60) and on the pseudo-edges of every apx2 piece of the
    seeded fvc-scale corpus.  Checked mutant: listing a member's exchange
    arcs in descending ground index changes the forest on 91 of the 2,000
    draws, and this test fails."""
    rng = random.Random(15_2024)
    draws = [_random_pseudo_edges(rng)[1] for _ in range(2000)]
    rng = random.Random(18_2026)
    draws += [_random_pseudo_edges(rng, 10, 60)[1] for _ in range(300)]
    draws += [pe for _, _, pe in apx2_inputs()]
    exchanged = 0
    for pe in draws:
        forest = rainbow.max_rainbow_forest(pe)
        assert forest == _old_max_rainbow_forest(pe), pe
        # a forest that is not the greedy one needed an exchange path
        exchanged += forest != _greedy_rainbow_forest(pe)
    assert exchanged >= 400, exchanged


def _greedy_rainbow_forest(pe):
    """The forest the quick rule alone builds: each pseudo-edge, in sorted
    order, that joins two trees and brings a new colour."""
    uf, colours, out = {}, set(), []

    def find(x):
        while uf.get(x, x) != x:
            x = uf[x]
        return x

    for p in sorted(pe):
        ra, rb = find(p.a), find(p.b)
        if ra != rb and p.colour not in colours:
            uf[ra] = rb
            colours.add(p.colour)
            out.append(p)
    return out
