"""Differential test of `fvc.preprocess` against its earlier form.

The earlier form, copied below, ran a whole cut-vertex search on every graph
that a split or a forbidden-cycle step made.  The current one carries each
graph's cut vertices on the worklist: an x-closure gets its parent's cut
vertices inside the component and G - w gets none, and a forbidden-safe
step builds the split at v that the copy makes of G - uw, so one low-link
DFS runs per call.  It also keeps each piece as a vertex set of the input
and builds the piece's graph once, at the end.  The copy takes its cut
vertices from networkx (`conftest.cut_vertices`) and its components from a
union-find (`conftest.connected_components`), so it shares no search with
the library.
The hosts are FVC instances, most of them feasible, built from small random
blocks and pendant chains hung from safe vertices and from planted
diamonds, so that every step meets every other.  Both versions must return
the same pieces, forced edges and events, or raise the same error.
"""

import random
from collections import Counter

from flexconn.ears import find_forbidden_cycle
from flexconn.errors import InfeasibleInstanceError
from flexconn.feasibility import check_fvc
from flexconn.fvc import _induced_triples, preprocess
from flexconn.graph import LabeledGraph, low_link_incidence

from conftest import build, connected_components, cut_vertices, without_edges


# The earlier preprocess, with its dataclass return unpacked.

def _old_preprocess(g: LabeledGraph):
    if g.m < g.n - 1:
        raise InfeasibleInstanceError("FVC instance is infeasible")
    reached, cuts, _ = low_link_incidence(g.incidence)
    if reached < g.n or not g.unsafe_vertex_set.isdisjoint(cuts):
        raise InfeasibleInstanceError("FVC instance is infeasible")
    pieces, forced, events = [], set(), []
    todo = [(g, cuts)]
    while todo:
        g, cuts = todo.pop()
        if g.n < 5:
            pieces.append(g)
            continue
        cuts = sorted(cut_vertices(g) if cuts is None else cuts)
        unsafe_cuts = [v for v in cuts if not g.vertex_safe[v]]
        if unsafe_cuts:
            raise InfeasibleInstanceError(
                f"unsafe cut vertex (local id {unsafe_cuts[0]}): instance infeasible")
        if cuts:
            x = cuts[0]
            rest = set(range(g.n)) - {x}
            comps = connected_components(rest, _induced_triples(g, rest))
            events.append(("split", g.n, len(comps)))
            todo.extend((g.induced(comp | {x}), None) for comp in reversed(comps))
            continue
        fc = find_forbidden_cycle(g, frozenset(range(g.n)))
        if fc is None:
            pieces.append(g)
            continue
        u, w, v, z = fc
        if not g.vertex_safe[u] and not g.vertex_safe[v]:
            e1, e2 = g.edge_between(u, w), g.edge_between(w, v)
            forced.update((e1, e2))
            events.append(("forbidden_unsafe", e1, e2))
            todo.append((g.induced(set(range(g.n)) - {w}), None))
            continue
        if g.vertex_safe[u] and not g.vertex_safe[v]:
            u, v = v, u
        if g.vertex_safe[w] and not g.vertex_safe[z]:
            w, z = z, w
        doomed = g.edge_between(u, w)
        events.append(("forbidden_safe", doomed))
        todo.append((without_edges(g, {doomed}), None))
    return pieces, frozenset(forced), tuple(events)


def _outcome(fn, g):
    try:
        pieces, forced, events = fn(g)
    except InfeasibleInstanceError as exc:  # compared by message
        return str(exc)
    return pieces, frozenset(forced), tuple(events)


def _host(rng):
    """A random FVC instance: blocks (cycles of 3-6 vertices, sometimes with
    a chord) and pendant chains hung one by one from random vertices, which
    are made safe with probability 0.9, then diamonds u-w-v-z planted on
    random vertex pairs u, v.  Each vertex that nothing hangs from is safe
    with probability 0.4, each diamond's middle with probability 0.5."""
    n, pairs, safe = 1, [], [rng.random() < 0.4]
    for _ in range(rng.randint(1, 6)):
        a = rng.randrange(n)
        safe[a] = safe[a] or rng.random() < 0.9
        if rng.random() < 0.3:
            size = rng.randint(1, 4)
            pairs += [(a, n)] + [(n + i, n + i + 1) for i in range(size - 1)]
            safe += [True] * (size - 1) + [rng.random() < 0.4]
        else:
            size = rng.randint(2, 5)
            ring = [a] + list(range(n, n + size))
            pairs += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
            if size >= 3 and rng.random() < 0.3:
                pairs.append((ring[0], ring[2]))
            safe += [rng.random() < 0.4 for _ in range(size)]
        n += size
    for _ in range(rng.randint(1, 4)):
        u, v = rng.sample(range(n), 2)
        pairs += [(u, n), (n, v), (v, n + 1), (n + 1, u)]
        safe += [rng.random() < 0.5, rng.random() < 0.5]
        n += 2
    order = list(range(len(pairs)))
    rng.shuffle(order)
    return build(n, [pairs[i] for i in order], vertex_safe=safe)


def test_preprocess_matches_earlier_form():
    """Same pieces (as whole graphs), forced edges and events on 1,500
    seeded hosts, and the same refusal on the infeasible ones drawn among
    them; every step kind runs at least 200 times."""
    rng = random.Random(23_2026)
    steps, refused = Counter(), 0
    for _ in range(1500):
        g = _host(rng)
        got, want = _outcome(preprocess, g), _outcome(_old_preprocess, g)
        assert got == want, g
        if isinstance(got, str):
            assert not check_fvc(g, set(g.eids))
            refused += 1
            continue
        steps.update(ev[0] for ev in got[2])
    assert refused >= 20, refused
    assert min(steps[kind] for kind in ("split", "forbidden_safe", "forbidden_unsafe")) >= 200, steps
