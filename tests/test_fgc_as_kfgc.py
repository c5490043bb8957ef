"""FGC is k-FGC at k = 1, and the exact optimum behaves as a minimum should.

FGC asks that (V, F) stay connected when any one unsafe edge fails, k-FGC
when any k do, so FGC is (1,1)-FGC and k-FGC is (1,k)-FGC (Boyd, Cheriyan,
Haddadan and Ibrahimpur, Math. Prog. 2024).  The library decides both with
one predicate, chosen by k.  On seeded random multigraphs with n = 3..8:

- `exact_solve` returns the same edge set for FGC and for k-FGC at k = 1;
- `check_fgc`, `check_kfgc(., 1)`, the contraction form (the chosen safe
  edges contracted, then 2-edge-connectivity) and the literal definition
  (remove each unsafe edge in turn) agree on random edge subsets.

A metamorphic sweep over all three problems follows: the exact optimum is
invariant under vertex and edge-id relabelling, and does not decrease when
a safe element turns unsafe or when k rises.
"""

import random
from collections import Counter

import pytest

from flexconn.errors import InfeasibleInstanceError
from flexconn.exact import exact_solve
from flexconn.feasibility import Instance, check_fgc, check_kfgc, predicates_for
from flexconn.graph import contract_edges, is_connected, is_k_edge_connected

from conftest import build


def random_multigraph(rng, n):
    """G(n, p) with some pairs repeated, so parallel edges, bridges and
    disconnected graphs all occur; about half the edges are safe."""
    p = rng.uniform(0.3, 0.8)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    pairs += [pair for pair in pairs if rng.random() < 0.3]
    rng.shuffle(pairs)
    q = rng.uniform(0.2, 0.7)
    return build(n, pairs, edge_safe=[rng.random() < q for _ in pairs])


def optimum(inst):
    """The exact edge set, or None if the instance is infeasible."""
    try:
        return exact_solve(inst).edge_ids
    except InfeasibleInstanceError:
        return None


def test_exact_solve_fgc_equals_kfgc_at_k1():
    rng = random.Random(1301)
    seen = Counter()
    while seen["feasible"] < 150:
        g = random_multigraph(rng, rng.randint(3, 8))
        fgc = optimum(Instance(graph=g, problem="fgc"))
        assert optimum(Instance(graph=g, problem="kfgc", k=1)) == fgc, g
        seen["feasible" if fgc is not None else "infeasible"] += 1
        seen["parallel"] += not g.is_simple and fgc is not None
        seen["above tree"] += fgc is not None and len(fgc) >= g.n
    assert min(seen["infeasible"], seen["parallel"], seen["above tree"]) >= 15, seen


def contraction_form(g, chosen):
    """The k-FGC contraction test at k = 1, from the graph module."""
    kept = sorted(chosen)
    sub = build(g.n, [g.edge_ends[e] for e in kept],
                edge_safe=[e not in g.unsafe_edge_set for e in kept])
    core = contract_edges(sub, [i for i, e in enumerate(kept) if e not in g.unsafe_edge_set])
    return core.n == 1 or is_k_edge_connected(core, 2)


def literal_form(g, chosen):
    """(V, chosen) connected after removing nothing, or any one unsafe edge."""
    def connected(keep):
        return is_connected(range(g.n), [(e, *g.edge_ends[e]) for e in keep])
    return connected(chosen) and all(connected(chosen - {e})
                                     for e in chosen if e in g.unsafe_edge_set)


def test_checkers_agree_at_k1():
    rng = random.Random(1302)
    seen = Counter()
    for _ in range(300):
        g = random_multigraph(rng, rng.randint(3, 8))
        eids = sorted(g.eids)
        for _ in range(8):
            q = rng.choice((0.5, 0.7, 0.85, 1.0))
            chosen = {e for e in eids if rng.random() < q}
            want = literal_form(g, chosen)
            assert check_fgc(g, chosen) == want, (g, chosen)
            assert check_kfgc(g, chosen, 1) == want, (g, chosen)
            assert contraction_form(g, chosen) == want, (g, chosen)
            seen[want] += 1
    assert min(seen[True], seen[False]) >= 300, seen


def test_checker_for_returns_check_fgc_itself_at_k1(c4):
    # the checker of `predicates_for` at k = 1: no wrapper layer on the exact
    # search's hot path
    assert predicates_for(Instance(graph=c4, problem="fgc"))[0] is check_fgc
    assert predicates_for(Instance(graph=c4, problem="kfgc", k=1))[0] is check_fgc
    assert predicates_for(Instance(graph=c4, problem="kfgc", k=2))[0] is not check_fgc


# Metamorphic sweep.

def sweep_instances(problem, k, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 7)
        if problem == "fvc":
            p = rng.uniform(0.4, 0.8)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = build(n, pairs, vertex_safe=[rng.random() < 0.5 for _ in range(n)])
        else:
            g = random_multigraph(rng, n)
        yield rng, Instance(graph=g, problem=problem, k=k)


def relabelled(inst, vperm, eorder):
    """`inst` with vertex v renamed vperm[v] and the edges listed in the
    order `eorder` (old ids), so old edge eorder[i] gets id i."""
    g = inst.graph
    vertex_safe = [None] * g.n
    for v in range(g.n):
        vertex_safe[vperm[v]] = g.vertex_safe[v]
    pairs = [tuple(vperm[x] for x in g.edge_ends[e]) for e in eorder]
    h = build(g.n, pairs, vertex_safe=vertex_safe,
              edge_safe=[e not in g.unsafe_edge_set for e in eorder])
    return Instance(graph=h, problem=inst.problem, k=inst.k)


def size(edges):
    return None if edges is None else len(edges)


SWEEP = [("fvc", 1), ("fgc", 1), ("kfgc", 2)]


@pytest.mark.parametrize("problem, k", SWEEP)
def test_optimum_invariant_under_relabelling(problem, k):
    feasible = 0
    for rng, inst in sweep_instances(problem, k, 60, seed=f"relabel:{problem}"):
        g = inst.graph
        best = optimum(inst)
        feasible += best is not None
        vperm = list(range(g.n))
        rng.shuffle(vperm)
        ids = list(range(g.m))
        # vertex names carry no meaning: the same ids, the same first optimum
        assert optimum(relabelled(inst, vperm, ids)) == best, inst
        rng.shuffle(ids)
        other = optimum(relabelled(inst, list(range(g.n)), ids))
        assert size(other) == size(best), inst
        if other is not None:
            assert predicates_for(inst)[0](g, {ids[e] for e in other})
    assert feasible >= 20


@pytest.mark.parametrize("problem, k", SWEEP)
def test_optimum_monotone_when_a_safe_element_turns_unsafe(problem, k):
    seen = Counter()
    for rng, inst in sweep_instances(problem, k, 120, seed=f"unsafe:{problem}"):
        g = inst.graph
        before = optimum(inst)
        if problem == "fvc":
            safe = [v for v in range(g.n) if g.vertex_safe[v]]
        else:   # prefer a safe edge of the optimum, where the change can bite
            safe = [e for e in sorted(before or g.eids) if e not in g.unsafe_edge_set]
        if not safe:
            continue
        x = rng.choice(safe)
        if problem == "fvc":
            h = build(g.n, g.ends, vertex_safe=[v != x and s for v, s in enumerate(g.vertex_safe)])
        else:
            h = build(g.n, g.ends, edge_safe=[e != x and s for e, s in zip(g.eids, g.edge_safe)])
        after = optimum(Instance(graph=h, problem=problem, k=k))
        if before is None:
            assert after is None, inst    # fewer safe elements, fewer feasible sets
        elif after is None:
            seen["now infeasible"] += 1
        else:
            assert len(after) >= len(before), inst
            seen["raised" if len(after) > len(before) else "same"] += 1
    assert min(seen["now infeasible"], seen["raised"], seen["same"]) >= 5, seen


def test_optimum_monotone_in_k():
    raised = 0
    for _, inst in sweep_instances("kfgc", 1, 60, seed="k"):
        sizes = [size(optimum(Instance(graph=inst.graph, problem="kfgc", k=k)))
                 for k in (1, 2, 3)]
        for low, high in zip(sizes, sizes[1:]):
            assert low is not None or high is None, inst
            assert high is None or high >= low, inst
            raised += high is not None and high > low
    assert raised >= 10
