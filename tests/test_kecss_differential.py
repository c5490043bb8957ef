"""Differential tests of the k-edge-connectivity predicate and of the exact
kECSS search.

`edge_connectivity_at_least` (one low-link DFS at k = 2, max-flow
otherwise) is compared with `networkx.edge_connectivity`.
networkx counts a parallel edge once, so each multigraph is first blown up
into a simple graph: every vertex becomes a clique of `BLOW` vertices, and
the c-th copy of an edge uv joins the c-th vertices of the two cliques.  A
cut that splits no clique crosses exactly the edges of the matching cut of
the multigraph; a cut that splits a clique crosses at least BLOW - 1 of its
edges.  So min(lambda(H), BLOW - 1) = min(lambda(G), BLOW - 1), which
decides every k <= BLOW - 1.

`exact_kecss` orders parallel twins; `reference_minimum_feasible` below is
the unordered search it replaced, kept verbatim.  Both must return the same
edge set.  The same reference, which prunes only by the predicate, checks
the degree and component bounds of `exact_solve` on FVC, FGC and k-FGC, and
its greedy spanning-tree level: the reference enumerates that level too.
The last-pick scan, which runs no optimistic test when one edge is left to
pick, is checked against the reference on searches whose last pick fails
at least two candidates before its hit.
"""

import math
import random
from collections import defaultdict

import pytest

from flexconn import exact
from flexconn.errors import InfeasibleInstanceError
from flexconn.exact import _minimum_feasible, exact_kecss, exact_solve
from flexconn.feasibility import Instance, checker_for, predicates_for
from flexconn.fvc import solve_tree_case
from flexconn.graph import (LabeledGraph, edge_connectivity_at_least,
                            is_connected, is_k_edge_connected,
                            subset_k_edge_connected)
from flexconn.kfgc import _kfgc_lower_bound, max_safe_forest

from conftest import build

nx = pytest.importorskip("networkx")

BLOW = 5          # decides k <= 4
KS = (1, 2, 3, 4)


def nx_edge_connectivity_capped(vertices, triples):
    """min(edge connectivity, BLOW - 1) of a keyed multigraph, via networkx."""
    h = nx.Graph()
    for v in vertices:
        clique = [(v, i) for i in range(BLOW)]
        h.add_nodes_from(clique)
        h.add_edges_from((a, b) for i, a in enumerate(clique) for b in clique[i + 1:])
    copies = defaultdict(int)
    for _, u, v in triples:
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        c = copies[pair]
        copies[pair] += 1
        assert c < BLOW, "multiplicity above the blow-up size"
        h.add_edge((u, c), (v, c))
    return min(nx.edge_connectivity(h), BLOW - 1)


def random_keyed_multigraph(rng):
    """Vertices with non-contiguous labels; int or tuple keys; parallel
    edges up to three copies; some self-loops; sometimes disconnected."""
    n = rng.choice((2, 3, 3, 4, 4, 5, 5, 6, 7, 8))
    labels = rng.sample(range(3, 60), n)
    p = rng.uniform(0.15, 1.0)
    tuple_keys = rng.random() < 0.5
    triples = []
    for i, u in enumerate(labels):
        for v in labels[i + 1:]:
            if rng.random() < p:
                for _ in range(rng.choice((1, 1, 2, 3))):
                    triples.append((u, v) if rng.random() < 0.5 else (v, u))
    for _ in range(rng.choice((0, 0, 1, 2))):
        w = rng.choice(labels)
        triples.append((w, w))
    rng.shuffle(triples)
    keyed = [((("p", i, u, v) if tuple_keys else 1000 + 7 * i), u, v)
             for i, (u, v) in enumerate(triples)]
    order = list(labels)
    rng.shuffle(order)
    return order, keyed


class TestEdgeConnectivityAgainstNetworkx:
    def test_random_multigraphs(self):
        rng = random.Random(20261018)
        true_counts = dict.fromkeys(KS, 0)
        parallel = disconnected = looped = tupled = 0
        for _ in range(600):
            vertices, triples = random_keyed_multigraph(rng)
            lam = nx_edge_connectivity_capped(vertices, triples)
            for k in KS:
                got = edge_connectivity_at_least(vertices, triples, k)
                assert got == (lam >= k), (vertices, triples, k, lam)
                true_counts[k] += got
            pairs = [frozenset((u, v)) for _, u, v in triples if u != v]
            parallel += len(pairs) != len(set(pairs))
            disconnected += lam == 0
            looped += any(u == v for _, u, v in triples)
            tupled += any(isinstance(key, tuple) for key, _, _ in triples)
        # the draw exercises every answer and every special case
        assert min(true_counts.values()) >= 40, true_counts
        assert min(600 - c for c in true_counts.values()) >= 40, true_counts
        assert min(parallel, disconnected, looped, tupled) >= 40

    def test_simple_graphs_match_plain_networkx(self):
        # the blow-up is exact where networkx needs no help
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.6]
            triples = [(i, u, v) for i, (u, v) in enumerate(pairs)]
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(pairs)
            lam = min(nx.edge_connectivity(g), BLOW - 1)
            assert nx_edge_connectivity_capped(range(n), triples) == lam
            for k in KS:
                assert edge_connectivity_at_least(range(n), triples, k) == (lam >= k)


class TestEdgeConnectivityCases:
    def test_single_vertex_and_empty(self):
        for k in KS:
            assert edge_connectivity_at_least([9], [], k)
            assert edge_connectivity_at_least([9], [("loop", 9, 9)], k)
            assert edge_connectivity_at_least([], [], k)

    def test_parallel_pair_is_two_edge_connected(self):
        edges = [(("a",), 4, 11), (("b",), 11, 4)]
        assert edge_connectivity_at_least([11, 4], edges, 2)
        assert not edge_connectivity_at_least([11, 4], edges, 3)
        assert not edge_connectivity_at_least([11, 4], edges[:1], 2)

    def test_self_loops_are_skipped(self):
        edges = [(0, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 1)]
        assert edge_connectivity_at_least([1, 2], edges, 1)
        assert not edge_connectivity_at_least([1, 2], edges, 2)

    def test_disconnected_bridgeless_parts_fail(self):
        # two triangles, each 2-edge-connected, no edge between them
        edges = [(i, u, v) for i, (u, v) in enumerate(
            [(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 5)])]
        assert not edge_connectivity_at_least([0, 1, 2, 5, 6, 7], edges, 2)
        assert not edge_connectivity_at_least([0, 1, 2, 5, 6, 7], edges, 1)

    def test_bridge_between_cycles_fails(self):
        edges = [(i, u, v) for i, (u, v) in enumerate(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])]
        assert edge_connectivity_at_least(range(6), edges, 1)
        assert not edge_connectivity_at_least(range(6), edges, 2)

    def test_deep_path_and_cycle(self):
        # iterative DFS: a 5000-vertex cycle passes, the path fails
        n = 5000
        path = [(i, i, i + 1) for i in range(n - 1)]
        assert not edge_connectivity_at_least(range(n), path, 2)
        assert edge_connectivity_at_least(range(n), path + [(n, n - 1, 0)], 2)

    def test_subset_helper(self):
        g = build(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
        assert subset_k_edge_connected(g, {0, 1, 2}, 2)
        assert not subset_k_edge_connected(g, {0, 1, 3}, 2)
        assert subset_k_edge_connected(g, {0, 1}, 1)
        assert not subset_k_edge_connected(g, {0, 1, 2, 3}, 3)


# ---------------------------------------------------------------------------
# exact_kecss: twin-ordered search against the unordered one
# ---------------------------------------------------------------------------

def reference_minimum_feasible(g, predicate, lower_bound):
    eids = sorted(g.edge_by_id)
    m = len(eids)
    if not predicate(set(eids)):
        return None
    lb = max(0, lower_bound)

    def search(s):
        chosen = []

        def rec(idx, available):
            if len(chosen) == s:
                return list(chosen) if predicate(set(chosen)) else None
            if len(chosen) + (m - idx) < s:
                return None
            eid = eids[idx]
            chosen.append(eid)
            hit = rec(idx + 1, available)
            if hit is not None:
                return hit
            chosen.pop()
            available.discard(eid)
            if predicate(set(chosen) | available):
                hit = rec(idx + 1, available)
                if hit is not None:
                    return hit
            available.add(eid)
            return None

        return rec(0, set(eids))

    for s in range(lb, m + 1):
        hit = search(s)
        if hit is not None:
            return set(hit)
    return None


def reference_exact_kecss(g, k):
    lb = max(g.n - 1, math.ceil(g.n * k / 2))

    def predicate(s):
        triples = [(e, g.edge_by_id[e].u, g.edge_by_id[e].v) for e in s]
        return (is_connected(range(g.n), triples)
                and edge_connectivity_at_least(range(g.n), triples, k))

    return reference_minimum_feasible(g, predicate, lb)


def random_multigraph(rng, n):
    """Connected simple base graph, each edge repeated 1-3 times, the copies
    shuffled so twins get scattered ids."""
    while True:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.55]
        if is_connected(range(n), [(i, u, v) for i, (u, v) in enumerate(pairs)]):
            break
    copies = [pair for pair in pairs for _ in range(rng.choice((1, 1, 2, 2, 3)))]
    rng.shuffle(copies)
    return build(n, copies, edge_safe=[rng.random() < 0.5 for _ in copies])


@pytest.mark.parametrize("k, want, n_max", [(2, 200, 6), (3, 120, 5)])
def test_exact_kecss_twin_order_matches_unordered_search(k, want, n_max):
    rng = random.Random(7000 + k)
    done = with_twins = 0
    while done < want:
        g = random_multigraph(rng, rng.randint(2, n_max))
        if not is_k_edge_connected(g, k):
            continue
        sol = exact_kecss(g, k)
        assert set(sol.edge_ids) == reference_exact_kecss(g, k)
        assert sol.meta == {"apx_size": sol.size, "exact": True, "k_ec": k}
        done += 1
        with_twins += not g.is_simple
    assert with_twins >= want // 2


def test_exact_kecss_on_doubled_graph_keeps_lowest_twins():
    # a doubled triangle: the optimum takes the lower id of every twin pair
    g = build(3, [(0, 1), (1, 2), (0, 2), (0, 1), (1, 2), (0, 2)])
    assert set(exact_kecss(g, 2).edge_ids) == {0, 1, 2}
    assert set(exact_kecss(g, 3).edge_ids) == reference_exact_kecss(g, 3)
    g4 = LabeledGraph.build(2, [(0, 1)] * 4)
    assert set(exact_kecss(g4, 3).edge_ids) == {0, 1, 2}


# ---------------------------------------------------------------------------
# exact_solve: greedy tree level and bounded search against the reference
# ---------------------------------------------------------------------------

def reference_exact_solve(inst):
    """The reference search with exact_solve's checker and lower bounds that
    do not depend on the required degrees or on the greedy tree level: the
    reference enumerates the (n-1)-subsets whenever a feasible tree exists."""
    g = inst.graph
    if inst.problem == "fvc":
        # a feasible tree exists iff solve_tree_case finds one
        lb = g.n - 1 if g.n <= 2 or solve_tree_case(g) is not None else g.n
    elif inst.problem == "fgc":
        lb = g.n - 1
    else:
        forest = max_safe_forest(g)
        lb = _kfgc_lower_bound(g.n, len(forest), g.n - len(forest), inst.k)
    checker = checker_for(inst)
    return reference_minimum_feasible(g, lambda s: checker(g, s), lb)


def random_instance(rng, problem, k):
    """(instance, family): a tree, all-unsafe, or G(n, p) instance, n 1-8;
    FGC and k-FGC graphs with n <= 6 get some parallel edges (the reference
    search takes seconds on the n = 8 ones)."""
    n = rng.choice((1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8))
    family = rng.choice(("tree", "unsafe", "gnp", "gnp"))
    if family == "tree":
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
    else:
        p = rng.uniform(0.4, 0.9) if problem == "kfgc" else rng.uniform(0.35, 0.7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if problem != "fvc" and n <= 6 and (n == 2 or rng.random() < 0.3):
        pairs += [pair for pair in pairs if rng.random() < 0.4]
    rng.shuffle(pairs)
    safe_prob = 0.0 if family == "unsafe" else rng.uniform(0.2, 0.8)
    g = build(n, pairs,
              vertex_safe=[problem != "fvc" or rng.random() < safe_prob for _ in range(n)],
              edge_safe=[problem == "fvc" or rng.random() < safe_prob for _ in pairs])
    return Instance(graph=g, problem=problem, k=k), family


@pytest.mark.parametrize("problem, k, want", [
    ("fvc", 1, 200), ("fgc", 1, 200),
    ("kfgc", 1, 70), ("kfgc", 2, 70), ("kfgc", 3, 70)])
def test_exact_solve_bounds_match_unbounded_search(problem, k, want):
    rng = random.Random(f"bounds:{problem}:{k}")
    seen = defaultdict(int)
    while seen["feasible"] < want:
        inst, family = random_instance(rng, problem, k)
        expected = reference_exact_solve(inst)
        if expected is None:
            with pytest.raises(InfeasibleInstanceError):
                exact_solve(inst)
            seen["infeasible"] += 1
            continue
        assert set(exact_solve(inst).edge_ids) == expected, (inst, family)
        seen["feasible"] += 1
        seen[family] += 1
        seen[f"n={min(inst.graph.n, 3)}"] += 1
        g = inst.graph
        if len(expected) == g.n - 1:
            seen["tree_opt"] += 1
            # solve_tree_case hangs each unsafe vertex on its smallest-numbered
            # safe neighbour, the greedy on its smallest-id safe edge
            if problem == "fvc" and set(solve_tree_case(g)) != expected:
                seen["tree_case_differs"] += 1
        if problem != "fvc" and len(max_safe_forest(g)) < g.n - 1:
            seen["safe_not_spanning"] += 1
    # every family and the n = 1, n = 2 corner cases are covered
    assert min(seen[f] for f in ("tree", "unsafe", "gnp")) >= want // 10, dict(seen)
    assert min(seen["n=1"], seen["n=2"]) >= want // 20, dict(seen)
    # the greedy tree level answers often, and so does the search from n
    assert seen["tree_opt"] >= want // 4, dict(seen)
    if problem == "fvc":
        assert seen["tree_case_differs"] >= want // 20, dict(seen)
    else:
        assert seen["safe_not_spanning"] >= want // 20, dict(seen)


# ---------------------------------------------------------------------------
# the last pick: a scan of leaf tests without the optimistic test
# ---------------------------------------------------------------------------

def _recording(kernel, log):
    def recorded(g, ids):
        ok = kernel(g, ids)
        log.append((frozenset(ids), ok))
        return ok
    return recorded


def _last_pick_misses(log, hit):
    """The candidates that the last pick of the hit's node tested and
    rejected, in call order: leaf sets of the hit's size that share its
    first s - 1 edges."""
    prefix = hit - {max(hit)}
    return [min(ids - prefix) for ids, ok in log
            if not ok and len(ids) == len(hit) and ids > prefix
            and min(ids - prefix) > max(prefix, default=-1)]


# seeds whose search rejects at least two candidates in the last pick of
# the node it hits at; found by scanning seeds 0, 1, ... once
DEEP_LAST_PICK = {("fvc", 1): (144, 348, 373, 607, 920, 1137),
                  ("fgc", 1): (6, 43, 150, 232, 742, 1176),
                  ("kfgc", 2): (75, 286, 342, 397, 766, 1185)}


@pytest.mark.parametrize("problem, k", list(DEEP_LAST_PICK))
def test_exact_solve_last_pick_matches_reference(monkeypatch, problem, k):
    log = []

    def recorded(inst):
        checker, kernel = predicates_for(inst)
        return checker, _recording(kernel, log)

    monkeypatch.setattr(exact, "predicates_for", recorded)
    for seed in DEEP_LAST_PICK[problem, k]:
        inst, _ = random_instance(random.Random(f"last-pick:{problem}:{k}:{seed}"), problem, k)
        del log[:]
        hit = set(exact_solve(inst).edge_ids)
        assert len(_last_pick_misses(log, hit)) >= 2, seed
        assert hit == reference_exact_solve(inst), seed


# (k, seed): multigraphs whose last pick rejects a lower twin before the hit
# and before its higher twin
TWIN_LAST_PICK = [(2, 920), (2, 1483), (2, 4572), (2, 14087), (2, 15311),
                  (3, 2348), (3, 7581), (3, 9805)]


@pytest.mark.parametrize("k, seed", TWIN_LAST_PICK)
def test_exact_kecss_last_pick_rejects_twins_of_a_miss(monkeypatch, k, seed):
    log = []
    real = exact.subset_k_edge_connected
    monkeypatch.setattr(exact, "subset_k_edge_connected",
                        lambda g, ids, k: _recording(lambda h, s: real(h, s, k), log)(g, ids))
    rng = random.Random(f"last-pick:kecss:{k}:{seed}")
    g = random_multigraph(rng, rng.randint(4, 6 if k == 2 else 5))
    hit = set(exact_kecss(g, k).edge_ids)
    misses = _last_pick_misses(log, hit)
    assert len(misses) >= 2
    pair = {e: tuple(sorted(uv)) for e, uv in zip(g.eids, g.ends)}
    twins = [(e, f) for e in misses for f in g.eids if e < f < max(hit) and pair[f] == pair[e]]
    assert twins
    # e was available, so its higher twins were too: each gives the same
    # set as e, and its own leaf test rejects it
    assert all(f in misses for _, f in twins)
    assert hit == reference_exact_kecss(g, k)


def test_single_vertex_reaches_the_leaf_test():
    # s = 0: the search tests the empty set, with no last pick before it
    g = LabeledGraph.build(1, [])
    log = []
    assert _minimum_feasible(g, _recording(lambda h, s: True, log), 0, [0]) == set()
    assert log == [(frozenset(), True)]
    del log[:]
    assert _minimum_feasible(g, _recording(lambda h, s: False, log), 0, [0]) is None
    assert log == [(frozenset(), False)]
    for problem in ("fvc", "fgc", "kfgc"):
        assert exact_solve(Instance(graph=g, problem=problem)).edge_ids == frozenset()
    assert exact_kecss(g, 2).edge_ids == frozenset()
