"""Differential tests of the three feasibility checkers against networkx.

- `check_fvc` runs the low-link DFS over the graph's cached incidence list,
  filtered by the chosen edges, and stops at the first unsafe cut vertex.
  networkx decides the same predicate with `articulation_points`.
- `check_fgc` stops at the first unsafe bridge.  networkx uses `bridges`,
  which never reports one of several parallel edges.
- `check_kfgc` at k = 1 is `check_fgc`, so its k = 1 case tests the bridge
  DFS against the contraction form.  At k >= 2 it contracts the chosen
  safe edges with a list union-find and asks `edge_connectivity_at_least`
  for k + 1, which rejects a contracted vertex of degree <= k at once and
  runs max-flow only on 4 or more vertices.  networkx contracts with its
  own union-find and takes the Stoer-Wagner minimum cut, weighted by
  multiplicity.

Each test tags the subsets it draws and asserts that every tag occurs:
disconnected subsets, subsets with two or more unsafe cut vertices or
bridges (where the DFS stops early), and, for k-FGC, contractions whose
minimum degree is exactly k or k + 1, and ones whose minimum cut is below
their minimum degree.
"""

import random
from collections import Counter

import pytest

from flexconn.feasibility import check_fgc, check_fvc, check_kfgc

from conftest import build

nx = pytest.importorskip("networkx")


def random_subsets(rng, g, count):
    eids = sorted(g.eids)
    for _ in range(count):
        q = rng.choice((0.4, 0.6, 0.8, 0.9, 1.0))
        yield {e for e in eids if rng.random() < q}


def nx_multigraph(g, eids):
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    for e in eids:
        h.add_edge(*g.edge_ends[e], key=e)
    return h


def test_check_fvc_matches_articulation_points():
    rng = random.Random(9101)
    tags = Counter()
    for _ in range(250):
        n = rng.randint(1, 9)
        p = rng.uniform(0.3, 0.9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        vs = [rng.random() < 0.4 for _ in range(n)]
        g = build(n, pairs, vertex_safe=vs)
        for chosen in random_subsets(rng, g, 8):
            h = nx.Graph(nx_multigraph(g, chosen))
            connected = nx.is_connected(h)
            unsafe_cuts = [v for v in nx.articulation_points(h) if not vs[v]]
            assert check_fvc(g, chosen) == (connected and not unsafe_cuts), (g, chosen)
            tags["disconnected"] += not connected
            tags["unsafe cuts >= 2"] += connected and len(unsafe_cuts) >= 2
            tags["feasible"] += connected and not unsafe_cuts
    assert min(tags[t] for t in ("disconnected", "unsafe cuts >= 2", "feasible")) >= 20, tags


def random_multigraph(rng, n_max=7, safe_max=0.8):
    """Parallel edges up to three copies, each copy safe on its own."""
    n = rng.randint(2, n_max)
    p = rng.uniform(0.3, 0.9)
    safe_prob = rng.uniform(0.0, safe_max)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
             for _ in range(rng.choice((1, 1, 2, 3)))]
    return build(n, pairs, edge_safe=[rng.random() < safe_prob for _ in pairs])


def test_check_fgc_matches_bridges_on_multigraphs():
    rng = random.Random(9102)
    tags = Counter()
    for _ in range(250):
        g = random_multigraph(rng)
        for chosen in random_subsets(rng, g, 8):
            h = nx_multigraph(g, chosen)
            connected = nx.is_connected(h)
            unsafe_bridges = [(u, v) for u, v in nx.bridges(h)
                              if next(iter(h[u][v])) in g.unsafe_edge_set]
            assert check_fgc(g, chosen) == (connected and not unsafe_bridges), (g, chosen)
            tags["disconnected"] += not connected
            tags["unsafe bridges >= 2"] += connected and len(unsafe_bridges) >= 2
            tags["feasible"] += connected and not unsafe_bridges
    assert min(tags[t] for t in ("disconnected", "unsafe bridges >= 2", "feasible")) >= 20, tags


def nx_kfgc(g, chosen, k):
    """(feasible, min contracted degree or None): connected, and the
    contraction by the chosen safe edges has a weighted min cut >= k + 1."""
    if not nx.is_connected(nx_multigraph(g, chosen)):
        return False, None
    uf = nx.utils.UnionFind(range(g.n))
    for e in chosen:
        if e not in g.unsafe_edge_set:
            uf.union(*g.edge_ends[e])
    h = nx.Graph()
    h.add_nodes_from({uf[v] for v in range(g.n)})
    if h.number_of_nodes() == 1:
        return True, None
    for e in chosen:
        a, b = (uf[x] for x in g.edge_ends[e])
        if a != b:
            h.add_edge(a, b, weight=h.edges[a, b]["weight"] + 1 if h.has_edge(a, b) else 1)
    min_degree = min(d for _, d in h.degree(weight="weight"))
    return nx.stoer_wagner(h)[0] >= k + 1, min_degree


def two_clusters(rng, k):
    """Two dense multigraphs joined by 1..k+1 unsafe edges: after a
    contraction every vertex can keep degree > k while the joining edges
    form a smaller cut, which only the max-flow test finds."""
    n = rng.randint(4, 9)
    side = [v < n // 2 for v in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if side[u] == side[v] and rng.random() < 0.8
             for _ in range(rng.choice((1, 2, 3)))]
    joins = [(rng.randrange(n // 2), rng.randrange(n // 2, n)) for _ in range(rng.randint(1, k + 1))]
    safe = [rng.random() < 0.15 for _ in pairs] + [False] * len(joins)
    return build(n, pairs + joins, edge_safe=safe)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_check_kfgc_matches_stoer_wagner_on_multigraphs(k):
    rng = random.Random(9103 + k)
    tags = Counter()
    for i in range(200):
        g = random_multigraph(rng) if i % 2 else two_clusters(rng, k)
        for chosen in random_subsets(rng, g, 6):
            want, min_degree = nx_kfgc(g, chosen, k)
            assert check_kfgc(g, chosen, k) == want, (g, chosen, k)
            tags["disconnected"] += min_degree is None and not want
            tags["min degree k"] += min_degree == k
            tags["min degree k + 1"] += min_degree == k + 1
            tags["min cut below min degree"] += min_degree is not None and min_degree > k and not want
            tags["feasible"] += want
    assert min(tags.values()) >= 10 and len(tags) == 5, tags
