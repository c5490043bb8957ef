"""The fixed instance pools of the four workloads.

Instances are drawn with stdlib `random` and kept or resampled only on input
properties: the size and density ranges of each workload, connectivity, and
feasibility decided with networkx.  Nothing here imports flexconn, so a change
to the library cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import networkx as nx

WORKLOADS = ("fvc-scale", "fvc-bench", "fgc-bench", "kfgc-bench")


@dataclass(frozen=True)
class Inst:
    problem: str
    n: int
    pairs: Tuple[Tuple[int, int], ...]
    vertex_safe: Tuple[bool, ...]
    edge_safe: Tuple[bool, ...]
    k: int = 1

    def text(self) -> str:
        """The instance in flexconn's file format.  Flags the problem ignores
        are left out, so parsing raises no warning."""
        header = f"p flex {self.n} {len(self.pairs)}"
        lines = [f"c perfbench {self.problem}",
                 header + (f" {self.k}" if self.problem == "kfgc" else "")]
        if self.problem == "fvc":
            lines += [f"v {v} {'s' if s else 'u'}" for v, s in enumerate(self.vertex_safe)]
            lines += [f"e {u} {v}" for u, v in self.pairs]
        else:
            lines += [f"e {u} {v} {'s' if s else 'u'}"
                      for (u, v), s in zip(self.pairs, self.edge_safe)]
        return "\n".join(lines) + "\n"


def nx_graph(n: int, pairs: Sequence[Tuple[int, int]], eids=None) -> nx.Graph:
    """Simple graph on 0..n-1 with an `eid` attribute per edge."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for eid in (range(len(pairs)) if eids is None else eids):
        u, v = pairs[eid]
        g.add_edge(u, v, eid=eid)
    return g


def fvc_feasible(inst: Inst, eids=None) -> bool:
    """Connected, and every articulation point is safe."""
    g = nx_graph(inst.n, inst.pairs, eids)
    return nx.is_connected(g) and all(inst.vertex_safe[v] for v in nx.articulation_points(g))


def fgc_feasible(inst: Inst, eids=None) -> bool:
    """Connected, and every bridge is safe."""
    g = nx_graph(inst.n, inst.pairs, eids)
    return nx.is_connected(g) and all(inst.edge_safe[g.edges[u, v]["eid"]]
                                      for u, v in nx.bridges(g))


def kfgc_feasible(inst: Inst, eids=None) -> bool:
    """Connected, and after contracting the safe edges the weighted global
    minimum cut (unsafe edge multiplicities) is at least k+1."""
    eids = range(len(inst.pairs)) if eids is None else eids
    if not nx.is_connected(nx_graph(inst.n, inst.pairs, eids)):
        return False
    uf = nx.utils.UnionFind(range(inst.n))
    for eid in eids:
        if inst.edge_safe[eid]:
            uf.union(*inst.pairs[eid])
    h = nx.Graph()
    h.add_nodes_from({uf[v] for v in range(inst.n)})
    if h.number_of_nodes() <= 1:
        return True
    for eid in eids:
        a, b = (uf[x] for x in inst.pairs[eid])
        if a != b:
            w = h.edges[a, b]["weight"] + 1 if h.has_edge(a, b) else 1
            h.add_edge(a, b, weight=w)
    cut, _ = nx.stoer_wagner(h)
    return cut >= inst.k + 1


FEASIBLE = {"fvc": fvc_feasible, "fgc": fgc_feasible, "kfgc": kfgc_feasible}


def _connected_gnp(rng: random.Random, n: int, p: float) -> List[Tuple[int, int]]:
    while True:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if nx.is_connected(nx_graph(n, pairs)):
            return pairs


def _draw(rng: random.Random, problem: str, n: int, p: float,
          vertex_safe_prob: float, edge_safe_prob: float, k: int = 1) -> Inst:
    """G(n, p) resampled until connected and feasible, then safety flags."""
    while True:
        pairs = _connected_gnp(rng, n, p)
        vs = tuple(rng.random() < vertex_safe_prob for _ in range(n))
        es = tuple(rng.random() < edge_safe_prob for _ in pairs)
        inst = Inst(problem, n, tuple(pairs), vs, es, k)
        if FEASIBLE[problem](inst):
            return inst


def _fvc_scale(rng: random.Random, i: int) -> Inst:
    # the criterion-2 generator: sparse enough that pieces reach apx2
    n = rng.randint(30, 60)
    p = min(0.5, (math.log(n) + 1.5) / n + 0.06)
    return _draw(rng, "fvc", n, p, vertex_safe_prob=0.15, edge_safe_prob=1.0)


def _fvc_bench(rng: random.Random, i: int) -> Inst:
    # the criterion-1 / `flexconn bench` default regime
    return _draw(rng, "fvc", rng.randint(4, 9), rng.uniform(0.35, 0.55),
                 vertex_safe_prob=0.4, edge_safe_prob=1.0)


def _fgc_bench(rng: random.Random, i: int) -> Inst:
    # criterion 8
    return _draw(rng, "fgc", rng.randint(3, 7), rng.uniform(0.35, 0.55),
                 vertex_safe_prob=1.0, edge_safe_prob=rng.uniform(0.2, 0.8))


def _kfgc_bench(rng: random.Random, i: int) -> Inst:
    # criterion 10, k cycling through 1, 2, 3
    k = 1 + i % 3
    return _draw(rng, "kfgc", rng.randint(3, 7), min(0.5 + 0.15 * k, 0.95),
                 vertex_safe_prob=1.0, edge_safe_prob=0.45 + 0.1 * k, k=k)


_GENERATORS = {"fvc-scale": _fvc_scale, "fvc-bench": _fvc_bench,
               "fgc-bench": _fgc_bench, "kfgc-bench": _kfgc_bench}


def make_pool(workload: str, size: int) -> List[Inst]:
    """The workload's fixed instance pool; a shorter pool is a prefix of a
    longer one."""
    rng = random.Random(f"perfbench-pool:{workload}")
    gen = _GENERATORS[workload]
    return [gen(rng, i) for i in range(size)]
