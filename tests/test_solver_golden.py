"""Golden FGC / k-FGC solver outputs and exact-oracle outputs.

`tests/data/solver_golden.json` holds seeded instances drawn with
`conftest.random_connected`, each with the SHA-256 of one `write_solution`
output:

- `solve`: `solve_fgc` (45 instances with n 3-8, 15 with n 13-20) and
  `solve_kfgc` for k = 1, 2, 3 (20 instances each, n 3-12);
- `exact`: `exact_solve` for FVC, FGC and k-FGC (60 instances each, n <= 8).

Both solvers call the checker kernels through `prune_minimal`, and the exact
search calls them at every node, so any change to a checker that alters one
answer shows here as a changed byte.  `tests/test_fvc_golden.py` covers `solve_fvc`.
Regenerate the file (only when an output change is intended) with

    PYTHONPATH=src:tests python tests/test_solver_golden.py
"""

import hashlib
import json
import os
import random

from flexconn.exact import exact_solve
from flexconn.feasibility import Instance, checker_for
from flexconn.fgc import solve_fgc
from flexconn.io import write_solution
from flexconn.kfgc import solve_kfgc

from conftest import build, random_connected

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "solver_golden.json")


def _output(kind: str, inst: Instance) -> str:
    if kind == "exact":
        return write_solution(exact_solve(inst))
    if inst.problem == "fgc":
        return write_solution(solve_fgc(inst.graph))
    return write_solution(solve_kfgc(inst.graph, inst.k))


def _digest(kind: str, inst: Instance) -> str:
    return hashlib.sha256(_output(kind, inst).encode()).hexdigest()


def _instance(entry) -> Instance:
    unsafe = set(entry["unsafe"])
    g = build(entry["n"], [(u, v) for u, v, _ in entry["edges"]],
              vertex_safe=[v not in unsafe for v in range(entry["n"])],
              edge_safe=[bool(s) for _, _, s in entry["edges"]])
    return Instance(graph=g, problem=entry["problem"], k=entry["k"])


def _plan():
    """(kind, problem, k, count, draw) per slice; draw(rng) -> (n, p,
    vertex_safe_prob, edge_safe_prob).  The k-FGC densities and safe shares
    follow acceptance criterion 10."""
    def fgc_small(rng):
        return rng.randint(3, 8), rng.uniform(0.4, 0.7), 1.0, rng.uniform(0.2, 0.8)

    def fgc_large(rng):   # above the exact 2ECSS cap: the prune heuristic
        n = rng.randint(13, 20)
        return n, rng.uniform(0.2, 0.35), 1.0, rng.uniform(0.3, 0.8)

    def kfgc(k, n_max):
        return lambda rng: (rng.randint(3, n_max), min(0.5 + 0.15 * k, 0.95),
                            1.0, 0.45 + 0.1 * k)

    def fvc_exact(rng):
        return rng.randint(4, 8), rng.uniform(0.35, 0.6), 0.4, 1.0

    def fgc_exact(rng):
        return rng.randint(3, 8), rng.uniform(0.4, 0.7), 1.0, rng.uniform(0.2, 0.8)

    plan = [("solve", "fgc", 1, 45, fgc_small), ("solve", "fgc", 1, 15, fgc_large)]
    plan += [("solve", "kfgc", k, 20, kfgc(k, 12)) for k in (1, 2, 3)]
    plan += [("exact", "fvc", 1, 60, fvc_exact), ("exact", "fgc", 1, 60, fgc_exact)]
    plan += [("exact", "kfgc", k, 20, kfgc(k, 8)) for k in (1, 2, 3)]
    return plan


def _draw_corpus(seed=20261018):
    rng = random.Random(seed)
    corpus = []
    for kind, problem, k, count, draw in _plan():
        made = 0
        while made < count:
            n, p, vprob, eprob = draw(rng)
            g = random_connected(rng, n, p, vertex_safe_prob=vprob,
                                 edge_safe_prob=eprob)
            inst = Instance(graph=g, problem=problem, k=k)
            if not checker_for(inst)(g, set(g.edge_by_id)):
                continue
            made += 1
            corpus.append({
                "kind": kind, "problem": problem, "k": k, "n": g.n,
                "unsafe": [v for v in range(g.n) if not g.vertex_safe[v]],
                "edges": [[e.u, e.v, int(e.safe)] for e in g.edges],
                "sha256": _digest(kind, inst),
            })
    return corpus


def _load():
    with open(GOLDEN) as fh:
        return json.load(fh)["instances"]


def test_corpus_covers_every_slice():
    corpus = _load()
    counts = {}
    for entry in corpus:
        key = (entry["kind"], entry["problem"], entry["k"])
        counts[key] = counts.get(key, 0) + 1
    assert counts == {("solve", "fgc", 1): 60,
                      ("solve", "kfgc", 1): 20, ("solve", "kfgc", 2): 20,
                      ("solve", "kfgc", 3): 20,
                      ("exact", "fvc", 1): 60, ("exact", "fgc", 1): 60,
                      ("exact", "kfgc", 1): 20, ("exact", "kfgc", 2): 20,
                      ("exact", "kfgc", 3): 20}
    assert all(entry["n"] <= 8 for entry in corpus if entry["kind"] == "exact")


def _mismatches(kind):
    return [i for i, entry in enumerate(_load())
            if entry["kind"] == kind
            and _digest(kind, _instance(entry)) != entry["sha256"]]


def test_solver_outputs_match_golden_digests():
    mismatched = _mismatches("solve")
    assert not mismatched, f"golden digests differ for instances {mismatched}"


def test_exact_outputs_match_golden_digests():
    mismatched = _mismatches("exact")
    assert not mismatched, f"golden digests differ for instances {mismatched}"


# n = 9, m = 26, 15 safe edges: the 35th feasible draw of the FGC small slice
# of `_draw_corpus` when that slice drew n from 3-9.  The exact 2ECSS on its
# doubled graph (41 edges) finishes in milliseconds only with the search's
# degree and component bounds; without them it takes about 11 s.
FGC_N9_EDGES = [
    (0, 1, 1), (0, 4, 1), (0, 6, 1), (0, 7, 1), (0, 8, 0), (1, 2, 1), (1, 4, 0),
    (1, 5, 1), (1, 6, 1), (1, 8, 0), (2, 3, 1), (2, 4, 1), (2, 5, 0), (2, 6, 1),
    (2, 7, 1), (2, 8, 0), (3, 4, 0), (3, 5, 0), (3, 6, 1), (3, 7, 0), (3, 8, 0),
    (4, 6, 1), (4, 8, 1), (5, 7, 0), (5, 8, 1), (6, 7, 0)]
FGC_N9_SHA256 = "71de00c87c13f28339759350c358efb8bbfa12a59143189335079da717ba3471"


def test_fgc_n9_doubling_instance():
    g = build(9, [(u, v) for u, v, _ in FGC_N9_EDGES],
              edge_safe=[bool(s) for _, _, s in FGC_N9_EDGES])
    assert _digest("solve", Instance(graph=g, problem="fgc")) == FGC_N9_SHA256


if __name__ == "__main__":
    instances = _draw_corpus()
    with open(GOLDEN, "w") as fh:
        json.dump({"generator": "tests/test_solver_golden.py:_draw_corpus(seed=20261018)",
                   "instances": instances}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(instances)} instances to {GOLDEN}")
