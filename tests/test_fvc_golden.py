"""Golden FVC outputs: byte identity of `write_solution` on a fixed corpus.

`tests/data/fvc_golden.json` holds about 60 seeded FVC instances (n 5-60)
drawn with `conftest.random_connected`, each with the SHA-256 of its
`write_solution` output.  Any change to the FVC pipeline that alters a single
output byte fails here.  `tests/data/fvc_scale_golden.json` does the same
for the chord-cycle scale family (`conftest.fvc_chord_cycle`) at n = 100,
200 and 400, seeds 1-3: one apx2 piece each, so Algorithm 1 runs dozens of
rounds and the ear loop hundreds of ears; the digest covers the whole
output, `reduction_events` included.  Regenerate both files (only when an
output change is intended) with

    PYTHONPATH=src:tests python tests/test_fvc_golden.py
"""

import hashlib
import json
import math
import os
import random

from flexconn.feasibility import check_fvc
from flexconn.fvc import solve_fvc
from flexconn.io import write_solution

from conftest import build, fvc_chord_cycle, random_connected

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "fvc_golden.json")
SCALE_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "fvc_scale_golden.json")
SCALE_CASES = [(n, seed) for n in (100, 200, 400) for seed in (1, 2, 3)]


def _digest(g) -> str:
    return hashlib.sha256(write_solution(solve_fvc(g)).encode()).hexdigest()


def _graph(entry):
    unsafe = set(entry["unsafe"])
    safe = [v not in unsafe for v in range(entry["n"])]
    return build(entry["n"], [tuple(p) for p in entry["edges"]], vertex_safe=safe)


def _draw_corpus(seed=20261017, count=60):
    """Feasible instances in three families: the criterion-2 density with
    15% safe vertices (half the corpus, as it reaches apx2 most often), the
    criterion-4 density with a random safe share, and small dense graphs as
    in criterion 1."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        family = len(corpus) % 4
        if family <= 1:
            n = rng.randint(15, 60)
            p, vprob = min(0.5, (math.log(n) + 1.5) / n + 0.06), 0.15
        elif family == 2:
            n = rng.randint(5, 40)
            p = min(0.6, (math.log(n) + 1.6) / n + 0.08)
            vprob = rng.uniform(0.1, 0.9)
        else:
            n = rng.randint(5, 12)
            p, vprob = rng.uniform(0.35, 0.55), 0.4
        g = random_connected(rng, n, p, vertex_safe_prob=vprob)
        if not check_fvc(g, set(g.eids)):
            continue
        corpus.append({
            "n": g.n,
            "unsafe": [v for v in range(g.n) if not g.vertex_safe[v]],
            "edges": [list(uv) for uv in g.ends],
            "sha256": _digest(g),
        })
    return corpus


def test_fvc_outputs_match_golden_digests():
    with open(GOLDEN) as fh:
        corpus = json.load(fh)["instances"]
    assert len(corpus) >= 60
    assert {entry["n"] for entry in corpus} <= set(range(5, 61))
    mismatched = [i for i, entry in enumerate(corpus)
                  if _digest(_graph(entry)) != entry["sha256"]]
    assert not mismatched, f"golden digests differ for instances {mismatched}"


def test_fvc_scale_outputs_match_golden_digests():
    with open(SCALE_GOLDEN) as fh:
        corpus = json.load(fh)["instances"]
    assert [(entry["n"], entry["seed"]) for entry in corpus] == SCALE_CASES
    mismatched = [(entry["n"], entry["seed"]) for entry in corpus
                  if _digest(fvc_chord_cycle(entry["n"], entry["seed"])) != entry["sha256"]]
    assert not mismatched, f"scale golden digests differ for (n, seed) {mismatched}"


if __name__ == "__main__":
    instances = _draw_corpus()
    with open(GOLDEN, "w") as fh:
        json.dump({"generator": "tests/test_fvc_golden.py:_draw_corpus(seed=20261017)",
                   "instances": instances}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(instances)} instances to {GOLDEN}")
    scale = [{"n": n, "seed": seed, "sha256": _digest(fvc_chord_cycle(n, seed))}
             for n, seed in SCALE_CASES]
    with open(SCALE_GOLDEN, "w") as fh:
        json.dump({"generator": "tests/conftest.py:fvc_chord_cycle(n, seed)",
                   "instances": scale}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(scale)} instances to {SCALE_GOLDEN}")
