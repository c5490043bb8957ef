"""The solve, exact and check paths read a graph's edge columns only, and
each solve certifies its output once.

A `LabeledGraph` is its edge columns (`eids`, `ends`, `edge_safe`): it has
no per-edge records to build.  This test runs the CLI's `solve`, `exact`
and `check` on golden instances of each problem, which reach `solve_fvc`,
`solve_fgc`, `solve_kfgc`, `exact_solve` and the three checkers, and
asserts that each parsed graph holds only its columns and the cached views
computed from them.  A second test counts the checker
calls of each `solve`, and the whole-graph DFS runs of the FVC solve.
Two more check that the exact search and `prune_minimal` validate their
edge ids once and then call only the unchecked kernels.  One counts the
exact search's kernel calls on a seeded n = 10 corpus: the FVC
unsafe-degree cap keeps them under 1,000, and FGC and k-FGC make exactly
as many as without it.  Another pins the search's depth at each kernel
call to s plus a constant, one frame per chosen edge.  One checks that
Algorithm 1 reads its union-find once per piece, and one that
Algorithm 2 decomposes one graph when it has nothing to add.  The last
three pin the apx2 stages to work proportional to what changes: Algorithm
1 coarsens its partition once per piece and builds each vertex's cross
edges at most once, the ear loop tests each start at most once after it
fails, and the lexicographic cycle search runs one breadth-first search.
Four more pin FVC preprocessing: one low-link DFS per call, however many
pieces its splits and forbidden-cycle steps make; no components walk for
the split that follows a forbidden-safe step; one graph built per reduced
piece and none in between; and one whole-graph DFS per piece, counted
across `preprocess` and the ear builder.  The last pins the rainbow forest
to one union-find per round, with a new round only after an exchange path.
"""

import json
import math
import operator
import os
import random
import sys
from collections import Counter
from dataclasses import fields
from functools import cached_property

import pytest

from flexconn import cli, cycles, ears, exact, feasibility, fvc, graph, harness, rainbow
from flexconn.errors import InfeasibleInstanceError
from flexconn.exact import exact_kecss, exact_solve
from flexconn.feasibility import Instance
from flexconn.fgc import F1SolverHandle, double_safe_edges
from flexconn.graph import LabeledGraph, UnionFind
from flexconn.io import parse_instance
from flexconn.kfgc import kecss_prune_heuristic
from flexconn.rainbow import PseudoEdge

from conftest import (apx2_inputs, build, diamond_necklace, fvc_chord_cycle, fvc_scale_pieces,
                      random_connected)

DATA = os.path.join(os.path.dirname(__file__), "data")


def _goldens(name, **match):
    with open(os.path.join(DATA, name)) as fh:
        entries = json.load(fh)["instances"]
    return [e for e in entries if all(e.get(k) == v for k, v in match.items())]


def _golden(name, **match):
    return _goldens(name, **match)[0]


def _text(entry, k=None):
    edges = entry["edges"]
    lines = [f"p flex {entry['n']} {len(edges)}" + ("" if k is None else f" {k}")]
    lines += [f"v {v} u" for v in entry["unsafe"]]
    lines += [f"e {e[0]} {e[1]} {'s' if e[2:] in ([], [1]) else 'u'}" for e in edges]
    return "\n".join(lines) + "\n"


CASES = [
    ("fvc", "solve", _golden("fvc_golden.json")),
    ("fvc", "exact", _golden("solver_golden.json", kind="exact", problem="fvc", n=8)),
    ("fgc", "solve", _golden("solver_golden.json", kind="solve", problem="fgc", n=8)),
    ("fgc", "exact", _golden("solver_golden.json", kind="exact", problem="fgc", n=8)),
    ("kfgc", "solve", _golden("solver_golden.json", kind="solve", problem="kfgc", k=2)),
    ("kfgc", "exact", _golden("solver_golden.json", kind="exact", problem="kfgc", k=2)),
]


COLUMN_VIEWS = ({f.name for f in fields(LabeledGraph)}
                | {name for name, v in vars(LabeledGraph).items() if isinstance(v, cached_property)})


@pytest.mark.parametrize("problem, command, entry", CASES,
                         ids=[f"{p}-{c}" for p, c, _ in CASES])
def test_no_edge_records(tmp_path, monkeypatch, capsys, problem, command, entry):
    inst = tmp_path / "g.flex"
    inst.write_text(_text(entry, entry.get("k") if problem == "kfgc" else None))
    parsed = []
    real_parse = cli.parse_instance

    def parse(*args, **kwargs):
        inst = real_parse(*args, **kwargs)
        parsed.append(inst.graph)
        return inst

    monkeypatch.setattr(cli, "parse_instance", parse)
    sol = tmp_path / "sol.json"
    assert cli.main([command, "--problem", problem, "-i", str(inst), "-o", str(sol)]) == 0
    assert cli.main(["check", "--problem", problem, "-i", str(inst),
                     "--solution", str(sol)]) == 0
    capsys.readouterr()
    assert len(parsed) == 2
    for g in parsed:
        assert g.m > 0
        assert set(vars(g)) <= COLUMN_VIEWS
    assert not hasattr(LabeledGraph, "edges")


SOLVERS = {"fvc": "solve_fvc", "fgc": "solve_fgc", "kfgc": "solve_kfgc"}
CHECKERS = ("check_fvc", "check_fgc", "check_kfgc")
SOLVE_CASES = [(problem, entry) for problem, command, entry in CASES if command == "solve"]


@pytest.mark.parametrize("problem, entry", SOLVE_CASES, ids=[p for p, _ in SOLVE_CASES])
def test_one_certificate_per_solve(tmp_path, monkeypatch, capsys, problem, entry):
    """No checker runs after the solver returns: `solve` writes the solver's
    own certificate.  k-FGC checks the instance's graph exactly twice, on
    the input and on the returned set (FGC's F1 fallback prunes with the
    checker, so only the first rule applies to it).  FVC checks it once, on
    the stitched set, and decides the input by exactly one whole-graph
    low-link DFS before its first piece."""
    calls, parsed, returned, dfs, pieces = [], [], [], [], []
    for name in CHECKERS:
        real = getattr(feasibility, name)

        def checker(g, *args, real=real, name=name):
            calls.append((name, g, bool(returned), args))
            return real(g, *args)

        for module in [m for key, m in sys.modules.items() if key.startswith("flexconn")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, checker)
    real_dfs = graph.low_link_incidence

    def low_link(inc, keep=None, *args):
        if parsed and inc is parsed[0].incidence and keep is None and not pieces:
            dfs.append(inc)
        return real_dfs(inc, keep, *args)

    for module in [m for key, m in sys.modules.items() if key.startswith("flexconn")]:
        if getattr(module, "low_link_incidence", None) is real_dfs:
            monkeypatch.setattr(module, "low_link_incidence", low_link)
    real_piece = fvc._solve_piece

    def solve_piece(*args):
        pieces.append(args)
        return real_piece(*args)

    monkeypatch.setattr(fvc, "_solve_piece", solve_piece)
    real_solver, real_parse = getattr(harness, SOLVERS[problem]), cli.parse_instance

    def solver(*args, **kwargs):
        sol = real_solver(*args, **kwargs)
        returned.append(sol)
        return sol

    def parse(*args, **kwargs):
        inst = real_parse(*args, **kwargs)
        parsed.append(inst.graph)
        return inst

    monkeypatch.setattr(harness, SOLVERS[problem], solver)
    monkeypatch.setattr(cli, "parse_instance", parse)
    inst = tmp_path / "g.flex"
    inst.write_text(_text(entry, entry.get("k") if problem == "kfgc" else None))
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--problem", problem, "-i", str(inst), "-o", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["feasible"] is True
    assert len(returned) == 1 and calls
    assert [name for name, _, after, _ in calls if after] == []
    own = [(name, args) for name, g, _, args in calls if g is parsed[0]]
    if problem == "fvc":
        assert own == [("check_fvc", (returned[0].edge_ids,))]
        assert len(dfs) == 1 and pieces
    elif problem == "kfgc":
        assert [name for name, _ in own] == ["check_kfgc"] * 2


KERNELS = {"fvc": "_fvc_kernel", "fgc": "_fgc_kernel", "kfgc": "_kfgc_kernel",
           "kecss": "_fgc_kernel"}
EXACT_CASES = [("fvc", {}), ("fgc", {}), ("kfgc", {"k": 2}), ("kecss", {})]


def _spy(monkeypatch, name, calls):
    real = getattr(feasibility, name)

    def spy(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(feasibility, name, spy)


@pytest.mark.parametrize("problem, match", EXACT_CASES, ids=[p for p, _ in EXACT_CASES])
def test_exact_validates_once(tmp_path, monkeypatch, capsys, problem, match):
    """`exact` validates the edge ids once, in its entry check; the search
    calls only the kernel.  Every exact golden case of the problem is run,
    and on some of them the search runs past the spanning-tree level.  The
    kECSS case runs `exact_kecss` at k = 2 on the doubled graph of each FGC
    golden case, as the FGC driver does."""
    entries = _goldens("solver_golden.json", kind="exact",
                       problem="fgc" if problem == "kecss" else problem, **match)
    validated, kernel, searched = [], [], 0
    _spy(monkeypatch, "_edge_set", validated)
    _spy(monkeypatch, KERNELS[problem], kernel)
    inst, sol = tmp_path / "g.flex", tmp_path / "sol.json"
    for entry in entries:
        inst.write_text(_text(entry, entry.get("k") if problem == "kfgc" else None))
        del validated[:], kernel[:]
        if problem == "kecss":
            doubled = double_safe_edges(parse_instance(_text(entry), problem="fgc").graph)
            assert exact_kecss(doubled, 2).edge_ids
        else:
            assert cli.main(["exact", "--problem", problem, "-i", str(inst), "-o", str(sol)]) == 0
        assert len(validated) == 1, entry
        searched += len(kernel) > 1
    capsys.readouterr()
    assert searched >= 1


# (problem, k, corpus seeds, most kernel calls), the entry check counted:
# FVC made 128,694 calls before the unsafe-degree cap and makes 818 with it.
# FGC and k-FGC have no cap, so their counts are those from before it,
# exactly, on the corpus less the four seeds (3, 17, 20, 25) whose k-FGC
# searches take 50 s together.
LIGHT_SEEDS = [s for s in range(40) if s not in (3, 17, 20, 25)]
EXACT_CORPUS = [("fvc", 1, range(40), 1000), ("fgc", 1, LIGHT_SEEDS, 15671),
                ("kfgc", 2, LIGHT_SEEDS, 25204)]


@pytest.mark.parametrize("problem, k, seeds, most", EXACT_CORPUS,
                         ids=[p for p, _, _, _ in EXACT_CORPUS])
def test_exact_search_kernel_calls_on_the_corpus(monkeypatch, problem, k, seeds, most):
    """The exact search's kernel calls on `random_connected(Random(1000 +
    seed), 10, 0.6, 0.5, 0.5)`: at most `most` for FVC, exactly `most` for
    FGC and k-FGC, where the cap never binds."""
    kernel = []
    _spy(monkeypatch, KERNELS[problem], kernel)
    for seed in seeds:
        g = random_connected(random.Random(1000 + seed), 10, 0.6, 0.5, 0.5)
        try:
            exact_solve(Instance(graph=g, problem=problem, k=k))
        except InfeasibleInstanceError:
            pass
    if problem == "fvc":
        assert len(kernel) <= most
    else:
        assert len(kernel) == most


# frames between a kernel call and `_minimum_feasible` beyond s: the search
# takes at most s, one per chosen edge
DEPTH_SLACK = 2


@pytest.mark.parametrize("problem, k", [("fvc", 1), ("fgc", 1), ("kfgc", 2)])
def test_exact_search_depth_is_s_plus_a_constant(monkeypatch, problem, k):
    """At every kernel call of the exact search on the corpus, the frames
    between the kernel and `_minimum_feasible` number at most s +
    DEPTH_SLACK."""
    real = exact._minimum_feasible
    depths = []   # (frames, s) per kernel call

    def search(g, predicate, *bounds):
        def kernel(h, ids):
            frame, depth = sys._getframe(1), 0
            while frame.f_code is not real.__code__:
                frame, depth = frame.f_back, depth + 1
            depths.append((depth, frame.f_locals["s"]))
            return predicate(h, ids)
        return real(g, kernel, *bounds)

    monkeypatch.setattr(exact, "_minimum_feasible", search)
    for seed in LIGHT_SEEDS:
        g = random_connected(random.Random(1000 + seed), 10, 0.6, 0.5, 0.5)
        try:
            exact_solve(Instance(graph=g, problem=problem, k=k))
        except InfeasibleInstanceError:
            pass
    assert depths
    assert max(d - s for d, s in depths) <= DEPTH_SLACK, max(depths)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_prune_minimal_validates_once(monkeypatch, n):
    """The F1 fallback and the kECSS prune heuristic validate once, however
    many edges they try to drop."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = LabeledGraph.build(n, pairs, edge_safe=[i % 3 == 0 for i in range(len(pairs))])
    validated = []
    _spy(monkeypatch, "_edge_set", validated)
    kept = F1SolverHandle().solve(g)
    assert validated == ["_edge_set"]
    assert kecss_prune_heuristic(g, 2) and len(validated) == 2
    monkeypatch.undo()
    assert feasibility.check_fgc(g, kept)


def test_algorithm1_reads_the_union_find_once(monkeypatch):
    """Algorithm 1 reads its parts from the union-find once per piece and
    then merges the parts each bought cycle touches."""
    real_groups, real_algorithm1 = UnionFind.groups, fvc.algorithm1_buy_good_cycles
    reads, per_piece, bought = [], [], []

    def groups(self):
        reads.append(self)
        return real_groups(self)

    def algorithm1(*args):
        del reads[:]
        x1, s1, a = real_algorithm1(*args)
        per_piece.append(len(reads))
        bought.append(len(s1))
        return x1, s1, a

    monkeypatch.setattr(UnionFind, "groups", groups)
    monkeypatch.setattr(fvc, "algorithm1_buy_good_cycles", algorithm1)
    rng = random.Random(5)
    while len(per_piece) < 10:
        n = rng.randint(30, 60)
        g = random_connected(rng, n, min(0.5, (math.log(n) + 1.5) / n + 0.06),
                             vertex_safe_prob=0.15)
        if feasibility.check_fvc(g, set(g.eids)):
            fvc.solve_fvc(g)
    assert per_piece == [1] * len(per_piece)
    assert sum(bought) >= 4 * len(bought), bought


def test_algorithm2_decomposes_once_when_it_adds_nothing(monkeypatch):
    """Algorithm 2 decomposes the bought graph first and stops when it is
    one block, so a piece that it leaves unchanged costs one block
    decomposition, not one of each graph."""
    real_blocks, real_algorithm2 = fvc.block_decomposition_edges, fvc.algorithm2_make_2vc
    calls, unchanged = [], []

    def blocks(*args):
        calls.append(args)
        return real_blocks(*args)

    def algorithm2(*args):
        del calls[:]
        x2, s2 = real_algorithm2(*args)
        if not x2 and not s2:
            unchanged.append(len(calls))
        return x2, s2

    monkeypatch.setattr(fvc, "block_decomposition_edges", blocks)
    monkeypatch.setattr(fvc, "algorithm2_make_2vc", algorithm2)
    for g, _, _ in apx2_inputs():
        fvc._solve_piece(g)
    assert len(unchanged) >= len(apx2_inputs()) // 2, len(unchanged)
    assert unchanged == [1] * len(unchanged)


def test_algorithm1_coarsens_once_per_piece(monkeypatch):
    """One full coarsening per apx2 piece, however many cycles it buys:
    `merge` updates the coarsening in place.  Each vertex's cross-edge list
    is built at most once per piece.  Checked on the apx2 pieces of the
    seeded fvc-scale corpus and on a chord-cycle piece of 400 vertices."""
    coarsened, built, rounds = [], [], []
    real_coarsen, real_missing = cycles._coarsen, cycles._CrossEdges.__missing__
    real_algorithm1 = fvc.algorithm1_buy_good_cycles

    def coarsen(search):
        coarsened.append(search)
        return real_coarsen(search)

    def missing(self, v):
        built.append(v)
        return real_missing(self, v)

    def algorithm1(g, vd, rainbow):
        del coarsened[:], built[:]
        x1, s1, a = real_algorithm1(g, vd, rainbow)
        assert len(coarsened) == 1
        assert len(built) == len(set(built)) <= len(vd)
        rounds.append(len(s1))
        return x1, s1, a

    monkeypatch.setattr(cycles, "_coarsen", coarsen)
    monkeypatch.setattr(cycles._CrossEdges, "__missing__", missing)
    monkeypatch.setattr(fvc, "algorithm1_buy_good_cycles", algorithm1)
    for g, _, _ in apx2_inputs():
        fvc._solve_piece(g)
    fvc.solve_fvc(fvc_chord_cycle(400, 1))
    assert len(rounds) == len(apx2_inputs()) + 1
    assert sum(rounds) >= 4 * len(rounds) and rounds[-1] >= 100, rounds


def test_ear_loop_tests_each_failed_start_once(monkeypatch):
    """A start that fails is never tested again, so a decomposition makes
    one start test per open ear and one per vertex of V(D), the last that
    fails: linear, not |V(D)| tests per ear."""
    tests = []
    real = ears._ear_at

    def ear_at(g, vd, x):
        ear = real(g, vd, x)
        tests.append((x, ear is None))
        return ear

    monkeypatch.setattr(ears, "_ear_at", ear_at)
    grew = 0
    for g in fvc_scale_pieces() + (fvc_chord_cycle(400, 1),):
        del tests[:]
        dec = ears.build_long_ear_decomposition(g)
        failed = [x for x, none in tests if none]
        assert sorted(failed) == sorted(dec.vertices)
        assert len(tests) == len(dec.ears) - 1 + len(dec.vertices)
        grew += len(dec.ears) > 2
    assert grew >= 200 and len(dec.ears) >= 80, (grew, len(dec.ears))


def test_lex_first_cycle_runs_one_search(monkeypatch):
    """The lexicographic search of the shortest long cycle runs one
    breadth-first search, from the smallest vertex of the cycles of that
    length, not one per start vertex."""
    searches, calls = [], []
    real_dist, real_cycle = ears._dist_home, ears.shortest_long_cycle

    def dist_home(g, start, radius):
        searches.append(start)
        return real_dist(g, start, radius)

    def shortest(g):
        del searches[:]
        cycle = real_cycle(g)
        assert searches == [cycle[0]]
        calls.append(cycle[0])
        return cycle

    monkeypatch.setattr(ears, "_dist_home", dist_home)
    monkeypatch.setattr(ears, "shortest_long_cycle", shortest)
    for g in fvc_scale_pieces() + (fvc_chord_cycle(400, 1),):
        ears.build_long_ear_decomposition(g)
    assert len(calls) == len(fvc_scale_pieces()) + 1 and any(calls), calls


def test_preprocess_runs_one_dfs(monkeypatch):
    """Each graph on the worklist comes with its cut vertices, so
    `preprocess` runs the entry DFS and no other: on a safe path of 1,000
    vertices (996 splits), a ring of 200 all-unsafe diamonds (200
    `forbidden_unsafe` steps) and one of 200 diamonds on safe hubs (200
    `forbidden_safe` steps, each with its split)."""
    real, calls = graph.low_link_incidence, []

    def low_link(*args):
        calls.append(args[0])
        return real(*args)

    for module in [m for key, m in sys.modules.items() if key.startswith("flexconn")]:
        if getattr(module, "low_link_incidence", None) is real:
            monkeypatch.setattr(module, "low_link_incidence", low_link)
    hosts = {"path": build(1000, [(i, i + 1) for i in range(999)]),
             "unsafe ring": diamond_necklace(200),
             "safe ring": diamond_necklace(200, hubs_safe=True)}
    steps = {}
    for name, g in hosts.items():
        del calls[:]
        _, _, events = fvc.preprocess(g)
        assert calls == [g.incidence], name
        steps[name] = Counter(ev[0] for ev in events)
    assert steps == {"path": {"split": 996}, "unsafe ring": {"forbidden_unsafe": 200},
                     "safe ring": {"forbidden_safe": 200, "split": 200}}


def test_forbidden_safe_step_builds_its_split(monkeypatch):
    """Dropping the edge uw of a forbidden cycle leaves w a leaf on v, so
    the step makes the split at v itself, g[vs - w] and the edge piece
    {v, w}, with no components walk.  A ring of 200 diamonds on safe hubs
    makes 200 such steps and no walk; a safe path of 100 vertices still
    makes one walk per split."""
    real, calls = fvc.components, []

    def components(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fvc, "components", components)
    _, _, events = fvc.preprocess(diamond_necklace(200, hubs_safe=True))
    assert calls == []
    assert Counter(ev[0] for ev in events) == {"forbidden_safe": 200, "split": 200}
    _, _, events = fvc.preprocess(build(100, [(i, i + 1) for i in range(99)]))
    assert len(calls) == len(events) == 96


def test_preprocess_builds_each_piece_once(monkeypatch):
    """The worklist holds vertex sets of the input g, so `preprocess`
    builds no graph between steps and each final piece once, as
    `g.induced(vs)`; a piece that nothing reduced is g itself.  A safe
    path of 1,000 vertices gives 997 pieces, a ring of 200 all-unsafe
    diamonds one, a ring of 200 diamonds on safe hubs 201, and a 6-cycle
    is its own one piece."""
    real, built = LabeledGraph.induced, []

    def induced(self, vertices):
        built.append(real(self, vertices))
        return built[-1]

    monkeypatch.setattr(LabeledGraph, "induced", induced)
    hosts = {"path": build(1000, [(i, i + 1) for i in range(999)]),
             "unsafe ring": diamond_necklace(200),
             "safe ring": diamond_necklace(200, hubs_safe=True),
             "6-cycle": build(6, [(i, (i + 1) % 6) for i in range(6)])}
    counts = {}
    for name, g in hosts.items():
        del built[:]
        pieces, _, _ = fvc.preprocess(g)
        reduced = [p for p in pieces if p is not g]
        assert len(reduced) == len(built) and all(map(operator.is_, reduced, built)), name
        counts[name] = len(built)
    assert counts == {"path": 997, "unsafe ring": 1, "safe ring": 201, "6-cycle": 0}


def test_one_whole_graph_dfs_per_piece(monkeypatch):
    """Every piece that reaches the ear builder gets one low-link DFS over
    its whole graph, counted across `preprocess` and the ear builder.  A
    piece that `preprocess` did not reduce is the input graph itself, whose
    entry DFS the ear builder's 2VC check reads again.  Checked on 30
    seeded fvc-scale-like instances with n from 15, and on each joined at a
    safe vertex to a copy of itself, which splits into two reduced pieces."""
    real_dfs, real_ears = graph.low_link_incidence, fvc.build_long_ear_decomposition
    whole, built = [], []

    def low_link(inc, keep=None, *args):
        if keep is None:
            whole.append(inc)
        return real_dfs(inc, keep, *args)

    def ear_builder(g):
        built.append(g)
        return real_ears(g)

    for module in [m for key, m in sys.modules.items() if key.startswith("flexconn")]:
        if getattr(module, "low_link_incidence", None) is real_dfs:
            monkeypatch.setattr(module, "low_link_incidence", low_link)
    monkeypatch.setattr(fvc, "build_long_ear_decomposition", ear_builder)
    rng = random.Random(11)
    solved = unreduced = 0
    while solved < 30:
        n = rng.randint(15, 60)
        g = random_connected(rng, n, min(0.5, (math.log(n) + 1.5) / n + 0.06),
                             vertex_safe_prob=0.15)
        if True not in g.vertex_safe or not feasibility.check_fvc(g, set(g.eids)):
            continue
        fvc.solve_fvc(g)
        solved += 1
        unreduced += any(piece is g for piece in built)
        # two copies of g joined at its lowest safe vertex: one split, two pieces
        s = g.vertex_safe.index(True)
        copy = [s if v == s else n + v - (v > s) for v in range(n)]
        fvc.solve_fvc(build(2 * n - 1, list(g.ends) + [(copy[u], copy[v]) for u, v in g.ends],
                            g.vertex_safe + g.vertex_safe[:s] + g.vertex_safe[s + 1:]))
    assert [sum(inc is piece.incidence for inc in whole) for piece in built] == [1] * len(built)
    assert unreduced >= 25 and len(built) >= 3 * unreduced, (unreduced, len(built))


def _random_pseudo_edges(rng):
    """2 to 12 colours of singletons and pairs, each with 1-5 candidate
    pseudo-edges over 3 to 12 vertices, so colours compete for vertices."""
    nv = rng.randint(3, 12)
    pe = set()
    for c in range(rng.randint(2, 12)):
        colour = ("v", 100 + c) if rng.random() < 0.6 else ("p", 100 + 2 * c, 101 + 2 * c)
        for _ in range(rng.randint(1, 5)):
            a, b = sorted(rng.sample(range(nv), 2))
            pe.add(PseudoEdge(a, b, colour))
    return tuple(sorted(pe))


def test_rainbow_forest_builds_its_trees_once_per_round(monkeypatch):
    """`max_rainbow_forest` builds one union-find per round, and a new round
    starts only after an exchange path.  Its first pass is the greedy
    forest, and each exchange path adds one member, so a call builds at
    most 1 + |forest| - |greedy forest| union-finds.  The chord-cycle
    pieces of 1,600 and 3,200 vertices and the apx2 pieces of the seeded
    fvc-scale corpus take no exchange path: exactly one build each,
    however many pseudo-edges the forest takes."""
    real, built = rainbow.UnionFind, []

    def union_find(items):
        built.append(items)
        return real(items)

    def greedy_size(pe):
        """The size of the forest the first pass builds from no members."""
        uf, colours = UnionFind({v for p in pe for v in (p.a, p.b)}), set()
        for p in sorted(pe):
            if p.colour not in colours and uf.union(p.a, p.b):
                colours.add(p.colour)
        return len(colours)

    monkeypatch.setattr(rainbow, "UnionFind", union_find)
    chords = [fvc_chord_cycle(n, 1) for n in (1600, 3200)]
    pieces = [fvc.build_pseudo_edges(g, fvc.partition_k_sets(g, ears.build_long_ear_decomposition(g)))
              for g in chords] + [pe for _, _, pe in apx2_inputs()]
    sizes = []
    for pe in pieces:
        del built[:]
        sizes.append(len(rainbow.max_rainbow_forest(pe)))
        assert len(built) == 1, pe
    assert min(sizes[:2]) >= 100, sizes
    rng, exchanged = random.Random(26), 0
    for _ in range(1000):
        pe = _random_pseudo_edges(rng)
        del built[:]
        forest = rainbow.max_rainbow_forest(pe)
        assert 1 <= len(built) <= 1 + len(forest) - greedy_size(pe), pe
        exchanged += len(built) > 1
    assert exchanged >= 100, exchanged
