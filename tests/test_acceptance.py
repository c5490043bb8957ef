"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are exact
integer/rational comparisons except the 1e-9 slack on the sampled size
arithmetic, as stated per criterion.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from flexconn.cli import main
from flexconn.cycles import find_good_cycle, is_good_cycle
from flexconn.ears import build_long_ear_decomposition, find_forbidden_cycle
from flexconn.exact import exact_kecss, exact_solve
from flexconn.feasibility import Instance, check_fgc, check_fvc, check_kfgc
from flexconn.fgc import solve_fgc
from flexconn.fvc import preprocess, solve_fvc, solve_tree_case
from flexconn.graph import is_connected, is_k_edge_connected
from flexconn.harness import check_arithmetic_lemmas, gen_safe_tree_family
from flexconn.kfgc import KecssSolverHandle, max_safe_forest, solve_kfgc
from flexconn.rainbow import PseudoEdge, solve_rainbow

from conftest import (FIX_A_PAIRS, FIX_A_SAFE, brute_force_rainbow_components, build,
                      by_colour, cut_vertices, leftover_is_matching, random_connected,
                      solve_2ecss_blockwise)

ELEVEN_SEVENTHS = Fraction(11, 7)


def report(num, name, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {mark} - {name}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num}: {name} ({detail})"


def _feasible_fvc(rng, n_lo, n_hi, p=None, vprob=0.4):
    while True:
        n = rng.randint(n_lo, n_hi)
        pp = p if p is not None else rng.uniform(0.35, 0.55)
        g = random_connected(rng, n, pp, vertex_safe_prob=vprob)
        if check_fvc(g, set(g.eids)):
            return g


def test_criterion_1_fvc_guarantee_against_oracle():
    rng = random.Random(20260810)
    t0 = time.time()
    worst = Fraction(0)
    for i in range(500):
        g = _feasible_fvc(rng, 4, 9)
        sol = solve_fvc(g)
        assert check_fvc(g, sol.edge_ids)
        opt = exact_solve(Instance(graph=g, problem="fvc")).size
        ratio = Fraction(sol.size, opt)
        worst = max(worst, ratio)
        assert ratio <= ELEVEN_SEVENTHS, (i, sol.size, opt)
    elapsed = time.time() - t0
    report(1, "FVC 11/7 vs exact OPT on 500 instances (n<=9)",
           worst <= ELEVEN_SEVENTHS and elapsed <= 300,
           f"worst={float(worst):.4f} time={elapsed:.1f}s")


def test_criterion_2_fvc_oracle_free_guarantee():
    rng = random.Random(77001)
    reached = 0
    worst = Fraction(0)
    i = 0
    while reached < 100:
        i += 1
        n = 15 + (i * 7) % 46
        p = min(0.5, (math.log(n) + 1.5) / n + 0.06)
        g = random_connected(rng, n, p, vertex_safe_prob=0.15)
        if not check_fvc(g, set(g.eids)):
            continue
        sol = solve_fvc(g)
        for piece in sol.meta["pieces"]:
            if piece.get("reached_apx2"):
                best = min(piece["apx1_size"], piece["apx2_size"])
                ratio = Fraction(best, piece["lower_bound"])
                worst = max(worst, ratio)
                assert ratio <= ELEVEN_SEVENTHS, piece
                reached += 1
    report(2, "FVC 11/7 vs internal LB on 100 apx2 pieces (n in [15,60])",
           worst <= ELEVEN_SEVENTHS, f"pieces={reached} worst={float(worst):.4f}")


def test_criterion_3_fixtures():
    fix_a = build(6, FIX_A_PAIRS, vertex_safe=FIX_A_SAFE)
    fix_b = build(7, FIX_A_PAIRS + [(0, 6), (1, 6)],
                  vertex_safe=FIX_A_SAFE + [False])
    sol_a = solve_fvc(fix_a)
    opt_a = exact_solve(Instance(graph=fix_a, problem="fvc")).size
    sol_b = solve_fvc(fix_b)
    opt_b = exact_solve(Instance(graph=fix_b, problem="fvc")).size
    ok = (sol_a.size, opt_a, sol_b.size, opt_b) == (8, 6, 8, 7)
    report(3, "fixtures: FIX-A 8 vs OPT 6, FIX-B 8 vs OPT 7", ok,
           f"got A={sol_a.size}/{opt_a} B={sol_b.size}/{opt_b}")


def test_criterion_4_ear_invariants():
    rng = random.Random(4004)
    done = violations = 0
    while done < 200:
        n = rng.randint(5, 40)
        p = min(0.6, (math.log(n) + 1.6) / n + 0.08)
        g = random_connected(rng, n, p, vertex_safe_prob=rng.uniform(0.1, 0.9))
        if not check_fvc(g, set(g.eids)):
            continue
        pieces, _, _ = preprocess(g)
        for piece in pieces:
            if piece.n < 5:
                continue
            assert not cut_vertices(piece)
            assert find_forbidden_cycle(piece, frozenset(range(piece.n))) is None
            dec = build_long_ear_decomposition(piece)
            if 3 * dec.edge_count > 4 * (len(dec.vertices) - 1):
                violations += 1
            if not leftover_is_matching(piece, dec.vertices):
                violations += 1
            done += 1
    report(4, "ear bound and leftover matching on 200 preprocessed pieces",
           violations == 0, f"pieces={done}")


def test_criterion_5_rainbow_optimality():
    rng = random.Random(5005)
    bad = 0
    for trial in range(200):
        nv = rng.randint(3, 10)
        ncols = rng.randint(1, min(12, 2 * nv))
        edges = set()
        for ci in range(ncols):
            colour = ("v", 1000 + ci)
            for _ in range(rng.randint(1, 3)):
                a, b = rng.sample(range(nv), 2)
                edges.add(PseudoEdge(min(a, b), max(a, b), colour))
        pe = tuple(sorted(edges))
        sol = solve_rainbow(pe, range(nv))
        if sol.alpha != brute_force_rainbow_components(pe, range(nv)):
            bad += 1
            continue
        cands = by_colour(pe)
        base = len(sol.singletons)
        for p in sol.chosen:
            for cand in cands[p.colour]:
                trial_set = [cand if q == p else q for q in sol.chosen]
                touched = set()
                for q in trial_set:
                    touched.update((q.a, q.b))
                if nv - len(touched) < base:
                    bad += 1
    report(5, "rainbow component optimality + swap-minimal singletons (200x)",
           bad == 0, f"violations={bad}")


def test_criterion_6_good_cycles_and_phases():
    rng = random.Random(6006)
    cycles_checked = 0
    produced = 0
    while produced < 120:
        g = random_connected(rng, rng.randint(4, 11), 0.5)
        triples = [(e, u, v) for e, (u, v) in zip(g.eids, g.ends)]
        if not is_connected(range(g.n), triples) or cut_vertices(g):
            continue
        verts = list(range(g.n))
        rng.shuffle(verts)
        cut = max(2, rng.randint(2, g.n))
        seeds = verts[:cut]
        owner = {s: i for i, s in enumerate(seeds)}
        changed = True
        while changed:
            changed = False
            for v in range(g.n):
                if v in owner:
                    continue
                nbrs = [w for w in g.neighbors(v) if w in owner]
                if nbrs:
                    owner[v] = owner[nbrs[0]]
                    changed = True
        parts = {}
        for v, i in owner.items():
            parts.setdefault(i, set()).add(v)
        part_list = [frozenset(p) for p in parts.values()]
        produced += 1
        cyc = find_good_cycle(g, set(range(g.n)), part_list)
        if cyc is not None:
            trip = [(eid, *g.edge_ends[eid])
                    for eid in sorted(cyc)]
            assert is_good_cycle(part_list, trip)
            cycles_checked += 1
    # phase invariants (one large component, one block) are enforced by
    # in-solver checks, and the independent remainder by
    # tests/test_fvc.py; drive them through full runs
    pipeline_runs = 0
    rng2 = random.Random(6607)
    while pipeline_runs < 25:
        g = _feasible_fvc(rng2, 10, 22, p=0.3, vprob=0.15)
        sol = solve_fvc(g)
        pipeline_runs += sum(1 for piece in sol.meta["pieces"]
                             if piece.get("reached_apx2"))
    report(6, "good-cycle validation + phase invariants",
           cycles_checked > 0 and pipeline_runs >= 25,
           f"cycles={cycles_checked} apx2_runs={pipeline_runs}")


def test_criterion_7_arithmetic_lemmas():
    result = check_arithmetic_lemmas(100_000, seed=70707)
    report(7, "sampled 11/7 size arithmetic, 1e5 tuples + corners",
           result.ok and result.max_ratio_plain <= 11 / 7 + 1e-9
           and result.max_ratio_with_x <= 11 / 7 + 1e-9,
           f"max_plain={result.max_ratio_plain:.6f} "
           f"max_with_x={result.max_ratio_with_x:.6f}")


def test_criterion_8_fgc_with_exact_subsolvers():
    rng = random.Random(8008)
    solver = KecssSolverHandle(cap_n=12)
    done = 0
    while done < 120:
        g = random_connected(rng, rng.randint(3, 8), rng.uniform(0.35, 0.55),
                             edge_safe_prob=rng.uniform(0.2, 0.8))
        if not check_fgc(g, set(g.eids)):
            continue
        sol = solve_fgc(g, solver=solver)
        assert check_fgc(g, sol.edge_ids)
        opt = exact_solve(Instance(graph=g, problem="fgc")).edge_ids
        opt_s = sum(1 for e in opt if e not in g.unsafe_edge_set)
        opt_u = len(opt) - opt_s
        assert sol.meta["f2_size"] <= 2 * opt_s + opt_u
        assert sol.size <= 2 * len(opt)
        done += 1
    # The 10/7 end-to-end factor is NOT claimed here: the F1 subroutine of
    # the literature is out of scope and replaced by minimal pruning.
    report(8, "FGC: |F2| <= 2|OPT_S|+|OPT_U| and min <= 2 OPT (exact subsolvers)",
           True, f"instances={done}; F1 fallback documented, 10/7 not claimed")


def test_criterion_9_2ecss_bounds_and_blockwise():
    rng = random.Random(9009)
    solver = KecssSolverHandle(cap_n=12)
    done = 0
    while done < 200:
        g = random_connected(rng, rng.randint(3, 9), rng.uniform(0.4, 0.7))
        if not is_k_edge_connected(g, 2):
            continue
        opt = exact_kecss(g, 2, cap_n=9).size
        x = opt - g.n
        assert Fraction(opt) <= Fraction(4, 3) * g.n + Fraction(2, 3) * (x - 1)
        done += 1
    chains = 0
    while chains < 12:
        g1 = random_connected(rng, rng.randint(3, 5), 0.7)
        g2 = random_connected(rng, rng.randint(3, 5), 0.7)
        if not (is_k_edge_connected(g1, 2) and is_k_edge_connected(g2, 2)):
            continue
        offset = g1.n - 1
        pairs = list(g1.ends)
        pairs += [(u + offset, v + offset) for u, v in g2.ends]
        g = build(g1.n + g2.n - 1, pairs)
        assert solve_2ecss_blockwise(g, solver).size == exact_kecss(g, 2, cap_n=12).size
        chains += 1
    report(9, "2ECSS 4/3 n + 2/3 (x-1) bound (200x) + blockwise = whole-graph",
           True, f"graphs={done} chains={chains}")


def test_criterion_10_kfgc():
    rng = random.Random(101010)
    sub = KecssSolverHandle(cap_n=10)
    counts = {1: 0, 2: 0, 3: 0}
    while min(counts.values()) < 15:
        k = min(counts, key=lambda kk: counts[kk])
        p = 0.5 + 0.15 * k
        g = random_connected(rng, rng.randint(3, 8), min(p, 0.95),
                             edge_safe_prob=0.45 + 0.1 * k)
        if not check_kfgc(g, set(g.eids), k):
            continue
        sol = solve_kfgc(g, k, sub=sub)
        assert check_kfgc(g, sol.edge_ids, k)
        opt = exact_solve(Instance(graph=g, problem="kfgc", k=k)).size
        ell = sol.meta["forest_size"]
        assert sol.size <= 2 * opt - ell
        # contracted-core bounds
        from flexconn.graph import contract_edges
        forest = max_safe_forest(g)
        core_graph = contract_edges(g, forest)
        if core_graph.n >= 2:
            from flexconn.kfgc import kecss_prune_heuristic
            pruned = kecss_prune_heuristic(core_graph, k + 1)
            assert len(pruned) <= core_graph.n * (k + 1)
            from flexconn.exact import exact_kecss
            core_opt = exact_kecss(core_graph, k + 1, cap_n=10).size
            assert 2 * core_opt >= core_graph.n * (k + 1)
        counts[k] += 1
    family_ok = True
    for n in range(5, 13):
        for k in (3, 4, 5):
            inst = gen_safe_tree_family(n, k)
            sol = solve_kfgc(inst.graph, k)
            ell = n - 1
            if sol.size != n - 1:
                family_ok = False
            if n <= 8 and exact_solve(inst).size != n - 1:
                family_ok = False
            # the superseded chain demands 2 OPT - k ell >= ell + (k+1)(n-l);
            # it must come out false on this family
            if 2 * (n - 1) - k * ell >= ell + (k + 1) * (inst.graph.n - ell):
                family_ok = False
    report(10, "k-FGC: checker, 2 OPT - l bound, core bounds, regression family",
           family_ok, f"per-k instances={counts}")


def test_criterion_11_cli_determinism(tmp_path):
    inst_path = str(tmp_path / "inst.flex")
    assert main(["gen", "--problem", "fvc", "--n", "8", "--p", "0.55",
                 "--vertex-safe-prob", "0.6", "--seed", "123",
                 "-o", inst_path]) == 0
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        code = main(["solve", "--problem", "fvc", "-i", inst_path, "-o", out])
        assert code == 0
        outs.append(open(out).read())
    csvs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert main(["bench", "--problem", "kfgc", "--k", "2", "--trials", "6",
                     "--n-min", "4", "--n-max", "7", "--p", "0.8",
                     "--edge-safe-prob", "0.6", "--seed", "9",
                     "-o", out]) == 0
        csvs.append(open(out).read())
    lemma_outs = []
    for name in ("l1.txt", "l2.txt"):
        out = str(tmp_path / name)
        assert main(["lemmas", "--samples", "2000", "--seed", "4", "-o", out]) == 0
        lemma_outs.append(open(out).read())
    ok = outs[0] == outs[1] and csvs[0] == csvs[1] and lemma_outs[0] == lemma_outs[1]
    report(11, "byte-identical JSON/CSV/report for identical seeded invocations", ok)
