"""Instance generators, ratio experiments, and sampled checks of the size
arithmetic behind the 11/7 bound.

Generators are deterministic per seed.  The experiment CSV derives each
row's random stream from (seed, row), so results never depend on execution
order; wall-clock timing is opt-in because it would break byte-for-byte
reproducibility.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import InputError
from .exact import exact_solve
from .feasibility import Instance, Solution, predicates_for, require_problem_k
from .fgc import solve_fgc
from .fvc import solve_fvc
from .graph import LabeledGraph, is_connected
from .kfgc import KecssSolverHandle, solve_kfgc

GNP_MAX_ATTEMPTS = 10000   # G(n, p) samples drawn before giving up on connectivity


def gen_random_instance(n: int, p: float, edge_safe_prob: float,
                        vertex_safe_prob: float, problem: str, k: int,
                        seed: int) -> Instance:
    """G(n, p) resampled until connected, then independent safety flags."""
    if n < 2:
        raise InputError("need n >= 2")
    if not (0 < p <= 1):
        raise InputError("need 0 < p <= 1")
    for prob in (edge_safe_prob, vertex_safe_prob):
        if not (0 <= prob <= 1):
            raise InputError("probabilities must lie in [0, 1]")
    rng = random.Random(seed)
    for _ in range(GNP_MAX_ATTEMPTS):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        if is_connected(range(n), [(i, u, v) for i, (u, v) in enumerate(pairs)]):
            vertex_safe = tuple(rng.random() < vertex_safe_prob for _ in range(n))
            edge_safe = tuple(rng.random() < edge_safe_prob for _ in pairs)
            g = LabeledGraph.build(n, pairs, vertex_safe=vertex_safe,
                                   edge_safe=edge_safe)
            return Instance(graph=g, problem=problem, k=k)
    raise InputError(f"no connected G({n},{p}) sample within {GNP_MAX_ATTEMPTS} attempts")


def gen_safe_tree_family(n: int, k: int) -> Instance:
    """Safe star plus an unsafe cycle over the leaves; k-FGC optimum is the
    star itself (n-1 edges), which breaks the old analysis inequality."""
    if n < 3:
        raise InputError("need n >= 3")
    if k < 1:
        raise InputError("need k >= 1")
    pairs = [(0, i) for i in range(1, n)]
    edge_safe = [True] * (n - 1)
    leaves = list(range(1, n))
    for i, u in enumerate(leaves):
        v = leaves[(i + 1) % len(leaves)]
        if len(leaves) == 2 and i == 1:
            break  # two leaves: a single unsafe chord, not a doubled pair
        pairs.append((u, v))
        edge_safe.append(False)
    g = LabeledGraph.build(n, pairs, edge_safe=edge_safe)
    return Instance(graph=g, problem="kfgc", k=k)


# ---------------------------------------------------------------------------
# Ratio experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    trials: int
    n_min: int
    n_max: int
    p: float = 0.45
    edge_safe_prob: float = 0.5
    vertex_safe_prob: float = 0.4
    k: int = 1
    exact_cap: int = 9
    seed: int = 0
    timing: bool = False

    def __post_init__(self):
        require_problem_k(self.problem, self.k)
        if type(self.trials) is not int or self.trials < 0:
            raise InputError(f"trials must be a non-negative integer (got {self.trials!r})")
        if self.n_min > self.n_max:
            raise InputError(f"need n_min <= n_max (got {self.n_min} > {self.n_max})")


def _row_seed(seed: int, row: int) -> int:
    return seed * 1_000_003 + row


def _feasible_instance(cfg: ExperimentConfig, row: int) -> Tuple[Instance, int]:
    rng = random.Random(_row_seed(cfg.seed, row))
    n = rng.randint(cfg.n_min, cfg.n_max)
    for attempt in range(1000):
        sub_seed = _row_seed(cfg.seed, row) * 131 + attempt
        inst = gen_random_instance(n, cfg.p, cfg.edge_safe_prob,
                                   cfg.vertex_safe_prob, cfg.problem, cfg.k,
                                   seed=sub_seed)
        if predicates_for(inst)[0](inst.graph, set(inst.graph.eids)):
            return inst, sub_seed
    raise InputError("could not sample a feasible instance; adjust config")


def solve(inst: Instance, sub: Optional[KecssSolverHandle] = None) -> Solution:
    """The approximation solver of the instance's problem; `sub` is the
    kECSS subsolver of FGC and k-FGC (each driver's default if None)."""
    if inst.problem == "fvc":
        return solve_fvc(inst.graph)
    if inst.problem == "fgc":
        return solve_fgc(inst.graph, solver=sub)
    return solve_kfgc(inst.graph, inst.k, sub=sub)


def run_ratio_experiment(cfg: ExperimentConfig) -> str:
    """CSV: one row per instance plus a trailing summary row."""
    header = ("row,seed,n,m,k,apx_size,exact_opt,lower_bound,"
              "ratio_vs_opt,ratio_vs_lb,feasible,wall_ms")
    lines = [header]
    ratios_opt: List[float] = []
    ratios_lb: List[float] = []
    for row in range(cfg.trials):
        inst, used_seed = _feasible_instance(cfg, row)
        g = inst.graph
        t0 = time.perf_counter()
        sol = solve(inst)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        opt_txt = ratio_opt_txt = ""
        if g.n <= cfg.exact_cap:
            opt = exact_solve(inst, cap_n=cfg.exact_cap).size
            ratio = sol.size / opt if opt else 1.0
            ratios_opt.append(ratio)
            opt_txt, ratio_opt_txt = str(opt), f"{ratio:.6f}"
        lb = sol.meta.get("lower_bound", 0)
        ratio_lb_txt = ""
        if lb:
            ratios_lb.append(sol.size / lb)
            ratio_lb_txt = f"{sol.size / lb:.6f}"
        wall_txt = f"{wall_ms:.3f}" if cfg.timing else ""
        lines.append(f"{row},{used_seed},{g.n},{g.m},{inst.k},{sol.size},"
                     f"{opt_txt},{lb},{ratio_opt_txt},{ratio_lb_txt},"
                     f"true,{wall_txt}")   # each solver certifies its set
    max_opt = f"{max(ratios_opt):.6f}" if ratios_opt else ""
    mean_opt = f"{sum(ratios_opt) / len(ratios_opt):.6f}" if ratios_opt else ""
    max_lb = f"{max(ratios_lb):.6f}" if ratios_lb else ""
    lines.append(f"summary,,,,,,,,max={max_opt};mean={mean_opt},max={max_lb},,")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Arithmetic behind the 11/7 bound
# ---------------------------------------------------------------------------

def size_ratio_plain(d, alpha, kk, sp) -> float:
    """The two-bound ratio with the numerator fixed at x = alpha/4."""
    ub = min((4 * d - 4) / 3 + sp, sp + d - 2 + 0.75 * alpha)
    lb = max(sp + alpha - 1, d + kk)
    return ub / lb


def size_ratio_with_x(d, alpha, x, kk, sp) -> float:
    """The three-bound ratio at a general x.

    The third lower-bound term needs the count of doubly-charged singleton
    colours; given only the aggregate class weights, its smallest value
    consistent with them is max(0, 2 sp - 3 kk), because sp - kk equals that
    count plus half the matched-pair count, which is at most kk minus it.
    """
    k12_min = max(0.0, 2 * sp - 3 * kk)
    ub = min((4 * d - 4) / 3 + sp, sp + d - 2 + alpha - x)
    lb = max(sp + alpha - 1, d + kk, 2 * k12_min + 2 * alpha - 4 * x)
    return ub / lb


TOLERANCE = 1e-9


@dataclass(frozen=True)
class LemmaReport:
    samples: int
    corner_cases: int
    pipeline_samples: int
    max_ratio_plain: float
    max_ratio_with_x: float
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def check_arithmetic_lemmas(samples: int, seed: int) -> LemmaReport:
    """Sample (|V(D)|, alpha, x, |K|, |S_P|) tuples with 0 <= x <= alpha <=
    |V(D)| and 1 <= |K| <= |S_P| <= 2|K| (plus boundary grids where the case
    analysis is tight) and verify both size ratios stay below 11/7; also
    verify the singleton-count inequality on integer pipeline tuples."""
    if samples < 1:
        raise InputError("need samples >= 1")
    rng = random.Random(seed)
    limit = 11 / 7 + TOLERANCE
    violations = 0
    max_plain = max_withx = 0.0

    def probe(d, alpha, x, kk, sp):
        nonlocal violations, max_plain, max_withx
        s_plain = size_ratio_plain(d, alpha, kk, sp)
        s_withx = size_ratio_with_x(d, alpha, x, kk, sp)
        max_plain = max(max_plain, s_plain)
        max_withx = max(max_withx, s_withx)
        if s_plain > limit or s_withx > limit:
            violations += 1

    for _ in range(samples):
        d = rng.uniform(1.0, 200.0)
        alpha = rng.uniform(0.0, d)
        x = rng.uniform(0.0, alpha)
        kk = rng.uniform(1.0, 200.0)
        sp = rng.uniform(kk, 2 * kk)
        probe(d, alpha, x, kk, sp)

    corners = 0
    corner_grid = [1.0, 2.0, 3.0, 7.0, 9 / 14 * 70, 50.0, 140.0]
    for d in corner_grid:
        for alpha_frac in (0.0, 2 / 7, 0.5, 1.0):
            alpha = alpha_frac * d
            for x in (0.0, alpha / 4, alpha):
                for kk in (1.0, d / 3, 5 / 14 * d + 1e-12, d, 2 * d):
                    if kk < 1:
                        continue
                    for sp in (kk, 11 * kk / 7, 2 * kk):
                        probe(d, alpha, x, kk, sp)
                        corners += 1

    pipeline = 0
    for _ in range(max(1, samples // 10)):
        a_large = rng.randint(1, 20)
        x1 = rng.randint(0, 20)
        x2 = rng.randint(0, 20)
        a1p = rng.randint(0, 20)
        a2p = rng.randint(0, 20)
        alpha = a_large + x1 + x2 + a1p + a2p
        alphap = a1p + a2p
        x = Fraction(alpha - alphap, 2) + Fraction(a_large, 2) + a1p
        if not (a1p + 2 * a2p - 2 * a_large >= 2 * alpha - 4 * x):
            violations += 1
        pipeline += 1

    return LemmaReport(samples=samples, corner_cases=corners,
                       pipeline_samples=pipeline,
                       max_ratio_plain=max_plain, max_ratio_with_x=max_withx,
                       violations=violations)


def lemma_report_text(report: LemmaReport) -> str:
    lines = [
        f"samples={report.samples}",
        f"corner_cases={report.corner_cases}",
        f"pipeline_samples={report.pipeline_samples}",
        f"max_ratio_plain={report.max_ratio_plain:.9f}",
        f"max_ratio_with_x={report.max_ratio_with_x:.9f}",
        f"bound=(11/7)={11 / 7:.9f}",
        f"violations={report.violations}",
        f"ok={str(report.ok).lower()}",
    ]
    return "\n".join(lines) + "\n"
