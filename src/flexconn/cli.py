"""Command line interface.

Subcommands: solve, exact, check, gen, bench, lemmas.  Exit codes: 0 on
success, 2 for infeasible instances, 1 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from typing import Optional

from .errors import FlexconnError, InfeasibleInstanceError, InputError, require_positive_k
from .exact import DEFAULT_CAP_N, exact_solve
from .feasibility import PROBLEMS, Instance, Solution, predicates_for
from .harness import (ExperimentConfig, check_arithmetic_lemmas,
                      gen_random_instance, gen_safe_tree_family,
                      lemma_report_text, run_ratio_experiment, solve)
from .io import parse_instance, write_error, write_instance, write_solution
from .kfgc import KecssSolverHandle

EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flexconn",
                     description="Flexible graph connectivity solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, need_input=True):
        if need_input:
            p.add_argument("-i", "--input", required=True, help="instance file")
        p.add_argument("-o", "--output", help="output file (default stdout)")

    p_solve = sub.add_parser("solve", help="run the approximation solver")
    p_solve.add_argument("--problem", required=True, choices=PROBLEMS)
    p_solve.add_argument("--k", type=int, default=None)
    p_solve.add_argument("--exact-cap", type=int, default=None,
                         help="fgc/kfgc: exact kECSS subsolver up to this many "
                              "vertices, prune heuristic above (defaults 12 / 10); "
                              "ignored for fvc, with a warning")
    add_io(p_solve)

    p_exact = sub.add_parser("exact", help="force the brute-force oracle")
    p_exact.add_argument("--problem", required=True, choices=PROBLEMS)
    p_exact.add_argument("--k", type=int, default=None)
    p_exact.add_argument("--cap", type=int, default=DEFAULT_CAP_N, help="refuse instances above this n")
    add_io(p_exact)

    p_check = sub.add_parser("check", help="validate a solution file")
    p_check.add_argument("--solution", required=True, help="solution JSON file")
    p_check.add_argument("--problem", default=None, choices=(None, *PROBLEMS))
    p_check.add_argument("--k", type=int, default=None)
    add_io(p_check)

    p_gen = sub.add_parser("gen", help="generate an instance")
    p_gen.add_argument("--family", default="random", choices=("random", "safe-tree"))
    p_gen.add_argument("--problem", default="fgc", choices=PROBLEMS)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=0.5)
    p_gen.add_argument("--edge-safe-prob", type=float, default=0.5)
    p_gen.add_argument("--vertex-safe-prob", type=float, default=0.5)
    p_gen.add_argument("--k", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    add_io(p_gen, need_input=False)

    p_bench = sub.add_parser("bench", help="ratio experiment, CSV output")
    p_bench.add_argument("--problem", required=True, choices=PROBLEMS)
    p_bench.add_argument("--trials", type=int, default=50)
    p_bench.add_argument("--n-min", type=int, default=4)
    p_bench.add_argument("--n-max", type=int, default=8)
    p_bench.add_argument("--p", type=float, default=0.45)
    p_bench.add_argument("--edge-safe-prob", type=float, default=0.5)
    p_bench.add_argument("--vertex-safe-prob", type=float, default=0.4)
    p_bench.add_argument("--k", type=int, default=1)
    p_bench.add_argument("--exact-cap", type=int, default=9)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--timing", action="store_true",
                         help="record wall times (breaks byte-for-byte determinism)")
    add_io(p_bench, need_input=False)

    p_lem = sub.add_parser("lemmas", help="sampled checks of the 11/7 size arithmetic")
    p_lem.add_argument("--samples", type=int, required=True)
    p_lem.add_argument("--seed", type=int, default=0)
    add_io(p_lem, need_input=False)

    return parser


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _load_instance(args, problem: str, k) -> Instance:
    """Parse the input file; its warnings go to stderr on every call, not
    once per call site as the default warning filter would show them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = parse_instance(_read(args.input), problem=problem, k=k)
    for w in caught:
        sys.stderr.write(f"flexconn: warning: {w.message}\n")
    return inst


def _cmd_solve(args) -> int:
    inst = _load_instance(args, args.problem, args.k)
    if args.exact_cap is not None and inst.problem == "fvc":
        sys.stderr.write("flexconn: warning: --exact-cap is ignored for FVC\n")
    sol = solve(inst, None if args.exact_cap is None else KecssSolverHandle(cap_n=args.exact_cap))
    sol.meta["feasible"] = True    # each solver certifies the set it returns
    _emit(write_solution(sol), args.output)
    return EXIT_OK


def _cmd_exact(args) -> int:
    inst = _load_instance(args, args.problem, args.k)
    sol = exact_solve(inst, cap_n=args.cap)
    meta = dict(sol.meta)
    meta.update({"n": inst.graph.n, "m": inst.graph.m,
                 "lower_bound": sol.size, "exact_opt": sol.size,
                 "feasible": True})
    _emit(write_solution(Solution(sol.edge_ids, meta)), args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    payload = json.loads(_read(args.solution))
    if not isinstance(payload, dict):
        raise InputError("solution file must hold a JSON object")
    problem = args.problem or payload.get("problem")
    if problem not in PROBLEMS:
        raise InputError(f"cannot determine problem (got {problem!r})")
    require_positive_k(payload.get("k", 1))   # validated; the header k or --k decides
    inst = _load_instance(args, problem, args.k)
    edges = payload.get("edges")
    if not isinstance(edges, list):
        raise InputError("solution file lacks an 'edges' list")
    for eid in edges:
        if type(eid) is not int:   # bool is an int subclass; 3.0 == 3 hashes alike
            raise InputError(f"solution edge id {json.dumps(eid)} is not an integer")
    ok = predicates_for(inst)[0](inst.graph, set(edges))
    _emit(json.dumps({"problem": problem, "k": inst.k,
                      "size": len(set(edges)), "feasible": ok}) + "\n",
          args.output)
    return EXIT_OK if ok else EXIT_INFEASIBLE


def _cmd_gen(args) -> int:
    if args.family == "safe-tree":
        inst = gen_safe_tree_family(args.n, args.k)
    else:
        inst = gen_random_instance(args.n, args.p, args.edge_safe_prob,
                                   args.vertex_safe_prob, args.problem,
                                   args.k, args.seed)
    _emit(write_instance(inst), args.output)
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig(problem=args.problem, trials=args.trials,
                           n_min=args.n_min, n_max=args.n_max, p=args.p,
                           edge_safe_prob=args.edge_safe_prob,
                           vertex_safe_prob=args.vertex_safe_prob,
                           k=args.k, exact_cap=args.exact_cap,
                           seed=args.seed, timing=args.timing)
    _emit(run_ratio_experiment(cfg), args.output)
    return EXIT_OK


def _cmd_lemmas(args) -> int:
    report = check_arithmetic_lemmas(args.samples, args.seed)
    _emit(lemma_report_text(report), args.output)
    return EXIT_OK if report.ok else EXIT_INFEASIBLE


_COMMANDS = {
    "solve": _cmd_solve,
    "exact": _cmd_exact,
    "check": _cmd_check,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "lemmas": _cmd_lemmas,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `parse_args` keeps no state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleInstanceError as exc:
        sys.stdout.write(write_error("infeasible", str(exc)))
        return EXIT_INFEASIBLE
    except (InputError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"flexconn: error: {exc}\n")
        return EXIT_USAGE
    except FlexconnError as exc:
        sys.stderr.write(f"flexconn: internal error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
