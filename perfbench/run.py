#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of flexconn.

    python3 perfbench/run.py --workload fvc-scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-reference

Run from the root of a checkout; flexconn is imported from its `src`.  One
process, one thread, one client in a closed loop: each instance of the
workload's pool gets one in-process `flexconn solve`, then one `flexconn
exact` (the `*-bench` workloads) or one `flexconn check` of that solution
(`fvc-scale`, where the exact oracle refuses n > 10).  Every output is checked
with networkx and against the paper's bounds, and its digest is compared with
`reference.json`.

The timed phase runs whole passes over the pool while another pass still fits
in `--seconds`; `--seed` only orders each pass (see README.md for why the
pool itself is fixed).  Op times are scaled to a reference machine speed (see
speed.py).  `--trace 1` makes one untraced and one traced pass and prints the
per-layer metrics instead.  The last line of standard output is the result as
one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import corpus
import speed
import verify
from tracer import SPANNED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"

POOL_SIZE = {"fvc-scale": 45, "fvc-bench": 120, "fgc-bench": 180, "kfgc-bench": 200}
SECOND_OP = {"fvc-scale": "check", "fvc-bench": "exact", "fgc-bench": "exact",
             "kfgc-bench": "exact"}
# the layer expected to dominate each workload, and the op kind it dominates
DOMINANT = {"fvc-scale": ("ears.build_long_ear_decomposition", "solve"),
            "fvc-bench": ("feasibility.check_fvc", "exact"),
            "fgc-bench": ("exact.exact_kecss", "solve"),
            "kfgc-bench": ("feasibility.check_kfgc", "exact")}
SETUP_REPEATS = 9

END_TO_END = (("setup_s", "s"), ("solve_ms_p50", "ms"), ("solve_ms_p90", "ms"),
              ("exact_ms_p50", "ms"), ("exact_ms_p90", "ms"),
              ("instances_per_s", "1/s"), ("cpu_s_total", "s"),
              ("peak_rss_mb", "MB"), ("apx_edges_total", "edges"))

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in SPANNED)
PER_LAYER = tuple(
    [(f"{name}.{field}", unit) for name in SPAN_NAMES
     for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [("graph.LabeledGraph.neighbors.calls", "count"), ("fvc.pieces_apx2", "count"),
       ("exact.predicate_calls", "count"), ("exact.predicate_true_frac", "ratio"),
       ("feasibility.prune_minimal.kept_frac", "ratio"),
       ("trace.overhead_frac", "ratio"), ("dominant_layer_frac", "ratio")])

# a 4-cycle, feasible for every problem: the one op of a set-up sample
PROBE_INSTANCE = "p flex 4 4 1\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from flexconn import cli
rc = cli.main(["solve", "--problem", sys.argv[2], "-i", sys.argv[3], "-o", sys.argv[4]])
print(time.clock_gettime(time.CLOCK_MONOTONIC), rc)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_flexconn():
    if not (SRC / "flexconn" / "__init__.py").is_file():
        raise BenchError(f"no flexconn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from flexconn import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"flexconn was imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(problem: str, work: Path, repeats: int) -> float:
    """Median seconds from starting a Python process to the end of its first
    op (importing flexconn from source, then solving a 4-cycle), each sample
    scaled by the speed probes taken just before and after it."""
    inst, out = work / "probe.flex", work / "probe.json"
    inst.write_text(PROBE_INSTANCE)
    samples, probes = [], [speed.probe()]
    for _ in range(repeats):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), problem, str(inst),
                               str(out)], capture_output=True, text=True, timeout=120, cwd=ROOT)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[1] != "0":
            raise BenchError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
        probes.append(speed.probe())
        samples.append((float(fields[0]) - t0) * 2 * speed.REFERENCE_S / (probes[-2] + probes[-1]))
    return statistics.median(samples)


class Workload:
    """One workload's pool, written as instance files, and its ops."""

    def __init__(self, name: str, cli, work: Path, size: Optional[int] = None):
        self.name, self.cli, self.work = name, cli, work
        self.pool = corpus.make_pool(name, size or POOL_SIZE[name])
        self.problem = self.pool[0].problem
        self.second = SECOND_OP[name]
        ref = json.loads(REFERENCE.read_text()).get(name, {}) if REFERENCE.is_file() else {}
        self.ref_ops: List[List[str]] = ref.get("ops", [])
        texts = [inst.text() for inst in self.pool]
        self.pool_digest = verify.digest("".join(texts).encode())
        self.inst_digests = [verify.digest(t.encode()) for t in texts]
        self.pool_ok = self.inst_digests == ref.get("instances", [])[:len(texts)]
        for i, text in enumerate(texts):
            (work / f"i{i}.flex").write_text(text)

    def argv(self, i: int, kind: str) -> List[str]:
        inst = str(self.work / f"i{i}.flex")
        if kind == "check":
            return ["check", "-i", inst, "--solution", str(self.work / f"i{i}.solve.json"),
                    "-o", str(self.work / f"i{i}.check.json")]
        return [kind, "--problem", self.problem, "-i", inst,
                "-o", str(self.work / f"i{i}.{kind}.json")]

    def op(self, i: int, kind: str) -> Tuple[float, float, Optional[bytes], List[str]]:
        """Run one op in-process: (wall s, CPU s, output bytes, errors)."""
        out = self.work / f"i{i}.{kind}.json"
        if out.exists():
            out.unlink()
        argv = self.argv(i, kind)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = self.cli.main(argv)
            err = [] if rc == 0 else [f"exit code {rc}"]
        except (Exception, SystemExit) as exc:  # the op boundary: count and go on
            err = [f"raised {exc!r}"]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        data = out.read_bytes() if out.exists() else None
        if data is None and not err:
            err = ["no output file"]
        return wall, cpu, data, err

    def check_instance(self, i: int, outputs: Dict[str, Optional[bytes]],
                       errors: Dict[str, List[str]]) -> None:
        """Add to `errors` every problem with instance i's two outputs."""
        inst = self.pool[i]
        payloads = {}
        for kind, data in outputs.items():
            if data is None:
                continue
            if i >= len(self.ref_ops):
                errors[kind].append("no reference digest")
            elif verify.digest(data) != self.ref_ops[i][0 if kind == "solve" else 1]:
                errors[kind].append("output digest differs from reference.json")
            payloads[kind] = verify.load(data)
            if payloads[kind] is None:
                errors[kind].append("output is not a JSON object")
        solve, second = payloads.get("solve"), payloads.get(self.second)
        if solve is not None:
            errors["solve"] += verify.check_payload(inst, solve)
        if second is not None and self.second == "exact":
            errors["exact"] += verify.check_payload(inst, second)
            if solve is not None and not errors["solve"] and not errors["exact"]:
                errors["exact"] += verify.check_bounds(inst, solve, second)
        elif second is not None and solve is not None and not errors["solve"]:
            errors["check"] += verify.check_check_payload(solve, second)


class Pass:
    """Per-instance timings and outputs of one pass over the pool.  `scale`
    is each instance's speed scale (see speed.py)."""

    def __init__(self, n: int):
        self.wall = {"solve": [0.0] * n, "second": [0.0] * n}
        self.cpu = [0.0] * n
        self.scale = [1.0] * n
        self.outputs: List[Dict[str, Optional[bytes]]] = [{} for _ in range(n)]
        self.failed_ops: List[Tuple[int, str, List[str]]] = []
        self.attempted = 0

    def op_wall(self, scaled: bool = True) -> float:
        return sum((self.wall["solve"][i] + self.wall["second"][i])
                   * (self.scale[i] if scaled else 1.0) for i in range(len(self.cpu)))

    def op_cpu(self) -> float:
        return sum(c * s for c, s in zip(self.cpu, self.scale))


def run_pass(wl: Workload, order: List[int], tracer: Optional[Tracer] = None,
             op_meta: Optional[List[Tuple[str, int]]] = None) -> Pass:
    p = Pass(len(wl.pool))
    probes = []
    for i in order:
        probes.append(speed.probe())
        errors: Dict[str, List[str]] = {}
        for slot, kind in (("solve", "solve"), ("second", wl.second)):
            if tracer is not None:
                tracer.op = len(op_meta)
                op_meta.append((slot, i))
            wall, cpu, data, err = wl.op(i, kind)
            if tracer is not None:
                tracer.op = -1
            p.wall[slot][i] = wall
            p.cpu[i] += cpu
            p.outputs[i][kind] = data
            errors[kind] = err
        wl.check_instance(i, p.outputs[i], errors)
        for kind, err in errors.items():
            p.attempted += 1
            if err:
                p.failed_ops.append((i, kind, err))
    for i, scale in zip(order, speed.scales(probes)):
        p.scale[i] = scale
    return p


def solutions_digest(wl: Workload, p: Pass) -> str:
    """One digest over every output of a pass, in pool order."""
    parts = []
    for outputs in p.outputs:
        for kind in ("solve", wl.second):
            data = outputs.get(kind)
            parts.append(verify.digest(data) if data is not None else "-")
    return verify.digest(" ".join(parts).encode())


def quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  Where the
    sample has gaps (a few slow instances), one or two order statistics would
    jump with the noise of a single instance; this average does not."""
    xs = sorted(values)
    n, k = len(xs), 32
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_c = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        ts = ((i + (j + 0.5) / k) / n for j in range(k))
        weights.append(sum(math.exp(log_c + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in ts))
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def end_to_end(wl: Workload, passes: List[Pass], setup_s: float) -> Dict[str, float]:
    """Each instance's latency is the median of its scaled times over the
    passes; sums are the median over passes."""
    n = len(wl.pool)
    lat = {slot: [statistics.median(p.wall[slot][i] * p.scale[i] for p in passes) * 1e3
                  for i in range(n)]
           for slot in ("solve", "second")}
    apx_edges = 0
    for outputs in passes[0].outputs:
        payload = verify.load(outputs.get("solve") or b"")
        apx_edges += len(payload.get("edges", [])) if payload else 0
    return {
        "setup_s": setup_s,
        "solve_ms_p50": quantile(lat["solve"], 0.5), "solve_ms_p90": quantile(lat["solve"], 0.9),
        "exact_ms_p50": quantile(lat["second"], 0.5), "exact_ms_p90": quantile(lat["second"], 0.9),
        "instances_per_s": n / statistics.median(p.op_wall() for p in passes),
        "cpu_s_total": statistics.median(p.op_cpu() for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "apx_edges_total": float(apx_edges),
    }


def per_layer(wl: Workload, tracer: Tracer, traced: Pass, untraced: Pass,
              op_meta: List[Tuple[str, int]], prune: List[int]) -> Dict[str, float]:
    """Span times are scaled like op times, by the scale of the op's instance."""
    weight = [traced.scale[i] for _, i in op_meta]
    agg = tracer.aggregate(op_weight=weight)
    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        rec = agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = float(rec["calls"])
        out[f"{name}.s"] = rec["s"]
        out[f"{name}.self_s"] = rec["self_s"]
    out["graph.LabeledGraph.neighbors.calls"] = float(tracer.count("graph.LabeledGraph.neighbors.calls"))
    pieces = 0
    if wl.problem == "fvc":
        for outputs in traced.outputs:
            payload = verify.load(outputs.get("solve") or b"") or {}
            pieces += sum(1 for piece in payload.get("meta", {}).get("pieces", [])
                          if isinstance(piece, dict) and piece.get("reached_apx2"))
    out["fvc.pieces_apx2"] = float(pieces)
    # a predicate call of the exact search is a checker called directly by
    # exact_solve, or a connectivity test called directly by exact_kecss,
    # whose predicate is true when the edge-connectivity test after it is
    calls = true = 0
    for checker in ("feasibility.check_fvc", "feasibility.check_fgc", "feasibility.check_kfgc"):
        c, t = tracer.child_results(checker, "exact.exact_solve")
        calls, true = calls + c, true + t
    c, _ = tracer.child_results("graph.is_connected", "exact.exact_kecss")
    _, t = tracer.child_results("graph.edge_connectivity_at_least", "exact.exact_kecss")
    calls, true = calls + c, true + t
    out["exact.predicate_calls"] = float(calls)
    out["exact.predicate_true_frac"] = true / calls if calls else 0.0
    out["feasibility.prune_minimal.kept_frac"] = prune[1] / prune[0] if prune[0] else 0.0
    out["trace.overhead_frac"] = traced.op_wall() / untraced.op_wall() - 1.0
    layer, kind = DOMINANT[wl.name]
    slot = "solve" if kind == "solve" else "second"
    in_kind = tracer.aggregate(lambda op: op >= 0 and op_meta[op][0] == slot, weight)
    main_s = in_kind.get("cli.main", {}).get("s", 0.0)
    out["dominant_layer_frac"] = in_kind.get(layer, {}).get("s", 0.0) / main_s if main_s else 0.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: Optional[int] = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    cli = import_flexconn()
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(name, seed, seconds, trace, size, setup_repeats, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, seed, seconds, trace, size, setup_repeats, cli, work) -> dict:
    wl = Workload(name, cli, work, size)
    order = list(range(len(wl.pool)))
    random.Random(f"perfbench-order:{seed}").shuffle(order)
    lines = [f"workload {name}  seed {seed}  pool {len(wl.pool)} instances  "
             f"ops: solve + {wl.second}"]
    if trace:
        untraced = run_pass(wl, order)
        tracer, op_meta, prune = Tracer(), [], [0, 0]

        def count_prune(args, kwargs, kept):
            eids = args[1] if len(args) > 1 else kwargs.get("eids")
            prune[0] += len(eids) if hasattr(eids, "__len__") else 0
            prune[1] += len(kept)
        tracer.observe["feasibility.prune_minimal"] = count_prune
        tracer.install()
        try:
            traced = run_pass(wl, order, tracer, op_meta)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        metrics = per_layer(wl, tracer, traced, untraced, op_meta, prune)
        units = dict(PER_LAYER)
        same = solutions_digest(wl, traced) == solutions_digest(wl, untraced)
        if not same:
            traced.failed_ops.append((-1, "trace", ["outputs differ with tracing on"]))
        span_file = OUT / f"trace-{name}-seed{seed}.tsv.gz"
        tracer.write(str(span_file))
        lines.append(f"traced pass: {tracer.span_count()} spans written to {span_file}")
        lines.append(f"solution digests identical with tracing on and off: {same}")
        layer, kind = DOMINANT[name]
        lines.append(f"dominant layer {layer}: {metrics['dominant_layer_frac']:.3f} "
                     f"of {kind} op time")
    else:
        setup_s = measure_setup(wl.problem, work, setup_repeats)
        gc.collect()
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(wl, order))
            elapsed = time.perf_counter() - t0
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        metrics = end_to_end(wl, passes, setup_s)
        units = dict(END_TO_END)
        lines.append(f"timed phase: {len(passes)} passes in {elapsed:.2f} s; op seconds per "
                     "pass, unscaled/scaled: "
                     + " ".join(f"{p.op_wall(False):.3f}/{p.op_wall():.3f}" for p in passes))
        lines.append(f"latencies: the median of {len(passes)} scaled times per instance; "
                     f"p50 and p90 over {len(wl.pool)} instances")
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failed_ops]
    lines.append(f"solutions digest {solutions_digest(wl, passes[0])}  pool digest "
                 f"{wl.pool_digest}  pool matches reference: {wl.pool_ok}")
    for i, kind, err in failures[:10]:
        lines.append(f"FAILED instance {i} {kind}: {'; '.join(err)}")
    lines.append(f"failed_frac {len(failures) / attempted:.6f} ratio "
                 f"({len(failures)} failed of {attempted} attempted ops)")
    for key, value in metrics.items():
        lines.append(f"{key:48s} {value:14.6f} {units[key]}")
    return {"lines": lines,
            "result": {"correct": not failures and wl.pool_ok,
                       "attempted": attempted, "failed": len(failures),
                       "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}}


def record_reference() -> None:
    """Write reference.json from one untraced pass per workload.  Only for a
    deliberate change of flexconn's output bytes or of the pools."""
    cli = import_flexconn()
    ref = {}
    for name in corpus.WORKLOADS:
        work = OUT / f"work-reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            wl = Workload(name, cli, work)
            wl.ref_ops = []
            p = run_pass(wl, list(range(len(wl.pool))))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        structural = [f for f in p.failed_ops if f[2] != ["no reference digest"]]
        if structural:
            raise BenchError(f"{name}: outputs fail verification: {structural[:3]}")
        ref[name] = {"instances": wl.inst_digests,
                     "ops": [[verify.digest(o["solve"]), verify.digest(o[wl.second])]
                             for o in p.outputs]}
        print(f"{name}: {len(wl.pool)} instances, solutions digest {solutions_digest(wl, p)}")
    REFERENCE.write_text(json.dumps(ref, indent=0) + "\n")


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise BenchError(f"smoke: {message}")


def smoke() -> None:
    """A few instances per workload, both modes: every metric of
    BENCHMARK.json prints with its unit, outputs verify, and the verifier
    rejects a solution with one edge removed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    _expect([w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS),
            "BENCHMARK.json lists other workloads")
    cli = import_flexconn()
    for name in corpus.WORKLOADS:
        for trace in (False, True):
            res = run_workload(name, seed=0, seconds=0, trace=trace, size=3,
                               setup_repeats=1)["result"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            _expect(got == want[trace], f"{name} trace={trace}: printed {got}")
            _expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                    f"{name} trace={trace}: {res}")
        work = OUT / f"work-smoke-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            wl = Workload(name, cli, work, size=1)
            p = run_pass(wl, [0])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        _expect(not p.failed_ops, f"{name}: {p.failed_ops}")
        kind = "exact" if wl.second == "exact" else "solve"
        payload = json.loads(p.outputs[0][kind])
        payload["edges"] = payload["edges"][1:]
        payload["apx_size"] -= 1
        tampered = dict(p.outputs[0], **{kind: json.dumps(payload, indent=2).encode()})
        errors: Dict[str, List[str]] = {k: [] for k in tampered}
        wl.check_instance(0, tampered, errors)
        _expect(bool(errors[kind]), f"{name}: a {kind} output with one edge removed was accepted")
        if kind == "exact":
            # OPT minus an edge is infeasible, so networkx alone must reject it
            _expect(bool(verify.check_payload(wl.pool[0], payload)),
                    f"{name}: networkx accepted OPT minus one edge")
        print(f"smoke {name}: ok ({'; '.join(errors[kind])})")
    print("smoke: ok")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--smoke", action="store_true", help="self-check on a few instances")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the current outputs")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            smoke()
            return 0
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        out = run_workload(args.workload, args.seed, args.seconds, args.trace == "1")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
