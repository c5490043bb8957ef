"""Instance text format and solution JSON.

Instance files:
    c <comment>
    p flex <n> <m> [k]
    v <id> s|u            (optional; vertices default to safe)
    e <u> <v> [s|u]       (flag optional; defaults to safe)

One format serves all three problems; flags irrelevant to the chosen problem
are kept but reported with a warning.  A header k other than 1 is dropped
with a warning for FGC and FVC, which are solved with k = 1.  Solutions
serialize to JSON with a fixed key order so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
import warnings
from typing import List, Optional, Set, Tuple

from .errors import InputError
from .feasibility import Instance, Solution
from .graph import LabeledGraph


def parse_instance(text: str, problem: str = "fgc", k: Optional[int] = None) -> Instance:
    n = m = None
    header_k: Optional[int] = None
    vertex_flags: dict = {}
    pairs: List[Tuple[int, int]] = []
    edge_flags: List[bool] = []
    seen: Set[Tuple[int, int]] = set()   # FVC only: endpoint pairs so far
    saw_unsafe_vertex = saw_unsafe_edge = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate header")
            if len(fields) not in (4, 5) or fields[1] != "flex":
                raise InputError(f"line {lineno}: expected 'p flex <n> <m> [k]'")
            try:
                n, m = int(fields[2]), int(fields[3])
                header_k = int(fields[4]) if len(fields) == 5 else None
            except ValueError:
                raise InputError(f"line {lineno}: non-integer header field")
            if n < 0 or m < 0:
                raise InputError(f"line {lineno}: negative size")
        elif fields[0] == "v":
            if n is None:
                raise InputError(f"line {lineno}: vertex line before header")
            if len(fields) != 3 or fields[2] not in ("s", "u"):
                raise InputError(f"line {lineno}: expected 'v <id> s|u'")
            try:
                vid = int(fields[1])
            except ValueError:
                raise InputError(f"line {lineno}: non-integer vertex id")
            if not (0 <= vid < n):
                raise InputError(f"line {lineno}: vertex {vid} out of range")
            vertex_flags[vid] = fields[2] == "s"
            saw_unsafe_vertex |= fields[2] == "u"
        elif fields[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge line before header")
            if len(fields) not in (3, 4):
                raise InputError(f"line {lineno}: expected 'e <u> <v> [s|u]'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise InputError(f"line {lineno}: non-integer endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"line {lineno}: endpoint out of range")
            if u == v:
                raise InputError(f"line {lineno}: self-loop")
            flag = fields[3] if len(fields) == 4 else "s"
            if flag not in ("s", "u"):
                raise InputError(f"line {lineno}: bad edge flag {flag!r}")
            if problem == "fvc":
                key = (min(u, v), max(u, v))
                if key in seen:
                    raise InputError(f"line {lineno}: duplicate edge {u}-{v} in an FVC instance")
                seen.add(key)
            pairs.append((u, v))
            edge_flags.append(flag == "s")
            saw_unsafe_edge |= flag == "u"
        else:
            raise InputError(f"line {lineno}: unknown record {fields[0]!r}")
    if n is None:
        raise InputError("missing 'p flex' header")
    if m != len(pairs):
        raise InputError(f"header declares {m} edges but file has {len(pairs)}")
    if problem == "fvc" and saw_unsafe_edge:
        warnings.warn("edge safety flags are ignored for FVC", stacklevel=2)
    if problem in ("fgc", "kfgc") and saw_unsafe_vertex:
        warnings.warn(f"vertex safety flags are ignored for {problem.upper()}", stacklevel=2)
    if problem != "kfgc" and header_k not in (None, 1):
        warnings.warn(f"header k is ignored for {problem.upper()}", stacklevel=2)
        header_k = None
    vertex_safe = tuple(vertex_flags.get(v, True) for v in range(n))
    g = LabeledGraph.build(n, pairs, vertex_safe=vertex_safe, edge_safe=edge_flags)
    kk = k if k is not None else (header_k if header_k is not None else 1)
    return Instance(graph=g, problem=problem, k=kk)


def write_instance(inst: Instance) -> str:
    g = inst.graph
    lines = [f"c flexconn instance problem={inst.problem}"]
    header = f"p flex {g.n} {g.m}"
    if inst.problem == "kfgc":
        header += f" {inst.k}"
    lines.append(header)
    for v in range(g.n):
        lines.append(f"v {v} {'s' if g.vertex_safe[v] else 'u'}")
    for e in g.edges:
        lines.append(f"e {e.u} {e.v} {'s' if e.safe else 'u'}")
    return "\n".join(lines) + "\n"


_PROMOTED = ("problem", "n", "m", "k", "apx_size", "lower_bound", "exact_opt")


def write_solution(sol: Solution) -> str:
    """Deterministic JSON rendering; meta must carry problem/n/m/k context."""
    meta = dict(sol.meta)
    lb = meta.get("lower_bound", 0)
    apx = meta.get("apx_size", len(sol.edge_ids))
    payload = {
        "problem": meta.get("problem"),
        "n": meta.get("n"),
        "m": meta.get("m"),
        "k": meta.get("k", 1),
        "apx_size": apx,
        "edges": sorted(sol.edge_ids),
        "lower_bound": lb,
        "exact_opt": meta.get("exact_opt"),
        "ratio_vs_lb": (round(apx / lb, 6) if lb else None),
        "feasible": bool(meta.get("feasible", True)),
        "meta": {key: value for key, value in meta.items() if key not in _PROMOTED},
    }
    return json.dumps(payload, indent=2) + "\n"


def write_error(code: str, message: str) -> str:
    return json.dumps({"error": {"code": code, "message": message}}, indent=2) + "\n"
