"""Instance text format and solution JSON.

Instance files:
    c <comment>
    p flex <n> <m> [k]
    v <id> s|u            (optional; vertices default to safe)
    e <u> <v> [s|u]       (flag optional; defaults to safe)

One format serves all three problems; flags irrelevant to the chosen problem
are kept but reported with a warning.  FGC and FVC are solved with k = 1: a
k other than 1, from the header or the `k` argument (`--k`, which must still
be a positive integer), is dropped with a warning.  The one-pass parser's
line checks validate the graph it builds.  Solutions serialize to JSON with
a fixed key order so identical runs are byte-identical.
"""

from __future__ import annotations

import json
import warnings
from typing import List, Optional, Set, Tuple

from .errors import InputError, require_positive_k
from .feasibility import Instance, Solution
from .graph import LabeledGraph


def parse_instance(text: str, problem: str = "fgc", k: Optional[int] = None) -> Instance:
    n = m = None
    header_k: Optional[int] = None
    vertex_flags: dict = {}
    ends: List[Tuple[int, int]] = []
    edge_safe: List[bool] = []
    seen: Set[Tuple[int, int]] = set()   # FVC only: endpoint pairs so far
    saw_unsafe_vertex = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        tag = fields[0] if fields else "c"     # a blank line reads as a comment
        if tag == "e":
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
                key = (u, v) if u < v else (v, u)
                if key in seen:
                    raise InputError(f"line {lineno}: duplicate edge {u}-{v} in an FVC instance")
                seen.add(key)
            ends.append((u, v))
            edge_safe.append(flag == "s")
        elif tag[0] == "c":
            continue
        elif tag == "p":
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
        elif tag == "v":
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
        else:
            raise InputError(f"line {lineno}: unknown record {tag!r}")
    if n is None:
        raise InputError("missing 'p flex' header")
    if m != len(ends):
        raise InputError(f"header declares {m} edges but file has {len(ends)}")
    if problem == "fvc" and not all(edge_safe):
        warnings.warn("edge safety flags are ignored for FVC", stacklevel=2)
    if problem in ("fgc", "kfgc") and saw_unsafe_vertex:
        warnings.warn(f"vertex safety flags are ignored for {problem.upper()}", stacklevel=2)
    if problem != "kfgc":
        if k is not None:
            require_positive_k(k)
        for name, given in (("header k", header_k), ("k", k)):
            if given not in (None, 1):
                warnings.warn(f"{name} is ignored for {problem.upper()}", stacklevel=2)
        header_k = k = None
    g = LabeledGraph(n, tuple(vertex_flags.get(v, True) for v in range(n)),
                     tuple(range(m)), tuple(ends), tuple(edge_safe))
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
    for (u, v), s in zip(g.ends, g.edge_safe):
        lines.append(f"e {u} {v} {'s' if s else 'u'}")
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
