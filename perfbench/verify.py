"""Checks of flexconn's outputs that do not use flexconn.

Feasibility is decided with networkx (see `corpus`); the size bounds come
from the paper's guarantees, with the exact oracle's output as OPT.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional

from corpus import FEASIBLE, Inst


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def check_payload(inst: Inst, payload: dict) -> List[str]:
    """Problems with one `solve` or `exact` output; empty when it is right."""
    errs = []
    m = len(inst.pairs)
    for key, want in (("problem", inst.problem), ("n", inst.n), ("m", m), ("k", inst.k)):
        if payload.get(key) != want:
            errs.append(f"{key} is {payload.get(key)!r}, expected {want!r}")
    edges = payload.get("edges")
    if not (isinstance(edges, list) and all(type(e) is int and 0 <= e < m for e in edges)
            and edges == sorted(set(edges))):
        return errs + ["edges is not a sorted list of distinct edge ids"]
    if payload.get("apx_size") != len(edges):
        errs.append(f"apx_size {payload.get('apx_size')} != {len(edges)} edges")
    if payload.get("feasible") is not True:
        errs.append("output does not claim feasibility")
    if not FEASIBLE[inst.problem](inst, edges):
        errs.append("edge set is infeasible (networkx)")
    return errs


def check_bounds(inst: Inst, solve: dict, exact: dict) -> List[str]:
    """exact <= solve, and the guarantee of each problem against OPT."""
    apx, opt = len(solve["edges"]), len(exact["edges"])
    errs = []
    if opt > apx:
        errs.append(f"exact {opt} edges > solve {apx} edges")
    if inst.problem == "fvc" and 7 * apx > 11 * opt:
        errs.append(f"FVC solve {apx} > 11/7 * OPT {opt}")
    if inst.problem == "fgc":
        opt_s = sum(1 for e in exact["edges"] if inst.edge_safe[e])
        f2 = solve["meta"].get("f2_size")
        if not isinstance(f2, int) or f2 > 2 * opt_s + (opt - opt_s):
            errs.append(f"FGC f2_size {f2} > 2 OPT_S + OPT_U = {2 * opt_s + opt - opt_s}")
    if inst.problem == "kfgc":
        forest = solve["meta"].get("forest_size")
        if not isinstance(forest, int) or apx > 2 * opt - forest:
            errs.append(f"k-FGC solve {apx} > 2 OPT - forest = 2*{opt} - {forest}")
    return errs


def check_check_payload(solve: dict, payload: dict) -> List[str]:
    """Problems with one `check` output for a solve output."""
    want = {"problem": solve["problem"], "k": solve["k"],
            "size": len(solve["edges"]), "feasible": True}
    return [] if payload == want else [f"check printed {payload!r}, expected {want!r}"]


def load(data: bytes) -> Optional[dict]:
    try:
        payload = json.loads(data)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None
