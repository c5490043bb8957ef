"""Spans and counters recorded from outside flexconn.

`Tracer.install` replaces each traced public function with a wrapper at
every place a flexconn module holds it: the defining module and every module
that imported it by name (`fvc` imports `check_fvc`, `solve_rainbow` and
`build_long_ear_decomposition` that way, so patching only the defining module
would miss those calls).  Methods are wrapped on their class.  `uninstall`
puts the originals back.

Spans live in flat arrays in memory (name, parent, op id, start, end, result,
nested flag) and are written out once, after the run.  Self time is derived
from the spans: a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# (module, attribute) of every function that gets a span.  Dotted attributes
# are methods.
SPANNED: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("io", "parse_instance"), ("io", "write_solution"),
    ("ears", "build_long_ear_decomposition"), ("ears", "shortest_long_cycle"),
    ("ears", "find_potential_open_ear_ge4"),
    ("fvc", "preprocess"), ("fvc", "solve_tree_case"), ("fvc", "partition_k_sets"),
    ("fvc", "build_apx1"), ("fvc", "build_pseudo_edges"),
    ("fvc", "algorithm1_buy_good_cycles"), ("fvc", "algorithm2_make_2vc"),
    ("fvc", "algorithm3_make_feasible"), ("fvc", "realize_sp"),
    ("cycles", "find_good_cycle"),
    ("rainbow", "solve_rainbow"), ("rainbow", "max_rainbow_forest"),
    ("exact", "exact_solve"), ("exact", "exact_kecss"),
    ("feasibility", "check_fvc"), ("feasibility", "check_fgc"),
    ("feasibility", "check_kfgc"), ("feasibility", "prune_minimal"),
    ("graph", "is_connected"), ("graph", "is_k_edge_connected"),
    ("graph", "edge_connectivity_at_least"), ("graph", "block_decomposition_edges"),
    ("graph", "contract_edges"),
    ("fgc", "alg2_double_and_solve"), ("fgc", "F1SolverHandle.solve"),
    ("kfgc", "max_safe_forest"), ("kfgc", "KecssSolverHandle.solve"),
)

# Functions too hot for a span (millions of calls): a call counter only.
COUNTED: Tuple[Tuple[str, str], ...] = (("graph", "LabeledGraph.neighbors"),)


PKG = "flexconn"


def _resolve(module: str, attr: str):
    owner = sys.modules[f"{PKG}.{module}"]
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.result = array("b")     # 1 True, 0 False, -1 not a bool
        self.nested = array("b")     # 1 if a span of the same name is open
        self.counts: Dict[str, List[int]] = {}
        # span name -> fn(args, kwargs, result), called after each call
        self.observe: Dict[str, Callable] = {}
        self.op = -1
        self._stack: List[int] = []
        self._depth: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for module, attr in SPANNED:
            self._patch(module, attr, self._span_wrapper)
        for module, attr in COUNTED:
            self._patch(module, attr, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        owner, leaf = _resolve(module, attr)
        original = getattr(owner, leaf)
        wrapper = make(f"{module}.{attr}", original)
        if isinstance(owner, type):
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PKG or mod_name.startswith(PKG + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _count_wrapper(self, name: str, fn):
        cell = self.counts.setdefault(name + ".calls", [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, name: str, fn):
        ni = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        stack, depth = self._stack, self._depth
        name_of, parent, op_of = self.name_of, self.parent, self.op_of
        start, end, result, nested = self.start, self.end, self.result, self.nested
        clock = time.perf_counter
        observer = self.observe.get(name)

        def spanned(*args, **kwargs):
            idx = len(start)
            name_of.append(ni)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            nested.append(1 if depth[ni] else 0)
            result.append(-1)
            end.append(0.0)
            stack.append(idx)
            depth[ni] += 1
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[ni] -= 1
                stack.pop()
            if out is True or out is False:
                result[idx] = int(out)
            if observer is not None:
                observer(args, kwargs, out)
            return out
        return spanned

    # -- derived figures ------------------------------------------------
    def span_count(self) -> int:
        return len(self.start)

    def aggregate(self, op_filter=None, op_weight=None) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds, over the
        spans whose op id passes `op_filter` (all spans when None), each
        duration multiplied by `op_weight[op id]` when given.  A span nested
        in a span of its own name adds to calls and self time but not again to
        inclusive time."""
        n = len(self.start)
        child = [0.0] * n
        dur = [(self.end[i] - self.start[i])
               * (op_weight[self.op_of[i]] if op_weight and self.op_of[i] >= 0 else 1.0)
               for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(n):
            if op_filter is not None and not op_filter(self.op_of[i]):
                continue
            rec = out[self.names[self.name_of[i]]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if not self.nested[i]:
                rec["s"] += dur[i]
        return out

    def child_results(self, child: str, parent: str) -> Tuple[int, int]:
        """(calls, calls returning True) of `child` spans whose direct parent
        is a `parent` span."""
        try:
            ci, pi = self.names.index(child), self.names.index(parent)
        except ValueError:
            return 0, 0
        calls = true = 0
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name_of[i] == ci and p >= 0 and self.name_of[p] == pi:
                calls += 1
                true += self.result[i] == 1
        return calls, true

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def write(self, path: str) -> None:
        """All spans as gzip'd tab-separated text, one span a line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart\tend\tresult\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op_of[i]}\t"
                         f"{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.result[i]}\n")
            for name, cell in sorted(self.counts.items()):
                fh.write(f"# counter\t{name}\t{cell[0]}\n")
