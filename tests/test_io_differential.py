"""Differential test of `io.parse_instance` against its earlier form.

The earlier form, copied below, stripped every line, tested for a comment,
split it, and collected endpoint pairs and flags that `LabeledGraph.build`
validated a second time.  The current one splits each line once, tests the
`e` record first and fills the graph's edge columns directly.  On seeded instance files for all three problems, both
well-formed (comments, blank lines, odd whitespace, flags, a header k,
parallel edges) and mutated (bad flags, out-of-range ids, self-loops, FVC
duplicate edges, a missing or duplicate header, a wrong m, non-integer
fields, unknown records), both must return the same columns and k, or raise
the same `InputError` message, and emit the same warnings.
"""

import random
import re
import warnings
from typing import List, Optional, Set, Tuple

from flexconn.errors import InputError
from flexconn.feasibility import Instance
from flexconn.graph import LabeledGraph
from flexconn.io import parse_instance


# The earlier parse_instance.

def _old_parse_instance(text: str, problem: str = "fgc", k: Optional[int] = None) -> Instance:
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


def _outcome(parse, text, problem, k):
    """(columns and k, or the error message), and the warnings, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            inst = parse(text, problem=problem, k=k)
            g = inst.graph
            result = ("ok", g.n, g.vertex_safe, g.eids, g.ends, g.edge_safe, inst.k)
        except InputError as exc:
            result = ("error", str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


# Seeded instance files.

_SPACE = (" ", "  ", "\t", " \t ", "\u00a0", "\u3000")
_COMMENTS = ("c", "c hello", "comment", "cx 1 2", "  c indented", "\tc\ttab")


def _join(rng, fields):
    """The fields joined by random whitespace, some of it leading or trailing."""
    def pad(p):
        return rng.choice(_SPACE) if rng.random() < p else ""
    out = pad(0.1) + fields[0]
    for f in fields[1:]:
        out += (pad(0.3) or " ") + f
    return out + pad(0.1)


def _well_formed(rng, problem):
    """The lines of a valid file: the header, vertex and edge records, with
    comments and blank lines mixed in."""
    n = rng.randint(0, 9)
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.35:
                pairs.append((u, v) if rng.random() < 0.5 else (v, u))
                if problem != "fvc" and rng.random() < 0.2:
                    pairs.append((v, u))      # a parallel edge
    rng.shuffle(pairs)
    header = ["p", "flex", str(n), str(len(pairs))]
    if rng.random() < 0.4:
        header.append(str(rng.choice((1, 1, 2, 3))))
    body = []
    for v in range(n):
        if rng.random() < 0.4:
            body.append(["v", str(v), rng.choice("su")])
    for u, v in pairs:
        flag = rng.choice(([], ["s"], ["u"]))
        body.append(["e", str(u), str(v)] + flag)
    if rng.random() < 0.5:
        rng.shuffle(body)
    lines = [_join(rng, header)] + [_join(rng, f) for f in body]
    for _ in range(rng.randint(0, 4)):
        extra = rng.choice(_COMMENTS + ("", "   ", "\t"))
        lines.insert(rng.randint(0, len(lines)), extra)
    return lines


def _mutate(rng, lines):
    """One defect: each kind maps onto a message of the parser."""
    kind = rng.randrange(12)
    records = [i for i, line in enumerate(lines) if line.split()[:1] in (["p"], ["v"], ["e"])]
    edges = [i for i in records if lines[i].split()[0] == "e"]
    header = next(i for i in records if lines[i].split()[0] == "p")
    i = rng.choice(edges) if edges else header
    fields = lines[i].split()
    n = int(lines[header].split()[2])
    if kind == 0 and edges:                               # bad edge flag
        lines[i] = " ".join(fields[:3] + [rng.choice(("x", "S", "safe", "1", "uu"))])
    elif kind == 1 and edges:                             # endpoint out of range
        fields[rng.choice((1, 2))] = str(rng.choice((n, n + 3, -1)))
        lines[i] = " ".join(fields)
    elif kind == 2 and edges:                             # self-loop
        lines[i] = " ".join(["e", fields[1], fields[1]] + fields[3:])
    elif kind == 3 and edges:                             # repeated edge
        lines.insert(rng.randint(header + 1, len(lines)),
                     " ".join(["e", fields[2], fields[1]] + fields[3:]))
        h = lines[header].split()
        h[3] = str(int(h[3]) + 1)
        lines[header] = " ".join(h)
    elif kind == 4:                                       # missing header
        del lines[header]
    elif kind == 5:                                       # duplicate header
        lines.insert(rng.randint(header + 1, len(lines)), lines[header])
    elif kind == 6:                                       # wrong m
        h = lines[header].split()
        h[3] = str(max(0, int(h[3]) + rng.choice((-1, 1, 2))))
        lines[header] = " ".join(h)
    elif kind == 7:                                       # non-integer field
        j = rng.choice(records)
        f = lines[j].split()
        pos = rng.randrange(2, len(f)) if f[0] == "p" else rng.randrange(1, min(len(f), 3))
        f[pos] = rng.choice(("1.5", "a", "0x2", "--1", "one"))
        lines[j] = " ".join(f)
    elif kind == 8:                                       # unknown record
        lines.insert(rng.randint(0, len(lines)),
                     rng.choice(("x 1 2", "E 0 1", "p flux 3 3", "d", "vv 0 s", "P flex 2 1")))
    elif kind == 9:                                       # wrong field count
        j = rng.choice(records)
        f = lines[j].split()
        lines[j] = " ".join(f[:-1] if rng.random() < 0.5 else f + ["s", "s"])
    elif kind == 10:                                      # a record before the header
        lines.insert(0, rng.choice(("e 0 1", "v 0 u", "e 0 1 s")))
    elif kind == 11:                                      # bad vertex record
        lines.insert(rng.randint(header + 1, len(lines)),
                     rng.choice((f"v {n} s", "v -1 u", "v 0 x", "v 0", f"v {max(n - 1, 0)} u")))
    return lines


def _texts(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        problem = rng.choice(("fgc", "fvc", "kfgc"))
        lines = _well_formed(rng, problem)
        if rng.random() < 0.6:
            lines = _mutate(rng, lines)
        ending = rng.choice(("\n", "\r\n", "\n", ""))
        text = ending.join(lines) + (ending if rng.random() < 0.8 else "")
        if problem == "kfgc":
            k = rng.choice((None, None, 1, 2, 3, 0))
        else:
            k = rng.choice((None, None, 1))   # an explicit k > 1 now warns (test_io.py)
        yield text, problem, k


def test_parse_matches_earlier_form():
    kinds = set()
    accepted = 0
    for text, problem, k in _texts(seed=2024, count=4000):
        new = _outcome(parse_instance, text, problem, k)
        old = _outcome(_old_parse_instance, text, problem, k)
        assert new == old, (problem, k, text)
        if new[0][0] == "ok":
            accepted += 1
        else:
            kinds.add(re.sub(r"\d+", "#", new[0][1]))
    assert accepted >= 1000
    assert {"line #: bad edge flag 'x'", "line #: endpoint out of range", "line #: self-loop",
            "line #: duplicate edge #-# in an FVC instance", "missing 'p flex' header",
            "line #: duplicate header", "header declares # edges but file has #",
            "line #: non-integer endpoint", "line #: non-integer header field",
            "line #: unknown record 'x'", "line #: expected 'e <u> <v> [s|u]'",
            "line #: edge line before header", "line #: vertex # out of range",
            "k must be a positive integer (got #)"} <= kinds
