"""The solve, exact and check paths read a graph's edge columns only, and
each solve certifies its output once.

A `LabeledGraph` builds its `Edge` records (`edges`, `edge_by_id`) on first
use, and building them costs more than parsing the file.  This test runs the
CLI's `solve`, `exact` and `check` on golden instances of each problem,
which reach `solve_fvc`, `solve_fgc`, `solve_kfgc`, `exact_solve` and the
three checkers, and asserts that no record was built: neither cached on a
parsed graph nor constructed anywhere.  A second test counts the checker
calls of each `solve`.
"""

import json
import os
import sys

import pytest

from flexconn import cli, feasibility
from flexconn.graph import Edge

DATA = os.path.join(os.path.dirname(__file__), "data")


def _golden(name, **match):
    with open(os.path.join(DATA, name)) as fh:
        entries = json.load(fh)["instances"]
    return next(e for e in entries if all(e.get(k) == v for k, v in match.items()))


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


@pytest.mark.parametrize("problem, command, entry", CASES,
                         ids=[f"{p}-{c}" for p, c, _ in CASES])
def test_no_edge_records(tmp_path, monkeypatch, capsys, problem, command, entry):
    inst = tmp_path / "g.flex"
    inst.write_text(_text(entry, entry.get("k") if problem == "kfgc" else None))
    parsed, built = [], []
    real_parse, real_init = cli.parse_instance, Edge.__init__

    def parse(*args, **kwargs):
        inst = real_parse(*args, **kwargs)
        parsed.append(inst.graph)
        return inst

    def init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "parse_instance", parse)
    monkeypatch.setattr(Edge, "__init__", init)
    sol = tmp_path / "sol.json"
    assert cli.main([command, "--problem", problem, "-i", str(inst), "-o", str(sol)]) == 0
    assert cli.main(["check", "--problem", problem, "-i", str(inst),
                     "--solution", str(sol)]) == 0
    capsys.readouterr()
    assert len(parsed) == 2
    for g in parsed:
        assert g.m > 0
        assert "edges" not in g.__dict__ and "edge_by_id" not in g.__dict__
    assert built == []


SOLVERS = {"fvc": "solve_fvc", "fgc": "solve_fgc", "kfgc": "solve_kfgc"}
CHECKERS = ("check_fvc", "check_fgc", "check_kfgc")
SOLVE_CASES = [(problem, entry) for problem, command, entry in CASES if command == "solve"]


@pytest.mark.parametrize("problem, entry", SOLVE_CASES, ids=[p for p, _ in SOLVE_CASES])
def test_one_certificate_per_solve(tmp_path, monkeypatch, capsys, problem, entry):
    """No checker runs after the solver returns: `solve` writes the solver's
    own certificate.  FVC and k-FGC check the instance's graph exactly twice,
    on the input and on the returned set (FGC's F1 fallback prunes with the
    checker, so only the first rule applies to it)."""
    calls, parsed, returned = [], [], []
    for name in CHECKERS:
        real = getattr(feasibility, name)

        def checker(g, *args, real=real, name=name):
            calls.append((name, g, bool(returned)))
            return real(g, *args)

        for module in [m for key, m in sys.modules.items() if key.startswith("flexconn")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, checker)
    real_solver, real_parse = getattr(cli, SOLVERS[problem]), cli.parse_instance

    def solver(*args, **kwargs):
        sol = real_solver(*args, **kwargs)
        returned.append(sol)
        return sol

    def parse(*args, **kwargs):
        inst = real_parse(*args, **kwargs)
        parsed.append(inst.graph)
        return inst

    monkeypatch.setattr(cli, SOLVERS[problem], solver)
    monkeypatch.setattr(cli, "parse_instance", parse)
    inst = tmp_path / "g.flex"
    inst.write_text(_text(entry, entry.get("k") if problem == "kfgc" else None))
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--problem", problem, "-i", str(inst), "-o", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["feasible"] is True
    assert len(returned) == 1 and calls
    assert [name for name, _, after in calls if after] == []
    if problem != "fgc":
        own = [name for name, g, _ in calls if g is parsed[0]]
        assert own == [f"check_{problem}"] * 2
