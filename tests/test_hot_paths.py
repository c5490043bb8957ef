"""The solve, exact and check paths read a graph's edge columns only.

A `LabeledGraph` builds its `Edge` records (`edges`, `edge_by_id`) on first
use, and building them costs more than parsing the file.  This test runs the
CLI's `solve`, `exact` and `check` on golden instances of each problem,
which reach `solve_fvc`, `solve_fgc`, `solve_kfgc`, `exact_solve` and the
three checkers, and asserts that no record was built: neither cached on a
parsed graph nor constructed anywhere.
"""

import json
import os

import pytest

from flexconn import cli
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
