"""The CLI boundary: every input ends in exit 0, 1 or 2.

A header may declare far more vertices than the file has edges.  All three
problems need (V, F) connected, so fewer than n - 1 edges is infeasible,
and that is decided before the incidence list is built.  The fuzz test
feeds `cli.main` hostile instance text, solution JSON and arguments; the
only other outcome allowed is argparse's usage exit, `SystemExit(1)`.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flexconn import cli, exact
from flexconn.errors import InvariantViolation
from flexconn.exact import exact_solve
from flexconn.feasibility import Instance
from flexconn.io import write_instance

from conftest import build


def _run(argv):
    """(exit code, stdout, stderr) of `cli.main`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def parsed(monkeypatch):
    """The graphs that the CLI parses, in order."""
    graphs = []
    real = cli.parse_instance

    def recording(*args, **kwargs):
        inst = real(*args, **kwargs)
        graphs.append(inst.graph)
        return inst

    monkeypatch.setattr(cli, "parse_instance", recording)
    return graphs


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "fvc"],
    ["solve", "--problem", "fgc"],
    ["solve", "--problem", "kfgc"],
    ["solve", "--problem", "kfgc", "--k", "2"],
    ["check", "--problem", "fvc"],
    ["check", "--problem", "fgc"],
    ["check", "--problem", "kfgc", "--k", "3"],
])
def test_a_huge_header_with_too_few_edges_is_infeasible(tmp_path, parsed, argv):
    """n = 10^5 and m = 1 exits 2 with what `p flex 4 2` prints, and no
    incidence list is built: `solve` and `check` once ran out of memory on
    such a header at n = 3 * 10^7."""
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({"edges": [0]}))
    outputs = []
    for text in ("p flex 100000 1\ne 0 1 s\n", "p flex 4 2\ne 0 1 s\ne 2 3 s\n"):
        path = tmp_path / "inst.flex"
        path.write_text(text)
        extra = ["--solution", str(solution)] if argv[0] == "check" else []
        outputs.append(_run(argv + extra + ["-i", str(path)]))
    assert outputs[0] == outputs[1]
    code, out, err = outputs[0]
    assert code == 2 and not err
    if argv[0] == "solve":
        assert json.loads(out)["error"]["code"] == "infeasible"
    else:
        assert json.loads(out)["feasible"] is False
    assert [g.n for g in parsed] == [100000, 4]
    assert not any("incidence" in g.__dict__ for g in parsed)


def test_exact_refuses_a_huge_header_at_its_cap(tmp_path):
    path = tmp_path / "inst.flex"
    path.write_text("p flex 100000 1\ne 0 1 s\n")
    code, out, err = _run(["exact", "--problem", "fvc", "-i", str(path)])
    assert (code, out) == (1, "")
    assert err == "flexconn: error: exact_solve: n=100000 exceeds cap 10\n"


def _cycle(n, unsafe_vertices):
    """A cycle on n vertices with every vertex unsafe, or else every edge."""
    lines = [f"p flex {n} {n}"] + [f"v {v} u" for v in range(n) if unsafe_vertices]
    lines += [f"e {v} {(v + 1) % n} {'s' if unsafe_vertices else 'u'}" for v in range(n)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv, n, unsafe_vertices", [
    (["exact", "--problem", "fvc", "--cap", "5000"], 1000, True),
    (["solve", "--problem", "fgc", "--exact-cap", "5000"], 1200, False),
])
def test_a_search_deeper_than_the_stack_exits_1(tmp_path, argv, n, unsafe_vertices):
    """The exact search recurses once per chosen edge, and the one feasible
    set of a cycle is all of its edges, so on a long cycle it outruns
    Python's recursion limit.  The command, in a process of its own, exits
    1 with an error line, not with a traceback."""
    path = tmp_path / "inst.flex"
    path.write_text(_cycle(n, unsafe_vertices))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", "import sys; from flexconn.cli import main; sys.exit(main())",
                          *argv, "-i", str(path)], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout) == (1, "")
    assert "Traceback" not in run.stderr
    assert run.stderr == (f"flexconn: error: exact_solve: the search over m={n} edges "
                          "is deeper than the recursion limit\n")


def test_a_500_vertex_cycle_solves_exactly(tmp_path):
    path = tmp_path / "inst.flex"
    path.write_text(_cycle(500, True))
    code, out, err = _run(["exact", "--problem", "fvc", "--cap", "5000", "-i", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["exact_opt"] == 500


def test_a_search_that_finds_nothing_is_an_internal_error(tmp_path, monkeypatch):
    """Past the entry check the search hits by s = m at the latest, so a
    miss can only be a faulty prune: `exact_solve` raises
    `InvariantViolation`, and `flexconn exact` exits 1, not 2 with a false
    `infeasible`, on a golden FVC instance whose optimum is not a tree."""
    golden = json.loads((Path(__file__).resolve().parent / "data" / "solver_golden.json").read_text())
    insts = (Instance(build(e["n"], [(u, v) for u, v, _ in e["edges"]],
                            vertex_safe=[v not in e["unsafe"] for v in range(e["n"])]), "fvc")
             for e in golden["instances"] if (e["kind"], e["problem"]) == ("exact", "fvc"))
    inst = next(i for i in insts if exact_solve(i).size > i.graph.n - 1)
    monkeypatch.setattr(exact, "_minimum_feasible", lambda *args: None)
    with pytest.raises(InvariantViolation, match="search found no feasible edge set"):
        exact_solve(inst)
    path = tmp_path / "inst.flex"
    path.write_text(write_instance(inst))
    code, out, err = _run(["exact", "--problem", "fvc", "-i", str(path)])
    assert (code, out) == (1, "")
    assert err == "flexconn: internal error: exact_solve: the search found no feasible edge set\n"


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

_INT_TOKENS = st.one_of(st.integers(-3, 9).map(str), st.sampled_from(
    ["True", "1.0", "x", "", "1e3", "0x1", "99999999999999999999"]))


_JUNK = st.one_of(
    st.sampled_from(["c note", "", "p flex 3 3", "x 1 2", "e", "v 0", "p flex", "p flex 2 1 1 1"]),
    st.text(st.characters(codec="ascii", exclude_categories=["Cc"]), max_size=12))


def _hostile_records(n):
    """Records with bad tokens and flags, out-of-range ids, self-loops,
    parallel edges and junk lines."""
    vertex = st.one_of(st.integers(0, max(n - 1, 0)).map(str), _INT_TOKENS)
    flag = st.sampled_from(["", " s", " u", " S", " s u", " 1"])
    edge = st.builds(lambda u, v, f: f"e {u} {v}{f}", vertex, vertex, flag)
    mark = st.builds(lambda v, f: f"v {v} {f}", vertex, st.sampled_from(["s", "u", "x", ""]))
    return st.lists(st.one_of(edge, edge, mark, _JUNK), max_size=14)


@st.composite
def _well_formed_records(draw, n):
    """Vertex marks, then up to 14 distinct edges in random orientation."""
    vertex = st.integers(0, max(n - 1, 0))
    marks = draw(st.lists(st.builds("v {} {}".format, vertex, st.sampled_from("su")),
                          max_size=min(n, 7)))
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                          max_size=14 if n >= 2 else 0, unique_by=frozenset))
    flags = st.sampled_from(["", " s", " u"])
    return marks + [f"e {u} {v}{draw(flags)}" for u, v in pairs]


@st.composite
def _instance_text(draw, small):
    """Instance text: a header with n up to 7 (`small`) or up to 10^6, and
    records, well formed or hostile.  At most 14 edge lines, so a large
    header has m < n - 1."""
    n = draw(st.integers(0, 7) if small or draw(st.booleans()) else st.integers(8, 10 ** 6))
    if draw(st.booleans()):
        records = draw(_well_formed_records(n))
        return "\n".join([f"p flex {n} {sum(r[0] == 'e' for r in records)}"] + records) + "\n"
    records = draw(_hostile_records(n))
    edges = sum(r.startswith("e ") for r in records)
    m = draw(st.sampled_from([edges, edges + 1, max(edges - 1, 0)]))
    k = draw(st.one_of(st.just(""), _INT_TOKENS.map(" {}".format)))
    at = draw(st.integers(0, min(len(records), 2)))
    return "\n".join(records[:at] + [f"p flex {n} {m}{k}"] + records[at:]) + "\n"


_ID = st.one_of(st.integers(0, 14), st.integers(0, 14), st.integers(-2, 20), st.booleans(),
                st.floats(0, 3), st.just("1"), st.none())
_SOLUTION = st.one_of(
    st.fixed_dictionaries({"problem": st.sampled_from(["fvc", "fgc", "kfgc"]),
                           "edges": st.lists(st.integers(0, 14), max_size=14, unique=True)}),
    st.fixed_dictionaries({"edges": st.lists(_ID, max_size=8)},
                          optional={"problem": st.sampled_from(["fvc", "fgc", "kfgc", "x", 1]),
                                    "k": _ID}),
    st.sampled_from(["[]", "{}", '{"edges": 3}', "not json", '"fvc"', ""]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["solve", "exact", "check"]))
    problem = draw(st.sampled_from(["fvc", "fgc", "kfgc"]))
    argv = [command] + (["--problem", problem] if command != "check" or draw(st.booleans())
                        else [])
    k = draw(st.one_of(st.none(), st.none(), st.none(), st.integers(1, 3).map(str), _INT_TOKENS))
    return argv + ([] if k is None else ["--k", k])


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=_argv(), data=st.data())
def test_every_cli_input_exits_0_1_or_2(argv, data):
    """Hostile instance text, solution JSON and `--k` values end in exit 0,
    1 or 2, or in argparse's usage exit; never in a traceback.  `exact`
    sees headers with n <= 7 and at most 14 edge lines."""
    text = data.draw(_instance_text(small=argv[0] == "exact"), label="instance")
    solution = data.draw(_SOLUTION, label="solution")
    with tempfile.TemporaryDirectory() as tmp:
        inst, sol = Path(tmp, "inst.flex"), Path(tmp, "sol.json")
        inst.write_text(text)
        sol.write_text(solution if isinstance(solution, str) else json.dumps(solution))
        argv = argv + ["-i", str(inst)] + (["--solution", str(sol)] if argv[0] == "check" else [])
        try:
            code, _, _ = _run(argv)
        except SystemExit as exc:
            assert exc.code == 1, argv
            return
    assert code in (0, 1, 2), argv
