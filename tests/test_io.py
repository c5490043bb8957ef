import json

import pytest

from flexconn import cli
from flexconn.cli import main
from flexconn.errors import InputError
from flexconn.feasibility import Instance, Solution
from flexconn.io import parse_instance, write_instance, write_solution

TRIANGLE = "p flex 3 3 1\nv 0 s\nv 1 u\nv 2 u\ne 0 1 s\ne 1 2 u\ne 2 0 u\n"
IGNORED_VERTEX_FLAGS = "vertex safety flags are ignored for KFGC"


class TestParse:
    def test_triangle(self):
        with pytest.warns(UserWarning, match=IGNORED_VERTEX_FLAGS):
            inst = parse_instance(TRIANGLE, problem="kfgc")
        g = inst.graph
        assert g.n == 3 and g.m == 3
        assert inst.k == 1
        assert g.vertex_safe == (True, False, False)
        assert [e.safe for e in g.edges] == [True, False, False]

    def test_missing_header(self):
        with pytest.raises(InputError):
            parse_instance("e 0 1 s\n")

    def test_duplicate_edge_rejected_for_fvc(self):
        text = "p flex 3 4\ne 0 1\ne 1 2\ne 2 0\ne 1 0\n"
        with pytest.raises(InputError):
            parse_instance(text, problem="fvc")
        assert parse_instance(text, problem="fgc").graph.m == 4

    def test_duplicate_edge_message_names_line_and_pair(self):
        text = "p flex 4 4\ne 0 1\ne 1 2\ne 2 3\ne 2 1\n"
        with pytest.raises(InputError,
                           match="^line 5: duplicate edge 2-1 in an FVC instance$"):
            parse_instance(text, problem="fvc")

    def test_line_numbers_in_errors(self):
        with pytest.raises(InputError, match="line 3"):
            parse_instance("c x\np flex 2 1\ne 0 5\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(InputError):
            parse_instance("p flex 3 2\ne 0 1\n")

    def test_k_override(self):
        with pytest.warns(UserWarning, match=IGNORED_VERTEX_FLAGS):
            inst = parse_instance(TRIANGLE, problem="kfgc", k=7)
        assert inst.k == 7

    def test_round_trip(self):
        with pytest.warns(UserWarning, match=IGNORED_VERTEX_FLAGS):
            inst = parse_instance(TRIANGLE, problem="kfgc")
        text = write_instance(inst)
        with pytest.warns(UserWarning, match=IGNORED_VERTEX_FLAGS):
            again = parse_instance(text, problem="kfgc")
        assert write_instance(again) == text

    def test_irrelevant_flags_warn(self):
        with pytest.warns(UserWarning):
            parse_instance(TRIANGLE, problem="fvc")


class TestWriteSolution:
    def test_fixed_key_order_and_values(self):
        sol = Solution(edge_ids=frozenset({2, 0}),
                       meta={"problem": "fgc", "n": 3, "m": 3, "k": 1,
                             "apx_size": 2, "lower_bound": 2, "feasible": True})
        text = write_solution(sol)
        payload = json.loads(text)
        assert list(payload) == ["problem", "n", "m", "k", "apx_size", "edges",
                                 "lower_bound", "exact_opt", "ratio_vs_lb",
                                 "feasible", "meta"]
        assert payload["edges"] == [0, 2]
        assert payload["ratio_vs_lb"] == 1.0
        assert payload["exact_opt"] is None

    def test_byte_stable(self):
        sol = Solution(edge_ids=frozenset({1}),
                       meta={"problem": "fvc", "n": 2, "m": 1, "apx_size": 1,
                             "lower_bound": 1})
        assert write_solution(sol) == write_solution(sol)


class TestCli:
    def _write(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    def test_solve_and_check_round_trip(self, tmp_path):
        inst = self._write(tmp_path, "tri.flex", TRIANGLE)
        out = str(tmp_path / "sol.json")
        assert main(["solve", "--problem", "fgc", "-i", inst, "-o", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["feasible"] is True
        assert main(["check", "-i", inst, "--solution", out]) == 0

    def test_exact_subcommand(self, tmp_path):
        inst = self._write(tmp_path, "tri.flex", TRIANGLE)
        out = str(tmp_path / "exact.json")
        assert main(["exact", "--problem", "fgc", "-i", inst, "-o", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["apx_size"] == payload["exact_opt"]

    def test_infeasible_exit_code(self, tmp_path, capsys):
        text = "p flex 3 2\ne 0 1 u\ne 1 2 u\n"
        inst = self._write(tmp_path, "bad.flex", text)
        assert main(["solve", "--problem", "fgc", "-i", inst]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["code"] == "infeasible"

    def test_usage_error_exit_code(self):
        assert main(["solve", "--problem", "fgc", "-i", "/nonexistent"]) == 1

    def test_bench_rejects_empty_size_range(self, capsys):
        # n_min > n_max used to end in a ValueError traceback from randint
        assert main(["bench", "--problem", "fvc", "--trials", "2",
                     "--n-min", "9", "--n-max", "3"]) == 1
        assert "n_min <= n_max" in capsys.readouterr().err

    def test_bad_solution_detected(self, tmp_path):
        inst = self._write(tmp_path, "tri.flex", TRIANGLE)
        bad = self._write(tmp_path, "bad.json",
                          json.dumps({"problem": "fgc", "k": 1, "edges": [1]}))
        assert main(["check", "-i", inst, "--solution", bad]) == 2

    @pytest.mark.parametrize("edges, shown", [
        ([0, 1, True], "true"),     # a bool would otherwise be read as edge 1
        ([[0], 1], "[0]"),          # unhashable: must not end in a TypeError
        ([0, 3.0], "3.0"),          # a float would otherwise be read as edge 3
    ])
    def test_check_rejects_non_integer_edge_ids(self, tmp_path, capsys, edges, shown):
        inst = self._write(tmp_path, "tri.flex", TRIANGLE)
        sol = self._write(tmp_path, "sol.json",
                          json.dumps({"problem": "fgc", "k": 1, "edges": edges}))
        assert main(["check", "-i", inst, "--solution", sol]) == 1
        err = capsys.readouterr().err
        assert f"solution edge id {shown} is not an integer" in err

    @pytest.mark.parametrize("payload, shown", [
        ([0, 1], "must hold a JSON object"),
        ({"problem": "fgc", "k": "2", "edges": [0, 1]}, "got '2'"),
        ({"problem": "fgc", "k": True, "edges": [0, 1]}, "got True"),
        ({"problem": "kfgc", "k": 2.5, "edges": [0, 1]}, "got 2.5"),
        ({"problem": "kfgc", "k": 0, "edges": [0, 1]}, "got 0"),
    ])
    def test_check_rejects_bad_payload_and_k(self, tmp_path, capsys, payload, shown):
        inst = self._write(tmp_path, "tri.flex", TRIANGLE)
        sol = self._write(tmp_path, "sol.json", json.dumps(payload))
        assert main(["check", "-i", inst, "--solution", sol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert shown in captured.err

    @pytest.mark.parametrize("solution_k", [None, 1, 2])
    def test_check_uses_the_header_k(self, tmp_path, capsys, solution_k):
        # unsafe 0-1 and 1-2, safe 2-0: contracting 2-0 leaves two vertices
        # joined by 2 < k + 1 = 3 edges, so at the header k = 2 no edge set is
        # feasible, whatever k the solution file names
        inst = self._write(tmp_path, "tri.flex", "p flex 3 3 2\ne 0 1 u\ne 1 2 u\ne 2 0 s\n")
        payload = {"problem": "kfgc", "edges": [0, 1, 2]}
        if solution_k is not None:
            payload["k"] = solution_k
        sol = self._write(tmp_path, "sol.json", json.dumps(payload))
        assert main(["solve", "--problem", "kfgc", "-i", inst]) == 2
        capsys.readouterr()
        assert main(["check", "-i", inst, "--solution", sol]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "problem": "kfgc", "k": 2, "size": 3, "feasible": False}
        assert main(["check", "-i", inst, "--solution", sol, "--k", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 1

    @pytest.mark.parametrize("problem", ["fgc", "fvc"])
    @pytest.mark.parametrize("command", [
        ["gen", "--n", "5", "--p", "0.8"],
        ["bench", "--trials", "2", "--n-min", "4", "--n-max", "5"]])
    def test_k_above_one_rejected_outside_kfgc(self, capsys, problem, command):
        # FGC and FVC take k = 1; a run would ignore any other k
        assert main(command + ["--problem", problem, "--k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"flexconn: error: {problem.upper()} takes k = 1 "
                                f"(got 2); use kfgc\n")

    def test_ignored_flag_notice_on_every_call(self, tmp_path, capsys):
        inst = self._write(tmp_path, "tri.flex", TRIANGLE)
        for _ in range(2):
            assert main(["solve", "--problem", "fgc", "-i", inst]) == 0
            err = capsys.readouterr().err
            assert err == "flexconn: warning: vertex safety flags are ignored for FGC\n"

    @pytest.mark.parametrize("problem", ["fgc", "fvc"])
    @pytest.mark.parametrize("command", ["solve", "exact"])
    def test_header_k_ignored_with_notice(self, tmp_path, capsys, problem, command):
        edges = "e 0 1\ne 1 2\ne 2 0\n"
        outputs = {}
        for name, header in (("with_k", "p flex 3 3 2\n"), ("plain", "p flex 3 3\n")):
            inst = self._write(tmp_path, f"{name}.flex", header + edges)
            out = str(tmp_path / f"{name}.json")
            assert main([command, "--problem", problem, "-i", inst, "-o", out]) == 0
            outputs[name] = (open(out).read(), capsys.readouterr().err)
        assert outputs["with_k"][1] == (
            f"flexconn: warning: header k is ignored for {problem.upper()}\n")
        assert outputs["plain"][1] == ""
        assert outputs["with_k"][0] == outputs["plain"][0]
        assert json.loads(outputs["plain"][0])["k"] == 1

    @pytest.mark.parametrize("problem", ["fgc", "fvc"])
    @pytest.mark.parametrize("command", ["solve", "exact", "check"])
    def test_k_option_ignored_with_notice(self, tmp_path, capsys, problem, command):
        # `exact` and `check` used to echo the option as "k": 3
        inst = self._write(tmp_path, "g.flex", "p flex 4 5\ne 0 1\ne 1 2\ne 2 3\ne 3 0\ne 0 2\n")
        sol = str(tmp_path / "sol.json")
        assert main(["solve", "--problem", problem, "-i", inst, "-o", sol]) == 0
        capsys.readouterr()
        args = [command, "--problem", problem, "-i", inst]
        if command == "check":
            args += ["--solution", sol]
        outputs = {}
        for name, extra in (("with_k", ["--k", "3"]), ("plain", [])):
            out = str(tmp_path / f"{name}.out")
            assert main(args + extra + ["-o", out]) == 0
            outputs[name] = (open(out).read(), capsys.readouterr().err)
        assert outputs["with_k"][1] == f"flexconn: warning: k is ignored for {problem.upper()}\n"
        assert outputs["plain"][1] == ""
        assert outputs["with_k"][0] == outputs["plain"][0]
        assert json.loads(outputs["with_k"][0])["k"] == 1

    @pytest.mark.parametrize("problem, kind_key", [
        ("fgc", "twoecss_kind"), ("kfgc", "subsolver_kind")])
    def test_exact_cap_falls_back_above_the_cap(self, tmp_path, problem, kind_key):
        # all-unsafe K5: the doubled graph and the contracted core both have
        # 5 vertices, above the cap of 3
        text = "p flex 5 10 1\n" + "".join(
            f"e {u} {v} u\n" for u in range(5) for v in range(u + 1, 5))
        inst = self._write(tmp_path, "k5.flex", text)
        out = str(tmp_path / "sol.json")
        assert main(["solve", "--problem", problem, "--exact-cap", "3",
                     "-i", inst, "-o", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["feasible"] is True
        assert payload["meta"][kind_key] == "prune_heuristic"

    def test_gen_solve_pipeline(self, tmp_path):
        inst = str(tmp_path / "gen.flex")
        assert main(["gen", "--problem", "fvc", "--n", "6", "--p", "0.8",
                     "--vertex-safe-prob", "0.7", "--seed", "5",
                     "-o", inst]) == 0
        out = str(tmp_path / "sol.json")
        code = main(["solve", "--problem", "fvc", "-i", inst, "-o", out])
        assert code in (0, 2)

    def test_gen_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.flex"), str(tmp_path / "b.flex")
        args = ["gen", "--problem", "fgc", "--n", "7", "--p", "0.5",
                "--seed", "99"]
        assert main(args + ["-o", a]) == 0
        assert main(args + ["-o", b]) == 0
        assert open(a).read() == open(b).read()

    def test_bench_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["bench", "--problem", "fgc", "--trials", "4", "--n-min", "4",
                "--n-max", "6", "--seed", "3"]
        assert main(args + ["-o", a]) == 0
        assert main(args + ["-o", b]) == 0
        assert open(a).read() == open(b).read()

    def test_lemmas_subcommand(self, tmp_path):
        out = str(tmp_path / "lem.txt")
        assert main(["lemmas", "--samples", "500", "--seed", "1", "-o", out]) == 0
        assert "violations=0" in open(out).read()

    def test_cached_parser_matches_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        """`main` reuses one parser per process; a run of calls over every
        subcommand, with usage errors between them, must print and exit
        exactly as the same calls each made with a newly built parser."""
        tri = self._write(tmp_path, "tri.flex", TRIANGLE)
        sol = self._write(tmp_path, "sol.json",
                          json.dumps({"problem": "fgc", "k": 1, "edges": [0, 1]}))
        calls = [
            ["gen", "--problem", "kfgc", "--n", "6", "--p", "0.7", "--k", "2",
             "--seed", "4"],
            ["solve", "--problem", "kfgc", "--k", "2", "-i", tri],
            ["solve", "--problem", "fgc", "-i", tri],
            ["solve", "--problem", "steiner", "-i", tri],
            ["exact", "--problem", "fvc", "-i", tri],
            ["check", "-i", tri, "--solution", sol],
            ["check", "-i", tri, "--solution", sol, "--problem", "fvc"],
            ["frobnicate"],
            ["solve", "--problem", "fgc", "-i", str(tmp_path / "missing.flex")],
            [],
            ["exact", "--problem", "kfgc", "-i", tri, "--cap", "2"],
            ["lemmas", "--samples", "50", "--seed", "2"],
            ["gen", "--family", "safe-tree", "--n", "5", "--k", "3"],
            ["solve", "--problem", "fvc", "-i", tri],
        ]

        def run_all():
            results = []
            for argv in calls:
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        cli._parser.cache_clear()
        cached = run_all()
        assert cli._parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert cached == run_all()
        assert {code for code, _, _ in cached} == {0, 1, 2}
