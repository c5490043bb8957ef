import re

import pytest

from flexconn.cli import main
from flexconn.errors import InputError
from flexconn.exact import exact_solve
from flexconn.feasibility import checker_for
from flexconn.harness import (ExperimentConfig, check_arithmetic_lemmas,
                              gen_random_instance, gen_safe_tree_family,
                              run_ratio_experiment, size_ratio_plain)
from flexconn.io import write_instance


class TestGenerators:
    def test_complete_graph_all_safe(self):
        inst = gen_random_instance(4, 1.0, 0.0, 1.0, "fvc", 1, seed=7)
        assert inst.graph.m == 6
        assert all(inst.graph.vertex_safe)
        assert not any(e.safe for e in inst.graph.edges)

    def test_deterministic_per_seed(self):
        a = gen_random_instance(7, 0.5, 0.5, 0.5, "fgc", 1, seed=42)
        b = gen_random_instance(7, 0.5, 0.5, 0.5, "fgc", 1, seed=42)
        assert write_instance(a) == write_instance(b)
        c = gen_random_instance(7, 0.5, 0.5, 0.5, "fgc", 1, seed=43)
        assert write_instance(a) != write_instance(c)

    def test_small_n_rejected(self):
        with pytest.raises(InputError):
            gen_random_instance(1, 0.5, 0.5, 0.5, "fgc", 1, seed=0)

    def test_safe_tree_family_optimum(self):
        for n, k in ((5, 3), (3, 1), (6, 2)):
            inst = gen_safe_tree_family(n, k)
            assert checker_for(inst)(inst.graph, set(inst.graph.edge_by_id))
            assert exact_solve(inst).size == n - 1

    def test_safe_tree_family_breaks_old_inequality(self):
        for n in (5, 8, 12):
            for k in (3, 4, 5):
                ell = n - 1
                opt = n - 1
                assert 2 * opt - k * ell < ell + (k + 1) * (n - ell)


class TestExperiment:
    def test_csv_shape_and_determinism(self):
        cfg = ExperimentConfig(problem="fgc", trials=5, n_min=4, n_max=6,
                               seed=11, exact_cap=7)
        csv1 = run_ratio_experiment(cfg)
        csv2 = run_ratio_experiment(cfg)
        assert csv1 == csv2
        lines = csv1.strip().split("\n")
        assert lines[0].startswith("row,seed,n,m,k,")
        assert len(lines) == 1 + 5 + 1
        assert lines[-1].startswith("summary")
        for line in lines[1:-1]:
            assert line.split(",")[10] == "true"  # feasible column

    @pytest.mark.parametrize("argv, match", [
        (["--problem", "fgc", "--k", "2", "--trials", "0"], r"FGC takes k = 1 \(got 2\)"),
        (["--problem", "fvc", "--k", "3", "--trials", "0"], r"FVC takes k = 1 \(got 3\)"),
        (["--problem", "kfgc", "--k", "0", "--trials", "0"], r"k must be a positive integer"),
        (["--problem", "fvc", "--trials", "-3"], r"trials must be a non-negative integer"),
    ])
    def test_bad_config_exits_1_without_rows(self, capsys, argv, match):
        # the config is refused even when no row would build an Instance
        assert main(["bench"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(match, captured.err)

    def test_config_refuses_what_instance_refuses(self):
        for problem, k in (("fgc", 2), ("fvc", 2), ("kfgc", 0), ("kfgc", True), ("mst", 1)):
            with pytest.raises(InputError):
                ExperimentConfig(problem=problem, trials=0, n_min=4, n_max=6, k=k)
        with pytest.raises(InputError, match="trials"):
            ExperimentConfig(problem="kfgc", trials=-1, n_min=4, n_max=6, k=2)
        cfg = ExperimentConfig(problem="kfgc", trials=0, n_min=4, n_max=6, k=2)
        assert run_ratio_experiment(cfg).count("\n") == 2

    def test_kfgc_rows_feasible(self):
        cfg = ExperimentConfig(problem="kfgc", trials=4, n_min=4, n_max=6,
                               p=0.8, edge_safe_prob=0.6, k=2, seed=5,
                               exact_cap=7)
        csv = run_ratio_experiment(cfg)
        for line in csv.strip().split("\n")[1:-1]:
            assert line.split(",")[10] == "true"


class TestArithmeticLemmas:
    def test_no_violations(self):
        report = check_arithmetic_lemmas(5000, seed=3)
        assert report.ok
        assert report.max_ratio_plain <= 11 / 7 + 1e-9
        assert report.max_ratio_with_x <= 11 / 7 + 1e-9

    def test_bound_is_tight(self):
        # at the tight corner the plain ratio approaches 11/7 from below
        t = 1e9
        s = size_ratio_plain(9 * t / 14, 4 * t / 14, 5 * t / 14, 10 * t / 14)
        assert 11 / 7 - 1e-6 < s <= 11 / 7 + 1e-9

    def test_corner_x_equals_alpha_is_mild(self):
        from flexconn.harness import size_ratio_with_x
        # x = alpha, sp = |K|: the ratio drops to at most 4/3
        s = size_ratio_with_x(100.0, 60.0, 60.0, 40.0, 40.0)
        assert s <= 4 / 3 + 1e-9

    def test_bad_sample_count(self):
        with pytest.raises(InputError):
            check_arithmetic_lemmas(0, seed=1)
