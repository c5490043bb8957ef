"""flexconn: solvers for flexible graph connectivity problems.

Safe/unsafe labelled multigraphs, feasibility checkers and exact oracles for
FGC, FVC and k-FGC, the 11/7 FVC approximation pipeline, the safe-edge
doubling FGC driver, the contraction-based k-FGC solver, and a benchmark
harness verifying the size arithmetic behind the guarantees.
"""

from .errors import (FlexconnError, InfeasibleInstanceError, InputError,
                     InvariantViolation)
from .feasibility import (Instance, Solution, check_fgc, check_fvc,
                          check_kfgc, prune_minimal)
from .graph import LabeledGraph, contract_edges, is_k_edge_connected
from .ears import EarDecomposition, build_long_ear_decomposition, find_potential_open_ear_ge4
from .exact import exact_kecss, exact_solve
from .fvc import (KPartition, algorithm1_buy_good_cycles, algorithm2_make_2vc,
                  algorithm3_make_feasible, build_apx1, build_pseudo_edges,
                  partition_k_sets, preprocess, realize_sp, solve_fvc,
                  solve_tree_case)
from .rainbow import PseudoEdge, RainbowSolution, solve_rainbow
from .cycles import find_good_cycle, is_good_cycle
from .fgc import F1SolverHandle, alg2_double_and_solve, solve_fgc
from .kfgc import (KecssSolverHandle, kecss_prune_heuristic, max_safe_forest,
                   solve_kfgc)
from .io import parse_instance, write_instance, write_solution
from .harness import (ExperimentConfig, check_arithmetic_lemmas,
                      gen_random_instance, gen_safe_tree_family,
                      run_ratio_experiment)

__version__ = "0.1.0"
