"""The safe-edge doubling branch for FGC, and why it helps.

A safe edge may serve as a bridge, so inside the 2ECSS relaxation it is
worth two parallel copies.  On a cycle with one safe edge the doubled graph
admits a 4-edge 2ECSS that collapses back to the whole cycle; on a safe
path the doubled copies collapse to a plain spanning path.
"""

from flexconn import LabeledGraph, exact_solve, solve_fgc
from flexconn.feasibility import Instance
from flexconn.fgc import alg2_double_and_solve, double_safe_edges
from flexconn.kfgc import KecssSolverHandle

exact = KecssSolverHandle(cap_n=12)

cycle = LabeledGraph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                           edge_safe=[True, False, False, False])
doubled = double_safe_edges(cycle)
print("cycle with one safe edge: m=%d, doubled m=%d" % (cycle.m, doubled.m))
f2 = alg2_double_and_solve(cycle, exact)
print("doubling branch buys", f2.size, "edges")

sol = solve_fgc(cycle, solver=exact)
opt = exact_solve(Instance(graph=cycle, problem="fgc"))
print("solve_fgc: f1=%d f2=%d -> %d (exact optimum %d)"
      % (sol.meta["f1_size"], sol.meta["f2_size"], sol.size, opt.size))
print("note:", sol.meta["guarantee_note"])

path = LabeledGraph.build(3, [(0, 1), (1, 2)], edge_safe=[True, True])
print("safe path of two edges ->", sorted(alg2_double_and_solve(path, exact).edge_ids))
