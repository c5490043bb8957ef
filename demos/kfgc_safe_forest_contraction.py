"""k-FGC by contracting a maximum safe forest, plus the regression family.

The safe-star family (safe star, unsafe cycle over the leaves) has optimum
n-1 for every k: contracting the star leaves a single vertex, so nothing
more is required.  The same family shows that the previously claimed size
chain 2 OPT - k l >= l + (k+1)(n-l) fails for k >= 3, while the corrected
bound |ALG| <= 2 OPT - l holds.
"""

from flexconn import contract_edges, exact_solve, gen_safe_tree_family, solve_kfgc
from flexconn.kfgc import max_safe_forest

for n, k in ((6, 3), (9, 4)):
    inst = gen_safe_tree_family(n, k)
    g = inst.graph
    forest = max_safe_forest(g)
    core = contract_edges(g, forest)
    sol = solve_kfgc(g, k)
    opt = exact_solve(inst).size if n <= 8 else n - 1
    ell = len(forest)
    old_lhs = 2 * opt - k * ell
    old_rhs = ell + (k + 1) * (n - ell)
    print(f"n={n} k={k}: forest={ell} contracted to {core.n} vertex(es); "
          f"ALG={sol.size} OPT={opt}")
    print(f"  corrected bound: ALG={sol.size} <= 2*OPT - l = {2 * opt - ell}")
    print(f"  superseded chain would need {old_lhs} >= {old_rhs}: "
          f"{'holds' if old_lhs >= old_rhs else 'FALSE'}")

# a mixed instance: safe edges collapse into super-vertices; the unsafe
# leftovers must make the contraction (k+1)-edge-connected
from flexconn import LabeledGraph

pairs = [(0, 1), (2, 3),                      # two safe segments
         (0, 2), (0, 2), (1, 3), (1, 3), (0, 3), (1, 2)]
safe = [True, True, False, False, False, False, False, False]
g = LabeledGraph.build(4, pairs, edge_safe=safe)
sol = solve_kfgc(g, 2)
print("mixed instance: contracted n =", sol.meta["contracted_n"],
      "-> ALG size", sol.size)
