"""Walk the FVC pipeline through a small fixture, stage by stage.

The instance is a 4-cycle 0-1-2-3 with three pendant-ish vertices hanging
off it: 4 sits across 0 and 2, 5 across 1 and 3, 6 across 0 and 1.  Only
vertex 5 is safe.  The direct construction pays 2 edges per outside vertex;
the rainbow construction notices that the three implied pseudo-edges already
connect the cycle and spends real edges only where blocks need merging.
"""

from flexconn import (LabeledGraph, build_long_ear_decomposition,
                      build_pseudo_edges, exact_solve, partition_k_sets,
                      solve_fvc, solve_rainbow)
from flexconn.feasibility import Instance
from flexconn.fvc import build_apx1

pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 4), (1, 5), (3, 5),
         (0, 6), (1, 6)]
safe = [False, False, False, False, False, True, False]
g = LabeledGraph.build(7, pairs, vertex_safe=safe)

dec = build_long_ear_decomposition(g)
print("ear decomposition:", dec.ears)

kp = partition_k_sets(g, dec)
print("outside classes: K11=%s K12=%s K22=%s K23=%s"
      % (sorted(kp.k11), sorted(kp.k12), sorted(kp.k22), sorted(kp.k23)))

apx1 = build_apx1(g, dec, kp)
print("direct construction buys", len(apx1), "edges")

pe = build_pseudo_edges(g, kp)
print("pseudo-edges:", [(p.a, p.b, p.colour) for p in pe])

rainbow = solve_rainbow(pe, sorted(kp.vd))
print("rainbow pick: alpha=%d large=%d singletons=%s"
      % (rainbow.alpha, rainbow.alpha_large, sorted(rainbow.singletons)))

sol = solve_fvc(g)
piece = sol.meta["pieces"][0]
print("apx1=%d apx2=%d -> returned %d edges (internal lower bound %d)"
      % (piece["apx1_size"], piece["apx2_size"], sol.size, piece["lower_bound"]))

opt = exact_solve(Instance(graph=g, problem="fvc"))
print("exact optimum:", opt.size, "-> ratio %.3f (guarantee 11/7 = %.3f)"
      % (sol.size / opt.size, 11 / 7))
