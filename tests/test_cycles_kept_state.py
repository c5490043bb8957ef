"""The state that `GoodCycleSearch` keeps across the rounds of Algorithm 1,
against the earlier per-round forms frozen in
`tests/test_cycles_differential.py`.

Before every round, the coarsening kept since the start of the piece must
have the same coarse parts as the earlier coarsening computed afresh from
the current parts, and each part's exit set `bnd` must hold every vertex
of the part with an edge to another part.  The path through a merged
group now stops its search when it first reaches the far end; it is
compared with the earlier search on random vertex sets of the chord-cycle
scale family, where the two ends can lie far apart, and of random graphs.
"""

import random

from flexconn import cycles, fvc
from flexconn.cycles import GoodCycleSearch

from conftest import apx2_inputs, fvc_chord_cycle, random_connected
from test_cycles_differential import _old_coarsen, _old_path_edge_ids


def test_kept_coarsening_matches_a_fresh_one(monkeypatch):
    """Run on the apx2 pieces of the seeded fvc-scale corpus and on
    chord-cycle pieces."""
    real_find = GoodCycleSearch.find
    rounds = []

    def checked_find(self):
        vd = set(self.coarse_of)
        parts = sorted((frozenset(p) for p in self.parts.values()), key=min)
        larges = [p for p in parts if len(p) >= 2]
        singles = [min(p) for p in parts if len(p) == 1]
        nbr = {v: [w for w in self.g.neighbors(v) if w in vd] for v in vd}
        fresh = {p.vertices for p in _old_coarsen(parts, larges, singles, nbr)}
        kept = {}
        for v, cid in self.coarse_of.items():
            kept.setdefault(cid, set()).add(v)
        assert {frozenset(p) for p in kept.values()} == fresh
        for v, cid in self.coarse_of.items():
            if any(self.coarse_of.get(w, cid) != cid for w in self.g.neighbors(v)):
                assert v in self.bnd[cid], (v, cid)
        assert all(members <= kept.get(cid, set()) for cid, members in self.bnd.items())
        rounds.append(len(parts))
        return real_find(self)

    monkeypatch.setattr(GoodCycleSearch, "find", checked_find)
    for g, _, _ in apx2_inputs():
        fvc._solve_piece(g)
    for n, seed in ((100, 1), (200, 2), (400, 3)):
        fvc.solve_fvc(fvc_chord_cycle(n, seed))
    assert len(rounds) >= 1000, len(rounds)


def test_group_path_matches_breadth_first_search():
    """Random connected vertex sets (grown from a seed), with ends anywhere
    in the set, so short and long paths both occur."""
    rng = random.Random(2718)
    lengths = set()
    for i in range(400):
        g = fvc_chord_cycle(rng.randint(6, 300), i) if i % 2 else random_connected(rng, rng.randint(4, 30), 0.2)
        inside = {rng.randrange(g.n)}
        frontier = list(inside)
        target = rng.randint(2, g.n)
        while frontier and len(inside) < target:
            v = frontier.pop(rng.randrange(len(frontier)))
            for w in g.neighbors(v):
                if w not in inside and rng.random() < 0.7:
                    inside.add(w)
                    frontier.append(w)
        if len(inside) < 2:
            continue
        x, y = rng.sample(sorted(inside), 2)
        want = _old_path_edge_ids(g, inside, x, y)
        assert cycles._path_edge_ids(g, inside, x, y) == want, (g.ends, inside, x, y)
        lengths.add(len(want))
    assert len(lengths) >= 10 and max(lengths) >= 10, sorted(lengths)
