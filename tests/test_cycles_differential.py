"""Differential test of `cycles.find_good_cycle` and Algorithm 1 against
their earlier forms.

The earlier forms, copied below, recomputed the components of V(D) under the
pseudo-edges and S1 in every round of Algorithm 1, built the neighbour list
of every vertex of V(D) and the cross edges of every vertex from a scan of
all edges in every `find_good_cycle` call, and absorbed F2 singletons by
intersecting their neighbourhoods with each large part.  The current ones
keep one `GoodCycleSearch` per piece, which holds the parts, each vertex's
part and the singletons' neighbour lists and merges the parts each bought
cycle touches; they build cross edges when the search reaches a vertex, and
absorb F2 singletons through the vertex-to-part map.  Only a few golden instances reach
apx2, so the comparison runs on:
- random 2-vertex-connected graphs with random partitions, some of which
  leave vertices of V(D) uncovered, handed to the current code shuffled;
- the Algorithm 1 inputs of seeded FVC instances that reach apx2.
Both versions must find the same cycles in the same order, return the same
(x1, s1, A), or raise the same error.
"""

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import FrozenSet, Optional

from flexconn import fvc
from flexconn.cycles import GoodCycleSearch, find_good_cycle, is_good_cycle
from flexconn.errors import require
from flexconn.feasibility import check_fvc
from flexconn.graph import UnionFind

from conftest import cut_vertices, random_connected


# The earlier find_good_cycle and its helpers.

@dataclass(frozen=True)
class _OldPart:
    vertices: FrozenSet[int]
    kind: str
    large_sub: Optional[FrozenSet[int]] = None


def _old_find_good_cycle(g, vd, parts):
    parts = sorted((frozenset(p) for p in parts), key=min)
    larges = [p for p in parts if len(p) >= 2]
    singles = [min(p) for p in parts if len(p) == 1]
    single_set = set(singles)
    if not larges:
        return None
    nbr = {v: [w for w in g.neighbors(v) if w in vd] for v in vd}
    if len(larges) == 1:
        if not any(w in single_set for v in singles for w in nbr[v]):
            return None

    coarse = _old_coarsen(parts, larges, singles, nbr)
    require(len(coarse) >= 2, "coarsened partition must have >= 2 parts")
    nice = _old_find_nice_cycle(g, vd, coarse)
    require(nice is not None, "a nice cycle must exist on a 2VC graph")
    cycle_eids = _old_augment_to_good_cycle(g, coarse, nice)
    triples = [(eid, *g.edge_ends[eid]) for eid in sorted(cycle_eids)]
    require(is_good_cycle(parts, triples), "constructed cycle failed validation")
    return set(cycle_eids)


def _old_coarsen(parts, larges, singles, nbr):
    single_set = set(singles)
    a1 = {v for v in singles if any(w in single_set for w in nbr[v])}
    f1_groups = []
    left = set(a1)
    while left:
        seed = min(left)
        comp = {seed}
        queue = deque([seed])
        while queue:
            x = queue.popleft()
            for y in nbr[x]:
                if y in a1 and y not in comp:
                    comp.add(y)
                    queue.append(y)
        f1_groups.append(frozenset(comp))
        left -= comp

    a2 = set()
    for v in singles:
        if v in a1:
            continue
        if any(len(set(nbr[v]) & L) >= 2 for L in larges):
            a2.add(v)
    coarse = []
    remaining = set(a2)
    absorbed_of = {}
    for L in sorted(larges, key=min):
        grabbed = {v for v in remaining if len(set(nbr[v]) & L) >= 2}
        absorbed_of[L] = grabbed
        remaining -= grabbed
    require(not remaining, "every doubly-anchored singleton must be absorbed")
    for L in sorted(larges, key=min):
        grabbed = absorbed_of[L]
        if grabbed:
            coarse.append(_OldPart(frozenset(L | grabbed), "F2", frozenset(L)))
        else:
            coarse.append(_OldPart(frozenset(L), "F0", None))
    for grp in f1_groups:
        coarse.append(_OldPart(grp, "F1", None))
    for v in singles:
        if v not in a1 and v not in a2:
            coarse.append(_OldPart(frozenset({v}), "A0", None))
    return sorted(coarse, key=lambda p: min(p.vertices))


def _old_find_nice_cycle(g, vd, coarse):
    part_of = {}
    for i, p in enumerate(coarse):
        for v in p.vertices:
            part_of[v] = i
    cross = {v: [] for v in vd}
    for e, (u, v) in zip(g.eids, g.ends):
        if u in part_of and v in part_of and part_of[u] != part_of[v]:
            cross[u].append((v, e, part_of[v]))
            cross[v].append((u, e, part_of[u]))
    for v in cross:
        cross[v].sort()

    for start_idx in range(len(coarse)):
        for a0 in sorted(coarse[start_idx].vertices):
            for (c, eid, r) in cross[a0]:
                found = _old_extend_cycle(coarse, cross, start_idx, a0,
                                          [(eid, a0, c)], {start_idx, r}, r, c)
                if found is not None:
                    return found
    return None


def _old_extend_cycle(coarse, cross, start_idx, start_exit,
                      path_edges, visited, cur_idx, cur_entry):
    big_start = len(coarse[start_idx].vertices) >= 2
    path = list(path_edges)
    visited = set(visited)
    stack = [(_old_moves(coarse, cross, cur_idx, cur_entry), cur_idx)]
    while stack:
        for a, (c, eid, r) in stack[-1][0]:
            if r == start_idx:
                if big_start and c == start_exit:
                    continue
                if not big_start and c != start_exit:
                    continue
                if len(path) == 1 and eid == path[0][0]:
                    continue
                return path + [(eid, a, c)]
            if r in visited:
                continue
            path.append((eid, a, c))
            visited.add(r)
            stack.append((_old_moves(coarse, cross, r, c), r))
            break
        else:
            _, idx = stack.pop()
            if stack:
                path.pop()
                visited.discard(idx)
    return None


def _old_moves(coarse, cross, idx, entry):
    for a in _old_exit_choices(coarse[idx], entry):
        for step in cross[a]:
            yield a, step


def _old_exit_choices(part, entry):
    if len(part.vertices) == 1:
        yield entry
        return
    for v in sorted(part.vertices):
        if v != entry:
            yield v


def _old_augment_to_good_cycle(g, coarse, nice):
    part_of = {}
    for i, p in enumerate(coarse):
        for v in p.vertices:
            part_of[v] = i
    out = {eid for eid, _, _ in nice}
    attach = {}
    for eid, u, v in nice:
        attach.setdefault(part_of[u], []).append(u)
        attach.setdefault(part_of[v], []).append(v)
    for idx, pts in attach.items():
        part = coarse[idx]
        if part.kind in ("A0", "F0"):
            continue
        require(len(pts) == 2, "nice cycle must meet each part exactly twice")
        x, y = pts
        if part.kind == "F1":
            require(x != y, "distinct attachments required inside a merged group")
            out |= _old_path_edge_ids(g, part.vertices, x, y)
        else:
            L = part.large_sub
            if x in L and y in L:
                continue
            if y in L:
                x, y = y, x
            if x in L:
                w = min(w for w in g.neighbor_sets[y] if w in L and w != x)
                out.add(g.edge_between(y, w))
            else:
                w1 = min(w for w in g.neighbor_sets[x] if w in L)
                w2 = min(w for w in g.neighbor_sets[y] if w in L and w != w1)
                out.add(g.edge_between(x, w1))
                out.add(g.edge_between(y, w2))
    return out


def _old_path_edge_ids(g, inside, x, y):
    parent = {x: None}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        if v == y:
            break
        for w in g.neighbors(v):
            if w in inside and w not in parent:
                parent[w] = v
                queue.append(w)
    require(y in parent, "merged singleton group must be connected")
    out = set()
    v = y
    while parent[v] is not None:
        out.add(g.edge_between(v, parent[v]))
        v = parent[v]
    return out


# The earlier Algorithm 1, which recomputed the parts in every round.

def _old_components(vertices, triples):
    uf = UnionFind(vertices)
    for _, u, v in triples:
        uf.union(u, v)
    comps = {}
    for x in uf.parent:
        comps.setdefault(uf.find(x), set()).add(x)
    return sorted(comps.values(), key=min)


def _old_algorithm1(g, vd, rainbow, cycles_found):
    pseudo = [(("pe", i), p.a, p.b) for i, p in enumerate(rainbow.chosen)]
    s1 = set()
    while True:
        parts = [frozenset(c) for c in _old_components(
            vd, pseudo + [(eid, *g.edge_ends[eid]) for eid in s1])]
        cyc = _old_find_good_cycle(g, set(vd), parts)
        cycles_found.append(cyc)
        if cyc is None:
            break
        require(not (cyc & s1), "a good cycle must consist of new edges")
        s1 |= cyc
    larges = [c for c in parts if len(c) >= 2]
    require(len(larges) == 1, "exactly one large component must remain")
    a = larges[0]
    rest = set(vd) - a
    require(all(not (g.neighbor_sets[u] & rest) for u in rest),
            "the remainder must be independent in the decomposition graph")
    x1 = frozenset(rainbow.singletons & a)
    require(2 * len(s1) <= 4 * rainbow.alpha_large + 3 * len(x1) - 4,
            "|S1| exceeded 2 alpha_large + 3/2 |X1| - 2")
    return x1, frozenset(s1), a


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _random_parts(rng, g, vd):
    """A partition of a random subset of vd: connected parts grown from
    seeds, or parts drawn with no regard to the edges."""
    covered = [v for v in sorted(vd) if rng.random() < 0.85]
    if rng.random() < 0.5:
        k = rng.randint(1, max(1, len(covered) // 2))
        owner = {v: rng.randrange(k) for v in covered}
    else:
        inside = set(covered)
        seeds = rng.sample(covered, rng.randint(1, max(1, len(covered) - 1))) if covered else []
        owner = {s: i for i, s in enumerate(seeds)}
        frontier = list(seeds)
        while frontier:
            v = rng.choice(frontier)
            nxt = [w for w in g.neighbors(v) if w in inside and w not in owner]
            if not nxt:
                frontier.remove(v)
                continue
            w = rng.choice(nxt)
            owner[w] = owner[v]
            frontier.append(w)
    parts = {}
    for v, i in owner.items():
        parts.setdefault(i, set()).add(v)
    return [frozenset(p) for p in parts.values()]


def test_find_good_cycle_matches_earlier_form_on_random_partitions():
    rng = random.Random(2024)
    found = errors = 0
    trials = 0
    while trials < 1500:
        g = random_connected(rng, rng.randint(3, 14), rng.uniform(0.25, 0.7))
        if g.n < 3 or cut_vertices(g):
            continue
        trials += 1
        vd = set(range(g.n))
        parts = _random_parts(rng, g, vd)
        want = _outcome(_old_find_good_cycle, g, vd, parts)
        shuffled = [set(p) for p in parts]
        rng.shuffle(shuffled)
        assert _outcome(find_good_cycle, g, vd, shuffled) == want, (g.ends, parts)
        found += isinstance(want, set)
        errors += isinstance(want, tuple)
    # both outcomes other than None were compared, many times
    assert found >= 500 and errors >= 1, (found, errors)


def test_algorithm1_matches_earlier_form_on_apx2_pieces(monkeypatch):
    """Algorithm 1 drives one `GoodCycleSearch` per piece; every cycle its
    `find` returns, the final None included, is recorded and compared."""
    real_algorithm1 = fvc.algorithm1_buy_good_cycles
    real_find = GoodCycleSearch.find
    compared = []

    def both(g, vd, rainbow):
        old_cycles, new_cycles = [], []

        def recording_find(self):
            cyc = real_find(self)
            new_cycles.append(cyc)
            return cyc

        want = _outcome(_old_algorithm1, g, vd, rainbow, old_cycles)
        monkeypatch.setattr(GoodCycleSearch, "find", recording_find)
        try:
            got = _outcome(real_algorithm1, g, vd, rainbow)
        finally:
            monkeypatch.setattr(GoodCycleSearch, "find", real_find)
        assert got == want
        assert new_cycles == old_cycles
        compared.append(len(old_cycles))
        return got

    monkeypatch.setattr(fvc, "algorithm1_buy_good_cycles", both)
    rng = random.Random(11_2024)
    i = 0
    while len(compared) < 150:
        i += 1
        n = 15 + (i * 7) % 66
        p = min(0.5, (math.log(n) + 1.5) / n + 0.06)
        g = random_connected(rng, n, p, vertex_safe_prob=0.15)
        if check_fvc(g, set(g.eids)):
            fvc.solve_fvc(g)
    # most pieces buy several cycles before the last, empty, search
    assert sum(compared) >= 4 * len(compared), compared
