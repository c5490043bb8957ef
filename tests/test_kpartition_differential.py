"""Differential tests of the K-partition stage of `fvc` against its earlier
form.

The earlier form, copied below, classified the leftover vertices (those
outside V(D), the long-ear decomposition) from the components of the
leftover graph, and then re-derived the K11 and K22 edges in both
`build_apx1` and `realize_sp`, reading each leftover vertex's V(D)
neighbours again from `g.neighbors`.  The current `partition_k_sets` walks
the leftover vertices once and records their anchors and the fixed K11 and
K22 edges, which the later stages read.

Both run on the pieces of seeded G(n, p) instances whose edges are numbered
in shuffled order, so that the lowest-id choices are not the lexicographic
ones.  They must agree on the classes, on the fixed edges, on apx1, on the
pseudo-edges and on the realization of S_P, or raise the same error.  The
realization runs on every partitioned piece that has pseudo-edges, not
only on those that `_solve_piece` takes to apx2, to reach its rarer cases.  The goldens do not pin
this stage: on them the realization reaches only its first two cases.
"""

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Tuple

from flexconn.ears import build_long_ear_decomposition
from flexconn.errors import InputError, require
from flexconn.feasibility import check_fvc
from flexconn.fvc import (build_apx1, build_pseudo_edges, partition_k_sets, preprocess,
                          realize_sp, solve_tree_case)
from flexconn.rainbow import PseudoEdge, solve_rainbow

from conftest import build, connected_components


# ---------------------------------------------------------------------------
# The earlier forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OldKPartition:
    vd: FrozenSet[int]
    k11: FrozenSet[int]
    k12: FrozenSet[int]
    k22: FrozenSet[int]
    k23: FrozenSet[int]
    k22_pairs: Tuple[Tuple[int, int], ...]
    k23_pairs: Tuple[Tuple[int, int], ...]

    @property
    def kterm(self):
        return (len(self.k11) + 2 * len(self.k12) + len(self.k22)
                + Fraction(3, 2) * len(self.k23))


def _old_safe_vd_neighbors(g, v, vd):
    return [w for w in g.neighbors(v) if w in vd and g.vertex_safe[w]]


def _old_partition_k_sets(g, dec):
    vd = frozenset(dec.vertices)
    leftover = set(range(g.n)) - vd
    triples = [(e, u, v) for e, (u, v) in zip(g.eids, g.ends)
               if u in leftover and v in leftover]
    k11, k12, k22_pairs, k23_pairs = set(), set(), [], []
    for comp in connected_components(leftover, triples):
        require(len(comp) <= 2, "leftover vertices must form a matching")
        if len(comp) == 1:
            v = min(comp)
            (k11 if _old_safe_vd_neighbors(g, v, vd) else k12).add(v)
        else:
            u, v = sorted(comp)
            u_anchor = bool(_old_safe_vd_neighbors(g, u, vd))
            v_anchor = bool(_old_safe_vd_neighbors(g, v, vd))
            cond_a = u_anchor and v_anchor
            cond_b = ((g.vertex_safe[u] and u_anchor)
                      or (g.vertex_safe[v] and v_anchor))
            (k22_pairs if cond_a or cond_b else k23_pairs).append((u, v))
    k22 = {x for p in k22_pairs for x in p}
    k23 = {x for p in k23_pairs for x in p}
    return _OldKPartition(vd=vd, k11=frozenset(k11), k12=frozenset(k12),
                          k22=frozenset(k22), k23=frozenset(k23),
                          k22_pairs=tuple(sorted(k22_pairs)),
                          k23_pairs=tuple(sorted(k23_pairs)))


def _old_k11_k22_edges(g, kp, hits):
    out = {g.edge_between(v, _old_safe_vd_neighbors(g, v, kp.vd)[0]) for v in kp.k11}
    for u, v in kp.k22_pairs:
        su, sv = (_old_safe_vd_neighbors(g, x, kp.vd) for x in (u, v))
        if su and sv:
            hits["k22 both anchored"] += 1
            out |= {g.edge_between(u, su[0]), g.edge_between(v, sv[0])}
            continue
        for a, b, anchors in ((u, v, su), (v, u, sv)):
            if g.vertex_safe[a] and anchors:
                hits["k22 safe end"] += 1
                out |= {g.edge_between(a, b), g.edge_between(a, anchors[0])}
                break
        else:
            raise InputError("pair classified K22 without a qualifying anchor")
    return out


def _old_k23_anchor_edges(g, kp, u, v):
    au = [w for w in g.neighbors(u) if w in kp.vd]
    av = [w for w in g.neighbors(v) if w in kp.vd]
    for x in au:
        for y in av:
            if x != y:
                return {g.edge_between(u, x), g.edge_between(v, y)}
    raise InputError("K23 pair with a single shared anchor contradicts 2VC input")


def _old_build_apx1(g, dec, kp):
    out = dec.edge_ids(g) | _old_k11_k22_edges(g, kp, Counter())
    for v in sorted(kp.k12):
        nbrs = g.neighbors(v)
        require(len(nbrs) >= 2 and all(w in kp.vd for w in nbrs),
                "a K12 vertex must have >= 2 decomposition neighbours")
        out.add(g.edge_between(v, nbrs[0]))
        out.add(g.edge_between(v, nbrs[1]))
    for u, v in kp.k23_pairs:
        out.add(g.edge_between(u, v))
        out |= _old_k23_anchor_edges(g, kp, u, v)
    bound = Fraction(4, 3) * (len(kp.vd) - 1) + kp.kterm
    require(Fraction(len(out)) <= bound, "apx1 exceeded its size bound")
    return frozenset(out)


def _old_build_pseudo_edges(g, kp):
    vd = kp.vd
    out = set()
    for u in sorted(kp.k12):
        nbrs = g.neighbors(u)
        require(all(w in vd for w in nbrs), "K12 neighbours must be anchors")
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                out.add(PseudoEdge(a, b, ("v", u)))
    for u, v in kp.k23_pairs:
        colour = ("p", u, v)
        au = [w for w in g.neighbors(u) if w in vd]
        av = [w for w in g.neighbors(v) if w in vd]
        for x, y in ((u, v), (v, u)):
            ax = au if x == u else av
            ay = av if x == u else au
            for a in ax:
                for b in ay:
                    if a != b:
                        out.add(PseudoEdge(min(a, b), max(a, b), colour))
            if any(g.vertex_safe[a] for a in ax) and len(ay) >= 2:
                for i, a in enumerate(ay):
                    for b in ay[i + 1:]:
                        out.add(PseudoEdge(a, b, colour))
            if g.vertex_safe[x]:
                for i, a in enumerate(ax):
                    for b in ax[i + 1:]:
                        out.add(PseudoEdge(a, b, colour))
    colours = {p.colour for p in out}
    wanted = {("v", u) for u in kp.k12} | {("p", u, v) for u, v in kp.k23_pairs}
    require(colours == wanted, "every colour needs at least one pseudo-edge")
    return tuple(sorted(out))


def _old_realize_sp(g, kp, rainbow, hits):
    out = _old_k11_k22_edges(g, kp, Counter())
    for p in rainbow.chosen:
        if p.colour[0] == "v":
            u = p.colour[1]
            out.add(g.edge_between(u, p.a))
            out.add(g.edge_between(u, p.b))
        else:
            out |= _old_realize_pair_pseudo(g, kp, p, hits)
    require(len(out) == kp.kterm,
            "realized edge count must equal the literal per-class formula")
    return frozenset(out)


def _old_realize_pair_pseudo(g, kp, p, hits):
    _, u, v = p.colour
    v1, v2 = p.a, p.b
    uv = g.edge_between(u, v)
    require(uv is not None, "pair colour without the matching edge")
    u1, u2, w1, w2 = (g.edge_between(x, y) for x in (u, v) for y in (v1, v2))
    if None not in (u1, w2):
        hits["case 1"] += 1
        return {u1, w2, uv}
    if None not in (u2, w1):
        hits["case 2"] += 1
        return {u2, w1, uv}
    if g.vertex_safe[u] and None not in (u1, u2):
        hits["case 3"] += 1
        return {u1, u2, uv}
    if g.vertex_safe[v] and None not in (w1, w2):
        hits["case 4"] += 1
        return {w1, w2, uv}
    if None not in (w1, w2):
        anchors = _old_safe_vd_neighbors(g, u, kp.vd)
        if anchors:
            hits["case 5"] += 1
            return {w1, w2, g.edge_between(u, anchors[0])}
    if None not in (u1, u2):
        anchors = _old_safe_vd_neighbors(g, v, kp.vd)
        if anchors:
            hits["case 6"] += 1
            return {u1, u2, g.edge_between(v, anchors[0])}
    raise InputError(f"no realization case applies to pseudo-edge {p}")


# ---------------------------------------------------------------------------
# The corpus and the comparison
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _shuffled_instance(rng):
    """A connected G(n, p), n 6-16, with vertex-safe probability 0.1-0.7,
    whose edges are numbered in a random order."""
    n = rng.randint(6, 16)
    p = min(0.6, (math.log(n) + 1.2) / n + rng.uniform(0.0, 0.15))
    vsp = rng.uniform(0.1, 0.7)
    while True:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        rng.shuffle(pairs)
        pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        g = build(n, pairs, vertex_safe=[rng.random() < vsp for _ in range(n)])
        if check_fvc(g, set(g.eids)):
            return g


@functools.lru_cache(maxsize=None)
def _partitioned_pieces(count=1500, seed=20_2026):
    """The pieces that `fvc._solve_piece` partitions (n >= 5, no
    spanning-tree solution) of `count` seeded instances."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        for piece in preprocess(_shuffled_instance(rng))[0]:
            if piece.n >= 5 and solve_tree_case(piece) is None:
                out.append((piece, build_long_ear_decomposition(piece)))
    return tuple(out)


def test_k_partition_stage_matches_earlier_form():
    """Same classes, fixed edges, apx1, pseudo-edges and S_P on every
    partitioned piece, and the corpus reaches each of the six realization
    cases and both K22 rules.  Checked mutant: dropping pseudo-edge rule 3 (a safe end of a
    K23 pair joins its own anchors) changes the pseudo-edges, and this test
    fails."""
    hits = Counter()
    shapes = Counter()
    for g, dec in _partitioned_pieces():
        kp, old = partition_k_sets(g, dec), _old_partition_k_sets(g, dec)
        for name in ("vd", "k11", "k12", "k22", "k23", "k22_pairs", "k23_pairs"):
            assert getattr(kp, name) == getattr(old, name), (name, g)
        assert kp.fixed == _old_k11_k22_edges(g, old, hits), g
        assert _outcome(build_apx1, g, dec, kp) == _outcome(_old_build_apx1, g, dec, old)
        pe = _outcome(build_pseudo_edges, g, kp)
        assert pe == _outcome(_old_build_pseudo_edges, g, old), g
        shapes["k22"] += bool(kp.k22_pairs)
        shapes["k23"] += bool(kp.k23_pairs)
        if not pe or not isinstance(pe[0], PseudoEdge):
            continue
        rainbow = solve_rainbow(pe, sorted(kp.vd))
        assert (_outcome(realize_sp, g, kp, rainbow)
                == _outcome(_old_realize_sp, g, old, rainbow, hits)), g
    cases = ["case 1", "case 2", "case 3", "case 4", "case 5", "case 6"]
    assert all(hits[name] >= 1 for name in cases + ["k22 both anchored", "k22 safe end"]), hits
    assert shapes["k22"] >= 50 and shapes["k23"] >= 50, shapes
