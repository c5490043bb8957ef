"""Pseudo-edges and the Maximum Rainbow Connection solver.

A pseudo-edge joins two decomposition vertices and stands for a minimum
bundle of real edges through an outside vertex (colour ("v", u) for a
singleton u) or through a matched pair (colour ("p", u, v)).  Choosing one
pseudo-edge per colour while minimizing connected components is solved
exactly by matroid intersection of the graphic matroid with the partition
matroid over colour classes, then a local-swap pass minimizes the number of
isolated vertices without touching the component count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .errors import InputError
from .graph import UnionFind

Colour = Tuple  # ("v", u) or ("p", u, v) with u < v


@dataclass(frozen=True, order=True)
class PseudoEdge:
    a: int
    b: int
    colour: Colour

    def __post_init__(self):
        if self.a >= self.b:
            raise InputError("pseudo-edge endpoints must satisfy a < b")


@dataclass(frozen=True)
class RainbowSolution:
    chosen: Tuple[PseudoEdge, ...]
    alpha: int
    alpha_large: int
    singletons: FrozenSet[int]


def max_rainbow_forest(pe: Sequence[PseudoEdge]) -> List[PseudoEdge]:
    """Maximum forest using each colour at most once: graphic x partition
    matroid intersection, augmenting along shortest exchange paths.

    Each round seeds a union-find with the forest I and makes one
    ascending pass over the rest, taking each non-member of a colour I
    lacks whose ends lie in two trees: Kruskal's greedy (Edmonds 1971).
    Taking the lowest such pseudo-edge, relabelling the trees and looking
    again would pick the same sequence: a pick merges two trees and uses
    up a colour, so a pseudo-edge that could not be taken when the pass
    met it cannot be taken later.  Then the sources are the non-members
    whose ends lie in two trees, all of colours I holds; the sinks those
    of a colour I lacks.  A search runs from the sources in ascending
    ground order.  A non-member x leads to the member of its colour.  A
    member y leads to the non-members z with I - y + z a forest: z's ends
    lie in one tree, so z closes a fundamental cycle, which passes y iff
    z's ends fall on the two sides of y in that tree.  These arcs are
    listed only when the search reaches y, in ascending ground order, as
    Cunningham's search needs only the arcs it reaches (SIAM J. Comput.
    1986).  A new round starts only after an exchange path; when none is
    found, I is maximum.
    """
    ground = sorted(pe)
    in_set: List[bool] = [False] * len(ground)
    ends = {v for p in ground for v in (p.a, p.b)}
    while True:
        uf = UnionFind(ends)
        colour_of_member: Dict[Colour, int] = {}
        # members first, so the pass meets each non-member with I's trees
        for i in sorted(range(len(ground)), key=in_set.__getitem__, reverse=True):
            p = ground[i]
            if (in_set[i] or p.colour not in colour_of_member) and uf.union(p.a, p.b):
                in_set[i] = True
                colour_of_member[p.colour] = i
        members = [i for i, flag in enumerate(in_set) if flag]
        outside = [i for i, flag in enumerate(in_set) if not flag]
        adj: Dict[int, List[Tuple[int, int]]] = {}
        for i in members:
            p = ground[i]
            adj.setdefault(p.a, []).append((p.b, i))
            adj.setdefault(p.b, []).append((p.a, i))
        sources = [i for i in outside if uf.find(ground[i].a) != uf.find(ground[i].b)]
        sinks = {i for i in outside if ground[i].colour not in colour_of_member}

        parent_arc: Dict[int, int] = dict.fromkeys(sources, -1)
        queue = list(sources)
        for x in queue:    # breadth-first: the loop reaches what it appends
            if not in_set[x]:
                if x in sinks:
                    break
                y = colour_of_member.get(ground[x].colour)
                if y is not None and y not in parent_arc:
                    parent_arc[y] = x
                    queue.append(y)
            else:
                # side: what x's end a reaches in I - x.  Every source is
                # labelled, so an unlabelled z with its ends on the two
                # sides of x has its forest cycle through x
                side, todo = {ground[x].a}, [ground[x].a]
                while todo:
                    for w, i in adj.get(todo.pop(), ()):
                        if i != x and w not in side:
                            side.add(w)
                            todo.append(w)
                for z in outside:
                    if z not in parent_arc and (ground[z].a in side) != (ground[z].b in side):
                        parent_arc[z] = x
                        queue.append(z)
        else:
            return [ground[i] for i in members]
        while x != -1:
            in_set[x] = not in_set[x]
            x = parent_arc[x]


def solve_rainbow(pe: Sequence[PseudoEdge], vd: Sequence[int]) -> RainbowSolution:
    """One pseudo-edge per colour with the minimum number of components of
    (vd, chosen); no single same-colour replacement lowers the number of
    isolated vertices.  No count is rechecked: the augmentations keep the
    forest acyclic, so `alpha` = |vd| - |forest| is the minimum, which
    filling unused colours, able only to merge, keeps."""
    if not pe:
        raise InputError("solve_rainbow: empty pseudo-edge set")
    vd = sorted(vd)
    inside = set(vd)
    if len(inside) < len(vd):
        raise InputError("repeated decomposition vertex")
    if any(p.a not in inside or p.b not in inside for p in pe):
        raise InputError("pseudo-edge endpoint outside decomposition")
    by_colour: Dict[Colour, List[PseudoEdge]] = {}
    for p in sorted(pe):
        by_colour.setdefault(p.colour, []).append(p)
    forest = max_rainbow_forest(pe)
    alpha = len(vd) - len(forest)
    chosen: Dict[Colour, PseudoEdge] = {p.colour: p for p in forest}
    for colour, cands in by_colour.items():
        if colour not in chosen:
            chosen[colour] = cands[0]
    picks = _minimize_singletons(vd, sorted(chosen.values()), by_colour)
    singles = frozenset(inside.difference(*((p.a, p.b) for p in picks)))
    alpha_large = alpha - len(singles)
    return RainbowSolution(chosen=tuple(picks), alpha=alpha,
                           alpha_large=alpha_large, singletons=singles)


def _minimize_singletons(vd, picks: List[PseudoEdge], by_colour) -> List[PseudoEdge]:
    """Take the first same-colour swap, in sorted order, that lowers the
    number of singletons, until none does.  `touch[v]` counts the picks at
    v, so a swap p -> cand is scored in O(1) as the recount of the trial
    list: the ends only p touches are bared, the bare ends of cand covered.
    An accepted swap keeps the component count: cand covers a vertex left
    bare without p, which takes one component off, and dropping p adds at
    most one back; the count was already the minimum."""
    current = list(picks)
    touch = dict.fromkeys(vd, 0)
    for p in current:
        touch[p.a] += 1
        touch[p.b] += 1
    best = sum(1 for c in touch.values() if c == 0)
    improved = True
    while improved:
        improved = False
        for p in sorted(current):
            touch[p.a] -= 1
            touch[p.b] -= 1
            bared = best + (touch[p.a] == 0) + (touch[p.b] == 0)
            for cand in by_colour[p.colour]:
                if cand == p:
                    continue
                singles = bared - (touch[cand.a] == 0) - (touch[cand.b] == 0)
                if singles < best:
                    current = [cand if q == p else q for q in current]
                    best, p = singles, cand    # restore cand's touches
                    improved = True
                    break
            touch[p.a] += 1
            touch[p.b] += 1
            if improved:
                break
    return sorted(current)
