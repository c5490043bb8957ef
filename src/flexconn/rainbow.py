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

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import InputError, require

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
class PseudoEdgeSet:
    edges: Tuple[PseudoEdge, ...]

    def __post_init__(self):
        require(len(set(self.edges)) == len(self.edges), "duplicate pseudo-edges")

    def colours(self) -> List[Colour]:
        return sorted({p.colour for p in self.edges})

    def by_colour(self) -> Dict[Colour, List[PseudoEdge]]:
        out: Dict[Colour, List[PseudoEdge]] = {}
        for p in sorted(self.edges):
            out.setdefault(p.colour, []).append(p)
        return out


@dataclass(frozen=True)
class RainbowSolution:
    chosen: Tuple[PseudoEdge, ...]
    alpha: int
    alpha_large: int
    singletons: FrozenSet[int]


def max_rainbow_forest(pe: PseudoEdgeSet) -> List[PseudoEdge]:
    """Maximum forest using each colour at most once (graphic x partition
    matroid intersection, augmenting along shortest exchange paths)."""
    ground = sorted(pe.edges)
    in_set: List[bool] = [False] * len(ground)

    def forest_adj(members: List[int]) -> Dict[int, List[Tuple[int, int]]]:
        adj: Dict[int, List[Tuple[int, int]]] = {}
        for i in members:
            p = ground[i]
            adj.setdefault(p.a, []).append((p.b, i))
            adj.setdefault(p.b, []).append((p.a, i))
        return adj

    def forest_path(adj, src: int, dst: int) -> Optional[List[int]]:
        """Ground indices along the forest path src..dst, None if separated."""
        if src == dst:
            return []
        if src not in adj:
            return None
        parent: Dict[int, Tuple[int, int]] = {src: (-1, -1)}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            if x == dst:
                break
            for y, i in adj.get(x, ()):
                if y not in parent:
                    parent[y] = (x, i)
                    queue.append(y)
        if dst not in parent:
            return None
        out = []
        x = dst
        while x != src:
            px, i = parent[x]
            out.append(i)
            x = px
        return out

    while True:
        members = [i for i, flag in enumerate(in_set) if flag]
        colour_of_member: Dict[Colour, int] = {ground[i].colour: i for i in members}
        adj = forest_adj(members)
        sources: List[int] = []
        path_through: Dict[int, List[int]] = {}
        for i, p in enumerate(ground):
            if in_set[i]:
                continue
            fp = forest_path(adj, p.a, p.b)
            if fp is None:
                sources.append(i)
            else:
                path_through[i] = fp
        sinks = {i for i, p in enumerate(ground)
                 if not in_set[i] and p.colour not in colour_of_member}

        quick = sorted(set(sources) & sinks)
        if quick:
            in_set[quick[0]] = True
            continue

        # arcs y->z for y in I, z outside with I-y+z acyclic
        out_of_member: Dict[int, List[int]] = {i: [] for i in members}
        for z, fp in path_through.items():
            for y in fp:
                out_of_member[y].append(z)
        for y in out_of_member:
            out_of_member[y].sort()

        parent_arc: Dict[int, int] = {}
        queue = deque()
        for z in sorted(sources):
            parent_arc[z] = -1
            queue.append(z)
        reached_sink = None
        while queue and reached_sink is None:
            x = queue.popleft()
            if not in_set[x]:
                if x in sinks:
                    reached_sink = x
                    break
                # M2 exchange: the unique member sharing x's colour
                y = colour_of_member.get(ground[x].colour)
                if y is not None and y not in parent_arc:
                    parent_arc[y] = x
                    queue.append(y)
            else:
                for z in out_of_member[x]:
                    if z not in parent_arc:
                        parent_arc[z] = x
                        queue.append(z)
        if reached_sink is None:
            return [ground[i] for i in members]
        x = reached_sink
        while x != -1:
            in_set[x] = not in_set[x]
            x = parent_arc[x]


def solve_rainbow(pe: PseudoEdgeSet, vd: Sequence[int]) -> RainbowSolution:
    """One pseudo-edge per colour with the minimum number of components of
    (vd, chosen); no single same-colour replacement lowers the number of
    isolated vertices.  No count is rechecked: the augmentations keep the
    forest acyclic, so `alpha` = |vd| - |forest| is the minimum, which
    filling unused colours, able only to merge, keeps."""
    if not pe.edges:
        raise InputError("solve_rainbow: empty pseudo-edge set")
    vd = sorted(vd)
    inside = set(vd)
    if any(p.a not in inside or p.b not in inside for p in pe.edges):
        raise InputError("pseudo-edge endpoint outside decomposition")
    by_colour = pe.by_colour()
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
