"""A fixed job that measures how fast the machine runs Python right now.

The benchmark's VM shares its host: in one minute a fixed pure-Python loop
took from 0.16 s to 0.27 s, and whole runs of the same work differed by 20 to
35%.  CPU time follows wall time, so it does not help.  The probe below runs
before every instance; each op's time is multiplied by REFERENCE_S over the
median probe time of the five instances around it, which scales it to the
speed at which the probe takes REFERENCE_S.  The probe is plain dict, list
and deque code like flexconn's own, but does not call flexconn, so no change
to flexconn changes the scale.  Of four candidate probes (this one, object
sorting, a networkx job, JSON and file I/O), its time kept the steadiest
ratio to flexconn's small solve and exact ops across separate runs (range
5.5% of the median over six runs, against 12-18% for the others).
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque
from typing import List

# the probe's median on the reference machine (2 vCPU VM, Python 3.11.7)
REFERENCE_S = 0.0012
WINDOW = 2

_rng = random.Random("perfbench-speed")
_GRAPH = {v: sorted(_rng.sample(range(300), 4)) for v in range(300)}


def probe() -> float:
    """Seconds for breadth-first searches from 12 sources of a fixed
    300-vertex graph."""
    t0 = time.perf_counter()
    for source in range(0, 300, 25):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for y in _GRAPH[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
    return time.perf_counter() - t0


def scales(probes: List[float]) -> List[float]:
    """Per position in run order, REFERENCE_S over the median probe time of
    the positions at most WINDOW away."""
    n = len(probes)
    return [REFERENCE_S / statistics.median(probes[max(0, j - WINDOW):j + WINDOW + 1])
            for j in range(n)]
