"""Wall time rescaled by the host's current interpreter speed.

On a shared host the same computation runs up to 1.8 times slower while
other tenants load the cores, and such spells last from seconds to
minutes: a 30 s run can fall entirely inside one. So each timed phase is
bracketed by a fixed pure-Python kernel (breadth-first searches over a
fixed 300-node graph, then ``json.dumps`` of the distances: the dict, set
and deque work the simulator does), and its wall time is rescaled by
``REFERENCE_S`` over the kernel's time. Over 60 s on the 2-core machine this
benchmark was written on, block medians of ``metrics.summarize`` varied
with a coefficient of variation of 0.22 raw and 0.04 rescaled.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from collections import deque

# Kernel time on an uncontended core of the reference machine, so that a
# rescaled time reads as seconds there.
REFERENCE_S = 0.004
KERNEL_RUNS = 3

_rng = random.Random("perfbench-clock")
_ADJ: dict[int, list[int]] = {n: [] for n in range(300)}
for _ in range(450):
    _a, _b = _rng.sample(range(300), 2)
    _ADJ[_a].append(_b)
    _ADJ[_b].append(_a)


def _kernel() -> int:
    size = 0
    for src in range(0, 300, 10):
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for m in _ADJ[node]:
                if m not in dist:
                    dist[m] = dist[node] + 1
                    frontier.append(m)
        size += len(json.dumps(dist))
    return size


def kernel_s() -> float:
    """Median wall time of a few kernel runs: the host's speed right now."""
    times = []
    for _ in range(KERNEL_RUNS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
