"""Random topology generators for the three studied network shapes.

Every kind draws the node pairs of G(n, p) in one fixed order: rows
a = 0 .. n-2 and, within a row, b = a+1 .. n-1, each pair an edge iff
rng.random() < p. The graph is built by add_edge in that order, so the
edge set and the adjacency iteration order are functions of the seed.

generic and dense resample until the graph is connected (dense also
needs every degree >= n // 4). Each attempt is one pass over the rows
with a union-find. After row a every edge with an endpoint <= a has been
drawn, so a component whose largest member is a can no longer grow: if
it is not all n nodes the attempt is doomed, and it is rejected at that
row. Every closed component is caught at the row of its largest member,
so the decisions equal a connectivity test of the finished graph. A
rejected attempt's remaining draws are skipped with getrandbits (one
call per 65 536 pairs), which leaves the generator exactly where drawing
them would. Near the connectivity threshold most attempts fail through
an early isolated node or small component, so an attempt costs far less
than its n(n-1)/2 draws on average, and only the accepted graph is built
and searched.
"""

from __future__ import annotations

import random

from .domain import MAX_NODE_ID
from .errors import InvalidCount
from .network import Topology
from .oracle import components

KINDS = ("generic", "sparse-partitioned", "dense")

_MAX_ATTEMPTS = 100_000

# pairs skipped per getrandbits call: bounds the skip's integer at 512 KiB
_SKIP_CHUNK = 1 << 16


def _build(n: int, rows: list[list[int]]) -> Topology:
    t = Topology(nodes=set(range(n)))
    add_edge = t.add_edge
    for a, row in enumerate(rows):
        for b in row:
            add_edge(a, b)
    return t


def _skip_draws(count: int, rng: random.Random) -> None:
    """Advance rng exactly as count calls of random() would.

    random() consumes two 32-bit Mersenne Twister outputs and
    getrandbits(k) consumes ceil(k / 32) of them.
    """
    while count:
        step = min(count, _SKIP_CHUNK)
        rng.getrandbits(64 * step)
        count -= step


def _connected_rows(n: int, p: float, min_degree: int,
                    rng: random.Random) -> list[list[int]] | None:
    """One attempt's rows of edges, or None once the graph cannot be
    connected with every degree >= min_degree; rng then stands where a
    full attempt would leave it."""
    random_ = rng.random
    parent = list(range(n))
    top = list(range(n))  # root -> largest member of its component
    unions = 0  # all n nodes are joined after n - 1
    deg = [0] * n
    rows = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a in range(n - 1):
        row = [b for b in range(a + 1, n) if random_() < p]
        rows.append(row)
        deg[a] += len(row)
        for b in row:
            deg[b] += 1
        closed = False
        if unions < n - 1:
            ra = find(a)
            for b in row:
                rb = find(b)
                if rb != ra:
                    parent[rb] = ra
                    unions += 1
                    if top[rb] > top[ra]:
                        top[ra] = top[rb]
            closed = top[ra] == a
        if closed or deg[a] < min_degree:
            _skip_draws((n - 1 - a) * (n - 2 - a) // 2, rng)
            return None
    return rows if deg[n - 1] >= min_degree else None


def generate_topology(kind: str, n: int, seed: int) -> Topology:
    """Deterministic random graph of the requested character.

    generic: mean degree about 3, resampled until connected.
    sparse-partitioned: mean degree about 2, no connectivity repair.
    dense: mean degree about n/2, connected with no weakly attached nodes.
    """
    if kind not in KINDS:
        raise InvalidCount(f"unknown topology kind {kind!r}; expected one of {KINDS}")
    if n < 2:
        raise InvalidCount(f"need at least 2 nodes, got {n}")
    if n > MAX_NODE_ID + 1:
        raise InvalidCount(f"node ids are uint16: at most {MAX_NODE_ID + 1} nodes, got {n}")
    rng = random.Random(f"{kind}:{n}:{seed}")
    if kind == "sparse-partitioned":
        p = 2 / (n - 1)
        return _build(n, [[b for b in range(a + 1, n) if rng.random() < p]
                          for a in range(n - 1)])
    if kind == "generic":
        p, min_degree = 3 / (n - 1), 0
    else:
        p, min_degree = (n / 2) / (n - 1), n // 4
    for _ in range(_MAX_ATTEMPTS):
        rows = _connected_rows(n, p, min_degree, rng)
        if rows is not None:
            t = _build(n, rows)
            # one search per returned graph checks the union-find on its own
            # terms; a graph failing it is rejected like any doomed attempt
            if len(components(t)) == 1:
                return t
    raise InvalidCount(f"could not generate a {kind} graph with {n} nodes")
