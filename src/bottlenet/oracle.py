"""Ground-truth shortest paths and connectivity, recomputed from scratch.

Used only by tests and metrics as an independent check on what the
protocol discovers; deliberately shares nothing with the FSM. A
``Distances`` snapshot costs O(V + E) to build: node i (in sorted order)
gets an int bitmask of its live links. Each source then costs one cached
bit-parallel BFS, each level the OR of the frontier's masks minus the nodes
seen (Beamer, Asanovic & Patterson, SC 2012). Many-query callers keep one
snapshot; the two module functions build one per call. A snapshot does not
follow faults applied after it is built.
"""

from __future__ import annotations

from .errors import UnknownNode
from .network import Topology

Unreachable = None


class Distances:
    """Shortest live-path hop counts over t as it stands when built."""

    def __init__(self, t: Topology) -> None:
        self._nodes = sorted(t.nodes)
        self._index = {n: i for i, n in enumerate(self._nodes)}
        self._masks = [sum(1 << self._index[m] for m in t.live_neighbors(n))
                       for n in self._nodes]
        self._live = [n for n in self._nodes if n not in t.down_nodes]
        self._cache: dict[int, dict[int, int]] = {}

    def __contains__(self, n: object) -> bool:
        return n in self._index

    def from_source(self, a: int) -> dict[int, int]:
        """Hop count of a shortest live path from a to each node it reaches,
        a at 0; cached, so callers must not mutate it."""
        dist = self._cache.get(a)
        if dist is not None:
            return dist
        if a not in self._index:
            raise UnknownNode(f"node {a!r} not in topology")
        dist = self._cache[a] = {}
        nodes, masks = self._nodes, self._masks
        seen = frontier = 1 << self._index[a]
        hops = 0
        while frontier:
            reach = 0
            while frontier:  # peel the frontier's bits, lowest first
                low = frontier & -frontier
                i = low.bit_length() - 1
                dist[nodes[i]] = hops
                reach |= masks[i]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
            hops += 1
        return dist

    def between(self, a: int, b: int) -> int | None:
        """Hop count of a shortest live path from a to b; None when disconnected."""
        if b not in self._index:
            raise UnknownNode(f"node {b!r} not in topology")
        return self.from_source(a).get(b, Unreachable)

    def components(self) -> list[set[int]]:
        """Components over live nodes, largest first, ties by smallest node."""
        out, placed = [], set()
        for n in self._live:
            if n not in placed:
                comp = set(self.from_source(n))
                placed |= comp
                out.append(comp)
        return sorted(out, key=len, reverse=True)


def bfs_distance(t: Topology, a: int, b: int) -> int | None:
    """Hop count of a shortest live path from a to b; None when disconnected."""
    return Distances(t).between(a, b)


def components(t: Topology) -> list[set[int]]:
    """Connected components over live nodes, largest first."""
    return Distances(t).components()
