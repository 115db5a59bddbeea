"""Ground truth for the benchmark's checks, computed apart from bottlenet.

The graph is read straight from the topology file's JSON edge list and
searched with the benchmark's own BFS, so a fault in ``bottlenet.network``
or ``bottlenet.oracle`` cannot hide itself in the checks.
"""

from __future__ import annotations

import json
from collections import deque


class Graph:
    """Undirected graph with memoised single-source BFS distances."""

    def __init__(self, nodes: list[int], edges: list[list[int]]) -> None:
        self.adj: dict[int, set[int]] = {n: set() for n in nodes}
        for a, b in edges:
            self.adj[a].add(b)
            self.adj[b].add(a)
        self._dist: dict[int, dict[int, int]] = {}

    @classmethod
    def from_file(cls, path: str) -> "Graph":
        with open(path) as fh:
            doc = json.load(fh)
        return cls(doc["nodes"], doc["edges"])

    def distances(self, src: int) -> dict[int, int]:
        """Hop count from src to every node it reaches."""
        dist = self._dist.get(src)
        if dist is None:
            dist = {src: 0}
            frontier = deque([src])
            while frontier:
                node = frontier.popleft()
                for m in self.adj[node]:
                    if m not in dist:
                        dist[m] = dist[node] + 1
                        frontier.append(m)
            self._dist[src] = dist
        return dist

    def distance(self, a: int, b: int) -> int | None:
        return self.distances(a).get(b)

    def components(self) -> list[set[int]]:
        """Connected components, largest first; ties broken by lowest node."""
        seen: set[int] = set()
        out = []
        for n in sorted(self.adj):
            if n not in seen:
                comp = set(self.distances(n))
                seen |= comp
                out.append(comp)
        return sorted(out, key=lambda c: (-len(c), min(c)))
