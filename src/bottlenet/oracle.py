"""Ground-truth shortest paths and connectivity, recomputed from scratch.

Used only by tests and metrics as an independent check on what the
protocol discovers; deliberately shares nothing with the FSM. Every query
is one breadth-first search from a source over the topology's adjacency
index, O(V + E). ``distances_from`` keeps the whole per-source distance
map, so a caller with many destinations per source (``table_optimality``)
searches once per source rather than once per pair; ``bfs_distance``
stops at its one destination.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .errors import UnknownNode
from .network import Topology

Unreachable = None


def _bfs(t: Topology, a: int) -> Iterator[tuple[int, int]]:
    """(node, hops) for a and every node it reaches over live links, nearest first.

    The oracle's one breadth-first search. It is lazy, so a caller after
    one destination stops as soon as it is found.
    """
    if a not in t.nodes:
        raise UnknownNode(f"node {a} not in topology")
    seen = {a}
    frontier = deque([(a, 0)])
    yield a, 0
    while frontier:
        node, hops = frontier.popleft()
        hops += 1
        for m in t.live_neighbors(node):
            if m not in seen:
                seen.add(m)
                frontier.append((m, hops))
                yield m, hops


def distances_from(t: Topology, a: int) -> dict[int, int]:
    """Hop count of a shortest live path from a to every node it reaches.

    a itself is at 0 and unreachable nodes are absent, so the keys are a's
    live component.
    """
    return dict(_bfs(t, a))


def bfs_distance(t: Topology, a: int, b: int) -> int | None:
    """Hop count of a shortest live path from a to b; None when disconnected."""
    if b not in t.nodes:
        raise UnknownNode(f"node {b} not in topology")
    return next((hops for node, hops in _bfs(t, a) if node == b), Unreachable)


def connected(t: Topology, a: int, b: int) -> bool:
    return bfs_distance(t, a, b) is not Unreachable


def component(t: Topology, a: int) -> set[int]:
    """All nodes reachable from a over live links (includes a itself)."""
    return {node for node, _ in _bfs(t, a)}


def components(t: Topology) -> list[set[int]]:
    """Connected components over live nodes, largest first."""
    remaining = {n for n in t.nodes if n not in t.down_nodes}
    out = []
    while remaining:
        comp = component(t, next(iter(sorted(remaining))))
        comp &= remaining
        out.append(comp)
        remaining -= comp
    return sorted(out, key=len, reverse=True)
