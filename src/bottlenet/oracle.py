"""Ground-truth shortest paths and connectivity, recomputed from scratch.

Used only by tests and metrics as an independent check on what the
protocol discovers; deliberately shares nothing with the FSM. A
``Distances`` snapshot costs O(V + E) to build: a tuple of live neighbour
indices per node (sorted order). The first distance asked of it runs one
multi-source bit-parallel sweep (Then et al., PVLDB 2014; Beamer, Asanovic
& Patterson, SC 2012) that keeps ``shells[v][k]``, the bitmask of the nodes
exactly k hops from v: sum_v ecc(v) * deg(v) big-int ORs, sum_v ecc(v)
masks. ``components`` runs no sweep; ``bfs_distance`` builds one for a
single pair and suits tests only. A snapshot does not follow faults
applied after it is built.
"""

from __future__ import annotations

from .errors import UnknownNode
from .network import Topology


class Distances:
    """Shortest live-path hop counts over t as it stands when built."""

    def __init__(self, t: Topology) -> None:
        self._nodes = sorted(t.nodes)
        self.index = {n: i for i, n in enumerate(self._nodes)}  # node -> its bit
        self._nbrs = [tuple(map(self.index.__getitem__, t.live_neighbors(n)))
                      for n in self._nodes]
        self._live = [v for v, n in enumerate(self._nodes) if n not in t.down_nodes]
        self._shells: list[list[int]] | None = None

    @property
    def shells(self) -> list[list[int]]:
        """shells[v][k] for node index v and k up to v's eccentricity. The ball
        of v at level k+1 is the OR of the level-k balls of v and its
        neighbours; a level steps only the nodes whose ball grew at the last,
        since a ball that stops growing covers v's whole component."""
        if self._shells is None:
            nbrs = self._nbrs
            ball = [1 << v for v in range(len(nbrs))]
            self._shells = [[b] for b in ball]
            active = [v for v, vn in enumerate(nbrs) if vn]
            while active:
                grew = []
                for v in active:
                    b = ball[v]
                    for u in nbrs[v]:
                        b |= ball[u]
                    if b != ball[v]:
                        grew.append((v, b))
                for v, b in grew:  # after the level: each reads level-k balls only
                    self._shells[v].append(b ^ ball[v])
                    ball[v] = b
                active = [v for v, _ in grew]
        return self._shells

    def position(self, n: int) -> int:
        """n's index; UnknownNode unless n is a node (a bool would index as 0 or 1)."""
        if type(n) is not int or n not in self.index:
            raise UnknownNode(f"node {n!r} not in topology")
        return self.index[n]

    def between(self, a: int, b: int) -> int | None:
        """Hop count of a shortest live path from a to b; None when disconnected."""
        bit = 1 << self.position(b)
        return next((hops for hops, shell in enumerate(self.shells[self.position(a)])
                     if shell & bit), None)

    def components(self) -> list[set[int]]:
        """Components over live nodes, largest first, ties by smallest node."""
        out, placed, nbrs = [], [False] * len(self._nodes), self._nbrs
        for v in self._live:
            if not placed[v]:
                placed[v], comp = True, [v]
                for w in comp:  # grows as it is read: one traversal
                    for u in nbrs[w]:
                        if not placed[u]:
                            placed[u] = True
                            comp.append(u)
                out.append({self._nodes[w] for w in comp})
        return sorted(out, key=len, reverse=True)


def bfs_distance(t: Topology, a: int, b: int) -> int | None:
    """Hop count of a shortest live path from a to b; None when disconnected."""
    return Distances(t).between(a, b)


def components(t: Topology) -> list[set[int]]:
    """Connected components over live nodes, largest first."""
    return Distances(t).components()
