"""Checks of one simulated scenario against ground truth and wire-format laws.

Each function returns True when the property holds. The runner counts
every check on every scenario instance as one operation, so a known fault
cannot hide a new one.
"""

from __future__ import annotations

import math

from truth import Graph

HEADER_BYTES = 11      # src, dest, origin, seq (2 each), flags (1), length (2)
BYTES_PER_HOP = 2


def route_paths(trace, g: Graph) -> bool:
    """Every RouteFound path is a simple graph path from src to dest,
    no shorter than the true distance."""
    for ev in trace.records("RouteFound"):
        src, dest, path = ev.data["src"], ev.data["dest"], ev.data["path"]
        dist = g.distance(src, dest)
        if (len(set(path)) != len(path) or path[0] != src or path[-1] != dest
                or any(b not in g.adj[a] for a, b in zip(path, path[1:]))
                or dist is None or len(path) - 1 < dist):
            return False
    return True


def final_tables(trace, g: Graph) -> bool:
    """Fault-free: every final entry's next hop is adjacent and its hop
    count is at least the true distance."""
    for nid, node in trace.nodes.items():
        for dest, entry in node.rtab.items():
            dist = g.distance(nid, dest)
            if (entry.next_hop not in g.adj[nid] or dist is None
                    or entry.hop_count < dist):
                return False
    return True


def _episode_stretches(events, g: Graph) -> list[float]:
    """found hops / true distance per successful discovery.

    A discovery opens at the source's first bottle for a destination (a
    launch with a one-node history, or an elimination at the origin) and
    closes at the first RouteFound or Inaccessible for that pair.
    """
    open_pairs: set[tuple[int, int]] = set()
    out = []
    for ev in events:
        d = ev.data
        if ev.kind == "Sent" and d["msg"] == "bottle":
            if (d["history_len"] == 1 and d["src"] == ev.node
                    and int(d["btl_id"].split("-")[0]) == ev.node):
                open_pairs.add((ev.node, d["dest"]))
        elif ev.kind == "Eliminated" and "dest" in d:
            open_pairs.add((ev.node, d["dest"]))
        elif ev.kind in ("RouteFound", "Inaccessible"):
            pair = (d["src"], d["dest"])
            if pair in open_pairs:
                open_pairs.discard(pair)
                dist = g.distance(*pair)
                if ev.kind == "RouteFound" and dist:
                    out.append((len(d["path"]) - 1) / dist)
    return out


def optimality(trace, summary, g: Graph) -> bool:
    """Fault-free: table_optimality and mean_stretch equal the values
    recomputed from the trace records and the true distances."""
    tables: dict[tuple[int, int], int] = {}
    for ev in trace.records("TableUpdated"):
        tables[(ev.node, ev.data["dest"])] = ev.data["hops"]
    optimal = sum(hops == g.distance(n, d) for (n, d), hops in tables.items())
    expected_opt = optimal / len(tables) if tables else None
    stretches = _episode_stretches(trace.events, g)
    expected_stretch = sum(stretches) / len(stretches) if stretches else None
    if summary.table_optimality != expected_opt:
        return False
    if expected_stretch is None or summary.mean_stretch is None:
        return expected_stretch is summary.mean_stretch
    return math.isclose(summary.mean_stretch, expected_stretch, rel_tol=1e-12)


def bottle_bytes(trace, summary) -> bool:
    """total_bottle_bytes and meta.bottle_bytes_sent both equal the wire
    size summed over the bottle Sent records."""
    expected = sum(HEADER_BYTES + BYTES_PER_HOP * ev.data["history_len"]
                   for ev in trace.records("Sent") if ev.data["msg"] == "bottle")
    return summary.total_bottle_bytes == expected == trace.meta["bottle_bytes_sent"]


def partition(trace, g: Graph) -> bool:
    """No discovery between nodes of different components succeeds."""
    return all(g.distance(ev.data["src"], ev.data["dest"]) is not None
               for ev in trace.records("RouteFound"))


def live_equals_replay(live_summary, replay_summary) -> bool:
    """The live summary equals the one replayed from the trace file."""
    return live_summary.to_dict() == replay_summary.to_dict()
