"""Post-hoc trace analysis: discovery outcomes, latency, stretch, overhead.

Everything here is recomputed from trace records alone (plus the topology
for oracle distances), so the numbers double as an independent audit of
the engine's own counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import fmean
from typing import Iterable

from .domain import BottleId
from .engine import Trace, TraceEvent
from .errors import BottlenetError, UnknownNode
from .network import Topology
from .oracle import bfs_distance, distances_from


class IncompleteTrace(BottlenetError):
    """Summary requested without the inputs to compute it."""


@dataclass
class Episode:
    """One route discovery from first bottle to resolution."""

    src: int
    dest: int
    start_at: int
    end_at: int | None = None
    outcome: str = "unresolved"  # success | inaccessible | unresolved
    path: list[int] | None = None
    btl_ids: set[str] = field(default_factory=set)

    @property
    def bottles(self) -> int:
        return len(self.btl_ids)

    @property
    def found_hops(self) -> int | None:
        return None if self.path is None else len(self.path) - 1

    @property
    def latency(self) -> int | None:
        return None if self.end_at is None else self.end_at - self.start_at


def episodes(trace: Trace | Iterable[TraceEvent]) -> list[Episode]:
    """Group trace records into discovery episodes, ordered by start time.

    An episode opens at the first bottle a source creates for a
    destination and closes at the matching RouteFound or Inaccessible
    record; retry bottles belong to the episode that spawned them.
    """
    events = trace.events if isinstance(trace, Trace) else list(trace)
    open_eps: dict[tuple[int, int], Episode] = {}
    done: list[Episode] = []

    def origin_bottle(ev: TraceEvent, btl_id: str, dest: int) -> None:
        key = (ev.node, dest)
        ep = open_eps.get(key)
        if ep is None:
            ep = Episode(src=ev.node, dest=dest, start_at=ev.at)
            open_eps[key] = ep
        ep.btl_ids.add(btl_id)

    for ev in events:
        if ev.kind == "Sent" and ev.data.get("msg") == "bottle":
            if (ev.data["history_len"] == 1
                    and BottleId.parse(ev.data["btl_id"]).origin == ev.node
                    and ev.data["src"] == ev.node):
                origin_bottle(ev, ev.data["btl_id"], ev.data["dest"])
        elif ev.kind == "Eliminated" and "dest" in ev.data:
            # Origin-side elimination: a bottle that never launched.
            origin_bottle(ev, ev.data["btl_id"], ev.data["dest"])
        elif ev.kind == "RouteFound":
            ep = open_eps.pop((ev.data["src"], ev.data["dest"]), None)
            if ep is not None:
                ep.end_at = ev.at
                ep.outcome = "success"
                ep.path = list(ev.data["path"])
                done.append(ep)
        elif ev.kind == "Inaccessible":
            ep = open_eps.pop((ev.data["src"], ev.data["dest"]), None)
            if ep is not None:
                ep.end_at = ev.at
                ep.outcome = "inaccessible"
                done.append(ep)

    done.extend(open_eps.values())
    return sorted(done, key=lambda ep: ep.start_at)


def reconstruct_tables(trace: Trace | Iterable[TraceEvent],
                       up_to: int | None = None,
                       ) -> dict[int, dict[int, tuple[int, int]]]:
    """Routing tables implied by TableUpdated records: dest -> (next_hop, hops).

    Exact for fault-free runs; entry removals are not traced, so prefer
    the live node states of a finished run when faults were injected.
    """
    events = trace.events if isinstance(trace, Trace) else trace
    tables: dict[int, dict[int, tuple[int, int]]] = {}
    for ev in events:
        if ev.kind != "TableUpdated":
            continue
        if up_to is not None and ev.at > up_to:
            break
        tables.setdefault(ev.node, {})[ev.data["dest"]] = (
            ev.data["next_hop"], ev.data["hops"])
    return tables


def table_optimality(tables: dict[int, dict[int, tuple[int, int]]],
                     t: Topology) -> float | None:
    """Fraction of entries whose hop count equals the oracle distance."""
    total = optimal = 0
    for node, entries in tables.items():
        if not entries:
            continue
        dist = distances_from(t, node)
        for dest, (_, hops) in entries.items():
            if dest not in t.nodes:
                raise UnknownNode(f"node {dest} not in topology")
            total += 1
            if hops == dist.get(dest):
                optimal += 1
    return None if total == 0 else optimal / total


def delivered_paths(trace: Trace | Iterable[TraceEvent],
                    ) -> list[tuple[int, int, int, int]]:
    """(at, src, dest, hops) for every data packet that reached its dest."""
    events = trace.events if isinstance(trace, Trace) else trace
    out = []
    for ev in events:
        if (ev.kind == "Received" and ev.data.get("msg") == "data"
                and ev.node == ev.data["dest"]):
            out.append((ev.at, ev.data["src"], ev.data["dest"],
                        len(ev.data["path"]) - 1))
    return out


@dataclass
class RunSummary:
    discoveries_attempted: int
    discoveries_succeeded: int
    discoveries_failed: int
    mean_discovery_latency: float | None
    mean_stretch: float | None
    total_bottle_bytes: int
    table_optimality: float | None
    bottles_sent: int
    retries: int
    eliminated_hop_limit: int
    eliminated_dead_end: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def summarize(trace: Trace | Iterable[TraceEvent],
              t: Topology | None = None) -> RunSummary:
    if isinstance(trace, Trace):
        events = trace.events
        if t is None:
            t = trace.topology
    else:
        events = list(trace)
    if t is None:
        raise IncompleteTrace("no topology to compute oracle distances against")

    eps = episodes(events)
    succeeded = [ep for ep in eps if ep.outcome == "success"]
    failed = [ep for ep in eps if ep.outcome == "inaccessible"]

    stretches = []
    for ep in succeeded:
        dist = bfs_distance(t, ep.src, ep.dest)
        if dist:
            stretches.append(ep.found_hops / dist)

    bottle_sends = [ev for ev in events
                    if ev.kind == "Sent" and ev.data.get("msg") == "bottle"]
    total_bytes = sum(ev.data["bytes"] for ev in bottle_sends)

    if isinstance(trace, Trace) and trace.nodes:
        tables = {nid: {d: (e.next_hop, e.hop_count)
                        for d, e in node.rtab.items()}
                  for nid, node in trace.nodes.items()}
    else:
        tables = reconstruct_tables(events)

    eliminated = [ev for ev in events if ev.kind == "Eliminated"]

    return RunSummary(
        discoveries_attempted=len(eps),
        discoveries_succeeded=len(succeeded),
        discoveries_failed=len(failed),
        mean_discovery_latency=(fmean(ep.latency for ep in succeeded)
                                if succeeded else None),
        mean_stretch=fmean(stretches) if stretches else None,
        total_bottle_bytes=total_bytes,
        table_optimality=table_optimality(tables, t),
        bottles_sent=len(bottle_sends),
        retries=sum(max(0, ep.bottles - 1) for ep in eps),
        eliminated_hop_limit=sum(1 for ev in eliminated
                                 if ev.data["reason"] == "hop_limit"),
        eliminated_dead_end=sum(1 for ev in eliminated
                                if ev.data["reason"] == "dead_end"),
    )


def format_summary(summary: RunSummary) -> str:
    """Aligned two-column table, one metric per row."""
    rows = []
    for name, value in summary.to_dict().items():
        if isinstance(value, float):
            text = f"{value:.4f}"
        elif value is None:
            text = "-"
        else:
            text = str(value)
        rows.append((name, text))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {text}" for name, text in rows)
