"""Post-hoc trace analysis: discovery outcomes, latency, stretch, overhead.

Every number is read from trace records alone, each discovery's open and
close from what the fsm states (a close with nothing open is malformed),
plus the topology's nodes and edges for oracle distances; nothing here
imports the engine or the fsm. One fold over the records serves every
function, so a live trace and its file summarize alike.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from operator import itemgetter
from statistics import fmean
from typing import Iterable, NamedTuple

from .errors import BottlenetError, MalformedRecord, UnknownNode
from .network import Topology
from .oracle import Distances
from .oracle import bfs_distance  # not called here; bound for perfbench/tracer.py
from .trace import (DISCOVERY_RESOLVED, DISCOVERY_STARTED, ELIMINATED, INACCESSIBLE,
                    ROUTE_FOUND, ROUTE_REMOVED, SENT_BOTTLE, TABLE_UPDATED,
                    TOPOLOGY_CHANGED, Trace, TraceEvent)

_BYTES = SENT_BOTTLE.fields.index("bytes")  # a bottle Sent's byte count, in its values


class IncompleteTrace(BottlenetError):
    """Summary requested without the inputs to compute it."""


@dataclass
class Episode:
    """One route discovery from its first attempt to its close."""

    src: int
    dest: int
    start_at: int
    end_at: int | None = None
    outcome: str = "unresolved"  # success | passive | inaccessible | unresolved
    path: list[int] | None = None  # the route found, on success only
    bottles: int = 1  # created at the source for it: the first and each retry

    @property
    def found_hops(self) -> int | None:
        return None if self.path is None else len(self.path) - 1

    @property
    def latency(self) -> int | None:
        return None if self.end_at is None else self.end_at - self.start_at


class _Fold(NamedTuple):
    """What one pass over the records leaves (see _fold)."""

    episodes: list[Episode]
    tables: dict[int, dict[int, tuple[int, int]]]
    topology: Topology | None
    bottles_sent: int
    bottle_bytes: int
    eliminated: dict[str, int]  # reason -> count


def _fold(trace: Trace | Iterable[TraceEvent], t: Topology | None = None) -> _Fold:
    """One pass over the records.

    Episodes read what the fsm states. A DiscoveryStarted of attempt 0
    opens one for its node and dest, and each later attempt adds a bottle
    to it. A RouteFound ("success"), DiscoveryResolved ("passive") or
    Inaccessible ("inaccessible") closes the one open for its src and dest;
    an episode still open at the end is "unresolved". Tables (per node,
    dest -> (next_hop, hops)) follow TableUpdated and RouteRemoved. The
    topology starts from t's nodes and edges with nothing down and applies
    each TopologyChanged in record order; t itself is left as it is. Times
    and ids are as trace.record judged them. Any other field whose JSON type
    does not fit its use, a node or link t lacks, or a close with no
    discovery open raises MalformedRecord.
    """
    events = trace.events if isinstance(trace, Trace) else trace
    if not isinstance(events, list):  # a stream: zip counts the records it reads
        events = map(itemgetter(1), zip(read := count(), events))

    def bad(ev: TraceEvent, what: object) -> MalformedRecord:
        """The error naming ev by its seq, its place, looked up only on this path."""
        seq = (next(i for i, other in enumerate(events) if other is ev)
               if isinstance(events, list) else next(read) - 1)
        return MalformedRecord(f"record seq {seq} (kind {ev.kind!r}): {what}")

    topo = None if t is None else t.copy_without_faults()
    eps: list[Episode] = []  # in the order they open
    open_eps: dict[tuple[int, int], Episode] = {}
    tables: defaultdict[int, dict[int, tuple[int, int]]] = defaultdict(dict)
    eliminated: dict[str, int] = {}
    sent = nbytes = 0
    # the shapes, as locals, most common first
    sent_bottle, table_updated, route_removed, eliminated_, started, topology_changed = (
        SENT_BOTTLE, TABLE_UPDATED, ROUTE_REMOVED, ELIMINATED, DISCOVERY_STARTED,
        TOPOLOGY_CHANGED)
    # a shape that closes an open episode -> the outcome it gives
    closes = {ROUTE_FOUND: "success", DISCOVERY_RESOLVED: "passive",
              INACCESSIBLE: "inaccessible"}

    def known(n: int) -> bool:
        return topo is None or n in topo.nodes

    try:
        for ev in events:
            shape = ev.shape  # read first: a branch reads the slots it needs
            if shape is sent_bottle:
                sent += 1
                nbytes += ev.values[_BYTES]
            elif shape is table_updated:
                dest, next_hop, hops = ev.values
                tables[ev.node][dest] = (next_hop, hops)
            elif shape is route_removed:
                tables[ev.node].pop(ev.values[0], None)
            elif shape is eliminated_:
                reason = ev.values[1]
                eliminated[reason] = eliminated.get(reason, 0) + 1
            elif shape is started:
                node, (dest, attempt) = ev.node, ev.values
                ep = open_eps.get((node, dest))
                if type(attempt) is not int or attempt < 0 or (ep is None) != (attempt == 0):
                    raise bad(ev, f"attempt {attempt!r} is neither 0 with no discovery "
                                  f"of {dest!r} open nor a retry of an open one")
                if ep is not None:
                    ep.bottles += 1
                elif known(node) and known(dest):
                    eps.append(Episode(node, dest, ev.at))
                    open_eps[node, dest] = eps[-1]
                else:
                    raise bad(ev, f"node {node!r} or dest {dest!r} is not a known node id")
            elif shape in closes:
                src, dest = ev.values[:2]
                ep = open_eps.pop((src, dest), None) if known(src) and known(dest) else None
                if ep is None:
                    raise bad(ev, f"src {src!r} has no discovery of dest {dest!r} open")
                ep.end_at, ep.outcome = ev.at, closes[shape]
                if shape is ROUTE_FOUND:
                    ep.path = list(ev.values[2])
            elif shape is topology_changed and topo is not None:
                try:
                    topo.apply_fault(*ev.values)
                except BottlenetError as exc:  # a node or link t lacks
                    raise bad(ev, exc) from None
            # Sent data, Received, DeliveryFailed and Dropped: nothing here reads them
    except (TypeError, ValueError) as exc:
        raise bad(ev, f"a field of the wrong type: {exc}") from None

    return _Fold(eps, dict(tables), topo, sent, nbytes, eliminated)


def episodes(trace: Trace | Iterable[TraceEvent]) -> list[Episode]:
    """Discovery episodes, in the order they open (see _fold)."""
    return _fold(trace).episodes


def reconstruct_tables(trace: Trace | Iterable[TraceEvent],
                       ) -> dict[int, dict[int, tuple[int, int]]]:
    """Routing tables after the last record, per node: dest -> (next_hop,
    hops), from TableUpdated and RouteRemoved records."""
    return _fold(trace).tables


def table_optimality(tables: dict[int, dict[int, tuple[int, int]]],
                     snapshot: Distances) -> float | None:
    """Fraction of entries whose hop count equals the snapshot's distance. A
    node it lacks raises UnknownNode, a hop count that is not one MalformedRecord."""
    index = snapshot.index
    total = optimal = 0
    for node, entries in tables.items():
        if not entries:
            continue
        try:
            shells = snapshot.shells[snapshot.position(node)]
            for dest, (_, hops) in entries.items():
                if type(dest) is not int or dest not in index:
                    raise UnknownNode(f"dest {dest!r} not in topology")
                if type(hops) is not int or hops < 1:
                    raise MalformedRecord(f"hops {hops!r} is not a hop count")
                if hops < len(shells) and shells[hops] >> index[dest] & 1:
                    optimal += 1
            total += len(entries)
        except (UnknownNode, MalformedRecord) as exc:
            raise type(exc)(f"kind 'TableUpdated' at node {node!r}: {exc}") from None
    return None if total == 0 else optimal / total


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
    """The run's metrics from its records and the nodes and edges of t
    (by default the trace's own topology), in one pass over the records.

    Stretch and table optimality are measured against the topology the
    records leave, every fault applied, so a live trace and the same trace
    loaded from its file give the same summary.
    """
    if t is None and isinstance(trace, Trace):
        t = trace.topology
    if t is None:
        raise IncompleteTrace("no topology to compute oracle distances against")
    fold = _fold(trace, t)
    eps, final = fold.episodes, Distances(fold.topology)
    succeeded = [ep for ep in eps if ep.outcome in ("success", "passive")]

    stretches = [ep.found_hops / dist for ep in succeeded  # a passive close has no path
                 if ep.path is not None and (dist := final.between(ep.src, ep.dest))]

    return RunSummary(
        discoveries_attempted=len(eps),
        discoveries_succeeded=len(succeeded),
        discoveries_failed=sum(ep.outcome == "inaccessible" for ep in eps),
        mean_discovery_latency=(fmean(ep.latency for ep in succeeded)
                                if succeeded else None),
        mean_stretch=fmean(stretches) if stretches else None,
        total_bottle_bytes=fold.bottle_bytes,
        table_optimality=table_optimality(fold.tables, final),
        bottles_sent=fold.bottles_sent,
        retries=sum(ep.bottles - 1 for ep in eps),
        eliminated_hop_limit=fold.eliminated.get("hop_limit", 0),
        eliminated_dead_end=fold.eliminated.get("dead_end", 0),
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
