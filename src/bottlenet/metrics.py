"""Post-hoc trace analysis: discovery outcomes, latency, stretch, overhead.

Everything here is recomputed from trace records alone (plus the nodes and
edges of the topology for oracle distances), so the numbers double as an
independent audit of the engine's own counters; nothing here imports the
engine or the fsm. One fold over the records serves every function, so a
live trace and its file summarize alike.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from statistics import fmean
from typing import Iterable, Iterator, NamedTuple

from .domain import is_node_id
from .errors import BottlenetError, MalformedRecord, UnknownNode
from .network import Topology
from .oracle import Distances
from .oracle import bfs_distance  # not called here; bound for perfbench/tracer.py
from .trace import Trace, TraceEvent


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


class _Fold(NamedTuple):
    """What one pass over the records leaves (see _fold)."""

    episodes: list[Episode]
    tables: dict[int, dict[int, tuple[int, int]]]
    topology: Topology | None
    bottles_sent: int
    bottle_bytes: int
    eliminated: dict[str, int]  # reason -> count


def _fold(trace: Trace | Iterable[TraceEvent], t: Topology | None = None,
          up_to: int | None = None) -> _Fold:
    """One pass over the records, up to and including instant up_to.

    An episode opens at the first bottle a source creates for a destination
    (a Sent bottle whose history holds only its sender) and closes at the
    matching RouteFound or Inaccessible record; retry bottles belong to the
    episode that spawned them. Tables (per node, dest -> (next_hop, hops))
    follow TableUpdated and RouteRemoved. The topology starts from t's nodes
    and edges with nothing down and applies each TopologyChanged in record
    order; t itself is left as it is. A field whose JSON type does not fit
    its use, or a node or link t lacks, raises MalformedRecord.
    """
    events = trace.events if isinstance(trace, Trace) else trace
    topo = None if t is None else t.copy_without_faults()
    open_eps: dict[tuple[int, int], Episode] = {}
    done: list[Episode] = []
    tables: defaultdict[int, dict[int, tuple[int, int]]] = defaultdict(dict)
    eliminated: dict[str, int] = {}
    sent = nbytes = 0

    def known(n: object) -> bool:  # a bool or a float would key as the int it equals
        return is_node_id(n) and (topo is None or n in topo.nodes)

    def origin_bottle(ev: TraceEvent, btl_id: str, dest: int) -> None:
        ep = open_eps.get((ev.node, dest))
        if ep is None:
            if not (known(ev.node) and known(dest)):
                raise MalformedRecord(_bad_record(
                    ev, f"node {ev.node!r} or dest {dest!r} is not a known node id"))
            # + 0 here and at the close: a time that is not a number fails in
            # the loop, which names its record, and not in the sort below
            ep = open_eps[ev.node, dest] = Episode(ev.node, dest, ev.at + 0)
        ep.btl_ids.add(btl_id)

    if up_to is not None:
        events = _through(events, up_to)
    try:
        for ev in events:
            kind, data = ev.kind, ev.data
            if kind == "Sent":
                if data["msg"] == "bottle":
                    sent += 1
                    nbytes += data["bytes"]
                    if data["history_len"] == 1:
                        origin_bottle(ev, data["btl_id"], data["dest"])
            elif kind == "TableUpdated":
                tables[ev.node][data["dest"]] = (data["next_hop"], data["hops"])
            elif kind == "Received":  # data arrivals: nothing here reads them
                continue  # tested after the two commonest kinds, Sent and TableUpdated
            elif kind == "RouteRemoved":
                # a bool or a float pops the entry of the int it equals;
                # only a removal is checked, so a miss costs nothing more
                dest = data["dest"]
                if tables[ev.node].pop(dest, None) is not None and type(dest) is not int:
                    raise MalformedRecord(_bad_record(ev, f"dest {dest!r} is not a node id"))
            elif kind == "Eliminated":
                eliminated[data["reason"]] = eliminated.get(data["reason"], 0) + 1
                if "dest" in data:  # origin-side: a bottle that never launched
                    origin_bottle(ev, data["btl_id"], data["dest"])
            elif kind == "RouteFound" or kind == "Inaccessible":
                src, dest = data["src"], data["dest"]
                if not (known(src) and known(dest)):
                    raise MalformedRecord(_bad_record(
                        ev, f"src {src!r} or dest {dest!r} is not a known node id"))
                ep = open_eps.pop((src, dest), None)
                if ep is not None:
                    ep.end_at = ev.at + 0
                    if kind == "RouteFound":
                        ep.outcome, ep.path = "success", list(data["path"])
                    else:
                        ep.outcome = "inaccessible"
                    done.append(ep)
            elif kind == "TopologyChanged" and topo is not None:
                try:
                    topo.apply_fault(data["op"], data["target"])
                except BottlenetError as exc:  # a node or link t lacks
                    raise MalformedRecord(_bad_record(ev, exc)) from None
    except (TypeError, ValueError) as exc:
        raise MalformedRecord(_bad_record(ev, f"a field of the wrong type: {exc}")) from None

    done.extend(open_eps.values())
    done.sort(key=lambda ep: ep.start_at)
    return _Fold(done, dict(tables), topo, sent, nbytes, eliminated)


def _bad_record(ev: TraceEvent, what: object) -> str:
    return f"record seq {ev.seq!r} (kind {ev.kind!r}): {what}"


def _through(events: Iterable[TraceEvent], up_to: int) -> Iterator[TraceEvent]:
    """The records of events up to and including instant up_to."""
    for ev in events:
        try:
            if ev.at > up_to:
                return
        except TypeError as exc:
            raise MalformedRecord(_bad_record(ev, f"a field of the wrong type: {exc}")) from None
        yield ev


def episodes(trace: Trace | Iterable[TraceEvent]) -> list[Episode]:
    """Discovery episodes, ordered by start time (see _fold)."""
    return _fold(trace).episodes


def reconstruct_tables(trace: Trace | Iterable[TraceEvent],
                       up_to: int | None = None,
                       ) -> dict[int, dict[int, tuple[int, int]]]:
    """Routing tables at instant up_to (the end by default), per node:
    dest -> (next_hop, hops), from TableUpdated and RouteRemoved records."""
    return _fold(trace, up_to=up_to).tables


def table_optimality(tables: dict[int, dict[int, tuple[int, int]]],
                     t: Topology | Distances) -> float | None:
    """Fraction of entries whose hop count equals the oracle distance. A
    node t lacks raises UnknownNode, a hop count that is not one MalformedRecord."""
    snapshot = t if isinstance(t, Distances) else Distances(t)
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
    succeeded = [ep for ep in eps if ep.outcome == "success"]

    stretches = []
    for ep in succeeded:
        dist = final.between(ep.src, ep.dest)
        if dist:
            stretches.append(ep.found_hops / dist)

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
        retries=sum(max(0, ep.bottles - 1) for ep in eps),
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
