"""Deterministic discrete-event simulation loop.

All randomness flows from the scenario seed through per-node streams, so a
given (scenario, seed) pair always produces a byte-identical trace. A queue
entry is (at, seq, handler, payload), where seq counts queued events; run
calls handler(*payload) for each entry in key order, so events that fall at
the same instant run in the order they were queued.

A neighbour refresh (a node's hello beacons in the protocol) is one such
event. Only a fault can make a node's view of its live neighbours stale, so
a fault queues one refresh for each node whose live neighbour set it may
change (a link's two endpoints; a node and every node it shares an edge
with), at the node's next beacon instant: the first s >= now with
s = nid (mod beacon_period). A run without faults queues none.

A timer that fires while its node is down waits in the engine; the node's
restore queues each such timer again, in firing order, after its refreshes.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Any, Callable, Iterator, Sequence

from . import fsm
from .config import DEFAULT_HORIZON, ProtocolConfig, ScenarioConfig
from .domain import (
    Bottle,
    BottleId,
    DataPacket,
    NodeState,
    serialize_bottle,  # the wire format; bound here for perfbench/tracer.py
    wire_size,
)
from .errors import BottlenetError, ConfigError, MalformedTrace
from .network import Topology, fault_error, hello_tick, load_topology


# One encoder for every record: json.dumps would build a new one per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode
_BOOL = {True: "true", False: "false"}.__getitem__

# Value kind -> its conversion spec in a line's %-format and the converter
# to JSON text that fills a %s, if it needs one. A name is a str that JSON
# writes as it is: ASCII with no quote, backslash or control character.
_VALUE_KINDS: dict[str, tuple[str, Any]] = {
    "int": ("%d", None), "name": ('"%s"', None), "bool": ("%s", _BOOL),
    "json": ("%s", _encode),
}


# Every record shape the engine writes: (kind, msg, data field names in the
# order the engine fills them), with the %-format and fix-ups of each at the
# same index of _SHAPE_FORMATS. Engine._record stores the index on the record.
_SHAPES: list[tuple[str, str | None, tuple[str, ...]]] = []
_SHAPE_FORMATS: list[tuple[str, tuple]] = []


def _shape(kind: str, msg: str | None, fields: str) -> int:
    """Declare one record shape; fields are "name" or "name:kind" (see
    _VALUE_KINDS), an int when no kind is given. Returns its index.

    Its %-format has the constant text in place; its fix-ups are (index
    from the end of values, converter to JSON text) for each value that
    needs one, where values ends with [at, seq, node, *data.values()]."""
    names, specs, fixups = [], [], []
    for i, item in enumerate(["at", "seq", "node", *fields.split()]):
        name, _, value_kind = item.partition(":")
        spec, convert = _VALUE_KINDS[value_kind or "int"]
        names.append(name)
        specs.append(f"{_encode(name)}:{spec}")
        if convert is not None:
            fixups.append((i, convert))
    fmt = '{%s,%s,%s,"kind":%s,"data":{%s}}' % (*specs[:3], _encode(kind),
                                                 ",".join(specs[3:]))
    _SHAPES.append((kind, msg, tuple(names[3:])))
    _SHAPE_FORMATS.append((fmt, tuple((i - len(names), c) for i, c in fixups)))
    return len(_SHAPES) - 1


# Sent, Received and DeliveryFailed records name a bottle or a data packet
# in "msg"; other kinds have no msg. Only a data packet has a Received record:
# a bottle Sent at t lands at its "to" at t + per_hop_latency, unless a
# DeliveryFailed names its xfer or that instant is past the horizon. Each
# value must be of its declared kind, an int never a bool or a float: times,
# node ids and counts are ints because ScenarioConfig.check rejects any other
# scenario value.
_SENT_BOTTLE = _shape("Sent", "bottle", "msg:name to btl_id:name src dest "
                      "rf:bool failure:bool history_len bytes xfer")
_SENT_DATA = _shape("Sent", "data", "msg:name to src dest xfer")
_RECEIVED_DATA = _shape("Received", "data", "msg:name from src dest path:json xfer")
_BOUNCED_BOTTLE = _shape("DeliveryFailed", "bottle", "msg:name to xfer")
_BOUNCED_DATA = _shape("DeliveryFailed", "data", "msg:name to xfer")
_HOP_CAPPED = _shape("DeliveryFailed", "data", "msg:name src dest reason:name xfer:json")
_ELIMINATED = _shape("Eliminated", None, "btl_id:name reason:name")
_ELIMINATED_AT_ORIGIN = _shape("Eliminated", None, "btl_id:name reason:name dest")
_ROUTE_FOUND = _shape("RouteFound", None, "src dest path:json")
_INACCESSIBLE = _shape("Inaccessible", None, "src dest")
_TABLE_UPDATED = _shape("TableUpdated", None, "dest next_hop hops")
_ROUTE_REMOVED = _shape("RouteRemoved", None, "dest reason:name")
_TOPOLOGY_CHANGED = _shape("TopologyChanged", None, "op:name target:json")

# (kind, msg) -> the data fields every such record carries: those that every
# declared shape of that kind and msg has.
RECORD_FIELDS: dict[tuple[str, str | None], frozenset[str]] = {
    (kind, msg): frozenset.intersection(*(frozenset(names) for k, m, names in _SHAPES
                                          if (k, m) == (kind, msg)))
    for kind, msg, _ in _SHAPES}

@dataclass(slots=True)
class TraceEvent:
    at: int
    seq: int
    node: int
    kind: str
    data: dict[str, Any]
    # the index of the record's declared shape in _SHAPE_FORMATS, set by the
    # engine; None for a record loaded or built in code
    shape: int | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> str:
        """The record as one line of compact JSON, as ``_encode`` writes it."""
        values: list = []
        return self._fill(values) % tuple(values)

    def _fill(self, values: list) -> str:
        """The record's %-format, after adding the values that fill it to values."""
        if self.shape is None:
            return _encode({"at": self.at, "seq": self.seq, "node": self.node,
                            "kind": self.kind, "data": self.data}).replace("%", "%%")
        fmt, fixups = _SHAPE_FORMATS[self.shape]
        values += (self.at, self.seq, self.node, *self.data.values())
        for i, convert in fixups:
            values[i] = convert(values[i])
        return fmt


@dataclass
class Trace:
    """Everything a finished run produced, trace records first among equals.

    The JSONL form (``to_jsonl``, ``write``) holds one record per line: a
    compact JSON object (no spaces, ASCII only) with the keys ``at``,
    ``seq``, ``node``, ``kind`` and ``data`` in that order, so a given run
    always gives the same bytes. ``write`` (one %-format per chunk) and
    ``iter_trace``, which streams it back, each hold one chunk of text at a
    time; ``iter_trace`` rejects all but exactly one such object per
    non-blank line, and any record whose data does not fit its kind.
    """

    events: list[TraceEvent] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    nodes: dict[int, NodeState] = field(default_factory=dict)
    topology: Topology | None = None
    cfg: ProtocolConfig | None = None

    def records(self, kind: str) -> list[TraceEvent]:
        return [ev for ev in self.events if ev.kind == kind]

    def _jsonl_chunks(self) -> Iterator[str]:
        for i in range(0, len(self.events), _CHUNK_LINES):
            values: list = []
            fmts = [ev._fill(values) for ev in self.events[i:i + _CHUNK_LINES]]
            yield ("\n".join(fmts) + "\n") % tuple(values)

    def to_jsonl(self) -> str:
        return "".join(self._jsonl_chunks())

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.writelines(self._jsonl_chunks())


# Lines per json.loads in iter_trace and records per piece Trace.write encodes:
# most of the speed of one call per file, with one chunk of text in flight.
_CHUNK_LINES = 2048


def iter_trace(path: str) -> Iterator[TraceEvent]:
    """The records of a JSONL trace written by ``Trace.write``, in order,
    streamed a chunk at a time (see ``_trace_chunks``)."""
    return chain.from_iterable(_trace_chunks(path))


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; leave it as it was on leaving."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _trace_chunks(path: str) -> Iterator[list[TraceEvent]]:
    """The records of each ``_CHUNK_LINES`` lines of a JSONL trace, decoded in
    one call (``_decode_chunk``). Only a chunk it rejects is decoded line by
    line, each line stripped, to name its first bad line (``_record_error``)."""
    with open(path, encoding="utf-8") as fh:
        first = 1  # the number of the chunk's first line
        try:
            while lines := list(islice(fh, _CHUNK_LINES)):
                events = _decode_chunk(lines)
                if events is None:
                    events = []
                    for n, line in enumerate(map(str.strip, lines), first):
                        if (line_events := _decode_chunk([line])) is None:
                            raise MalformedTrace(f"{path}: line {n}: {_record_error(line)}")
                        events += line_events
                yield events
                first += len(lines)
        except UnicodeDecodeError as exc:
            raise MalformedTrace(f"{path}: not UTF-8 text: {exc}") from None


# "]", "," and "[" with only JSON whitespace between: in a document of several
# wrapped lines, such text on one line adds a list, which one record split
# over two lines inside a list can make up for.
_LIST_BREAK = re.compile(r"\][ \t\n\r]*,[ \t\n\r]*\[")


@_collector_paused()
def _decode_chunk(lines: list[str]) -> list[TraceEvent] | None:
    """Every record of lines, decoded in one call with each line wrapped in a
    list of its own, or None unless that gives one list per line, each
    holding one record that fits its kind, or nothing for a line of JSON
    whitespace. Several lines whose text holds a _LIST_BREAK give None."""
    if len(lines) > 1 and _LIST_BREAK.search("".join(lines)):
        return None
    events: list[TraceEvent] = []
    append, get_fields, fault_fields = events.append, RECORD_FIELDS.get, _FAULT_FIELDS
    with suppress(ValueError, TypeError, KeyError, AttributeError):
        if len(items := json.loads("[[" + "],[".join(lines) + "]]")) == len(lines):
            for (rec,) in filter(None, items):
                kind, data = rec["kind"], rec["data"]
                fields = get_fields((kind, data.get("msg")))
                if (fields is None or not data.keys() >= fields
                        or fields is fault_fields and fault_error(data["op"], data["target"])):
                    break
                append(TraceEvent(rec["at"], rec["seq"], rec["node"], kind, data))
            else:
                return events
    return None


def load_trace(path: str) -> Trace:
    """Every record of a JSONL trace file, collected from ``iter_trace``."""
    return Trace(events=list(iter_trace(path)))


_FAULT_FIELDS = RECORD_FIELDS["TopologyChanged", None]


def _record_error(line: str) -> str | None:
    """What keeps a non-blank trace line from being one valid record, if anything."""
    try:
        rec = json.loads(line)
    except ValueError as exc:
        return f"not one JSON record: {exc}"
    if not isinstance(rec, dict):
        return f"expected a JSON object, got {type(rec).__name__}"
    missing = [key for key in ("at", "seq", "node", "kind", "data") if key not in rec]
    if missing:
        return f"missing field '{missing[0]}'"
    kind, data = rec["kind"], rec["data"]
    if not isinstance(data, dict):
        return "field 'data' is not an object"
    # compared, not hashed: kind or msg may be a list
    key = (kind, data.get("msg"))
    fields = next((f for k, f in RECORD_FIELDS.items() if k == key), None)
    if fields is None:
        if not any(k == kind for k, _ in RECORD_FIELDS):
            return f"unknown kind {kind!r}"
        if "msg" not in data:
            return f"kind {kind!r}: missing field 'msg'"
        return f"kind {kind!r} has no msg {data['msg']!r}"
    missing = sorted(fields - data.keys())
    if missing:
        return f"kind {kind!r}: missing field '{missing[0]}'"
    error = fields is _FAULT_FIELDS and fault_error(data["op"], data["target"])
    return f"kind {kind!r}: {error}" if error else None


class Engine:
    """Event queue, per-node rng streams, and the action-to-event bridge."""

    def __init__(self, topology: Topology, cfg: ProtocolConfig, seed: int,
                 horizon: int):
        self.topology = topology
        self.cfg = cfg
        self.horizon = horizon
        self.now = 0
        self.nodes = {nid: NodeState(nid=nid, nbors=topology.live_neighbors(nid))
                      for nid in sorted(topology.nodes)}
        self._rngs = {nid: random.Random(f"{seed}:{nid}")
                      for nid in self.nodes}
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._event_seq = 0
        # down node -> the payloads of its timers that fired while it was down
        self._parked: dict[int, list[tuple]] = {}
        self._xfer = 0
        self.trace: list[TraceEvent] = []
        self.bottle_bytes_sent = 0
        self.events_processed = 0

    # -- scheduling --------------------------------------------------------

    def schedule(self, at: int, handler: Callable[..., None],
                 payload: tuple) -> None:
        if at < self.now:
            raise ConfigError(f"cannot schedule event at {at}, now is {self.now}")
        heapq.heappush(self._queue, (at, self._event_seq, handler, payload))
        self._event_seq += 1

    # -- trace -------------------------------------------------------------

    def _record(self, node: int, kind: str, shape: int,
                data: dict[str, Any]) -> None:
        """Append one record; shape is its declared shape (see _shape),
        whose fields data holds in their declared order."""
        trace = self.trace
        trace.append(TraceEvent(self.now, len(trace), node, kind, data, shape))

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        queue, pop = self._queue, heapq.heappop
        while queue and queue[0][0] <= self.horizon:
            self.now, _, handler, payload = pop(queue)
            self.events_processed += 1
            handler(*payload)
        # the entries past the horizon hold bound methods of this engine
        queue.clear()

    # -- event handlers ----------------------------------------------------

    def _on_app_request(self, src: int, dest: int) -> None:
        if src in self.topology.down_nodes:
            return
        pkt = DataPacket(src=src, dest=dest, path=[src])
        self._apply(src, fsm.handle_route_request(self.nodes[src], pkt, self.now,
                                                  self.cfg, self._rngs[src]))

    def _on_bottle_arrival(self, frm: int, to: int, bottle: Bottle,
                           xfer: int) -> None:
        if not self.topology.link_live(frm, to):
            self._fail_delivery(frm, to, bottle, xfer, "bottle")
            return
        if bottle.rf and to == bottle.src:
            self._record(to, "RouteFound", _ROUTE_FOUND, {
                "src": bottle.src, "dest": bottle.dest,
                "path": list(bottle.history),
            })
        self._apply(to, fsm.handle_bottle(self.nodes[to], bottle, self.now,
                                          self.cfg, self._rngs[to]))

    def _on_data_arrival(self, frm: int, to: int, pkt: DataPacket,
                         xfer: int) -> None:
        if not self.topology.link_live(frm, to):
            self._fail_delivery(frm, to, pkt, xfer, "data")
            return
        pkt.path.append(to)
        self._record(to, "Received", _RECEIVED_DATA, {
            "msg": "data", "from": frm, "src": pkt.src, "dest": pkt.dest,
            "path": list(pkt.path), "xfer": xfer,
        })
        if to == pkt.dest:
            return
        if len(pkt.path) > self.cfg.hop_limit + 1:
            # Stale tables can momentarily loop a packet; cap its journey.
            self._record(to, "DeliveryFailed", _HOP_CAPPED, {
                "msg": "data", "src": pkt.src, "dest": pkt.dest,
                "reason": "hop_cap", "xfer": None,
            })
            return
        self._apply(to, fsm.handle_route_request(self.nodes[to], pkt, self.now,
                                                 self.cfg, self._rngs[to]))

    def _on_timer_fire(self, nid: int, dest: int, btl_id: BottleId) -> None:
        if nid in self.topology.down_nodes:
            self._parked.setdefault(nid, []).append((nid, dest, btl_id))
            return
        self._apply(nid, fsm.on_timeout(self.nodes[nid], dest, btl_id, self.now,
                                        self.cfg, self._rngs[nid]))

    def _on_neighbor_refresh(self, nid: int) -> None:
        if nid in self.topology.down_nodes:
            return
        node = self.nodes[nid]
        lost = hello_tick(self.topology, node)
        self._apply(nid, fsm.purge_routes(node, lost, "neighbor_lost"))

    def _on_fault(self, op: str, target: tuple) -> None:
        # run() has checked every fault against the topology
        self._record(target[0], "TopologyChanged", _TOPOLOGY_CHANGED,
                     {"op": op, "target": list(target)})
        now, period = self.now, self.cfg.beacon_period
        for nid in self.topology.apply_fault(op, target):
            self.schedule(now + (nid - now) % period, self._on_neighbor_refresh, (nid,))
        if op == "restore_node":
            for payload in self._parked.pop(target[0], ()):
                self.schedule(now, self._on_timer_fire, payload)

    # -- fsm actions -------------------------------------------------------

    def _apply(self, nid: int, actions: Sequence[fsm.Action]) -> None:
        on_action = self._actions
        for action in actions:
            on_action[type(action)](self, nid, action)

    def _on_set_timer(self, nid: int, action: fsm.SetTimer) -> None:
        self.schedule(action.deadline, self._on_timer_fire,
                      (nid, action.dest, action.btl_id))

    def _on_inaccessible(self, nid: int, action: fsm.DeclareInaccessible) -> None:
        self._record(nid, "Inaccessible", _INACCESSIBLE, {"src": nid, "dest": action.dest})

    def _on_route_removed(self, nid: int, action: fsm.RouteRemoved) -> None:
        self._record(nid, "RouteRemoved", _ROUTE_REMOVED,
                     {"dest": action.dest, "reason": action.reason})

    def _on_table_updated(self, nid: int, action: fsm.TableUpdated) -> None:
        for dest, (next_hop, hops) in action.entries:
            self._record(nid, "TableUpdated", _TABLE_UPDATED,
                         {"dest": dest, "next_hop": next_hop, "hops": hops})

    def _on_eliminate(self, nid: int, action: fsm.Eliminate) -> None:
        data: dict[str, Any] = {"btl_id": str(action.btl_id),
                                "reason": action.reason.value}
        if action.dest is None:
            self._record(nid, "Eliminated", _ELIMINATED, data)
        else:
            data["dest"] = action.dest
            self._record(nid, "Eliminated", _ELIMINATED_AT_ORIGIN, data)

    def _send_bottle(self, frm: int, send: fsm.Send) -> None:
        # The bottle goes on the wire as it is: its sender keeps no
        # reference to it (see the fsm module docstring).
        bottle, to = send.bottle, send.to
        size = wire_size(bottle)
        self.bottle_bytes_sent += size
        xfer = self._xfer
        self._xfer += 1
        self._record(frm, "Sent", _SENT_BOTTLE, {
            "msg": "bottle", "to": to, "btl_id": str(bottle.btl_id),
            "src": bottle.src, "dest": bottle.dest, "rf": bottle.rf,
            "failure": bottle.failure, "history_len": len(bottle.history),
            "bytes": size, "xfer": xfer,
        })
        if self.topology.link_live(frm, to):
            self.schedule(self.now + self.cfg.per_hop_latency,
                          self._on_bottle_arrival, (frm, to, bottle, xfer))
        else:
            self._fail_delivery(frm, to, bottle, xfer, "bottle")

    def _send_data(self, frm: int, send: fsm.SendData) -> None:
        pkt, to = send.packet, send.to
        xfer = self._xfer
        self._xfer += 1
        self._record(frm, "Sent", _SENT_DATA, {
            "msg": "data", "to": to, "src": pkt.src, "dest": pkt.dest,
            "xfer": xfer,
        })
        if self.topology.link_live(frm, to):
            self.schedule(self.now + self.cfg.per_hop_latency,
                          self._on_data_arrival, (frm, to, pkt, xfer))
        else:
            self._fail_delivery(frm, to, pkt, xfer, "data")

    def _fail_delivery(self, frm: int, to: int, item: Bottle | DataPacket,
                       xfer: int, msg: str) -> None:
        self._record(frm, "DeliveryFailed",
                     _BOUNCED_BOTTLE if msg == "bottle" else _BOUNCED_DATA,
                     {"msg": msg, "to": to, "xfer": xfer})
        if frm in self.topology.down_nodes:
            return
        actions = fsm.on_delivery_failure(self.nodes[frm], item, to, self.now,
                                          self.cfg, self._rngs[frm])
        self._apply(frm, actions)

    # fsm action type -> the function(engine, nid, action) that carries it
    # out: plain functions, so that an engine holds no reference to itself
    _actions: dict[type, Callable[["Engine", int, Any], None]] = {
        fsm.Send: _send_bottle,
        fsm.SendData: _send_data,
        fsm.Eliminate: _on_eliminate,
        fsm.SetTimer: _on_set_timer,
        fsm.DeclareInaccessible: _on_inaccessible,
        fsm.TableUpdated: _on_table_updated,
        fsm.RouteRemoved: _on_route_removed,
    }


def _resolve_topology(scenario: ScenarioConfig) -> Topology:
    if scenario.topology_file is not None:
        return load_topology(scenario.topology_file)
    from .topogen import generate_topology

    gen = scenario.generator
    return generate_topology(gen["kind"], gen["nodes"], gen["seed"])


def request_schedule(scenario: ScenarioConfig, topology: Topology,
                     cfg: ProtocolConfig) -> tuple[list[tuple[int, int, int]], int | None]:
    """All (at, src, dest) requests, explicit then random, and the spacing
    of the random ones (None when there are none). A ConfigError names an
    explicit request whose nodes the topology lacks."""
    out = []
    for i, r in enumerate(scenario.requests):
        for role, nid in (("src", r.src), ("dest", r.dest)):
            if nid not in topology.nodes:
                raise ConfigError(f"field 'requests[{i}]': request at t={r.at}: "
                                  f"unknown {role} node {nid}")
        out.append((r.at, r.src, r.dest))
    rr = scenario.random_requests
    spacing = None
    if rr is not None:
        rng = random.Random(f"{scenario.seed}:requests")
        pool = sorted(topology.nodes)
        if len(pool) < 2:
            raise ConfigError("field 'random_requests': need at least two nodes, "
                              f"the topology has {len(pool)}")
        spacing = rr.spacing
        if spacing is None:
            spacing = (cfg.retry_limit + 1) * cfg.timeout + 2
        for i in range(rr.count):
            src, dest = rng.sample(pool, 2)
            out.append((rr.first_at + i * spacing, src, dest))
    return out, spacing


def run(scenario: ScenarioConfig) -> Trace:
    """Execute one scenario to completion and return its full trace.

    ScenarioConfig.check judges the scenario's fields; run adds only the
    checks that need the topology (request_schedule's and the fault probe)."""
    scenario.check()
    topology = _resolve_topology(scenario)
    cfg = scenario.protocol_for(len(topology.nodes))
    requests, spacing = request_schedule(scenario, topology, cfg)

    horizon = scenario.horizon
    if horizon is None:
        last_request = max((at for at, *_ in requests), default=0)
        settle = (cfg.retry_limit + 2) * cfg.timeout
        horizon = max(DEFAULT_HORIZON, last_request + settle)

    engine = Engine(topology, cfg, scenario.seed, horizon)

    for at, src, dest in requests:
        engine.schedule(at, engine._on_app_request, (src, dest))
    # faults change only what is down, so one copy checks them all
    probe = topology.copy_without_faults()
    for i, fault in enumerate(scenario.faults):
        try:
            probe.apply_fault(fault.op, fault.target)
        except BottlenetError as exc:
            raise ConfigError(f"field 'faults[{i}]': {exc}") from exc
        engine.schedule(fault.at, engine._on_fault, (fault.op, fault.target))

    with _collector_paused():  # a run makes no cyclic garbage
        engine.run()

    return Trace(
        events=engine.trace,
        meta={
            "seed": scenario.seed,
            "horizon": horizon,
            "spacing": spacing,
            "bottle_bytes_sent": engine.bottle_bytes_sent,
            "events_processed": engine.events_processed,
        },
        nodes=engine.nodes,
        topology=topology,
        cfg=cfg,
    )
