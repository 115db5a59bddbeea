"""The trace format: record shapes, the JSONL writer and the streaming reader.

Each record shape the engine writes is declared once (``_shape``), one per
kind and msg. A shape gives its records both their kind and the %-format
that writes them. ``record`` judges every record made from outside data,
whether read from a file or built in code, against its shape.
"""

from __future__ import annotations

import gc
import json
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterator

from .config import ProtocolConfig
from .domain import MAX_NODE_ID, NodeState
from .errors import MalformedTrace
from .network import Topology, fault_error


# One encoder for every record: json.dumps would build a new one per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode
_BOOL = {True: "true", False: "false"}.__getitem__

# Value kind -> its conversion spec in a line's %-format and the converter
# to JSON text that fills a %s, if it needs one. A name is a str that JSON
# writes as it is: ASCII with no quote, backslash or control character. An id
# is an int that record checks is a node id.
_VALUE_KINDS: dict[str, tuple[str, Any]] = {
    "int": ("%d", None), "id": ("%d", None), "name": ('"%s"', None), "bool": ("%s", _BOOL),
    "json": ("%s", _encode),
}


@dataclass(frozen=True, slots=True, eq=False)
class Shape:
    """One declared record shape (see _shape); shapes compare by identity."""

    kind: str
    msg: str | None
    fields: tuple[str, ...]  # data field names, in the order the engine fills them
    fmt: str  # the record's line as a %-format
    fixups: tuple[tuple[int, Callable[[Any], str]], ...]
    ids: tuple[int, ...]  # the index in values of each field of kind id
    # a data dict -> its fields' values in order, a tuple as every shape has
    # two fields or more; KeyError names a missing one
    pick: Callable[[dict[str, Any]], tuple]


# Every record shape the engine writes, in declaration order.
SHAPES: list[Shape] = []


def _shape(kind: str, msg: str | None, fields: str) -> Shape:
    """Declare one record shape; fields are "name" or "name:kind" (see
    _VALUE_KINDS), an int when no kind is given. A kind and msg take one shape.

    Its %-format has the constant text in place; its fix-ups are (index
    from the end of values, converter to JSON text) for each value that
    needs one, where values ends with [at, seq, node, *data.values()]."""
    if any((s.kind, s.msg) == (kind, msg) for s in SHAPES):
        raise ValueError(f"a second shape for kind {kind!r}, msg {msg!r}")
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
    ids = tuple(i for i, item in enumerate(fields.split()) if item.endswith(":id"))
    shape = Shape(kind, msg, tuple(names[3:]), fmt,
                  tuple((i - len(names), c) for i, c in fixups), ids, itemgetter(*names[3:]))
    SHAPES.append(shape)
    return shape


# Sent, Received and DeliveryFailed records name a bottle or a data packet
# in "msg"; other kinds have no msg. Only a data packet has a Received record:
# a bottle Sent at t lands at its "to" at t + per_hop_latency, unless a
# DeliveryFailed names its xfer or that instant is past the horizon. The
# engine writes each value as its declared kind: times, node ids and counts
# are ints because ScenarioConfig rejects any other scenario value. An id
# field is one the fold keys a table or an episode by.
SENT_BOTTLE = _shape("Sent", "bottle", "msg:name to btl_id:name src dest "
                     "rf:bool failure:bool history_len bytes xfer")
SENT_DATA = _shape("Sent", "data", "msg:name to src dest xfer")
RECEIVED_DATA = _shape("Received", "data", "msg:name from src dest path:json xfer")
BOUNCED_BOTTLE = _shape("DeliveryFailed", "bottle", "msg:name to xfer")
BOUNCED_DATA = _shape("DeliveryFailed", "data", "msg:name to xfer")
# a packet the fsm drops (hop_cap): after the Received that took it over the cap
DROPPED = _shape("Dropped", None, "src dest reason:name")
ELIMINATED = _shape("Eliminated", None, "btl_id:name reason:name")
DISCOVERY_STARTED = _shape("DiscoveryStarted", None, "dest:id attempt")
ROUTE_FOUND = _shape("RouteFound", None, "src:id dest:id path:json")
INACCESSIBLE = _shape("Inaccessible", None, "src:id dest:id")
DISCOVERY_RESOLVED = _shape("DiscoveryResolved", None, "src:id dest:id")
TABLE_UPDATED = _shape("TableUpdated", None, "dest:id next_hop hops")
ROUTE_REMOVED = _shape("RouteRemoved", None, "dest:id reason:name")
TOPOLOGY_CHANGED = _shape("TopologyChanged", None, "op:name target:json")

# (kind, msg) -> its declared shape
SHAPE_OF: dict[tuple[str, str | None], Shape] = {(s.kind, s.msg): s for s in SHAPES}


@dataclass(slots=True)
class TraceEvent:
    """One record: its declared shape and its data values, in the shape's
    field order; ``kind`` and ``data`` are views of the two. Its seq is its place."""

    at: int
    node: int
    shape: Shape
    values: tuple

    @property
    def kind(self) -> str:
        return self.shape.kind

    @property
    def data(self) -> dict[str, Any]:
        """The data fields by name, in a new dict on each access."""
        return dict(zip(self.shape.fields, self.values))


def record(at: int, node: int, kind: str, data: dict[str, Any]) -> TraceEvent:
    """The record of kind and data, loaded from a file or built in code, with
    the fields of its shape only. MalformedTrace says why for a kind and msg
    with no shape, data that lacks a field, a time that is not an int, a node
    or id field that is not a node id (a bool or a float would key a table as
    the int it equals) and a fault that fault_error rejects."""
    try:
        shape = SHAPE_OF[kind, data.get("msg")]
        values = shape.pick(data)
    except (KeyError, TypeError):
        raise MalformedTrace(_shape_error(kind, data)) from None
    if type(at) is not int:
        raise MalformedTrace(f"at {at!r} is not an int")
    if type(node) is not int or not 0 <= node <= MAX_NODE_ID:
        raise MalformedTrace(f"node {node!r} is not a node id")
    for i in shape.ids:
        if type(value := values[i]) is not int or not 0 <= value <= MAX_NODE_ID:
            raise MalformedTrace(f"kind {kind!r}: {shape.fields[i]} {value!r} is not a node id")
    if shape is TOPOLOGY_CHANGED and (error := fault_error(*values)):
        raise MalformedTrace(f"kind {kind!r}: {error}")
    return TraceEvent(at, node, shape, values)


def _shape_error(kind: Any, data: dict[str, Any]) -> str:
    """Why kind and data have no shape, or lack a field of theirs."""
    # compared, not hashed: kind or msg may be a list
    key = (kind, data.get("msg"))
    shape = next((s for k, s in SHAPE_OF.items() if k == key), None)
    if shape is None:
        if not any(k == kind for k, _ in SHAPE_OF):
            return f"unknown kind {kind!r}"
        if "msg" not in data:
            return f"kind {kind!r}: missing field 'msg'"
        return f"kind {kind!r} has no msg {data['msg']!r}"
    return f"kind {kind!r}: missing field '{min(set(shape.fields) - data.keys())}'"


@dataclass
class Trace:
    """Everything a finished run produced, trace records first among equals.

    The JSONL form (``write``) holds one record per line: a compact ASCII JSON
    object with the keys ``at``, ``seq`` (its place from 0), ``node``, ``kind``
    and ``data`` in that order, so a given run always gives the same bytes.
    ``write`` (one %-format per chunk) and ``iter_trace``, which streams it
    back, each hold one chunk of text at a time; ``iter_trace`` takes exactly
    one such object per non-blank line, in order, that ``record`` finds no fault with.
    """

    events: list[TraceEvent] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    nodes: dict[int, NodeState] = field(default_factory=dict)
    topology: Topology | None = None
    cfg: ProtocolConfig | None = None

    def records(self, kind: str) -> list[TraceEvent]:
        return [ev for ev in self.events if ev.shape.kind == kind]

    def _jsonl_chunks(self) -> Iterator[str]:
        for seq in range(0, len(self.events), _CHUNK_LINES):  # seq: each record's place
            values: list = []
            fmts = []
            for ev in self.events[seq:seq + _CHUNK_LINES]:
                shape = ev.shape
                values += (ev.at, seq, ev.node)
                values += ev.values
                for i, convert in shape.fixups:
                    values[i] = convert(values[i])
                fmts.append(shape.fmt)
                seq += 1
            yield ("\n".join(fmts) + "\n") % tuple(values)

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


def load_trace(path: str) -> Trace:
    """Every record of a JSONL trace file, collected from ``iter_trace``."""
    return Trace(events=list(iter_trace(path)))


@contextmanager
def collector_paused() -> Iterator[None]:
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
        seq, at = 0, float("-inf")  # the next record's seq, and the time of the one before it
        try:
            while lines := list(islice(fh, _CHUNK_LINES)):
                events = _decode_chunk(lines, seq, at)
                if events is None:
                    events = []
                    for n, line in enumerate(map(str.strip, lines), first):
                        here = seq + len(events), events[-1].at if events else at
                        if (line_events := _decode_chunk([line], *here)) is None:
                            raise MalformedTrace(f"{path}: line {n}: {_record_error(line, *here)}")
                        events += line_events
                yield events
                first, seq = first + len(lines), seq + len(events)
                at = events[-1].at if events else at
        except UnicodeDecodeError as exc:
            raise MalformedTrace(f"{path}: not UTF-8 text: {exc}") from None


# "]", "," and "[" with only JSON whitespace between: in a document of several
# wrapped lines, such text on one line adds a list, which one record split
# over two lines inside a list can make up for.
_LIST_BREAK = re.compile(r"\][ \t\n\r]*,[ \t\n\r]*\[")


@collector_paused()
def _decode_chunk(lines: list[str], seq: int, at: float) -> list[TraceEvent] | None:
    """Every record of lines, decoded in one call with each line wrapped in a
    list of its own, or None unless that gives one list per line, each
    holding one record that record finds no fault with, or nothing for a line
    of JSON whitespace, their seqs ints from seq on and no time before the one
    before it (at). Several lines whose text holds a _LIST_BREAK give None."""
    if len(lines) > 1 and _LIST_BREAK.search("".join(lines)):
        return None
    with suppress(ValueError, TypeError, KeyError, AttributeError, MalformedTrace):
        if len(items := json.loads("[[" + "],[".join(lines) + "]]")) == len(lines):
            recs = [rec for (rec,) in filter(None, items)]
            events = [record(rec["at"], rec["node"], rec["kind"], rec["data"]) for rec in recs]
            seqs, ats = list(map(itemgetter("seq"), recs)), [at, *map(attrgetter("at"), events)]
            if (seqs == list(range(seq, seq + len(seqs))) and {*map(type, seqs)} <= {int}
                    and sorted(ats) == ats):
                return events
    return None


def _record_error(line: str, seq: int, at: float) -> str | None:
    """What keeps a non-blank trace line from being one valid record, with
    seq its place and at the previous record's time, if anything: a fault
    found before there is a record to judge, record's, or its order."""
    try:
        rec = json.loads(line)
    except ValueError as exc:
        return f"not one JSON record: {exc}"
    if not isinstance(rec, dict):
        return f"expected a JSON object, got {type(rec).__name__}"
    if missing := [key for key in ("at", "seq", "node", "kind", "data") if key not in rec]:
        return f"missing field '{missing[0]}'"
    if not isinstance(rec["data"], dict):
        return "field 'data' is not an object"
    try:
        record(rec["at"], rec["node"], rec["kind"], rec["data"])
    except MalformedTrace as exc:
        return str(exc)
    if type(rec["seq"]) is not int or rec["seq"] != seq:
        return f"seq {rec['seq']!r} is not the record's index {seq}"
    if rec["at"] < at:
        return f"at {rec['at']} is before the previous record's {at}"
    return None
