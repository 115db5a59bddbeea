"""The trace format: record shapes, the JSONL writer and the streaming reader.

Each record shape the engine writes is declared once (``_shape``), one per
kind and msg. A shape gives its records both their kind and the %-format
that writes them, and the reader checks each record against its fields.
"""

from __future__ import annotations

import gc
import json
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter
from typing import Any, Callable, Iterator

from .config import ProtocolConfig
from .domain import NodeState
from .errors import MalformedTrace
from .network import Topology, fault_error


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


@dataclass(frozen=True, slots=True, eq=False)
class Shape:
    """One declared record shape (see _shape); shapes compare by identity."""

    kind: str
    msg: str | None
    fields: tuple[str, ...]  # data field names, in the order the engine fills them
    fmt: str  # the record's line as a %-format
    fixups: tuple[tuple[int, Callable[[Any], str]], ...]
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
    shape = Shape(kind, msg, tuple(names[3:]), fmt,
                  tuple((i - len(names), c) for i, c in fixups), itemgetter(*names[3:]))
    SHAPES.append(shape)
    return shape


# Sent, Received and DeliveryFailed records name a bottle or a data packet
# in "msg"; other kinds have no msg. Only a data packet has a Received record:
# a bottle Sent at t lands at its "to" at t + per_hop_latency, unless a
# DeliveryFailed names its xfer or that instant is past the horizon. Each
# value must be of its declared kind, an int never a bool or a float: times,
# node ids and counts are ints because ScenarioConfig rejects any other
# scenario value.
SENT_BOTTLE = _shape("Sent", "bottle", "msg:name to btl_id:name src dest "
                     "rf:bool failure:bool history_len bytes xfer")
SENT_DATA = _shape("Sent", "data", "msg:name to src dest xfer")
RECEIVED_DATA = _shape("Received", "data", "msg:name from src dest path:json xfer")
BOUNCED_BOTTLE = _shape("DeliveryFailed", "bottle", "msg:name to xfer")
BOUNCED_DATA = _shape("DeliveryFailed", "data", "msg:name to xfer")
# a packet the fsm drops (hop_cap): after the Received that took it over the cap
DROPPED = _shape("Dropped", None, "src dest reason:name")
ELIMINATED = _shape("Eliminated", None, "btl_id:name reason:name")
DISCOVERY_STARTED = _shape("DiscoveryStarted", None, "dest attempt")
ROUTE_FOUND = _shape("RouteFound", None, "src dest path:json")
INACCESSIBLE = _shape("Inaccessible", None, "src dest")
DISCOVERY_RESOLVED = _shape("DiscoveryResolved", None, "src dest")
TABLE_UPDATED = _shape("TableUpdated", None, "dest next_hop hops")
ROUTE_REMOVED = _shape("RouteRemoved", None, "dest reason:name")
TOPOLOGY_CHANGED = _shape("TopologyChanged", None, "op:name target:json")

# (kind, msg) -> its declared shape
SHAPE_OF: dict[tuple[str, str | None], Shape] = {(s.kind, s.msg): s for s in SHAPES}
# (kind, msg) -> the data fields of its shape, which every such record carries
RECORD_FIELDS: dict[tuple[str, str | None], frozenset[str]] = {
    key: frozenset(s.fields) for key, s in SHAPE_OF.items()}

_NOT_IDS = (bool, float)  # no node id: each would key a table as the int it equals


@dataclass(slots=True)
class TraceEvent:
    """One record: its declared shape and its data values, in the shape's
    field order. ``kind`` and ``data`` are views of the two."""

    at: int
    seq: int
    node: int
    shape: Shape
    values: tuple
    # a record loaded or built in code (see record): _fill encodes its data view
    loaded: bool = field(default=False, compare=False, repr=False)

    @property
    def kind(self) -> str:
        return self.shape.kind

    @property
    def data(self) -> dict[str, Any]:
        """The data fields by name, in a new dict on each access."""
        return dict(zip(self.shape.fields, self.values))

    def _fill(self, values: list) -> str:
        """The record's %-format, after adding the values that fill it to values."""
        shape = self.shape
        if self.loaded:
            return _encode({"at": self.at, "seq": self.seq, "node": self.node,
                            "kind": shape.kind, "data": self.data}).replace("%", "%%")
        values += (self.at, self.seq, self.node, *self.values)
        for i, convert in shape.fixups:
            values[i] = convert(values[i])
        return shape.fmt


def record(at: int, seq: int, node: int, kind: str, data: dict[str, Any]) -> TraceEvent:
    """The record of kind and data, loaded from a file or built in code. It
    keeps the fields of its shape only; a kind and msg with no shape, or
    data that lacks a field, raises KeyError."""
    shape = SHAPE_OF[kind, data.get("msg")]
    return TraceEvent(at, seq, node, shape, shape.pick(data), True)


@dataclass
class Trace:
    """Everything a finished run produced, trace records first among equals.

    The JSONL form (``write``) holds one record per line: a compact JSON
    object (no spaces, ASCII only) with the keys ``at``, ``seq``, ``node``,
    ``kind`` and ``data`` in that order, so a given run always gives the
    same bytes. ``write`` (one %-format per chunk) and ``iter_trace``,
    which streams it back, each hold one chunk of text at a time;
    ``iter_trace`` rejects all but exactly one such object per non-blank
    line, and any record that ``_record_error`` finds fault with.
    """

    events: list[TraceEvent] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    nodes: dict[int, NodeState] = field(default_factory=dict)
    topology: Topology | None = None
    cfg: ProtocolConfig | None = None

    def records(self, kind: str) -> list[TraceEvent]:
        return [ev for ev in self.events if ev.shape.kind == kind]

    def _jsonl_chunks(self) -> Iterator[str]:
        for i in range(0, len(self.events), _CHUNK_LINES):
            values: list = []
            fmts = [ev._fill(values) for ev in self.events[i:i + _CHUNK_LINES]]
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


@collector_paused()
def _decode_chunk(lines: list[str]) -> list[TraceEvent] | None:
    """Every record of lines, decoded in one call with each line wrapped in a
    list of its own, or None unless that gives one list per line, each
    holding one record that _record_error finds no fault with, or nothing for
    a line of JSON whitespace. Several lines whose text holds a _LIST_BREAK give None."""
    if len(lines) > 1 and _LIST_BREAK.search("".join(lines)):
        return None
    events: list[TraceEvent] = []
    append = events.append
    with suppress(ValueError, TypeError, KeyError, AttributeError):
        if len(items := json.loads("[[" + "],[".join(lines) + "]]")) == len(lines):
            for (rec,) in filter(None, items):
                ev = record(rec["at"], rec["seq"], rec["node"], rec["kind"], rec["data"])
                shape, values = ev.shape, ev.values
                if (type(ev.node) in _NOT_IDS
                        or shape is TABLE_UPDATED and type(values[0]) in _NOT_IDS
                        or shape is TOPOLOGY_CHANGED and fault_error(*values)):
                    break
                append(ev)
            else:
                return events
    return None


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
    if type(rec["node"]) in _NOT_IDS:
        return f"node {rec['node']!r} is not a node id"
    kind, data = rec["kind"], rec["data"]
    if not isinstance(data, dict):
        return "field 'data' is not an object"
    # compared, not hashed: kind or msg may be a list
    key = (kind, data.get("msg"))
    shape = next((s for k, s in SHAPE_OF.items() if k == key), None)
    if shape is None:
        if not any(k == kind for k, _ in SHAPE_OF):
            return f"unknown kind {kind!r}"
        if "msg" not in data:
            return f"kind {kind!r}: missing field 'msg'"
        return f"kind {kind!r} has no msg {data['msg']!r}"
    missing = sorted(set(shape.fields) - data.keys())
    if missing:
        return f"kind {kind!r}: missing field '{missing[0]}'"
    if shape is TABLE_UPDATED and type(data["dest"]) in _NOT_IDS:
        return f"kind {kind!r}: dest {data['dest']!r} is not a node id"
    error = shape is TOPOLOGY_CHANGED and fault_error(data["op"], data["target"])
    return f"kind {kind!r}: {error}" if error else None
