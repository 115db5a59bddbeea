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


@dataclass(frozen=True, slots=True)
class Shape:
    """One declared record shape (see _shape)."""

    kind: str
    msg: str | None
    fields: tuple[str, ...]  # data field names, in the order the engine fills them
    fmt: str  # the record's line as a %-format
    fixups: tuple[tuple[int, Callable[[Any], str]], ...]


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
                  tuple((i - len(names), c) for i, c in fixups))
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

# (kind, msg) -> the data fields of its shape, which every such record carries
RECORD_FIELDS: dict[tuple[str, str | None], frozenset[str]] = {
    (s.kind, s.msg): frozenset(s.fields) for s in SHAPES}

_FAULT_FIELDS = RECORD_FIELDS["TopologyChanged", None]


@dataclass(slots=True)
class TraceEvent:
    at: int
    seq: int
    node: int
    kind: str
    data: dict[str, Any]
    # the record's declared shape, set by the engine; None for a record
    # loaded or built in code
    shape: Shape | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> str:
        """The record as one line of compact JSON, as ``_encode`` writes it."""
        values: list = []
        return self._fill(values) % tuple(values)

    def _fill(self, values: list) -> str:
        """The record's %-format, after adding the values that fill it to values."""
        shape = self.shape
        if shape is None:
            return _encode({"at": self.at, "seq": self.seq, "node": self.node,
                            "kind": self.kind, "data": self.data}).replace("%", "%%")
        values += (self.at, self.seq, self.node, *self.data.values())
        for i, convert in shape.fixups:
            values[i] = convert(values[i])
        return shape.fmt


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
