"""Protocol data types and the bottle wire format.

Node identifiers are plain ints in the uint16 range. A bottle is the
route-request packet: it records every node it visits in ``history`` and
comes back marked ``rf`` once the destination was reached, or marked
``failure`` when a downstream delivery broke.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import InvalidRequest, MalformedBottle, WireOverflow

NodeId = int

MAX_NODE_ID = 0xFFFF
MAX_SEQ = 0xFFFF

# src(2) dest(2) origin(2) seq(2) flags(1) history_len(2)
_HEADER = struct.Struct(">HHHHBH")
HEADER_BYTES = _HEADER.size  # 11
_FLAG_RF = 0x01
_FLAG_FAILURE = 0x02


def is_node_id(x: object) -> bool:
    """True for an int in the uint16 range; a bool is an int but not an id."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x <= MAX_NODE_ID


class NodePhase(Enum):
    """The three per-node FSM states."""

    IDLE = "idle"
    ROUTE_REQ = "route_req"
    BTL_MANAGE = "btl_manage"


@dataclass(frozen=True)
class BottleId:
    """Globally unique bottle identifier: originating node plus its counter."""

    origin: NodeId
    seq: int

    def __str__(self) -> str:
        return f"{self.origin}-{self.seq}"


@dataclass
class Bottle:
    """A route-request bottle in flight.

    A bottle has one owner at a time: the node handling it, then the
    engine while it is on the wire, then the node it arrives at. Sending
    hands it over, so no one keeps or reads a bottle after sending it,
    and a handler may extend ``history`` in place.
    """

    src: NodeId
    dest: NodeId
    btl_id: BottleId
    rf: bool = False
    history: list[NodeId] = field(default_factory=list)
    failure: bool = False


class RouteEntry(NamedTuple):
    """One route; immutable, so a table and a TableUpdated action may share it."""

    next_hop: NodeId
    hop_count: int


# dest -> RouteEntry; the owning node's id is never a key.
RoutingTable = dict[NodeId, RouteEntry]


@dataclass
class DataPacket:
    """Application payload stand-in; only its endpoints and path matter.

    ``path`` accumulates the nodes the packet actually traversed so a
    forwarding failure can be reported back along the recorded route.
    """

    src: NodeId
    dest: NodeId
    path: list[NodeId] = field(default_factory=list)


@dataclass
class PendingRequest:
    """A source's one open discovery, stored under its destination in
    ``NodeState.pending``; btl_id is the attempt whose timer is armed."""

    btl_id: BottleId
    retries_used: int
    queued_packets: list[DataPacket] = field(default_factory=list)


@dataclass
class NodeState:
    """What a node keeps between events: bottle counter, live neighbours,
    routing table and open discoveries, at most one per destination. No
    arrival waits here; each goes to its fsm handler at the instant it
    lands (see the fsm module docstring)."""

    nid: NodeId
    bid: int = 0
    nbors: set[NodeId] = field(default_factory=set)
    rtab: RoutingTable = field(default_factory=dict)
    pending: dict[NodeId, PendingRequest] = field(default_factory=dict)

    def next_seq(self) -> int:
        """Consume the per-node bottle counter (wraps at 16 bits)."""
        seq = self.bid
        self.bid = (self.bid + 1) & MAX_SEQ
        return seq


def make_bottle(src: NodeId, dest: NodeId, seq: int) -> Bottle:
    """Fresh route-request bottle; its history starts at the source."""
    if src == dest:
        raise InvalidRequest(f"route to self needs no bottle (node {src})")
    return Bottle(src=src, dest=dest, btl_id=BottleId(src, seq), history=[src])


def check_bottle(b: Bottle) -> None:
    """Raise MalformedBottle unless all structural invariants hold."""
    if not b.history:
        raise MalformedBottle(f"bottle {b.btl_id}: empty history")
    if b.history[0] != b.src:
        raise MalformedBottle(f"bottle {b.btl_id}: history does not start at src")
    if len(set(b.history)) != len(b.history):
        raise MalformedBottle(f"bottle {b.btl_id}: revisited node in history")
    if b.failure and b.rf:
        raise MalformedBottle(f"bottle {b.btl_id}: rf and failure are exclusive")
    if b.rf and b.history[-1] != b.dest:
        raise MalformedBottle(f"bottle {b.btl_id}: rf set but history does not end at dest")


def wire_size(b: Bottle) -> int:
    """Length of the wire image, without packing it: 11 header bytes plus
    2 per history entry. WireOverflow past 65535 entries."""
    n = len(b.history)
    if n > 0xFFFF:
        raise WireOverflow(f"history length {n} exceeds 65535")
    return HEADER_BYTES + 2 * n


def serialize_bottle(b: Bottle) -> bytes:
    """Big-endian wire image, wire_size(b) bytes long."""
    wire_size(b)  # raises WireOverflow before packing
    flags = (_FLAG_RF if b.rf else 0) | (_FLAG_FAILURE if b.failure else 0)
    head = _HEADER.pack(b.src, b.dest, b.btl_id.origin, b.btl_id.seq,
                        flags, len(b.history))
    return head + struct.pack(f">{len(b.history)}H", *b.history)


def deserialize_bottle(data: bytes) -> Bottle:
    if len(data) < HEADER_BYTES:
        raise MalformedBottle(f"short packet: {len(data)} bytes")
    src, dest, origin, seq, flags, n = _HEADER.unpack_from(data)
    expected = HEADER_BYTES + 2 * n
    if len(data) != expected:
        raise MalformedBottle(f"length mismatch: got {len(data)}, header says {expected}")
    history = list(struct.unpack_from(f">{n}H", data, HEADER_BYTES))
    return Bottle(src=src, dest=dest, btl_id=BottleId(origin, seq),
                  rf=bool(flags & _FLAG_RF), history=history,
                  failure=bool(flags & _FLAG_FAILURE))
