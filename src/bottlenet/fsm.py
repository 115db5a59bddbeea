"""Per-node protocol logic: state transitions, discovery, bottle handling.

Every handler takes the node's state, mutates it in place, and returns the
list of actions for the engine to carry out. Handlers never touch the
topology or the clock beyond the arguments they are given, which keeps
them testable without a running simulation. An action is a slotted
dataclass record, one type per ``Action`` member, which the engine
dispatches by its type; actions of different types never compare equal.

A bottle has one owner at a time. A handler owns the bottle it is given
and may extend its history in place; a ``Send`` hands the bottle to the
engine, and from then on neither the handler nor the node keeps or reads
it. No bottle is copied on its way from node to node. A launch is the
walk's first step, and a found bottle turns back through the return path
that every returning bottle takes.

A node's table and open discoveries change only here, in place: a harvest
installs its routes and reports them in one ``TableUpdated`` action, in
harvest order (the engine writes one TableUpdated record per entry), and
routes leave by ``purge_routes`` or ``_handle_route_failure``. A source has
at most one open discovery per destination, kept in ``NodeState.pending``
under it; its timer names the destination and the attempt it was armed for.
Each attempt is stated (``DiscoveryStarted``), and so is each close of an
open request; a found bottle home after its request closed states nothing.
The engine carries out actions, never reads a request, and holds a down
node's timers until it is back, so no handler learns of a node's restore.

``handle_route_request`` decides a data packet's fate at each node it
reaches: delivered at its destination, dropped (``DropData``) once its path
passes the hop cap, forwarded from the table, or queued behind a discovery.
An action's reason is the string its record carries.

``next_state`` is the published per-node FSM over a packet queue and a
bottle queue. The engine keeps no queues: it hands each arrival to
``handle_bottle`` or ``handle_route_request`` at the instant it lands, and no
action delivers anything at that instant. So each arrival takes the table's
path for a single item, IDLE -> BTL_MANAGE (or ROUTE_REQ) -> IDLE, in one event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection, Sequence, Union

from .domain import (
    Bottle,
    BottleId,
    DataPacket,
    NodeId,
    NodePhase,
    NodeState,
    PendingRequest,
    RouteEntry,
    RoutingTable,
    check_bottle,
    make_bottle,
)
from .config import ProtocolConfig
from .errors import MalformedBottle


@dataclass(slots=True)
class Send:
    bottle: Bottle
    to: NodeId


@dataclass(slots=True)
class SendData:
    packet: DataPacket
    to: NodeId


@dataclass(slots=True)
class DropData:
    packet: DataPacket
    reason: str  # hop_cap


@dataclass(slots=True)
class Eliminate:
    btl_id: BottleId
    reason: str  # hop_limit | dead_end


@dataclass(slots=True)
class SetTimer:
    dest: NodeId
    btl_id: BottleId
    deadline: int


@dataclass(slots=True)
class DiscoveryStarted:
    dest: NodeId
    attempt: int  # 0 opens the discovery, then one more per retry


@dataclass(slots=True)
class RouteFound:
    dest: NodeId
    path: list[NodeId]  # the found bottle's history, source first


@dataclass(slots=True)
class DiscoveryResolved:
    dest: NodeId  # its route was learned from another bottle while the timer ran


@dataclass(slots=True)
class DeclareInaccessible:
    dest: NodeId


@dataclass(slots=True)
class TableUpdated:
    """The routes one harvest installed, as (dest, entry) pairs in harvest
    order; the trace gets one TableUpdated record per pair."""

    entries: list[tuple[NodeId, RouteEntry]]


@dataclass(slots=True)
class RouteRemoved:
    dest: NodeId
    reason: str  # delivery_failure | route_failure | neighbor_lost


Action = Union[Send, SendData, DropData, Eliminate, SetTimer, DiscoveryStarted,
               RouteFound, DiscoveryResolved, DeclareInaccessible, TableUpdated,
               RouteRemoved]


def next_state(current: NodePhase, pkt_queue_empty: bool,
               btl_queue_empty: bool) -> NodePhase:
    """Total transition function over the three states and two queue flags.

    Bottle management wins when both queues hold work; servicing in-flight
    discoveries spreads routing knowledge network-wide. The engine handles
    each arrival at the instant it lands, so only the single-item path is
    ever taken (see the module docstring).
    """
    if not btl_queue_empty:
        return NodePhase.BTL_MANAGE
    if not pkt_queue_empty:
        return NodePhase.ROUTE_REQ
    return NodePhase.IDLE


def choose_next_hop(nbors: set[NodeId], history: Sequence[NodeId],
                    rng: random.Random) -> NodeId | None:
    """Uniform pick among neighbors the bottle has not visited; None at a dead end."""
    candidates = sorted(nbors.difference(history))
    if not candidates:
        return None
    return rng.choice(candidates)


def update_table_from_history(rtab: RoutingTable, history: Sequence[NodeId],
                              i: int, nbors: set[NodeId],
                              ) -> list[tuple[NodeId, RouteEntry]]:
    """Harvest routes to every other node on a bottle's travel history.

    Looking from this node's position i in the history, earlier entries are
    reachable through the previous hop and (on a return traversal) later
    entries through the next hop. An entry is installed only when the
    destination is new or the harvested hop count strictly improves on the
    existing one; ties keep what is already there. Entries are installed
    into rtab in place, as purge_routes removes them; the return value
    lists each (dest, entry) installed, in harvest order.
    """
    learned: list[tuple[NodeId, RouteEntry]] = []
    sides = []  # (via, destinations in history order, first hops, step)
    if i > 0 and history[i - 1] in nbors:
        sides.append((history[i - 1], history[:i], i, -1))
    if i + 1 < len(history) and history[i + 1] in nbors:
        sides.append((history[i + 1], history[i + 1:], 1, 1))
    for via, dests, hops, step in sides:
        for dest in dests:
            current = rtab.get(dest)
            if current is None or hops < current.hop_count:
                entry = rtab[dest] = RouteEntry(via, hops)
                learned.append((dest, entry))
            hops += step
    return learned


def purge_routes(node: NodeState, lost: Collection[NodeId], reason: str) -> list[Action]:
    """Drop every route through a lost neighbor; one RouteRemoved per entry dropped."""
    dropped = [d for d, entry in node.rtab.items() if entry.next_hop in lost]
    for d in dropped:
        del node.rtab[d]
    return [RouteRemoved(d, reason) for d in dropped]


def _start_discovery(node: NodeState, dest: NodeId, now: int,
                     cfg: ProtocolConfig, rng: random.Random,
                     queued: list[DataPacket], retries_used: int = 0,
                     ) -> list[Action]:
    """Open the request for dest: state the attempt, launch, arm the timer."""
    bottle = make_bottle(node.nid, dest, node.next_seq())
    node.pending[dest] = PendingRequest(
        btl_id=bottle.btl_id, retries_used=retries_used, queued_packets=queued)
    # A launch that dies on the spot still arms the timer, which drives
    # the retry/inaccessible path.
    return [DiscoveryStarted(dest, retries_used), _walk_on(node, bottle, rng),
            SetTimer(dest, bottle.btl_id, now + cfg.timeout)]


def _walk_on(node: NodeState, b: Bottle, rng: random.Random) -> Action:
    """The walk's one step: on to a random unvisited neighbor, or dead end."""
    hop = choose_next_hop(node.nbors, b.history, rng)
    if hop is None:
        return Eliminate(b.btl_id, "dead_end")
    return Send(b, hop)


def _failure_report(node: NodeState, pkt: DataPacket) -> list[Action]:
    """Bottle carrying a route-failure mark back along the packet's path,
    which started at another node and ends here."""
    path = _loop_erased(pkt.path)
    bottle = Bottle(src=pkt.src, dest=pkt.dest,
                    btl_id=BottleId(node.nid, node.next_seq()),
                    rf=False, history=path, failure=True)
    prev = path[-2]
    if prev not in node.nbors:
        return []
    return [Send(bottle, prev)]


def _loop_erased(path: Sequence[NodeId]) -> list[NodeId]:
    out: list[NodeId] = []
    for n in path:
        if n in out:
            del out[out.index(n) + 1:]
        else:
            out.append(n)
    return out


QUEUE_CAP = 16  # packets a source holds behind one open discovery


def handle_route_request(node: NodeState, pkt: DataPacket, now: int,
                         cfg: ProtocolConfig, rng: random.Random,
                         ) -> list[Action]:
    """Service one packet: deliver, cap, forward or queue it (see the module docstring)."""
    if pkt.dest == node.nid:
        return []
    if len(pkt.path) > cfg.hop_limit + 1:
        # Stale tables can momentarily loop a packet; cap its journey.
        return [DropData(pkt, "hop_cap")]
    entry = node.rtab.get(pkt.dest)
    if entry is not None:
        return [SendData(pkt, entry.next_hop)]
    req = node.pending.get(pkt.dest)
    if req is not None:
        if len(req.queued_packets) >= QUEUE_CAP:
            if pkt.src != node.nid:
                return _failure_report(node, pkt)
            return []
        req.queued_packets.append(pkt)
        return []
    return _start_discovery(node, pkt.dest, now, cfg, rng, queued=[pkt])


def handle_bottle(node: NodeState, b: Bottle, now: int,
                  cfg: ProtocolConfig, rng: random.Random) -> list[Action]:
    """The three bottle-management tasks: harvest, regulate, forward."""
    check_bottle(b)
    forward = not b.rf and not b.failure
    if forward:
        if node.nid in b.history:
            raise MalformedBottle(
                f"bottle {b.btl_id} revisited node {node.nid}")
        b.history.append(node.nid)
        i = len(b.history) - 1  # the bottle's hop count
    else:
        try:
            i = b.history.index(node.nid)
        except ValueError:
            raise MalformedBottle(f"returning bottle {b.btl_id} at node "
                                  f"{node.nid} off its history") from None

    learned = update_table_from_history(node.rtab, b.history, i, node.nbors)
    actions: list[Action] = [TableUpdated(learned)] if learned else []

    if forward:
        if i >= cfg.hop_limit:
            actions.append(Eliminate(b.btl_id, "hop_limit"))
            return actions
        if node.nid != b.dest:
            actions.append(_walk_on(node, b, rng))
            return actions
        b.rf = True  # found: it turns back along its history

    if i == 0:
        settle = _complete_discovery if b.rf else _handle_route_failure
        actions.extend(settle(node, b, now, cfg, rng))
    elif b.history[i - 1] in node.nbors:
        actions.append(Send(b, b.history[i - 1]))
    return actions


def _complete_discovery(node: NodeState, b: Bottle, now: int,
                        cfg: ProtocolConfig, rng: random.Random,
                        ) -> list[Action]:
    """A found bottle is home: state RouteFound and flush, if its request is open.

    Matched by destination rather than bottle id so that a slow bottle
    from an earlier attempt still completes a request that has since been
    retried under a fresh id. If the route did not install (the previous
    hop is no longer a neighbor), the resend opens a fresh discovery.
    """
    req = node.pending.pop(b.dest, None)
    if req is None:
        return []
    return [RouteFound(b.dest, b.history), *_resend(node, req.queued_packets, now, cfg, rng)]


def _resend(node: NodeState, packets: list[DataPacket], now: int,
            cfg: ProtocolConfig, rng: random.Random) -> list[Action]:
    """Hand a closed request's queued packets back to handle_route_request,
    which sends each over an installed route or queues it behind a fresh
    discovery."""
    actions: list[Action] = []
    for pkt in packets:
        actions.extend(handle_route_request(node, pkt, now, cfg, rng))
    return actions


def _handle_route_failure(node: NodeState, b: Bottle, now: int,
                          cfg: ProtocolConfig, rng: random.Random,
                          ) -> list[Action]:
    """Route-failure bottle reached the packet's source: drop its route and retry."""
    had_route = node.rtab.pop(b.dest, None) is not None
    actions: list[Action] = [RouteRemoved(b.dest, "route_failure")] if had_route else []
    if b.dest not in node.pending:
        actions.extend(_start_discovery(node, b.dest, now, cfg, rng, queued=[]))
    return actions


def on_timeout(node: NodeState, dest: NodeId, btl_id: BottleId, now: int,
               cfg: ProtocolConfig, rng: random.Random) -> list[Action]:
    """Request timer fired: retry with a fresh bottle or give up. A timer
    of any attempt but the open one is stale and does nothing."""
    req = node.pending.get(dest)
    if req is None or req.btl_id != btl_id:
        return []
    del node.pending[dest]  # before a retry reopens it: pending keeps arming order
    if dest in node.rtab:  # learned passively from another bottle while waiting
        return [DiscoveryResolved(dest), *_resend(node, req.queued_packets, now, cfg, rng)]
    if req.retries_used < cfg.retry_limit:
        return _start_discovery(node, dest, now, cfg, rng,
                                queued=req.queued_packets,
                                retries_used=req.retries_used + 1)
    return [DeclareInaccessible(dest)]


def on_delivery_failure(node: NodeState, item: Bottle | DataPacket,
                        failed_neighbor: NodeId, now: int,
                        cfg: ProtocolConfig, rng: random.Random,
                        ) -> list[Action]:
    """A send bounced: the neighbor (or the link to it) is gone.

    Every route through the dead neighbor is purged. A data packet we were
    forwarding for someone else triggers a route-failure bottle back along
    its recorded path; our own packet restarts discovery on the spot.
    Bottles are simply lost, the source timer recovers.
    """
    node.nbors.discard(failed_neighbor)
    actions = purge_routes(node, {failed_neighbor}, "delivery_failure")
    if not isinstance(item, DataPacket):
        return actions
    if item.src == node.nid:
        item.path = [node.nid]
        return actions + handle_route_request(node, item, now, cfg, rng)
    return actions + _failure_report(node, item)
