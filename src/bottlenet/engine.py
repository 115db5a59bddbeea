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

Each record is made from a shape that ``trace`` declares (``trace`` owns
the file format); every discovery open and close is an fsm action, and so
is every data packet's fate: an arrival checks its link, writes Received
and hands the packet to the fsm, which delivers, drops or forwards it.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Sequence

from . import fsm, trace
from .config import DEFAULT_HORIZON, ProtocolConfig, ScenarioConfig
from .domain import (
    Bottle,
    BottleId,
    DataPacket,
    NodeState,
    serialize_bottle,  # the wire format; bound here for perfbench/tracer.py
    wire_size,
)
from .errors import BottlenetError, ConfigError
from .network import Topology, hello_tick, load_topology
from .trace import Trace, TraceEvent, collector_paused
from .trace import load_trace  # not called here; bound for perfbench/run.py and tracer.py


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

    def _record(self, node: int, shape: trace.Shape, data: dict[str, Any]) -> None:
        """Append one record of shape's kind; data holds shape's fields in
        their declared order (see trace._shape)."""
        records = self.trace
        records.append(TraceEvent(self.now, len(records), node, shape.kind, data, shape))

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
            self._fail_delivery(frm, to, bottle, xfer, trace.BOUNCED_BOTTLE)
            return
        self._apply(to, fsm.handle_bottle(self.nodes[to], bottle, self.now,
                                          self.cfg, self._rngs[to]))

    def _on_data_arrival(self, frm: int, to: int, pkt: DataPacket,
                         xfer: int) -> None:
        if not self.topology.link_live(frm, to):
            self._fail_delivery(frm, to, pkt, xfer, trace.BOUNCED_DATA)
            return
        pkt.path.append(to)
        self._record(to, trace.RECEIVED_DATA, {
            "msg": "data", "from": frm, "src": pkt.src, "dest": pkt.dest,
            "path": list(pkt.path), "xfer": xfer,
        })
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
        self._record(target[0], trace.TOPOLOGY_CHANGED, {"op": op, "target": list(target)})
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

    def _on_discovery_started(self, nid: int, action: fsm.DiscoveryStarted) -> None:
        self._record(nid, trace.DISCOVERY_STARTED,
                     {"dest": action.dest, "attempt": action.attempt})

    def _on_route_found(self, nid: int, action: fsm.RouteFound) -> None:
        self._record(nid, trace.ROUTE_FOUND,
                     {"src": nid, "dest": action.dest, "path": action.path})

    def _on_discovery_resolved(self, nid: int, action: fsm.DiscoveryResolved) -> None:
        self._record(nid, trace.DISCOVERY_RESOLVED, {"src": nid, "dest": action.dest})

    def _on_inaccessible(self, nid: int, action: fsm.DeclareInaccessible) -> None:
        self._record(nid, trace.INACCESSIBLE, {"src": nid, "dest": action.dest})

    def _on_route_removed(self, nid: int, action: fsm.RouteRemoved) -> None:
        self._record(nid, trace.ROUTE_REMOVED, {"dest": action.dest, "reason": action.reason})

    def _on_table_updated(self, nid: int, action: fsm.TableUpdated) -> None:
        for dest, (next_hop, hops) in action.entries:
            self._record(nid, trace.TABLE_UPDATED,
                         {"dest": dest, "next_hop": next_hop, "hops": hops})

    def _on_eliminate(self, nid: int, action: fsm.Eliminate) -> None:
        self._record(nid, trace.ELIMINATED,
                     {"btl_id": str(action.btl_id), "reason": action.reason})

    def _on_drop_data(self, nid: int, action: fsm.DropData) -> None:
        pkt = action.packet
        self._record(nid, trace.DROPPED,
                     {"src": pkt.src, "dest": pkt.dest, "reason": action.reason})

    def _send_bottle(self, frm: int, send: fsm.Send) -> None:
        # The bottle goes on the wire as it is: its sender keeps no
        # reference to it (see the fsm module docstring).
        bottle, to = send.bottle, send.to
        size = wire_size(bottle)
        self.bottle_bytes_sent += size
        xfer = self._xfer
        self._xfer += 1
        self._record(frm, trace.SENT_BOTTLE, {
            "msg": "bottle", "to": to, "btl_id": str(bottle.btl_id),
            "src": bottle.src, "dest": bottle.dest, "rf": bottle.rf,
            "failure": bottle.failure, "history_len": len(bottle.history),
            "bytes": size, "xfer": xfer,
        })
        if self.topology.link_live(frm, to):
            self.schedule(self.now + self.cfg.per_hop_latency,
                          self._on_bottle_arrival, (frm, to, bottle, xfer))
        else:
            self._fail_delivery(frm, to, bottle, xfer, trace.BOUNCED_BOTTLE)

    def _send_data(self, frm: int, send: fsm.SendData) -> None:
        pkt, to = send.packet, send.to
        xfer = self._xfer
        self._xfer += 1
        self._record(frm, trace.SENT_DATA, {
            "msg": "data", "to": to, "src": pkt.src, "dest": pkt.dest,
            "xfer": xfer,
        })
        if self.topology.link_live(frm, to):
            self.schedule(self.now + self.cfg.per_hop_latency,
                          self._on_data_arrival, (frm, to, pkt, xfer))
        else:
            self._fail_delivery(frm, to, pkt, xfer, trace.BOUNCED_DATA)

    def _fail_delivery(self, frm: int, to: int, item: Bottle | DataPacket,
                       xfer: int, bounced: trace.Shape) -> None:
        self._record(frm, bounced, {"msg": bounced.msg, "to": to, "xfer": xfer})
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
        fsm.DropData: _on_drop_data,
        fsm.Eliminate: _on_eliminate,
        fsm.SetTimer: _on_set_timer,
        fsm.DiscoveryStarted: _on_discovery_started,
        fsm.RouteFound: _on_route_found,
        fsm.DiscoveryResolved: _on_discovery_resolved,
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
    """Execute one scenario to completion and return its full trace. Its
    fields were judged when it was built; run adds only the checks that need
    the topology (request_schedule's and the fault probe)."""
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

    with collector_paused():  # a run makes no cyclic garbage
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
