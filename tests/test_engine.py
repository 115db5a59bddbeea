import functools
import gc
import json
import tracemalloc
import typing
import weakref
from collections import Counter
from enum import IntEnum
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from bottlenet.config import (
    FaultSpec,
    ProtocolConfig,
    RandomRequests,
    RequestSpec,
    ScenarioConfig,
    scenario_from_dict,
)
from bottlenet import fsm
from bottlenet import trace as codec
from bottlenet.domain import Bottle, BottleId, serialize_bottle
from bottlenet.engine import Engine, run
from bottlenet.trace import Trace, TraceEvent, iter_trace, load_trace, record
from bottlenet.errors import ConfigError, MalformedTrace
from bottlenet.domain import MAX_NODE_ID
from bottlenet.network import FAULT_OPS, save_topology
from bottlenet.topogen import generate_topology
from conftest import fault_scenarios, jsonl, make_topology, scenario_on_file


GENERIC10 = {"kind": "generic", "nodes": 10, "seed": 0}


def two_node_scenario(tmp_path, seed=7):
    t = make_topology((0, 1))
    topo_path = tmp_path / "two.json"
    save_topology(t, str(topo_path))
    return ScenarioConfig(seed=seed, topology_file=str(topo_path),
                          requests=[RequestSpec(at=1, src=0, dest=1)])


def landed_bottles(trace):
    """The bottle Sent records whose bottle lands: every one that no
    DeliveryFailed names by its xfer and whose arrival, at its "to" at its
    "at" plus per_hop_latency, falls within the horizon."""
    bounced = {ev.data["xfer"] for ev in trace.records("DeliveryFailed")}
    last = trace.meta["horizon"] - trace.cfg.per_hop_latency
    return [ev for ev in trace.records("Sent")
            if ev.data["msg"] == "bottle" and ev.data["xfer"] not in bounced
            and ev.at <= last]


def generic_scenario(tmp_path, seed, requests, faults=(), protocol=None, horizon=None):
    t = generate_topology("generic", 15, 0)
    topo_path = tmp_path / "g15.json"
    save_topology(t, str(topo_path))
    return t, ScenarioConfig(seed=seed, topology_file=str(topo_path),
                             requests=list(requests), faults=list(faults),
                             protocol=dict(protocol or {}), horizon=horizon)


class TestScheduling:
    def test_past_events_rejected(self):
        eng = Engine(make_topology((0, 1)), ProtocolConfig(8, 16), seed=0, horizon=10)
        eng.now = 5
        with pytest.raises(ConfigError):
            eng.schedule(3, eng._on_app_request, (0, 1))

    def test_every_fsm_action_type_has_a_handler(self):
        eng = Engine(make_topology((0, 1)), ProtocolConfig(8, 16), seed=0, horizon=10)
        assert set(eng._actions) == set(typing.get_args(fsm.Action))

    def test_engine_is_freed_when_run_returns(self, monkeypatch):
        """Nothing an engine holds after its run refers back to it, so
        reference counting frees it without the cyclic collector."""
        engines = []
        original = Engine.run

        def remembering(self):
            engines.append(weakref.ref(self))
            original(self)

        monkeypatch.setattr(Engine, "run", remembering)
        # requests past the horizon stay queued when the loop ends
        sc = ScenarioConfig(seed=1, generator=GENERIC10, horizon=50,
                            requests=[RequestSpec(at=1, src=0, dest=5),
                                      RequestSpec(at=80, src=2, dest=7)])
        gc.disable()
        try:
            trace = run(sc)
            assert engines[0]() is None
        finally:
            gc.enable()
        assert trace.records("RouteFound")

    def test_action_equality_is_type_aware(self):
        b = Bottle(0, 1, BottleId(0, 0), False, [0], False)
        assert fsm.Send(b, 1) != fsm.SendData(b, 1)
        assert fsm.Send(b, 1) == fsm.Send(b, 1)

    def test_equal_time_events_keep_insertion_order(self, tmp_path):
        t = make_topology((0, 1), (1, 2))
        topo_path = tmp_path / "p3.json"
        save_topology(t, str(topo_path))
        sc = ScenarioConfig(seed=1, topology_file=str(topo_path),
                            requests=[RequestSpec(at=5, src=2, dest=1),
                                      RequestSpec(at=5, src=0, dest=1)])
        trace = run(sc)
        first_senders = [ev.node for ev in trace.events if ev.kind == "Sent"][:2]
        assert first_senders == [2, 0]


class TestRun:
    def test_quiescent_network_records_nothing(self, tmp_path):
        t = make_topology((0, 1), (1, 2))
        topo_path = tmp_path / "p3.json"
        save_topology(t, str(topo_path))
        trace = run(ScenarioConfig(seed=3, topology_file=str(topo_path), horizon=50))
        assert trace.events == []

    def test_one_hop_discovery(self, tmp_path):
        trace = run(two_node_scenario(tmp_path))
        (found,) = trace.records("RouteFound")
        assert found.data == {"src": 0, "dest": 1, "path": [0, 1]}
        assert found.at == 1 + 2  # out and back at one tick per hop
        # the queued packet is flushed and delivered
        delivered = [ev for ev in trace.records("Received")
                     if ev.data.get("msg") == "data" and ev.node == 1]
        assert len(delivered) == 1

    def test_identical_runs_are_byte_identical(self, tmp_path):
        sc = two_node_scenario(tmp_path)
        assert jsonl(run(sc)) == jsonl(run(sc))

    def test_seed_changes_the_walk(self, tmp_path):
        _, sc_a = generic_scenario(tmp_path, 1, [RequestSpec(at=1, src=0, dest=8)])
        _, sc_b = generic_scenario(tmp_path, 2, [RequestSpec(at=1, src=0, dest=8)])
        assert jsonl(run(sc_a)) != jsonl(run(sc_b))

    def test_trace_file_round_trip(self, tmp_path):
        trace = run(two_node_scenario(tmp_path))
        out = tmp_path / "trace.jsonl"
        trace.write(str(out))
        assert load_trace(str(out)).events == trace.events

    def test_trace_file_skips_blank_lines(self, tmp_path):
        trace = run(two_node_scenario(tmp_path))
        out = tmp_path / "trace.jsonl"
        out.write_text("\n" + jsonl(trace).replace("\n", "\n \n"))
        assert load_trace(str(out)).events == trace.events

    def test_unknown_request_node_rejected(self, tmp_path):
        t = make_topology((0, 1))
        topo_path = tmp_path / "two.json"
        save_topology(t, str(topo_path))
        sc = ScenarioConfig(seed=1, topology_file=str(topo_path),
                            requests=[RequestSpec(at=1, src=0, dest=9)])
        with pytest.raises(ConfigError, match="dest"):
            run(sc)
        topo_path.write_text(json.dumps({"nodes": [0], "edges": []}))
        with pytest.raises(ConfigError, match=r"^field 'random_requests': need at least two "
                                              r"nodes, the topology has 1$"):
            run(ScenarioConfig(seed=1, topology_file=str(topo_path),
                               random_requests=RandomRequests(count=1)))

    def test_request_to_self_rejected_in_code_built_scenario(self):
        with pytest.raises(ConfigError, match=r"t=1: .*node 3"):
            sc = ScenarioConfig(seed=1, generator={"kind": "generic", "nodes": 10, "seed": 0},
                                requests=[RequestSpec(at=1, src=3, dest=3)], horizon=100)
            run(sc)

    @pytest.mark.parametrize("fault", [
        FaultSpec(at=5, op="fail_node", target=(9,)),
        FaultSpec(at=500, op="restore_node", target=(9,)),
        FaultSpec(at=5, op="fail_link", target=(0, 2)),
        FaultSpec(at=500, op="restore_link", target=(1, 9)),
    ])
    def test_unknown_fault_target_rejected_before_running(self, tmp_path, fault):
        t = make_topology((0, 1), (1, 2))
        topo_path = tmp_path / "p3.json"
        save_topology(t, str(topo_path))
        sc = ScenarioConfig(seed=1, topology_file=str(topo_path), horizon=100,
                            faults=[FaultSpec(at=1, op="fail_link", target=(1, 0)), fault])
        with pytest.raises(ConfigError, match=r"faults\[1\]"):
            run(sc)

    @pytest.mark.parametrize("fault, error", [
        (FaultSpec(at=5, op="explode", target=(1,)), "unknown op 'explode'"),
        (FaultSpec(at=5, op="fail_link", target=(1,)), "op 'fail_link' needs a target of 2"),
        (FaultSpec(at=5, op="fail_node", target=(0, 1)), "op 'fail_node' needs a target of 1"),
    ])
    def test_bad_fault_op_or_target_rejected_before_running(self, fault, error):
        with pytest.raises(ConfigError, match=rf"faults\[0\]': {error}"):
            sc = ScenarioConfig(seed=1, generator=GENERIC10, faults=[fault], horizon=100)
            run(sc)

    @pytest.mark.parametrize("fields, named", [
        ({}, r"'topology'"),
        ({"generator": {"kind": "generic", "nodes": 10}}, r"'topology\.generator\.seed'"),
        ({"generator": GENERIC10, "protocol": {"warp_speed": 9}}, r"'protocol\.warp_speed'"),
    ])
    def test_code_built_scenario_checked_before_running(self, fields, named):
        with pytest.raises(ConfigError, match=named):
            run(ScenarioConfig(seed=1, requests=[RequestSpec(at=1, src=0, dest=1)],
                               **fields))

    @pytest.mark.parametrize("fields, doc", [
        ({"seed": 1.0}, {"seed": 1.0}),
        ({"requests": [RequestSpec(at=1.5, src=0, dest=1)]},
         {"requests": [{"at": 1.5, "src": 0, "dest": 1}]}),
        ({"requests": [RequestSpec(at=True, src=0, dest=1)]},
         {"requests": [{"at": True, "src": 0, "dest": 1}]}),
        ({"requests": [RequestSpec(at=1, src=True, dest=2)]},
         {"requests": [{"at": 1, "src": True, "dest": 2}]}),
        ({"requests": [RequestSpec(at=1, src=0, dest=-1)]},
         {"requests": [{"at": 1, "src": 0, "dest": -1}]}),
        ({"random_requests": RandomRequests(count="2")},
         {"random_requests": {"count": "2"}}),
        ({"random_requests": RandomRequests(count=2, first_at=0.5)},
         {"random_requests": {"count": 2, "first_at": 0.5}}),
        ({"random_requests": RandomRequests(count=2, spacing=0)},
         {"random_requests": {"count": 2, "spacing": 0}}),
        ({"faults": [FaultSpec(at="5", op="fail_node", target=(1,))]},
         {"faults": [{"at": "5", "op": "fail_node", "node": 1}]}),
        ({"horizon": "x"}, {"horizon": "x"}),
        ({"requests": None}, {"requests": None}),
        ({"faults": None}, {"faults": None}),
    ], ids=["seed", "requests.at", "requests.at-bool", "requests.src", "requests.dest",
            "random_requests.count", "random_requests.first_at", "random_requests.spacing",
            "faults.at", "horizon", "requests", "faults"])
    def test_code_built_times_and_counts_checked_as_loaded_ones(self, fields, doc):
        """Each field gets the ConfigError scenario_from_dict gives the same
        value in a document, before anything runs."""
        with pytest.raises(ConfigError) as built:
            run(ScenarioConfig(**{"seed": 1, "generator": GENERIC10} | fields))
        with pytest.raises(ConfigError) as loaded:
            scenario_from_dict({"seed": 1, "topology": {"generator": GENERIC10}} | doc)
        assert str(built.value) == str(loaded.value)

    @pytest.mark.parametrize("fields, named", [
        ({"requests": [{"at": 1, "src": 0, "dest": 1}]},
         r"field 'requests\[0\]': expected a RequestSpec, got \{"),
        ({"faults": [(5, "fail_node", (1,))]},
         r"field 'faults\[0\]': expected a FaultSpec, got \(5"),
        ({"random_requests": {"count": 2}},
         r"field 'random_requests': expected a RandomRequests, got \{"),
    ], ids=["requests[0]", "faults[0]", "random_requests"])
    def test_code_built_specs_of_the_wrong_type_rejected(self, fields, named):
        with pytest.raises(ConfigError, match=named):
            run(ScenarioConfig(**{"seed": 1, "generator": GENERIC10} | fields))

    def test_meta_states_the_spacing_of_random_requests(self):
        rr = RandomRequests(count=3, spacing=7)
        trace = run(ScenarioConfig(seed=1, generator=GENERIC10, random_requests=rr))
        assert trace.meta["spacing"] == 7
        trace = run(ScenarioConfig(seed=1, generator=GENERIC10,
                                   requests=[RequestSpec(at=1, src=0, dest=1)]))
        assert trace.meta["spacing"] is None


GENERIC6 = {"kind": "generic", "nodes": 6, "seed": 0}
G6 = generate_topology(*GENERIC6.values())
FAULT_AT = st.integers(0, 60)
# a well-formed fault on the GENERIC6 graph, or any op string with 0-3 ids in
# and out of that graph, one past the uint16 range among them
FAULT_SPECS = st.one_of(
    st.builds(FaultSpec, at=FAULT_AT, op=st.sampled_from(["fail_node", "restore_node"]),
              target=st.sampled_from([(n,) for n in sorted(G6.nodes)])),
    st.builds(FaultSpec, at=FAULT_AT, op=st.sampled_from(["fail_link", "restore_link"]),
              target=st.sampled_from(sorted(G6.edges))),
    st.builds(FaultSpec, at=FAULT_AT,
              op=st.one_of(st.sampled_from(FAULT_OPS), st.text(max_size=12)),
              target=st.lists(st.one_of(st.integers(-1, 7), st.just(MAX_NODE_ID + 1)),
                              max_size=3).map(tuple)))


@settings(max_examples=60, deadline=None)
@given(st.lists(FAULT_SPECS, max_size=4))
def test_code_built_faults_are_rejected_or_run(faults):
    try:
        sc = ScenarioConfig(seed=3, generator=GENERIC6,
                            random_requests=RandomRequests(count=2, spacing=20),
                            faults=faults, horizon=100)
        trace = run(sc)
    except ConfigError:
        return
    assert len(trace.records("TopologyChanged")) == len(faults)


def copying_send_bottle(self, frm, send):
    """Engine._send_bottle as it was when bottles were passed by value: a
    copy per send, sized by packing its wire image."""
    bottle, to = send.bottle, send.to
    sent = Bottle(bottle.src, bottle.dest, bottle.btl_id, bottle.rf,
                  list(bottle.history), bottle.failure)
    size = len(serialize_bottle(sent))
    self.bottle_bytes_sent += size
    xfer = self._xfer
    self._xfer += 1
    self._record(frm, codec.SENT_BOTTLE, (
        "bottle", to, str(sent.btl_id), sent.src, sent.dest, sent.rf,
        sent.failure, len(sent.history), size, xfer))
    if self.topology.link_live(frm, to):
        self.schedule(self.now + self.cfg.per_hop_latency,
                      self._on_bottle_arrival, (frm, to, sent, xfer))
    else:
        self._fail_delivery(frm, to, sent, xfer, codec.BOUNCED_BOTTLE)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fault_scenarios())
def test_handed_over_bottles_give_the_copying_engines_bytes(case):
    with scenario_on_file(case) as (sc, _):
        trace = run(sc)
        with mock.patch.dict(Engine._actions, {fsm.Send: copying_send_bottle}):
            reference = run(sc)
    assert jsonl(trace) == jsonl(reference)
    assert trace.meta == reference.meta


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fault_scenarios())
def test_declared_shapes_write_the_bytes_of_the_generic_path(case):
    """Every record the engine writes is written from its shape's format, and
    its line is the compact encoder's text of the same record, which is what
    the same record built in code gets."""
    with scenario_on_file(case) as (sc, _):
        trace = run(sc)
    for ev in trace.events:
        built = record(ev.at, ev.seq, ev.node, ev.kind, ev.data)
        assert built == ev and built.loaded and not ev.loaded
        line = dumps(ev.at, ev.seq, ev.node, ev.kind, ev.data) + "\n"
        assert jsonl([ev]) == jsonl([built]) == line


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fault_scenarios())
def test_each_bottle_is_handled_once_where_and_when_it_lands(case):
    """fsm.handle_bottle runs once per bottle that lands (landed_bottles),
    at its receiver and arrival instant, in the order of their Sent records:
    no arrival waits for a later event of its node."""
    handled = []
    handle_bottle = fsm.handle_bottle

    def recording(node, b, now, *args):
        handled.append((now, node.nid, str(b.btl_id)))
        return handle_bottle(node, b, now, *args)

    with scenario_on_file(case) as (sc, _):
        with mock.patch.object(fsm, "handle_bottle", recording):
            trace = run(sc)
    latency = trace.cfg.per_hop_latency
    assert handled == [(ev.at + latency, ev.data["to"], ev.data["btl_id"])
                       for ev in landed_bottles(trace)]


def audit_sent_records(trace, topology_file):
    """Check every hop from its Sent record, the topology file and the
    TopologyChanged records alone: a send that no DeliveryFailed of its
    xfer answers at the same instant crosses a link that is live at that
    point of the trace, and the forward sends of each bottle (neither rf
    nor failure) carry history_len 1, 2, 3, ... in order."""
    edges = {frozenset(e) for e in json.loads(Path(topology_file).read_text())["edges"]}
    down: set = set()  # failed nodes and failed links (frozensets)
    bounced_at = {(ev.at, ev.data["xfer"]) for ev in trace.records("DeliveryFailed")}
    forward_hops: Counter = Counter()
    for ev in trace.events:
        data = ev.data
        if ev.kind == "TopologyChanged":
            target = data["target"]
            key = target[0] if data["op"].endswith("_node") else frozenset(target)
            (down.add if data["op"].startswith("fail_") else down.discard)(key)
        elif ev.kind == "Sent":
            if (ev.at, data["xfer"]) not in bounced_at:
                link = frozenset((ev.node, data["to"]))
                assert link in edges and not down & {ev.node, data["to"], link}, ev
            if data["msg"] == "bottle" and not (data["rf"] or data["failure"]):
                forward_hops[data["btl_id"]] += 1
                assert data["history_len"] == forward_hops[data["btl_id"]], ev


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fault_scenarios())
# node 0 sends to 1 at t=2 over the link that failed at t=1: its refresh
# is not due until its next beacon instant, t=5
@example((make_topology((0, 1), (1, 2)),
          {"seed": 1, "protocol": {"beacon_period": 5},
           "requests": [{"at": 2, "src": 0, "dest": 1}],
           "faults": [{"at": 1, "op": "fail_link", "link": [0, 1]}], "horizon": 100}))
def test_every_hop_audited_from_its_sent_record(case):
    with scenario_on_file(case) as (sc, topo_path):
        audit_sent_records(run(sc), topo_path)


# On the path 0-1-2 a request 0->2 at t=1 finds 0-1-2, and its found bottle
# leaves node 1 for 0 at t=4. Node 1 fails at t=5 as that bottle lands, or at
# t=7 as the first data packet it forwarded lands at 2: both bounce, and
# each bounce is the only record node 1 writes while it is down.
PATH3_REQUEST = {"seed": 1, "requests": [{"at": 1, "src": 0, "dest": 2}], "horizon": 100}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fault_scenarios())
@example((make_topology((0, 1), (1, 2)),
          PATH3_REQUEST | {"faults": [{"at": 5, "op": "fail_node", "node": 1}]}))
@example((make_topology((0, 1), (1, 2)),
          PATH3_REQUEST | {"faults": [{"at": 7, "op": "fail_node", "node": 1}]}))
def test_a_down_node_writes_only_its_fault_and_the_bounces_of_its_sends(case):
    """Replaying the TopologyChanged records: every record at a node that is
    down is that node's TopologyChanged (written at the fault's node or the
    link's first endpoint) or a DeliveryFailed of a send it made before."""
    with scenario_on_file(case) as (sc, _):
        trace = run(sc)
    down = set()
    for ev in trace.events:
        if ev.kind == "TopologyChanged" and ev.data["op"].endswith("_node"):
            (down.add if ev.data["op"] == "fail_node" else down.discard)(ev.node)
        elif ev.node in down:
            assert ev.kind in ("TopologyChanged", "DeliveryFailed"), ev


def test_record_fields_derived_from_the_declared_shapes():
    assert codec.RECORD_FIELDS == {
        key: frozenset(fields.split()) for key, fields in {
            ("Sent", "bottle"): "msg to btl_id src dest rf failure history_len bytes xfer",
            ("Sent", "data"): "msg to src dest xfer",
            ("Received", "data"): "msg from src dest path xfer",
            ("DeliveryFailed", "bottle"): "msg to xfer",
            ("DeliveryFailed", "data"): "msg to xfer",
            ("Dropped", None): "src dest reason",
            ("Eliminated", None): "btl_id reason",
            ("DiscoveryStarted", None): "dest attempt",
            ("RouteFound", None): "src dest path",
            ("Inaccessible", None): "src dest",
            ("DiscoveryResolved", None): "src dest",
            ("TableUpdated", None): "dest next_hop hops",
            ("RouteRemoved", None): "dest reason",
            ("TopologyChanged", None): "op target",
        }.items()}


class Level(IntEnum):
    LOW = 1
    HIGH = -300


def dumps(at, seq, node, kind, data):
    """The reference text of one record: the compact JSON encoder."""
    return json.dumps({"at": at, "seq": seq, "node": node, "kind": kind,
                       "data": data}, separators=(",", ":"))


# text that a %-format, a JSON string or ASCII escaping could get wrong
awkward_text = st.text(alphabet='%"\\/ \n\té\u2603\U0001f600ab', max_size=6)
scalars = (st.integers() | st.booleans() | st.none() | st.floats()
           | st.text(max_size=6) | awkward_text | st.sampled_from(Level))
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3) | awkward_text, inner,
                                     max_size=3)),
    max_leaves=4)
keys = (st.text(max_size=6) | awkward_text | st.integers() | st.booleans()
        | st.none() | st.floats())
kinds = st.sampled_from(["Sent", "Received", "TableUpdated"]) | awkward_text | (
    st.integers() | st.booleans() | st.none() | st.floats())
envelope_ints = st.integers() | st.booleans() | st.sampled_from(Level)


# the value kind of each data field the shapes declare, where it is not an
# int (see trace._shape), and a strategy for each value kind
FIELD_KINDS = {"msg": "name", "btl_id": "name", "reason": "name", "op": "name",
               "rf": "bool", "failure": "bool", "path": "json", "target": "json"}
KIND_VALUES = {"int": st.integers(), "name": st.text(alphabet="%ab_0-", max_size=6),
               "bool": st.booleans(), "json": values}


def of_declared_kinds(data):
    """Whether each value of data is of the JSON type its field declares."""
    types = {"int": int, "name": str, "bool": bool, "json": list}
    return all(type(v) is types[FIELD_KINDS.get(k, "int")] for k, v in data.items())


@st.composite
def shaped_data(draw, declared):
    """A declared shape and a data dict of its fields, msg the shape's own:
    each value of its field's declared kind, or of any kind."""
    shape = draw(st.sampled_from(codec.SHAPES))
    data = {name: draw(KIND_VALUES[FIELD_KINDS.get(name, "int")] if declared else values)
            for name in shape.fields}
    if shape.msg is not None:
        data["msg"] = shape.msg
    return shape, data


def made_and_loaded(kind, datas):
    """A record of kind built in code for each data, and before it one the
    engine made of the same values, where they are of their declared kinds."""
    events = []
    for seq, data in enumerate(datas):
        if of_declared_kinds(data):
            events.append(TraceEvent(5, seq, 2, codec.SHAPE_OF[kind, data.get("msg")],
                                     tuple(data.values())))
        events.append(record(5, seq, 2, kind, data))
    return events


class TestTraceWriter:
    """Every record is written as the compact encoder writes its kind and
    data view: one the engine made from its shape's format, one loaded or
    built in code by the encoder itself, whatever its values' JSON types."""

    @settings(max_examples=100, deadline=None)
    @given(envelope_ints, envelope_ints, envelope_ints, shaped_data(declared=False),
           st.integers(), shaped_data(declared=True))
    def test_same_text_as_the_compact_encoder(self, at, seq, node, built, n, made):
        (shape, data), (made_shape, made_data) = built, made
        events = [record(at, seq, node, shape.kind, data),
                  TraceEvent(n, n, n, made_shape, tuple(made_data.values()))]
        assert jsonl(events) == (dumps(at, seq, node, shape.kind, data) + "\n"
                                 + dumps(n, n, n, made_shape.kind, made_data) + "\n")

    @pytest.mark.parametrize("datas", [
        # 0, 0.0 and False compare and hash equal
        ("TableUpdated", [{"dest": 1, "next_hop": 2, "hops": hops}
                          for hops in (0, 0.0, False, 0)]),
        # a bool is an int, and "%d" % True is "1"
        ("Sent", [{"msg": "bottle", "to": 1, "btl_id": "0:1", "src": 0, "dest": 3,
                   "rf": rf, "failure": False, "history_len": 1, "bytes": 12, "xfer": 0}
                  for rf in (True, 1, False, 0)]),
        ("DeliveryFailed", [{"msg": "data", "to": 1, "xfer": xfer} for xfer in (3, None, 4)]),
    ])
    def test_shapes_that_compare_equal_keep_their_own_format(self, datas):
        """Values that compare equal but are of other JSON types keep their
        own text, in records made by the engine or built in code."""
        kind, datas = datas
        events = made_and_loaded(kind, datas)
        assert {ev.loaded for ev in events} == {True, False}
        assert jsonl(events) == "".join(dumps(ev.at, ev.seq, ev.node, kind, ev.data) + "\n"
                                        for ev in events)

    def test_percent_signs_in_values_and_names(self):
        events = (made_and_loaded("Eliminated", [{"btl_id": "%d%s", "reason": "100%"}])
                  + made_and_loaded("TopologyChanged",
                                    [{"op": "%%", "target": ["%", "a%%b%", {"%(x)s": "%"}]}])
                  + made_and_loaded("RouteRemoved", [{"dest": "%d", "reason": "%s%%"}]))
        assert len(events) == 5
        assert jsonl(events) == "".join(dumps(ev.at, ev.seq, ev.node, ev.kind, ev.data) + "\n"
                                        for ev in events)


def terminal_marks(trace):
    """Per bottle id: eliminations plus found-route returns to the source
    (an rf bottle that lands at its src)."""
    marks = Counter(ev.data["btl_id"] for ev in trace.records("Eliminated"))
    marks.update(ev.data["btl_id"] for ev in landed_bottles(trace)
                 if ev.data["rf"] and ev.data["to"] == ev.data["src"])
    return marks


class TestTraceInvariants:
    def exercise(self, tmp_path, seed):
        _, sc = generic_scenario(
            tmp_path, seed,
            requests=[RequestSpec(at=1, src=0, dest=8),
                      RequestSpec(at=700, src=3, dest=11),
                      RequestSpec(at=1400, src=14, dest=2)])
        return run(sc)

    def test_sent_received_conservation(self, tmp_path):
        for seed in range(8):
            trace = self.exercise(tmp_path, seed)
            sent = Counter(ev.data["xfer"] for ev in trace.records("Sent"))
            bounced = Counter(ev.data["xfer"] for ev in trace.records("DeliveryFailed"))
            received = Counter(ev.data["xfer"] for ev in trace.records("Received"))
            data_sent = {ev.data["xfer"] for ev in trace.records("Sent")
                         if ev.data["msg"] == "data"}
            assert set(sent.values()) <= {1}
            assert bounced.keys() <= sent.keys() and set(bounced.values()) <= {1}
            assert received == Counter(data_sent - bounced.keys())

    def test_every_bottle_ends_exactly_once(self, tmp_path):
        for seed in range(8):
            trace = self.exercise(tmp_path, seed)
            ids = {ev.data["btl_id"] for ev in trace.events
                   if ev.kind in ("Sent", "Eliminated") and "btl_id" in ev.data}
            marks = terminal_marks(trace)
            for btl_id in ids:
                assert marks[btl_id] == 1, btl_id

    def test_hop_cap_never_exceeded(self, tmp_path):
        for seed in range(8):
            trace = self.exercise(tmp_path, seed)
            hop_limit = trace.cfg.hop_limit
            for ev in trace.records("Sent"):
                if ev.data.get("msg") == "bottle":
                    assert ev.data["history_len"] - 1 <= hop_limit

    def test_return_leg_retraces_history(self, tmp_path):
        for seed in range(8):
            trace = self.exercise(tmp_path, seed)
            for found in trace.records("RouteFound"):
                path = found.data["path"]
                btl_id = None
                for ev in trace.records("Sent"):
                    if (ev.data.get("msg") == "bottle" and ev.data["rf"]
                            and ev.data["src"] == found.data["src"]
                            and ev.data["dest"] == found.data["dest"]):
                        btl_id = ev.data["btl_id"]
                receivers = [ev.data["to"] for ev in landed_bottles(trace)
                             if ev.data["btl_id"] == btl_id and ev.data["rf"]]
                assert receivers == list(reversed(path))[1:]

    def test_simple_path_histories(self, tmp_path):
        for seed in range(8):
            trace = self.exercise(tmp_path, seed)
            for found in trace.records("RouteFound"):
                path = found.data["path"]
                assert len(set(path)) == len(path)


class TestFaultHandling:
    def test_inflight_arrival_to_failed_node_bounces(self, tmp_path):
        t = make_topology((0, 1))
        topo_path = tmp_path / "two.json"
        save_topology(t, str(topo_path))
        # Node 1 dies in the same tick the bottle is in flight.
        sc = ScenarioConfig(seed=1, topology_file=str(topo_path),
                            requests=[RequestSpec(at=1, src=0, dest=1)],
                            faults=[FaultSpec(at=2, op="fail_node", target=(1,))],
                            horizon=2000)
        trace = run(sc)
        assert trace.records("RouteFound") == []
        assert trace.records("DeliveryFailed")
        (inaccessible,) = trace.records("Inaccessible")
        assert inaccessible.data == {"src": 0, "dest": 1}

    def test_timer_missed_while_down_fires_on_restore(self):
        # Node 0's first request times out at t=241 while it is down. On
        # restore at t=290 the timer fires again, so the request resolves
        # and the second one, for the same destination, is not queued
        # behind it for ever.
        trace = run(scenario_from_dict({
            "seed": 1, "horizon": 6000,
            "topology": {"generator": {"kind": "generic", "nodes": 30, "seed": 0}},
            "requests": [{"at": 1, "src": 0, "dest": 17},
                         {"at": 2000, "src": 0, "dest": 17}],
            "faults": [{"at": 2, "op": "fail_node", "node": 0},
                       {"at": 290, "op": "restore_node", "node": 0}]}))
        assert not trace.nodes[0].pending
        assert any(ev.at == 290 and ev.kind == "Sent" and ev.node == 0
                   for ev in trace.events)
        assert any(ev.at >= 2000 and ev.kind == "Received" and ev.node == 17
                   and ev.data["msg"] == "data" for ev in trace.events)

    def test_timers_due_while_down_fire_at_restore_in_arming_order(self, tmp_path,
                                                                    monkeypatch):
        # Node 0 arms a timer for 3 at t=1 and one for 2 at t=2, both due
        # while it is down (t=3-20). The engine holds both until the restore
        # and fires them then, after the restored node's refreshes, in the
        # order they were armed; each request then launches its retry.
        t = make_topology((0, 1), (1, 2), (2, 3))
        sc = file_scenario(tmp_path, t, seed=1,
                           protocol={"timeout": 5, "retry_limit": 1},
                           requests=[RequestSpec(at=1, src=0, dest=3),
                                     RequestSpec(at=2, src=0, dest=2)],
                           faults=[FaultSpec(at=3, op="fail_node", target=(0,)),
                                   FaultSpec(at=20, op="restore_node", target=(0,))],
                           horizon=40)
        log = []
        refresh, on_timeout = Engine._on_neighbor_refresh, fsm.on_timeout

        def refreshing(self, nid):
            log.append((self.now, "refresh", nid))
            refresh(self, nid)

        def timing_out(node, dest, btl_id, now, *rest):
            log.append((now, "timeout", node.nid, dest,
                        dest in node.pending and node.pending[dest].btl_id == btl_id))
            return on_timeout(node, dest, btl_id, now, *rest)

        monkeypatch.setattr(Engine, "_on_neighbor_refresh", refreshing)
        monkeypatch.setattr(fsm, "on_timeout", timing_out)
        trace = run(sc)
        assert [entry for entry in log if 3 <= entry[0] <= 20] == [
            (3, "refresh", 0), (3, "refresh", 1),
            (20, "refresh", 0), (20, "refresh", 1),
            (20, "timeout", 0, 3, True), (20, "timeout", 0, 2, True)]
        retries = [ev.data["dest"] for ev in trace.events if ev.at == 20
                   and ev.kind == "DiscoveryStarted" and ev.data["attempt"] >= 1]
        assert retries == [3, 2]

    def test_restored_link_allows_rediscovery(self, tmp_path):
        t = make_topology((0, 1))
        topo_path = tmp_path / "two.json"
        save_topology(t, str(topo_path))
        sc = ScenarioConfig(seed=1, topology_file=str(topo_path),
                            protocol={"beacon_period": 5},
                            requests=[RequestSpec(at=50, src=0, dest=1)],
                            faults=[FaultSpec(at=1, op="fail_link", target=(0, 1)),
                                    FaultSpec(at=60, op="restore_link", target=(0, 1))],
                            horizon=2000)
        trace = run(sc)
        assert trace.records("RouteFound")


@pytest.fixture
def refreshes(monkeypatch):
    """(now, nid, down, rtab before) for every neighbour refresh dispatched."""
    seen = []
    original = Engine._on_neighbor_refresh

    def recording(self, nid):
        seen.append((self.now, nid, nid in self.topology.down_nodes,
                     dict(self.nodes[nid].rtab)))
        original(self, nid)

    monkeypatch.setattr(Engine, "_on_neighbor_refresh", recording)
    return seen


def file_scenario(tmp_path, t, **fields):
    topo_path = tmp_path / "topo.json"
    save_topology(t, str(topo_path))
    return ScenarioConfig(topology_file=str(topo_path), **fields)


class TestNeighborRefresh:
    def test_fault_free_run_schedules_none(self, tmp_path, refreshes):
        _, sc = generic_scenario(tmp_path, 1, [RequestSpec(at=1, src=0, dest=8)],
                                 protocol={"beacon_period": 3})
        trace = run(sc)
        assert trace.records("RouteFound") and refreshes == []

    def test_link_fault_refreshes_its_endpoints_at_their_beacons(self, tmp_path,
                                                                 refreshes):
        t = make_topology((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4))
        sc = file_scenario(tmp_path, t, seed=1, protocol={"beacon_period": 4},
                           faults=[FaultSpec(at=8, op="fail_link", target=(4, 1))],
                           horizon=50)
        trace = run(sc)
        # node 4 is in phase 0 (the fault's own instant), node 1 in phase 1
        assert [(at, nid) for at, nid, *_ in refreshes] == [(8, 4), (9, 1)]
        assert trace.nodes[1].nbors == {0, 2} and trace.nodes[4].nbors == {3, 5}

    def test_down_node_skipped_then_purged_on_restore(self, tmp_path, refreshes):
        t = make_topology((0, 1), (1, 2), (2, 3))
        sc = file_scenario(tmp_path, t, seed=1, protocol={"beacon_period": 4},
                           requests=[RequestSpec(at=1, src=3, dest=0)],
                           faults=[FaultSpec(at=20, op="fail_node", target=(2,)),
                                   FaultSpec(at=21, op="fail_link", target=(1, 2)),
                                   FaultSpec(at=31, op="restore_node", target=(2,))],
                           horizon=60)
        trace = run(sc)
        node2 = [(at, down, rtab) for at, nid, down, rtab in refreshes if nid == 2]
        # each fault queues its own refresh: the second one at t=22 is a no-op
        assert [(at, down) for at, down, _ in node2] == [(22, True), (22, True), (34, False)]
        assert node2[2][2][0].next_hop == 1  # the route to 0 learned at t=1
        assert trace.nodes[2].nbors == {3}
        assert trace.nodes[2].rtab.keys() == {3}

    def test_faults_and_purged_routes_are_recorded(self, tmp_path):
        t = make_topology((0, 1), (1, 2), (2, 3))
        sc = file_scenario(tmp_path, t, seed=1, protocol={"beacon_period": 4},
                           requests=[RequestSpec(at=1, src=3, dest=0)],
                           faults=[FaultSpec(at=20, op="fail_link", target=(2, 1)),
                                   FaultSpec(at=25, op="fail_node", target=(3,))],
                           horizon=60)
        trace = run(sc)
        assert [(ev.at, ev.node, ev.data) for ev in trace.records("TopologyChanged")] == [
            (20, 2, {"op": "fail_link", "target": [2, 1]}),
            (25, 3, {"op": "fail_node", "target": [3]})]
        # node 2's routes to 1 and 0 went through 1, node 1's route to 3 through 2
        removed = {(ev.node, ev.data["dest"], ev.data["reason"])
                   for ev in trace.records("RouteRemoved")}
        assert {(2, 1, "neighbor_lost"), (2, 0, "neighbor_lost"),
                (1, 3, "neighbor_lost")} <= removed
        assert 0 not in trace.nodes[2].rtab and 3 not in trace.nodes[1].rtab

    def test_refresh_sorts_after_queued_events_at_its_instant(self, tmp_path,
                                                            refreshes):
        # Before the loop, the request at t=1 was queued ahead of node 1's
        # first beacon, so node 1 still sees the link the fault at t=0 broke.
        t = make_topology((0, 1), (0, 2))
        sc = file_scenario(tmp_path, t, seed=1, protocol={"beacon_period": 5},
                           requests=[RequestSpec(at=1, src=1, dest=2)],
                           faults=[FaultSpec(at=0, op="fail_link", target=(0, 1))],
                           horizon=50)
        trace = run(sc)
        first = next(ev for ev in trace.events
                     if ev.kind not in ("TopologyChanged", "DiscoveryStarted"))
        assert (first.at, first.node, first.kind, first.data["to"]) == (1, 1, "Sent", 0)
        assert (1, 1) in [(at, nid) for at, nid, *_ in refreshes]

    @pytest.mark.parametrize("period", [3, 4, 5])
    def test_event_queued_before_a_fault_runs_before_its_refresh(self, tmp_path,
                                                                 monkeypatch, period):
        # At t=1 the request sends 0's bottle to 2, due at t=2; then the fault
        # queues node 2's refresh for its beacon instant, t=2 too. The bottle
        # was queued first, so it lands while node 2 still sees node 3.
        t = make_topology((0, 2), (2, 1), (2, 3))
        sc = file_scenario(tmp_path, t, seed=1, protocol={"beacon_period": period},
                           requests=[RequestSpec(at=1, src=0, dest=1)],
                           faults=[FaultSpec(at=1, op="fail_link", target=(2, 3))],
                           horizon=2)
        log = []
        arrival, refresh = Engine._on_bottle_arrival, Engine._on_neighbor_refresh

        def arriving(self, frm, to, *rest):
            log.append((self.now, "arrival", to, frozenset(self.nodes[to].nbors)))
            arrival(self, frm, to, *rest)

        def refreshing(self, nid):
            log.append((self.now, "refresh", nid, frozenset(self.nodes[nid].nbors)))
            refresh(self, nid)

        monkeypatch.setattr(Engine, "_on_bottle_arrival", arriving)
        monkeypatch.setattr(Engine, "_on_neighbor_refresh", refreshing)
        trace = run(sc)
        assert log == [(2, "arrival", 2, {0, 1, 3}), (2, "refresh", 2, {0, 1, 3})]
        assert trace.nodes[2].nbors == {0, 1}

    def test_one_node_fault_costs_few_events(self):
        doc = {"seed": 4, "topology": {"generator": {"kind": "generic", "nodes": 100,
                                                     "seed": 0}},
               "random_requests": {"count": 5},
               "faults": [{"at": 100, "op": "fail_node", "node": 7}]}
        trace = run(scenario_from_dict(doc))
        # a beacon per node per period would process over 1.6 million
        assert trace.meta["events_processed"] < 1000


def record_line(seq):
    return jsonl([record(1, seq, 0, "RouteFound", {"src": 0, "dest": 2, "path": [0, 1, 2]})])[:-1]


def split_record(inside, seq=0):
    """record_line(seq) cut in two inside its path list, inside an extra
    field [[0],[1]] between its two lists, or inside its kind string."""
    line = record_line(seq)
    if inside == "list":  # drop the comma a comma join would put back
        head, tail = line.split(",2]")
        return [head, "2]" + tail]
    if inside == "nested list":  # drop the "],[" a "],[" join would put back
        return [line[:-2] + ',"x":[[0', "1]]}}"]
    cut = line.index("Found")
    return [line[:cut], line[cut:]]


class TestMalformedTrace:
    """load_trace accepts exactly one record per non-blank line."""

    def load(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return load_trace(str(path))

    def test_invalid_json(self, tmp_path):
        with pytest.raises(MalformedTrace, match=r"bad\.jsonl: line 3:"):
            self.load(tmp_path, [record_line(0), "", '{"at": 1, "seq": oops}'])

    def test_two_records_on_one_line(self, tmp_path):
        # joined with commas into one array, this line would decode as two
        with pytest.raises(MalformedTrace, match="line 2:"):
            self.load(tmp_path, [record_line(0),
                                 record_line(1) + "," + record_line(2)])
        # joined with "],[", it closes its own list and opens the next line's:
        # only the count of lists per line tells it from two lines
        with pytest.raises(MalformedTrace, match="line 2: not one JSON record"):
            self.load(tmp_path, [record_line(0),
                                 record_line(1) + "],[" + record_line(2)])

    @pytest.mark.parametrize("inside", ["list", "string"])
    def test_record_split_over_two_lines(self, tmp_path, inside):
        # joined into one document, the halves would decode as one record
        with pytest.raises(MalformedTrace, match="line 1:"):
            self.load(tmp_path, split_record(inside) + [record_line(1)])

    def test_split_record_and_two_on_a_line_do_not_cancel(self, tmp_path):
        # three lines, three records: a count check alone would pass
        with pytest.raises(MalformedTrace, match="line 1:"):
            self.load(tmp_path, split_record("list")
                      + [record_line(1) + "," + record_line(2)])

    def test_two_on_a_line_and_a_split_nested_list_do_not_cancel(self, tmp_path):
        # "],[" on line 1 adds a list, and joined with "],[" lines 2 and 3 make
        # one record whose extra field is [[0],[1]]: three lists, three records
        with pytest.raises(MalformedTrace, match=r"bad\.jsonl: line 1: not one JSON record"):
            self.load(tmp_path, [record_line(0) + "],[" + record_line(1),
                                 *split_record("nested list", seq=2)])

    @pytest.mark.parametrize("line", ["[1, 2]", "5", '"Sent"', "null"])
    def test_line_not_an_object(self, tmp_path, line):
        with pytest.raises(MalformedTrace, match="line 2: expected a JSON object"):
            self.load(tmp_path, [record_line(0), line])

    def test_missing_key(self, tmp_path):
        with pytest.raises(MalformedTrace, match="line 1: missing field 'seq'"):
            self.load(tmp_path, ['{"at": 1}'])

    def test_missing_data_field(self, tmp_path):
        line = record_line(1).replace(',"path":[0,1,2]', "")
        with pytest.raises(MalformedTrace,
                           match="line 2: kind 'RouteFound': missing field 'path'"):
            self.load(tmp_path, [record_line(0), line])

    def test_unknown_kind(self, tmp_path):
        line = record_line(1).replace("RouteFound", "RouteLost")
        with pytest.raises(MalformedTrace, match="line 2: unknown kind 'RouteLost'"):
            self.load(tmp_path, [record_line(0), line])

    def test_message_record_without_msg(self, tmp_path):
        line = ('{"at":1,"seq":0,"node":0,"kind":"Sent",'
                '"data":{"to":1,"src":0,"dest":1,"xfer":0}}')
        with pytest.raises(MalformedTrace, match="kind 'Sent': missing field 'msg'"):
            self.load(tmp_path, [line])

    def test_received_bottle_record_of_the_old_format(self, tmp_path):
        # a bottle's arrival follows from its Sent record, so a trace that
        # still has a Received bottle line is of a format no longer read
        line = ('{"at":2,"seq":1,"node":1,"kind":"Received","data":{"msg":"bottle",'
                '"from":0,"btl_id":"0-0","src":0,"dest":1,"rf":false,"failure":false,'
                '"history_len":1,"xfer":0}}')
        with pytest.raises(MalformedTrace,
                           match=r"bad\.jsonl: line 2: kind 'Received' has no msg 'bottle'$"):
            self.load(tmp_path, [record_line(0), line])

    @pytest.mark.parametrize("data, error", [
        ('{"op":"explode","target":[1]}', "unknown op 'explode'"),
        ('{"op":["fail_node"],"target":[1]}', r"unknown op \['fail_node'\]"),
        ('{"op":"fail_link","target":[1]}', "op 'fail_link' needs a target of 2"),
        ('{"op":"restore_node","target":[1,2]}', "op 'restore_node' needs a target of 1"),
        ('{"op":"fail_node","target":1}', "op 'fail_node' needs a target of 1"),
        ('{"op":"fail_node","target":["a"]}', "op 'fail_node' needs a target of 1"),
    ])
    def test_bad_topology_change(self, tmp_path, data, error):
        line = '{"at":5,"seq":1,"node":1,"kind":"TopologyChanged","data":%s}' % data
        with pytest.raises(MalformedTrace,
                           match=f"line 2: kind 'TopologyChanged': {error}"):
            self.load(tmp_path, [record_line(0), line])

    def test_data_not_an_object(self, tmp_path):
        line = record_line(0).replace('{"src":0,"dest":2,"path":[0,1,2]}', "[]")
        with pytest.raises(MalformedTrace, match="field 'data' is not an object"):
            self.load(tmp_path, [line])

    @pytest.mark.parametrize("kind, data, error", [
        ('["Sent"]', "{}", r"unknown kind \['Sent'\]"),
        ('{"k":1}', "{}", r"unknown kind \{'k': 1\}"),
        ('"Sent"', '{"msg":["bottle"]}', r"kind 'Sent' has no msg \['bottle'\]"),
    ])
    def test_unhashable_kind_or_msg(self, tmp_path, kind, data, error):
        # a dict lookup on these raises TypeError; the line is named instead
        line = '{"at":1,"seq":1,"node":0,"kind":%s,"data":%s}' % (kind, data)
        with pytest.raises(MalformedTrace, match=f"line 2: {error}"):
            self.load(tmp_path, [record_line(0), line])


class TestChunkedTrace:
    """iter_trace and load_trace decode a chunk of lines per call, and name
    a bad line by its number in the file, whatever chunk it falls in."""

    @pytest.fixture(autouse=True)
    def three_line_chunks(self, monkeypatch):
        monkeypatch.setattr(codec, "_CHUNK_LINES", 3)

    def write(self, tmp_path, lines):
        path = tmp_path / "chunked.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    def records(self, count, start=0):
        return [record_line(seq) for seq in range(start, start + count)]

    def test_record_split_across_a_chunk_boundary(self, tmp_path):
        path = self.write(tmp_path, self.records(2) + split_record("list")
                          + self.records(2, start=3))
        with pytest.raises(MalformedTrace, match=r"chunked\.jsonl: line 3: not one JSON"):
            load_trace(path)

    def test_bad_record_in_the_third_chunk_is_named_by_its_line(self, tmp_path):
        bad = record_line(7).replace("RouteFound", "RouteLost")
        path = self.write(tmp_path, self.records(7) + [bad] + self.records(3, start=8))
        with pytest.raises(MalformedTrace, match="line 8: unknown kind 'RouteLost'"):
            load_trace(path)
        # the two chunks before it stream out before the error
        stream = iter_trace(path)
        assert [next(stream).seq for _ in range(6)] == list(range(6))
        with pytest.raises(MalformedTrace, match="line 8:"):
            list(stream)

    def test_chunk_of_blank_lines_only(self, tmp_path):
        path = self.write(tmp_path, self.records(3) + ["", " ", "\t"]
                          + self.records(2, start=3) + [""])
        assert [ev.seq for ev in load_trace(path).events] == list(range(5))
        bad = self.write(tmp_path, self.records(3) + ["", "", ""] + ['{"at": 1}'])
        with pytest.raises(MalformedTrace, match="line 7: missing field 'seq'"):
            load_trace(bad)
        # whitespace around a record or a line break, and a line holding
        # only a form feed, which str.strip drops but JSON does not allow
        padded = [" \t" + line + "\t " for line in self.records(7)]
        form_feed = self.records(2) + ["\f", " \f\t"] + self.records(5, start=2)
        for lines, newline in [(padded, "\n"), (self.records(7), "\r\n"),
                               (padded[:4] + [""] + padded[4:], "\r\n"),
                               (form_feed, "\n"), (form_feed, "\r\n")]:
            path = tmp_path / "spaced.jsonl"
            path.write_bytes("".join(line + newline for line in lines).encode())
            assert load_trace(str(path)).events == [
                record(1, seq, 0, "RouteFound", {"src": 0, "dest": 2, "path": [0, 1, 2]})
                for seq in range(7)]
            path.write_bytes("".join(line + newline for line in lines + ['{"at": 1}'])
                             .encode())
            with pytest.raises(MalformedTrace,
                               match=f"line {len(lines) + 1}: missing field 'seq'"):
                load_trace(str(path))

    def test_one_decode_per_chunk_with_a_blank_line(self, tmp_path):
        """A blank CRLF line first, inside or last in each chunk is an empty
        list inside its wrapper: each chunk still takes one json.loads."""
        lines = [""] + self.records(3) + [""] + self.records(3, start=3) + [""]
        path = tmp_path / "blank.jsonl"
        path.write_bytes("".join(line + "\r\n" for line in lines).encode())
        with mock.patch.object(codec.json, "loads", wraps=json.loads) as loads:
            events = load_trace(str(path)).events
        assert [ev.seq for ev in events] == list(range(6))
        assert loads.call_count == 3

    def test_writer_fills_one_format_per_chunk_to_each_records_bytes(self, tmp_path):
        """Engine records and records loaded or built in code, mixed within
        and across chunks: a % in a value of either is written as it is, and
        a value built in code keeps the text of its JSON type."""
        shaped = run(two_node_scenario(tmp_path)).events
        loaded = load_trace(self.write(tmp_path, self.records(3, start=50))).events
        events = [loaded[0], *shaped[:2],
                  record(3, 60, 1, "TopologyChanged", {"op": "%d", "target": ["%", "a%%b%"]}),
                  TraceEvent(4, 61, 2, codec.ELIMINATED, ("%d%s", "100%")),
                  loaded[1], *shaped[2:], loaded[2],
                  record(5, 62, 0, "TableUpdated", {"dest": "%s%%", "next_hop": True,
                                                    "hops": 1.5})]
        assert {ev.loaded for ev in events} == {True, False}
        assert len(events) % 3 != 0
        trace = Trace(events=events)
        path = tmp_path / "mixed.jsonl"
        trace.write(str(path))
        expected = "".join(dumps(ev.at, ev.seq, ev.node, ev.kind, ev.data) + "\n"
                           for ev in events)
        assert path.read_text() == expected == "".join(jsonl([ev]) for ev in events)

    def test_loaded_values_keep_their_json_text_and_extra_keys_go(self, tmp_path):
        """A loaded value of a JSON type its field does not declare is written
        back as it was read; a data key no field declares is not kept."""
        lines = ['{"at":1,"seq":0,"node":0,"kind":"TableUpdated",'
                 '"data":{"dest":2,"next_hop":1,"hops":true}}',
                 '{"at":1,"seq":1,"node":0,"kind":"RouteRemoved","data":{"dest":2,"reason":5}}',
                 '{"at":2,"seq":2,"node":1,"kind":"DiscoveryStarted",'
                 '"data":{"dest":3,"extra":[1],"attempt":0}}']
        trace = load_trace(self.write(tmp_path, lines))
        assert [ev.data for ev in trace.events] == [
            {"dest": 2, "next_hop": 1, "hops": True}, {"dest": 2, "reason": 5},
            {"dest": 3, "attempt": 0}]
        path = tmp_path / "back.jsonl"
        trace.write(str(path))
        lines[2] = lines[2].replace('"extra":[1],', "")
        assert path.read_text() == "".join(line + "\n" for line in lines)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, [])
        assert load_trace(path).events == [] and list(iter_trace(path)) == []

    def test_file_of_exactly_one_chunk(self, tmp_path):
        path = self.write(tmp_path, self.records(3))
        assert [ev.seq for ev in iter_trace(path)] == [0, 1, 2]

    def test_round_trip_over_many_chunks(self, tmp_path):
        trace = run(generic_scenario(tmp_path, 3, [RequestSpec(at=1, src=0, dest=8)])[1])
        assert len(trace.events) > 3 * 3
        path = tmp_path / "trace.jsonl"
        trace.write(str(path))
        assert path.read_text() == jsonl(trace)
        assert jsonl(trace) == "".join(jsonl([ev]) for ev in trace.events)
        assert load_trace(str(path)).events == trace.events
        assert list(iter_trace(str(path))) == trace.events


@functools.cache
def engine_record_lines():
    """One line of each record shape a faulty 12-node run writes."""
    doc = {"seed": 1, "topology": {"generator": {"kind": "generic", "nodes": 12, "seed": 0}},
           "protocol": {"retry_limit": 1},
           "random_requests": {"count": 20, "spacing": 2},
           "faults": [{"at": 3, "op": "fail_node", "node": 2},
                      {"at": 4, "op": "fail_link", "link": [0, 3]},
                      {"at": 30, "op": "restore_node", "node": 2}]}
    lines = {ev.shape: jsonl([ev])[:-1] for ev in run(scenario_from_dict(doc)).events}
    assert len(lines) >= 8
    return tuple(sorted(lines.values()))


# replacement values for a record's kind, node and data, and its data's msg,
# dest, op and target
RECORD_EDITS = {
    "kind": sorted({kind for kind, _ in codec.RECORD_FIELDS}) + ["Lost", ["Sent"], 1],
    "node": [True, 1.0, "1"],
    "data": [[], "data", None],
    "dest": [False, 0.0, [0]],
    "msg": ["bottle", "data", None, ["data"], {"m": 1}],
    "op": [*FAULT_OPS, "explode", ["fail_node"], None],
    "target": [[1], [1, 2], [], [1, 2, 3], ["a"], 1, [MAX_NODE_ID + 1], None],
}
LINE_TOKENS = ["],[", ",", "[", "]", "{", "}", '"', ":", '"msg":"data",', '"at":1,',
               " ", "\t", "\f"]


@st.composite
def mutated_record_lines(draw):
    """An engine record line with its kind, node, data, msg, dest, op or target replaced
    or a key deleted, then ],[, commas, brackets, quotes, keys or another
    record inserted into its text or cut out of it, or the line wrapped in a
    list."""
    rec = json.loads(draw(st.sampled_from(engine_record_lines())))
    data = rec["data"]
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from([*RECORD_EDITS, "delete"]))
        if field == "delete":
            key = draw(st.sampled_from([*rec, *data]))
            (rec if key in rec else data).pop(key, None)
        else:
            owner = rec if field in ("kind", "node", "data") else data
            owner[field] = draw(st.sampled_from(RECORD_EDITS[field]))
    line = json.dumps(rec, separators=(",", ":"))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["insert", "cut", "remove", "join", "wrap"]))
        if edit == "insert":
            line = line[:at] + draw(st.sampled_from(LINE_TOKENS)) + line[at:]
        elif edit == "cut":
            line = line[:at] + line[at + draw(st.integers(1, 3)):]
        elif edit == "remove":
            line = line.replace(draw(st.sampled_from(LINE_TOKENS)), "", 1)
        elif edit == "join":
            line += draw(st.sampled_from(["],[", ","])) + draw(
                st.sampled_from(engine_record_lines()))
        else:
            line = f"[{line}]"
    return line


@settings(max_examples=400, deadline=None)
@given(mutated_record_lines())
def test_the_line_path_names_every_line_it_rejects(line):
    """The trace reader's line-by-line path raises with _record_error's
    message for a line _decode_chunk rejects: that message is never None,
    and a line it accepts is exactly one record, the line's own."""
    assume(line.strip())
    decoded, error = codec._decode_chunk([line]), codec._record_error(line)
    assert (decoded is None) == (error is not None), (line, error)
    if decoded is not None:
        rec = json.loads(line)
        assert decoded == [record(rec["at"], rec["seq"], rec["node"], rec["kind"], rec["data"])]


@st.composite
def chunk_lines(draw):
    """Two to six lines of a trace chunk: engine record lines, mutated or
    not, two records on one line, a record cut in two (at any point, or
    where "],[" is cut out of an extra field [[0],[1]]), and blank lines."""
    records = st.sampled_from(engine_record_lines())
    lines = []
    while len(lines) < draw(st.integers(2, 6)):
        item = draw(st.sampled_from(["record", "mutated", "two", "cut", "blank"]))
        if item == "record":
            lines.append(draw(records))
        elif item == "mutated":
            lines.append(draw(mutated_record_lines()))
        elif item == "two":
            lines.append(draw(records) + draw(st.sampled_from(["],[", "] , [", ","]))
                         + draw(records))
        elif item == "cut":
            line = draw(records)[:-2] + ',"x":[[0],[1]]}}'
            if draw(st.booleans()):
                head, tail = line.split("],[")
            else:
                at = draw(st.integers(1, len(line) - 1))
                head, tail = line[:at], line[at + draw(st.integers(0, 3)):]
            lines += [head, tail]
        else:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    return lines


@settings(max_examples=400, deadline=None)
@given(chunk_lines())
def test_a_chunk_is_accepted_only_as_its_lines_alone(lines):
    """_decode_chunk accepts a chunk of several lines only if each line
    alone is accepted, and then gives the records the lines give alone."""
    decoded = codec._decode_chunk(lines)
    if decoded is not None:
        alone = [codec._decode_chunk([line]) for line in lines]
        assert None not in alone, lines
        assert decoded == [ev for events in alone for ev in events]


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector(request):
    """The cyclic garbage collector switched on or off for a test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """run and the trace reader build records with the cyclic collector
    paused, and leave it as they found it, however they end."""

    @pytest.fixture(autouse=True)
    def three_line_chunks(self, monkeypatch):
        monkeypatch.setattr(codec, "_CHUNK_LINES", 3)

    def watch(self, monkeypatch, owner, name, fail=False):
        """Wrap owner.name to note whether the collector is on at each call."""
        seen, original = [], getattr(owner, name)

        def watching(*args):
            seen.append(gc.isenabled())
            if fail:
                raise RuntimeError("mid-run")
            return original(*args)

        monkeypatch.setattr(owner, name, watching)
        return seen

    def trace_file(self, tmp_path, bad_line=None):
        lines = [record_line(seq) for seq in range(10)]
        if bad_line is not None:
            lines[bad_line - 1] = '{"at": 1}'
        path = tmp_path / "paused.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    def test_run(self, tmp_path, monkeypatch, collector):
        seen = self.watch(monkeypatch, fsm, "handle_bottle")
        assert run(two_node_scenario(tmp_path)).records("RouteFound")
        assert seen and not any(seen)
        assert gc.isenabled() is collector

    def test_run_that_raises(self, tmp_path, monkeypatch, collector):
        seen = self.watch(monkeypatch, fsm, "handle_bottle", fail=True)
        with pytest.raises(RuntimeError, match="mid-run"):
            run(two_node_scenario(tmp_path))
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_load_trace(self, tmp_path, monkeypatch, collector):
        path = self.trace_file(tmp_path)  # its lines are built from records too
        seen = self.watch(monkeypatch, codec, "TraceEvent")
        assert len(load_trace(path).events) == 10
        assert len(seen) == 10 and not any(seen)
        assert gc.isenabled() is collector

    def test_iter_trace_dropped_after_its_first_chunk(self, tmp_path, collector):
        stream = iter_trace(self.trace_file(tmp_path))
        assert next(stream).seq == 0
        assert gc.isenabled() is collector
        del stream
        assert gc.isenabled() is collector

    def test_load_trace_that_raises_in_the_third_chunk(self, tmp_path, collector):
        with pytest.raises(MalformedTrace, match="line 8: missing field 'seq'"):
            load_trace(self.trace_file(tmp_path, bad_line=8))
        assert gc.isenabled() is collector


def transient(step):
    """The bytes tracemalloc saw in use while step ran, beyond those still in
    use when it returned, and its result. For Trace.write, which returns
    nothing, what is still in use is interpreter free lists (of the tuples
    TraceEvent._fill builds per record), which grow with the records written
    up to a fixed cap and would otherwise blur a peak that does not."""
    gc.collect()
    tracemalloc.start()
    try:
        out = step()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - now, out


def test_trace_round_trip_memory_does_not_grow_with_the_trace(tmp_path, monkeypatch):
    """The memory load_trace and Trace.write use beyond what they leave
    behind stays about one chunk's worth: a trace four times as long costs
    under 1.5 times as much. Whole-file text would cost about 4 times."""
    chunk = 128
    monkeypatch.setattr(codec, "_CHUNK_LINES", chunk)
    doc = {"seed": 1, "topology": {"generator": {"kind": "generic", "nodes": 30, "seed": 0}},
           "random_requests": {"count": 60, "spacing": 10}}
    events = run(scenario_from_dict(doc)).events
    assert len(events) >= 16 * chunk
    loads, writes = {}, {}
    for chunks in (4, 16):
        trace = Trace(events=events[:chunks * chunk])
        path = tmp_path / f"{chunks}.jsonl"
        trace.write(str(path))  # warms the free lists outside the measurement
        writes[chunks], _ = transient(lambda: trace.write(str(path)))
        loads[chunks], loaded = transient(lambda: load_trace(str(path)))
        assert loaded.events == trace.events
    assert loads[16] < 1.5 * loads[4], loads
    assert writes[16] < 1.5 * writes[4], writes


def test_a_finished_run_holds_at_most_320_bytes_per_record():
    """What a run's trace holds in memory, over its records: each record is a
    slotted TraceEvent and the tuple of its values, with no data dict. A
    TraceEvent with a data dict per record held about 420 bytes a record here."""
    doc = {"seed": 5, "topology": {"generator": {"kind": "generic", "nodes": 50, "seed": 0}},
           "random_requests": {"count": 150, "spacing": 20}}
    sc = scenario_from_dict(doc)
    run(sc)  # warms caches and free lists outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        trace = run(sc)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.events) == 6552
    assert held / len(trace.events) <= 320, held / len(trace.events)
