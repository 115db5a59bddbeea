from collections import Counter

import pytest

from bottlenet.config import (
    FaultSpec,
    ProtocolConfig,
    RequestSpec,
    ScenarioConfig,
)
from bottlenet.engine import Engine, EventKind, load_trace, run
from bottlenet.errors import ConfigError
from bottlenet.network import save_topology
from bottlenet.topogen import generate_topology
from conftest import make_topology


def two_node_scenario(tmp_path, seed=7):
    t = make_topology((0, 1))
    topo_path = tmp_path / "two.json"
    save_topology(t, str(topo_path))
    return ScenarioConfig(seed=seed, topology_file=str(topo_path),
                          requests=[RequestSpec(at=1, src=0, dest=1, payload_len=64)])


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
            eng.schedule(3, EventKind.APP_REQUEST, (0, 1, 0))

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
        assert run(sc).to_jsonl() == run(sc).to_jsonl()

    def test_seed_changes_the_walk(self, tmp_path):
        _, sc_a = generic_scenario(tmp_path, 1, [RequestSpec(at=1, src=0, dest=8)])
        _, sc_b = generic_scenario(tmp_path, 2, [RequestSpec(at=1, src=0, dest=8)])
        assert run(sc_a).to_jsonl() != run(sc_b).to_jsonl()

    def test_trace_file_round_trip(self, tmp_path):
        trace = run(two_node_scenario(tmp_path))
        out = tmp_path / "trace.jsonl"
        trace.write(str(out))
        assert load_trace(str(out)).events == trace.events

    def test_unknown_request_node_rejected(self, tmp_path):
        t = make_topology((0, 1))
        topo_path = tmp_path / "two.json"
        save_topology(t, str(topo_path))
        sc = ScenarioConfig(seed=1, topology_file=str(topo_path),
                            requests=[RequestSpec(at=1, src=0, dest=9)])
        with pytest.raises(ConfigError, match="dest"):
            run(sc)

    @pytest.mark.parametrize("fault", [
        FaultSpec(at=5, op="fail_node", node=9),
        FaultSpec(at=500, op="restore_node", node=9),
        FaultSpec(at=5, op="fail_link", link=(0, 2)),
        FaultSpec(at=500, op="restore_link", link=(1, 9)),
    ])
    def test_unknown_fault_target_rejected_before_running(self, tmp_path, fault):
        t = make_topology((0, 1), (1, 2))
        topo_path = tmp_path / "p3.json"
        save_topology(t, str(topo_path))
        sc = ScenarioConfig(seed=1, topology_file=str(topo_path), horizon=100,
                            faults=[FaultSpec(at=1, op="fail_link", link=(1, 0)), fault])
        with pytest.raises(ConfigError, match=r"faults\[1\]"):
            run(sc)


def terminal_marks(trace):
    """Per bottle id: eliminations plus found-route returns to the source."""
    marks = Counter()
    for ev in trace.events:
        if ev.kind == "Eliminated":
            marks[ev.data["btl_id"]] += 1
        elif (ev.kind == "Received" and ev.data.get("msg") == "bottle"
              and ev.data["rf"] and ev.node == ev.data["src"]):
            marks[ev.data["btl_id"]] += 1
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
            sent = [ev.data["xfer"] for ev in trace.records("Sent")]
            landed = [ev.data["xfer"] for ev in trace.events
                      if ev.kind in ("Received", "DeliveryFailed")
                      and ev.data.get("xfer") is not None]
            assert sorted(sent) == sorted(landed)
            assert len(set(sent)) == len(sent)

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
                receivers = [ev.node for ev in trace.records("Received")
                             if ev.data.get("msg") == "bottle"
                             and ev.data["btl_id"] == btl_id and ev.data["rf"]]
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
                            faults=[FaultSpec(at=2, op="fail_node", node=1)],
                            horizon=2000)
        trace = run(sc)
        assert trace.records("RouteFound") == []
        assert trace.records("DeliveryFailed")
        (inaccessible,) = trace.records("Inaccessible")
        assert inaccessible.data == {"src": 0, "dest": 1}

    def test_restored_link_allows_rediscovery(self, tmp_path):
        t = make_topology((0, 1))
        topo_path = tmp_path / "two.json"
        save_topology(t, str(topo_path))
        sc = ScenarioConfig(seed=1, topology_file=str(topo_path),
                            protocol={"beacon_period": 5},
                            requests=[RequestSpec(at=50, src=0, dest=1)],
                            faults=[FaultSpec(at=1, op="fail_link", link=(0, 1)),
                                    FaultSpec(at=60, op="restore_link", link=(0, 1))],
                            horizon=2000)
        trace = run(sc)
        assert trace.records("RouteFound")
