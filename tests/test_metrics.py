import dataclasses
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from bottlenet.config import FaultSpec, RequestSpec, ScenarioConfig
from bottlenet import trace as codec
from bottlenet.engine import run
from bottlenet.trace import iter_trace, load_trace, record
from bottlenet.errors import MalformedRecord, UnknownNode
from bottlenet.metrics import (
    IncompleteTrace,
    episodes,
    format_summary,
    reconstruct_tables,
    summarize,
    table_optimality,
)
from bottlenet.network import load_topology, save_topology
from bottlenet.oracle import Distances, bfs_distance
from bottlenet.topogen import generate_topology
from conftest import fault_scenarios, make_topology, scenario_on_file


def run_on(tmp_path, t, seed, requests, **kwargs):
    topo_path = tmp_path / "topo.json"
    save_topology(t, str(topo_path))
    sc = ScenarioConfig(seed=seed, topology_file=str(topo_path),
                        requests=requests, **kwargs)
    return run(sc)


class TestTwoNodeSummary:
    def test_forced_one_hop_numbers(self, tmp_path):
        trace = run_on(tmp_path, make_topology((0, 1)), 7,
                       [RequestSpec(at=1, src=0, dest=1)])
        s = summarize(trace)
        assert s.discoveries_attempted == s.discoveries_succeeded == 1
        assert s.mean_stretch == 1.0
        assert s.total_bottle_bytes == 13 + 15
        assert s.bottles_sent == 2
        assert s.table_optimality == 1.0


class TestPartitionedSummary:
    def test_failed_discovery_uses_all_retries(self, tmp_path):
        t = make_topology((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
        trace = run_on(tmp_path, t, 9, [RequestSpec(at=1, src=0, dest=4)])
        s = summarize(trace)
        assert s.discoveries_attempted == 1
        assert s.discoveries_failed == 1
        assert s.discoveries_succeeded == 0
        (ep,) = episodes(trace)
        assert ep.bottles == 4  # initial bottle plus retry_limit retries
        assert s.retries == 3

    def test_isolated_source_counts_unlaunched_bottles(self, tmp_path):
        t = make_topology((1, 2), extra_nodes=(0,))
        trace = run_on(tmp_path, t, 9, [RequestSpec(at=1, src=0, dest=2)])
        (ep,) = episodes(trace)
        assert ep.outcome == "inaccessible"
        assert ep.bottles == 4
        assert summarize(trace).bottles_sent == 0


class TestByteAccounting:
    def test_trace_recount_equals_engine_counter(self, tmp_path):
        t = generate_topology("generic", 15, 0)
        for seed in range(5):
            trace = run_on(tmp_path, t, seed, [RequestSpec(at=1, src=0, dest=8)])
            s = summarize(trace)
            assert s.total_bottle_bytes == trace.meta["bottle_bytes_sent"]

    def test_bytes_match_history_lengths(self, tmp_path):
        traces = [
            run_on(tmp_path, generate_topology("generic", 15, 0), 3,
                   [RequestSpec(at=1, src=0, dest=8)]),
            # the found route's last link fails, so the packet sent at t=51
            # bounces at node 2, which sends route-failure bottles
            run_on(tmp_path, make_topology((0, 1), (1, 2), (2, 3)), 3,
                   [RequestSpec(at=1, src=0, dest=3), RequestSpec(at=51, src=0, dest=3)],
                   protocol={"beacon_period": 20}, horizon=400,
                   faults=[FaultSpec(at=50, op="fail_link", target=(2, 3))]),
        ]
        for trace in traces:
            sends = [ev.data for ev in trace.records("Sent") if ev.data.get("msg") == "bottle"]
            expected = sum(11 + 2 * data["history_len"] for data in sends)
            assert summarize(trace).total_bottle_bytes == expected
        assert any(data["failure"] for data in sends)  # the second run's


class TestEpisodes:
    def test_routes_found_are_admissible_simple_paths(self, tmp_path):
        t = generate_topology("generic", 15, 0)
        for seed in range(10):
            trace = run_on(tmp_path, t, seed, [RequestSpec(at=1, src=0, dest=8)])
            for ep in episodes(trace):
                if ep.outcome != "success":
                    continue
                path = ep.path
                assert len(set(path)) == len(path)
                assert all(t.link_live(a, b) for a, b in zip(path, path[1:]))
                assert ep.found_hops >= bfs_distance(t, ep.src, ep.dest)

    def test_stretch_never_below_one(self, tmp_path):
        t = generate_topology("generic", 15, 1)
        for seed in range(10):
            trace = run_on(tmp_path, t, seed, [RequestSpec(at=1, src=2, dest=9)])
            s = summarize(trace)
            if s.mean_stretch is not None:
                assert s.mean_stretch >= 1.0


@pytest.mark.parametrize("kind", ["RouteFound", "DiscoveryResolved", "Inaccessible"])
def test_close_with_nothing_open_is_malformed(kind):
    # every close record closes its source's open discovery; this one's
    # discovery was closed by the RouteFound before it
    data = {"src": 0, "dest": 1, "path": [0, 1]} if kind == "RouteFound" \
        else {"src": 0, "dest": 1}
    records = [record(1, 0, 0, "DiscoveryStarted", {"dest": 1, "attempt": 0}),
               record(3, 1, 0, "RouteFound", {"src": 0, "dest": 1, "path": [0, 1]}),
               record(5, 2, 0, kind, data)]
    with pytest.raises(MalformedRecord, match=rf"^record seq 2 \(kind '{kind}'\): "
                                              "src 0 has no discovery of dest 1 open"):
        episodes(records)


def final_tables(trace):
    return {nid: {d: (e.next_hop, e.hop_count) for d, e in node.rtab.items()}
            for nid, node in trace.nodes.items()}


class TestTables:
    def test_reconstruction_matches_final_state(self, tmp_path):
        t = generate_topology("generic", 15, 0)
        # node 14 and link 6-12 lie on the first route found
        faults = [FaultSpec(at=30, op="fail_node", target=(14,)),
                  FaultSpec(at=250, op="fail_link", target=(6, 12)),
                  FaultSpec(at=400, op="restore_node", target=(14,))]
        for scenario_faults in ([], faults):
            trace = run_on(tmp_path, t, 5, [RequestSpec(at=1, src=0, dest=8),
                                            RequestSpec(at=600, src=4, dest=11)],
                           faults=scenario_faults)
            rebuilt = reconstruct_tables(trace)
            for nid, live in final_tables(trace).items():
                assert rebuilt.get(nid, {}) == live

    def test_optimality_on_forced_path(self, tmp_path):
        trace = run_on(tmp_path, make_topology((0, 1), (1, 2)), 3,
                       [RequestSpec(at=1, src=0, dest=2)])
        tables = reconstruct_tables(trace)
        assert table_optimality(tables, Distances(trace.topology)) == 1.0

    def test_optimality_takes_a_snapshot_and_rejects_unknown_nodes(self):
        t = make_topology((0, 1), (1, 2))
        tables = {0: {1: (1, 1), 2: (1, 3)}}
        assert table_optimality(tables, Distances(t)) == 0.5
        for bad in ({0: {9: (1, 1)}}, {9: {0: (1, 1)}}):
            with pytest.raises(UnknownNode):
                table_optimality(bad, Distances(t))

    def test_cutoff_limits_view(self, tmp_path):
        trace = run_on(tmp_path, make_topology((0, 1)), 3,
                       [RequestSpec(at=1, src=0, dest=1)])
        first = next(ev for ev in trace.events if ev.kind == "TableUpdated")
        assert reconstruct_tables(ev for ev in trace.events if ev.seq < first.seq) == {}
        entry = (first.data["next_hop"], first.data["hops"])
        assert reconstruct_tables(trace.events[:first.seq + 1]) == {
            first.node: {first.data["dest"]: entry}}


def test_events_without_topology_rejected():
    with pytest.raises(IncompleteTrace):
        summarize([])


def test_format_summary_lists_every_field(tmp_path):
    t = make_topology((0, 1))
    save_topology(t, str(tmp_path / "t.json"))
    sc = ScenarioConfig(seed=7, topology_file=str(tmp_path / "t.json"),
                        requests=[RequestSpec(at=1, src=0, dest=1)])
    summary = summarize(run(sc))
    text = format_summary(summary)
    for field in ("discoveries_attempted", "mean_stretch", "total_bottle_bytes",
                  "table_optimality"):
        assert field in text
    # a metric with nothing to average prints as a dash
    text = format_summary(dataclasses.replace(summary, mean_stretch=None))
    assert re.search(r"^mean_stretch +-$", text, re.MULTILINE)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fault_scenarios())
def test_trace_alone_gives_the_live_summary_and_tables(case):
    # seven-line chunks, so that most traces span several
    with scenario_on_file(case) as (sc, topo_path), mock.patch.object(codec, "_CHUNK_LINES", 7):
        trace_path = topo_path.with_name("trace.jsonl")
        trace = run(sc)
        trace.write(str(trace_path))
        pristine = load_topology(str(topo_path))
        replayed = summarize(load_trace(str(trace_path)), pristine)
        streamed = summarize(iter_trace(str(trace_path)), pristine)
    live = summarize(trace)
    assert live == replayed == streamed
    assert not pristine.down_nodes and not pristine.down_edges
    tables = final_tables(trace)
    assert {nid: rows for nid, rows in reconstruct_tables(trace).items() if rows} \
        == {nid: rows for nid, rows in tables.items() if rows}
    # measured against the topology the faults left, as the run ended
    assert live.table_optimality == table_optimality(tables, Distances(trace.topology))
    for nid, rows in tables.items():
        assert {hop for hop, _ in rows.values()} <= trace.nodes[nid].nbors
    # a request timer due by the horizon has fired at every node that is up:
    # each open attempt, the last one its source started for the destination,
    # started less than a timeout before the horizon
    started = {(ev.node, ev.data["dest"]): ev.at for ev in trace.records("DiscoveryStarted")}
    for nid, node in trace.nodes.items():
        if nid not in trace.topology.down_nodes:
            assert all(started[nid, dest] + trace.cfg.timeout > trace.meta["horizon"]
                       for dest in node.pending), nid


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fault_scenarios())
def test_unresolved_episodes_are_the_requests_pending_at_the_horizon(case):
    """An episode is unresolved exactly when its source still holds the
    request at the horizon, and it succeeds exactly when a RouteFound
    closes it, live and replayed from the trace file."""
    with scenario_on_file(case) as (sc, topo_path):
        trace_path = topo_path.with_name("trace.jsonl")
        trace = run(sc)
        trace.write(str(trace_path))
        replayed = episodes(iter_trace(str(trace_path)))
    pending = sorted((nid, dest) for nid, node in trace.nodes.items() for dest in node.pending)
    found = sorted((ev.data["src"], ev.data["dest"], ev.at, ev.data["path"])
                   for ev in trace.records("RouteFound"))
    for eps in (episodes(trace), replayed):
        assert sorted((ep.src, ep.dest) for ep in eps if ep.outcome == "unresolved") == pending
        assert sorted((ep.src, ep.dest, ep.end_at, ep.path)
                      for ep in eps if ep.outcome == "success") == found
