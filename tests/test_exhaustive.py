"""Exhaustive checks on small graphs: every walk the protocol can take.

The only randomness in a run is fsm.choose_next_hop's pick among the
unvisited neighbours. Replacing it with a chooser that replays a script of
indices into the sorted candidates, and exploring every script depth first,
runs each scenario under every walk it allows. The scenarios are every
connected graph of 2-4 nodes (one per isomorphism class), one request per
ordered pair with retry_limit 1, beacon periods 1 and 2, and either no
fault or one fail_link on each edge at each instant 0-4. Every run must
keep these invariants:

- every RouteFound path is a simple path over the topology's edges;
- every TableUpdated hop count is at least the fault-free BFS distance;
- the live summary equals the summary of the records read back from JSONL;
- without faults, the request ends in RouteFound or Inaccessible.
"""

from __future__ import annotations

import networkx as nx
import pytest

from bottlenet import fsm
from bottlenet.config import FaultSpec, RequestSpec, ScenarioConfig
from bottlenet.engine import Trace, iter_trace, run
from bottlenet.metrics import episodes, summarize
from bottlenet.network import save_topology
from conftest import make_topology

GRAPHS = [g for g in nx.graph_atlas_g()
          if 2 <= g.number_of_nodes() <= 4 and nx.is_connected(g)]
FAULT_INSTANTS = range(5)


class ScriptedChooser:
    """fsm.choose_next_hop's stand-in: the script's i-th entry picks the
    i-th choice among the sorted candidates, 0 once the script runs out.
    made and fanout hold each choice taken and how many it had."""

    def __init__(self) -> None:
        self.start([])

    def start(self, script: list[int]) -> None:
        self.script, self.made, self.fanout = script, [], []

    def __call__(self, nbors, history, rng):
        candidates = sorted(nbors.difference(history))
        if not candidates:
            return None
        k = len(self.made)
        i = self.script[k] if k < len(self.script) else 0
        self.made.append(i)
        self.fanout.append(len(candidates))
        return candidates[i]


@pytest.fixture
def chooser(monkeypatch):
    chooser = ScriptedChooser()
    monkeypatch.setattr(fsm, "choose_next_hop", chooser)
    return chooser


def every_walk(scenario: ScenarioConfig, chooser: ScriptedChooser):
    """The trace of scenario under each script of choices, depth first."""
    stack: list[list[int]] = [[]]
    while stack:
        chooser.start(stack.pop())
        yield run(scenario)
        made, fanout = chooser.made, chooser.fanout
        for k in range(len(chooser.script), len(made)):
            stack.extend(made[:k] + [alt] for alt in range(1, fanout[k]))


def scenarios(topo_file: str, g: nx.Graph, beacon_period: int):
    """(scenario, faulty) for every ordered pair under no fault and under
    one fail_link on each edge at each instant of FAULT_INSTANTS."""
    protocol = {"retry_limit": 1, "beacon_period": beacon_period}
    faults = [[]] + [[FaultSpec(at=at, op="fail_link", target=edge)]
                     for edge in sorted(g.edges) for at in FAULT_INSTANTS]
    for src in sorted(g):
        for dest in sorted(g):
            if src != dest:
                for fault in faults:
                    yield ScenarioConfig(seed=0, topology_file=topo_file, protocol=protocol,
                                         requests=[RequestSpec(at=1, src=src, dest=dest)],
                                         faults=fault), bool(fault)


def check_records(trace, request, faulty, edges, dist) -> None:
    for ev in trace.events:
        data = ev.data
        if ev.kind == "RouteFound":
            route = data["path"]
            assert len(set(route)) == len(route), route
            assert all(frozenset(hop) in edges for hop in zip(route, route[1:])), route
        elif ev.kind == "TableUpdated":
            assert data["hops"] >= dist[ev.node][data["dest"]], ev
    if not faulty:
        assert [(ev.data["src"], ev.data["dest"]) for ev in trace.events
                if ev.kind in ("RouteFound", "Inaccessible")] == [(request.src, request.dest)]


def runs_of(records):
    """Consecutive traces in one stream of records, split where seq restarts."""
    run_records: list = []
    for ev in records:
        if ev.seq == 0 and run_records:
            yield run_records
            run_records = []
        run_records.append(ev)
    if run_records:
        yield run_records


@pytest.mark.parametrize("beacon_period", [1, 2])
@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: "-".join(f"{a}{b}" for a, b in g.edges))
def test_every_walk_keeps_the_invariants(g, beacon_period, chooser, tmp_path):
    topology = make_topology(*g.edges, extra_nodes=tuple(g))
    topo_file = str(tmp_path / "topo.json")
    save_topology(topology, topo_file)
    edges = {frozenset(e) for e in g.edges}
    dist = dict(nx.all_pairs_shortest_path_length(g))
    live, records = [], []
    for scenario, faulty in scenarios(topo_file, g, beacon_period):
        for trace in every_walk(scenario, chooser):
            check_records(trace, scenario.requests[0], faulty, edges, dist)
            live.append(summarize(trace))
            records += trace.events
    assert len(live) >= 2 * g.number_of_nodes() * (g.number_of_nodes() - 1)
    # every run's records, written as one JSONL file and read back run by run
    path = str(tmp_path / "traces.jsonl")
    Trace(events=records).write(path)
    replayed = [summarize(run_records, topology) for run_records in runs_of(iter_trace(path))]
    assert len(replayed) == len(live)
    for i, (a, b) in enumerate(zip(live, replayed)):
        assert a == b, i


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a request resolved by a route "
                   "learned passively leaves its episode unresolved, with no record")
def test_two_requests_on_a_path_each_resolve(chooser, tmp_path):
    """The smallest witness: on the path 1-0-2, requests 0->1 and 1->0 at
    t=1 leave 0->1 unresolved under some walks."""
    topo_file = str(tmp_path / "path.json")
    save_topology(make_topology((1, 0), (0, 2)), topo_file)
    scenario = ScenarioConfig(seed=0, topology_file=topo_file,
                              requests=[RequestSpec(at=1, src=0, dest=1),
                                        RequestSpec(at=1, src=1, dest=0)])
    for trace in every_walk(scenario, chooser):
        assert [(ep.src, ep.dest) for ep in episodes(trace) if ep.outcome == "unresolved"] == []
