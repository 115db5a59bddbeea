"""Exhaustive checks on small graphs: every walk the protocol can take.

The only randomness in a run is fsm.choose_next_hop's pick among the
unvisited neighbours. Replacing it with a chooser that replays a script of
indices into the sorted candidates, and exploring every script depth first,
runs each scenario under every walk it allows. The scenarios are every
connected graph of 2-4 nodes (one per isomorphism class), one request at
t=1 per ordered pair with retry_limit 1, beacon periods 1 and 2, and either
no fault or one fail_link on each edge at each instant 0-4. At beacon
period 1 they also take one fail_node of each node at each instant 0-4,
followed by its restore_node NODE_DOWN instants later: with the timeout
at NODE_FAULT_TIMEOUT, a node failed at 0-2 is back by the source's first
deadline and one failed at 3-4 is down across it. Every run must keep these
invariants:

- every RouteFound path is a simple path over the topology's edges;
- every TableUpdated hop count is at least the fault-free BFS distance;
- the live summary equals the summary of the records read back from JSONL;
- without faults, the request ends in RouteFound or Inaccessible;
- each close record (RouteFound, DiscoveryResolved, Inaccessible) closes
  its source's open discovery, so the RouteFound records are the episodes
  that end in success, with faults too;
- no node that is up at the end keeps an open request, so a timer that
  fell due while its node was down has fired since;
- every discovery attempted is counted as succeeded or failed: none is
  left unresolved.
"""

from __future__ import annotations

import functools
import os
import sys
import tempfile
from typing import Collection

import networkx as nx
import pytest

from bottlenet import engine, fsm
from bottlenet.config import FaultSpec, RequestSpec, ScenarioConfig
from bottlenet.engine import run
from bottlenet.trace import Trace, iter_trace
from bottlenet.metrics import episodes, summarize
from bottlenet.network import Topology, load_topology, save_topology
from conftest import make_topology


def connected_graphs(sizes: Collection[int]) -> list[nx.Graph]:
    """Every connected graph with a node count in sizes, one per isomorphism
    class (the graph atlas holds those of up to 7 nodes)."""
    return [g for g in nx.graph_atlas_g() if g.number_of_nodes() in sizes and nx.is_connected(g)]


def graph_id(g: nx.Graph) -> str:
    return "-".join(f"{a}{b}" for a, b in g.edges)


GRAPHS = connected_graphs(range(2, 5))
FAULT_INSTANTS = range(5)
# the request's first deadline is at 1 + NODE_FAULT_TIMEOUT = 6; a restore
# at that instant runs before the timer, which was queued later
NODE_FAULT_TIMEOUT = 5
NODE_DOWN = NODE_FAULT_TIMEOUT - 1
# records check_every_walk holds before it checks their replay
REPLAY_BATCH = 200_000


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


def install_chooser(set_attr=setattr) -> ScriptedChooser:
    """Make a ScriptedChooser fsm.choose_next_hop, and have the engine parse
    each topology file once and copy it per run, so a file must not change
    once a run has read it; set_attr sets each."""
    chooser = ScriptedChooser()
    set_attr(fsm, "choose_next_hop", chooser)
    parsed = functools.cache(load_topology)

    def load_copy(path: str) -> Topology:
        t = parsed(path)
        return Topology(set(t.nodes), set(t.edges))

    set_attr(engine, "load_topology", load_copy)
    return chooser


@pytest.fixture
def chooser(monkeypatch):
    return install_chooser(monkeypatch.setattr)


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
    """(scenario, faulty) for every ordered pair under no fault, under one
    fail_link on each edge at each instant of FAULT_INSTANTS and, at beacon
    period 1, under one fail_node of each node at each such instant and its
    restore_node NODE_DOWN instants later."""
    protocol = {"retry_limit": 1, "beacon_period": beacon_period}
    cases = [(protocol, [])] + [(protocol, [FaultSpec(at=at, op="fail_link", target=edge)])
                                for edge in sorted(g.edges) for at in FAULT_INSTANTS]
    if beacon_period == 1:
        cases += [({**protocol, "timeout": NODE_FAULT_TIMEOUT},
                   [FaultSpec(at=at, op="fail_node", target=(node,)),
                    FaultSpec(at=at + NODE_DOWN, op="restore_node", target=(node,))])
                  for node in sorted(g) for at in FAULT_INSTANTS]
    for src in sorted(g):
        for dest in sorted(g):
            if src != dest:
                for case_protocol, faults in cases:
                    yield ScenarioConfig(seed=0, topology_file=topo_file, protocol=case_protocol,
                                         requests=[RequestSpec(at=1, src=src, dest=dest)],
                                         faults=faults), bool(faults)


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
    assert not [nid for nid, node in trace.nodes.items()
                if node.pending and nid not in trace.topology.down_nodes]


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


def check_every_walk(g: nx.Graph, beacon_period: int, chooser: ScriptedChooser,
                     directory: str) -> int:
    """Run each of g's scenarios under every walk and check every run;
    return the number of runs."""
    topology = make_topology(*g.edges, extra_nodes=tuple(g))
    topo_file = os.path.join(directory, f"topo-{graph_id(g)}.json")
    save_topology(topology, topo_file)
    edges = {frozenset(e) for e in g.edges}
    dist = dict(nx.all_pairs_shortest_path_length(g))
    runs, live, records = 0, [], []
    for scenario, faulty in scenarios(topo_file, g, beacon_period):
        for trace in every_walk(scenario, chooser):
            check_records(trace, scenario.requests[0], faulty, edges, dist)
            # summarize raises MalformedRecord on a close with nothing open
            summary = summarize(trace)
            assert len(trace.records("RouteFound")) == sum(ep.outcome == "success"
                                                           for ep in episodes(trace))
            assert summary.discoveries_attempted == (summary.discoveries_succeeded
                                                     + summary.discoveries_failed)
            live.append(summary)
            records += trace.events
        if len(records) >= REPLAY_BATCH:
            runs += check_replay(live, records, topology, directory)
            live, records = [], []
    return runs + check_replay(live, records, topology, directory)


def check_replay(live: list, records: list, topology: Topology, directory: str) -> int:
    """Write the records of len(live) runs as one JSONL file, read it back
    run by run, and check that each run's summary is its live one."""
    path = os.path.join(directory, "traces.jsonl")
    Trace(events=records).write(path)
    replayed = [summarize(run_records, topology) for run_records in runs_of(iter_trace(path))]
    assert len(replayed) == len(live)
    for i, (a, b) in enumerate(zip(live, replayed)):
        assert a == b, i
    return len(live)


@pytest.mark.parametrize("beacon_period", [1, 2])
@pytest.mark.parametrize("g", GRAPHS, ids=graph_id)
def test_every_walk_keeps_the_invariants(g, beacon_period, chooser, tmp_path):
    n = g.number_of_nodes()
    assert check_every_walk(g, beacon_period, chooser, str(tmp_path)) >= 2 * n * (n - 1)


def test_two_requests_on_a_path_each_resolve(chooser, tmp_path):
    """On the path 1-0-2, requests 0->1 and 1->0 at t=1: under some walks
    0 learns its route from 1's bottle while its timer runs, and the
    DiscoveryResolved its timer states closes 0->1."""
    topo_file = str(tmp_path / "path.json")
    save_topology(make_topology((1, 0), (0, 2)), topo_file)
    scenario = ScenarioConfig(seed=0, topology_file=topo_file,
                              requests=[RequestSpec(at=1, src=0, dest=1),
                                        RequestSpec(at=1, src=1, dest=0)])
    passive = 0
    for trace in every_walk(scenario, chooser):
        eps = episodes(trace)
        assert [(ep.src, ep.dest) for ep in eps if ep.outcome == "unresolved"] == []
        passive += any(ep.outcome == "passive" for ep in eps)
    assert passive


if __name__ == "__main__":
    # python tests/test_exhaustive.py N [N ...]: the same checks on every
    # connected graph of N nodes, at each beacon period the tests use
    chooser = install_chooser()
    with tempfile.TemporaryDirectory() as tmp:
        for g in connected_graphs({int(arg) for arg in sys.argv[1:]}):
            for period in (1, 2):
                print(f"{sorted(g.edges)} beacon period {period}: "
                      f"{check_every_walk(g, period, chooser, tmp)} runs", flush=True)
