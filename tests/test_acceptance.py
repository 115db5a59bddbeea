"""Acceptance suite: every shipping criterion, one pass/fail line each.

Statistical criteria run on canonical fixed instances (generator seed 0)
with deterministic seed schedules, so each criterion is a reproducible
computation, not a flaky sample.
"""

import random
import time
from pathlib import Path
from statistics import fmean, median

import pytest

from bottlenet import oracle
from bottlenet.config import (
    FaultSpec,
    RandomRequests,
    RequestSpec,
    ScenarioConfig,
    load_scenario,
)
from bottlenet.domain import NodePhase
from bottlenet.engine import run
from bottlenet.fsm import next_state
from bottlenet.metrics import episodes, reconstruct_tables, summarize, table_optimality
from bottlenet.network import Topology, save_topology
from bottlenet.topogen import generate_topology

DATA = Path(__file__).parent / "data"

SPARSE_RETRY_LIMIT = 149  # sequential random walks need a deep retry budget at n=100


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def connected_pair(t: Topology, tag: str, want_connected: bool) -> tuple[int, int]:
    pick = random.Random(tag)
    nodes = sorted(t.nodes)
    while True:
        src, dest = pick.sample(nodes, 2)
        if (oracle.Distances(t).between(src, dest) is not None) == want_connected:
            return src, dest


@pytest.fixture(scope="session")
def generic15(tmp_path_factory):
    t = generate_topology("generic", 15, 0)
    path = tmp_path_factory.mktemp("topo") / "generic15.json"
    save_topology(t, str(path))
    return t, str(path)


@pytest.fixture(scope="session")
def sparse100(tmp_path_factory):
    t = generate_topology("sparse-partitioned", 100, 0)
    path = tmp_path_factory.mktemp("topo") / "sparse100.json"
    save_topology(t, str(path))
    return t, str(path)


@pytest.fixture(scope="session")
def discovery_runs(generic15):
    """Criterion 2 experiment: 100 seeded single-request runs on generic/15."""
    t, topo_path = generic15
    t0 = time.perf_counter()
    traces = []
    for run_seed in range(100):
        src, dest = connected_pair(t, f"pair:{run_seed}", want_connected=True)
        sc = ScenarioConfig(seed=run_seed, topology_file=topo_path,
                            requests=[RequestSpec(at=1, src=src, dest=dest)])
        traces.append(run(sc))
    return t, traces, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sparse_runs(sparse100):
    """Criterion 3 experiment: connected and disconnected pairs on sparse/100."""
    t, topo_path = sparse100
    t0 = time.perf_counter()
    runs = {"connected": [], "disconnected": []}
    for label, want in (("connected", True), ("disconnected", False)):
        tag = "cpair" if want else "dpair"
        for run_seed in range(100):
            src, dest = connected_pair(t, f"{tag}:{run_seed}", want_connected=want)
            sc = ScenarioConfig(seed=run_seed, topology_file=topo_path,
                                protocol={"retry_limit": SPARSE_RETRY_LIMIT},
                                requests=[RequestSpec(at=1, src=src, dest=dest)])
            runs[label].append(run(sc))
    return t, runs, time.perf_counter() - t0


def test_criterion_1_fsm_conformance():
    """Exhaustive enumeration of the transition function.

    The three published condition groups determine seven (state, flags)
    inputs; every remaining input must follow the bottles-first
    totalization.
    """
    t0 = time.perf_counter()
    idle, rreq, bman = NodePhase.IDLE, NodePhase.ROUTE_REQ, NodePhase.BTL_MANAGE
    published = {
        (idle, False, True): rreq,
        (idle, True, True): idle,
        (idle, True, False): bman,
        (rreq, False, True): rreq,
        (bman, True, False): bman,
        (rreq, True, True): idle,
        (bman, True, True): idle,
    }
    mismatches = []
    for state in NodePhase:
        for pkt_empty in (True, False):
            for btl_empty in (True, False):
                got = next_state(state, pkt_empty, btl_empty)
                if (state, pkt_empty, btl_empty) in published:
                    want = published[(state, pkt_empty, btl_empty)]
                elif not btl_empty:
                    want = bman
                else:
                    want = rreq if not pkt_empty else idle
                if got is not want:
                    mismatches.append((state, pkt_empty, btl_empty, got, want))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    report(1, ok, f"12/12 transition cases conform ({elapsed:.3f}s)")
    assert not mismatches, mismatches
    assert elapsed < 1.0


def test_criterion_2_discovery_success(discovery_runs):
    t, traces, elapsed = discovery_runs
    cfg = traces[0].cfg
    assert cfg.hop_limit == 60 and cfg.retry_limit == 3  # stated defaults
    wins = 0
    bad_paths = []
    for trace in traces:
        found = trace.records("RouteFound")
        wins += bool(found)
        for ev in found:
            path = ev.data["path"]
            if (len(set(path)) != len(path)
                    or not all(t.link_live(a, b) for a, b in zip(path, path[1:]))):
                bad_paths.append(path)
    ok = wins >= 95 and not bad_paths and elapsed < 10.0
    report(2, ok, f"{wins}/100 discoveries succeeded, "
                  f"{len(bad_paths)} invalid paths ({elapsed:.1f}s)")
    assert wins >= 95
    assert not bad_paths, bad_paths
    assert elapsed < 10.0


def test_criterion_3_large_sparse_network(sparse_runs):
    t, runs, elapsed = sparse_runs
    wins = sum(bool(trace.records("RouteFound")) for trace in runs["connected"])

    exact = 0
    for trace in runs["disconnected"]:
        eps = episodes(trace)
        declared = trace.records("Inaccessible")
        if (len(eps) == 1 and eps[0].outcome == "inaccessible"
                and eps[0].bottles == SPARSE_RETRY_LIMIT + 1 and len(declared) == 1):
            exact += 1

    ok = wins >= 80 and exact == 100 and elapsed < 60.0
    report(3, ok, f"connected {wins}/100 found; disconnected {exact}/100 declared "
                  f"after exactly {SPARSE_RETRY_LIMIT + 1} bottles ({elapsed:.1f}s)")
    assert wins >= 80
    assert exact == 100
    assert elapsed < 60.0


def test_criterion_4_admissibility(discovery_runs, sparse_runs):
    """Static topologies: auditing every install covers every instant."""
    checked = violations = 0
    for t, traces in ((discovery_runs[0], discovery_runs[1]),
                      (sparse_runs[0], sparse_runs[1]["connected"]),
                      (sparse_runs[0], sparse_runs[1]["disconnected"])):
        truth = oracle.Distances(t)  # one snapshot per static topology
        for trace in traces:
            for ev in trace.records("TableUpdated"):
                checked += 1
                dist = truth.between(ev.node, ev.data["dest"])
                if dist is None or ev.data["hops"] < dist:
                    violations += 1
                if ev.data["next_hop"] not in t.live_neighbors(ev.node):
                    violations += 1
            for nid, node in trace.nodes.items():
                for dest, entry in node.rtab.items():
                    checked += 1
                    dist = truth.between(nid, dest)
                    if dist is None or entry.hop_count < dist:
                        violations += 1
                    if entry.next_hop not in node.nbors:
                        violations += 1
    ok = violations == 0 and checked > 0
    report(4, ok, f"{checked} table entries audited, {violations} violations")
    assert checked > 0
    assert violations == 0


def test_criterion_5_convergence(tmp_path):
    opt10s, opt50s, early, late = [], [], [], []
    for seed in range(20):
        t = generate_topology("generic", 15, seed)
        topo_path = tmp_path / f"conv{seed}.json"
        save_topology(t, str(topo_path))
        sc = ScenarioConfig(seed=seed, topology_file=str(topo_path),
                            random_requests=RandomRequests(count=50))
        trace = run(sc)
        spacing = trace.meta["spacing"]
        cutoff10 = 1 + 10 * spacing - 1
        opt10s.append(table_optimality(reconstruct_tables(trace, up_to=cutoff10), t))
        opt50s.append(table_optimality(reconstruct_tables(trace), t))
        for ep in episodes(trace):
            if ep.outcome != "success":
                continue
            request_index = (ep.start_at - 1) // spacing + 1
            dist = oracle.bfs_distance(t, ep.src, ep.dest)
            if not dist:
                continue
            stretch = ep.found_hops / dist
            if 1 <= request_index <= 10:
                early.append(stretch)
            elif 41 <= request_index <= 50:
                late.append(stretch)

    med10, med50 = median(opt10s), median(opt50s)
    mean_early, mean_late = fmean(early), fmean(late)
    ok = med50 >= med10 and mean_late <= mean_early
    report(5, ok, f"median optimality {med10:.3f} -> {med50:.3f}; "
                  f"discovery stretch requests 1-10 {mean_early:.3f} vs "
                  f"41-50 {mean_late:.3f} (n={len(early)}/{len(late)})")
    assert med50 >= med10
    assert mean_late <= mean_early


def test_criterion_6_overhead_accounting(tmp_path):
    def per_bottle_bytes(kind, n):
        values = []
        for seed in range(20):
            t = generate_topology(kind, n, seed)
            topo_path = tmp_path / f"ov-{kind}-{seed}.json"
            save_topology(t, str(topo_path))
            src, dest = connected_pair(t, f"ovpair:{kind}:{seed}", True)
            sc = ScenarioConfig(seed=seed, topology_file=str(topo_path),
                                protocol={"retry_limit": SPARSE_RETRY_LIMIT},
                                requests=[RequestSpec(at=1, src=src, dest=dest)])
            trace = run(sc)
            summary = summarize(trace)
            assert summary.total_bottle_bytes == trace.meta["bottle_bytes_sent"]
            if summary.bottles_sent:
                values.append(summary.total_bottle_bytes / summary.bottles_sent)
        return fmean(values)

    small = per_bottle_bytes("generic", 15)
    large = per_bottle_bytes("sparse-partitioned", 100)
    ok = large > small
    report(6, ok, f"byte recount exact on 40 runs; mean per-bottle bytes "
                  f"sparse/100 {large:.2f} > generic/15 {small:.2f}")
    assert large > small


def test_criterion_7_failure_handling(tmp_path):
    t = Topology(nodes=set(range(6)),
                 edges={(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)})
    topo_path = tmp_path / "bridge.json"
    save_topology(t, str(topo_path))
    sc = ScenarioConfig(seed=0, topology_file=str(topo_path),
                        protocol={"beacon_period": 50},
                        requests=[RequestSpec(at=1, src=0, dest=5),
                                  RequestSpec(at=102, src=0, dest=5)],
                        faults=[FaultSpec(at=102, op="fail_node", target=(2,))],
                        horizon=3000)
    trace = run(sc)

    found = [(ev.node, ev.data["path"]) for ev in trace.records("RouteFound")]
    assert found and found[0] == (0, [0, 1, 2, 5]), "route must install through the bridge"

    purged = all(entry.next_hop != 2
                 for nid, node in trace.nodes.items() if nid != 2
                 for entry in node.rtab.values())

    failure_sends = [ev for ev in trace.records("Sent") if ev.data.get("failure")]
    recorded_path_len = failure_sends[0].data["history_len"] if failure_sends else 0

    rediscovered = [path for node, path in found[1:]
                    if node == 0 and 2 not in path
                    and all(t.link_live(a, b) for a, b in zip(path, path[1:]))]

    ok = purged and len(failure_sends) == 1 and bool(rediscovered)
    report(7, ok, f"entries through dead node purged: {purged}; "
                  f"failure bottles: {len(failure_sends)} "
                  f"(<= path length {recorded_path_len}); "
                  f"rediscovered via {rediscovered[0] if rediscovered else None}")
    assert purged
    assert len(failure_sends) == 1
    assert len(failure_sends) <= recorded_path_len
    assert rediscovered


def test_criterion_8_determinism_golden():
    scenario_path = DATA / "two_node_scenario.json"
    golden_path = DATA / "golden_two_node.jsonl"
    first = run(load_scenario(str(scenario_path)))
    second = run(load_scenario(str(scenario_path)))
    same = first.to_jsonl() == second.to_jsonl()
    golden = golden_path.read_text()
    matches = first.to_jsonl() == golden
    ok = same and matches
    report(8, ok, f"repeat run byte-identical: {same}; matches committed "
                  f"golden trace ({len(first.events)} records): {matches}")
    assert same
    assert matches
