"""The adjacency index behind Topology.live_neighbors and Topology.link_live,
against a full edge scan."""

import pytest
from hypothesis import given, strategies as st

from bottlenet.dotexport import export_dot
from bottlenet.errors import ConfigError
from bottlenet.network import (
    Topology, edge_key, load_topology, save_topology, topology_from_dict)
from bottlenet.oracle import Distances


def scan_link_live(t: Topology, a: int, b: int) -> bool:
    """Reference: a-b is an edge, neither it nor either end is down."""
    key = (a, b) if a < b else (b, a)
    return (key in t.edges and key not in t.down_edges
            and a not in t.down_nodes and b not in t.down_nodes)


def scan_live_neighbors(t: Topology, n: int) -> set[int]:
    """Reference: every live edge at n, found by scanning all edges."""
    return {b if a == n else a for a, b in t.edges
            if n in (a, b) and scan_link_live(t, a, b)}


node_ids = st.integers(0, 11)
fault_ops = st.lists(st.tuples(
    st.sampled_from(["add_edge", "fail_node", "restore_node", "fail_link", "restore_link"]),
    node_ids, node_ids), max_size=30)


@given(st.sets(st.tuples(node_ids, node_ids).filter(lambda p: p[0] != p[1]), max_size=30),
       st.sets(node_ids, max_size=4), fault_ops,
       st.sampled_from(["constructor", "add_edge", "topology_from_dict"]))
def test_live_neighbors_match_edge_scan(pairs, isolated, ops, build):
    edges = {edge_key(a, b) for a, b in pairs}
    nodes = isolated | {n for e in edges for n in e}
    if build == "constructor":
        t = Topology(nodes=set(nodes), edges=set(edges))
    elif build == "add_edge":
        t = Topology(nodes=set(isolated))
        for a, b in pairs:
            t.add_edge(a, b)
    else:
        t = topology_from_dict({"nodes": sorted(nodes), "edges": sorted(edges)})
    for op, a, b in ops:
        if op == "add_edge":
            if a != b:
                t.add_edge(a, b)
        elif op.endswith("_node"):
            if a in t.nodes:
                t.apply_fault(op, (a,))
        elif edge_key(a, b) in t.edges:
            t.apply_fault(op, (a, b))
        for n in t.nodes:
            t.live_neighbors(n).clear()  # callers may mutate what they get
            assert t.live_neighbors(n) == scan_live_neighbors(t, n)
        # ids 0-11 are drawn; 12 and -1 are never in the topology
        for a in range(-1, 13):
            for b in range(-1, 13):
                assert t.link_live(a, b) == scan_link_live(t, a, b)


def test_link_live_reads_faults_and_unknown_ids():
    t = Topology(nodes={0, 1, 2, 3, 9}, edges={(0, 1), (1, 2), (2, 3)})
    assert t.link_live(0, 1) and t.link_live(1, 0)
    assert not t.link_live(0, 2) and not t.link_live(0, 9)
    assert not t.link_live(0, 77) and not t.link_live(77, 0)  # no KeyError
    t.apply_fault("fail_link", (1, 0))
    assert not t.link_live(0, 1) and not t.link_live(1, 0)
    assert t.link_live(1, 2)
    t.apply_fault("fail_node", (3,))
    assert not t.link_live(2, 3) and not t.link_live(3, 2)
    t.apply_fault("restore_link", (0, 1))
    t.apply_fault("restore_node", (3,))
    assert all(t.link_live(a, b) and t.link_live(b, a) for a, b in t.edges)


def test_constructor_adds_missing_endpoints_as_add_edge_does():
    t = Topology(nodes={0}, edges={(0, 1)})
    assert t.nodes == {0, 1}
    assert t.live_neighbors(1) == {0}
    assert Distances(t).between(0, 1) == 1  # was a raw KeyError: 1


def test_constructor_rejects_a_self_loop():
    with pytest.raises(ConfigError, match="self-loop at node 0"):
        Topology(nodes={0}, edges={(0, 0)})


def test_constructor_stores_an_edge_as_its_key():
    t = Topology({3, 5}, {(5, 3)})
    assert t.edges == {(3, 5)}
    assert "3 -- 5 [color=red, penwidth=2]" in export_dot(t, [3, 5])
    assert t.apply_fault("fail_link", (3, 5)) == (3, 5)
    assert not t.link_live(5, 3)


def test_constructor_keeps_one_edge_for_both_directions(tmp_path):
    t = Topology({1, 2}, {(1, 2), (2, 1)})
    assert t.edges == {(1, 2)}
    path = str(tmp_path / "t.json")
    save_topology(t, path)
    assert load_topology(path) == t


def test_copy_without_faults_has_the_index_and_nothing_down_and_shares_no_set():
    t = Topology(nodes={0, 1, 2, 3}, edges={(0, 1), (1, 2)})
    t.apply_fault("fail_node", (1,))
    t.apply_fault("fail_link", (0, 1))
    copy = t.copy_without_faults()
    assert (copy.nodes, copy.edges) == (t.nodes, t.edges)
    assert copy.down_nodes == copy.down_edges == set()
    assert [copy.live_neighbors(n) for n in range(4)] == [{1}, {0, 2}, {1}, set()]
    copy.apply_fault("fail_link", (1, 2))
    copy.add_edge(2, 3)
    copy.add_edge(4, 0)
    assert (t.nodes, t.edges) == ({0, 1, 2, 3}, {(0, 1), (1, 2)})
    assert (t.down_nodes, t.down_edges) == ({1}, {(0, 1)})
    assert not t.link_live(2, 3) and t.live_neighbors(0) == set()
