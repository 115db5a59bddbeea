"""The adjacency index behind Topology.live_neighbors, against a full edge scan."""

from hypothesis import given, strategies as st

from bottlenet import network
from bottlenet.network import Topology, edge_key, topology_from_dict


def scan_live_neighbors(t: Topology, n: int) -> set[int]:
    """Reference: every live edge at n, found by scanning all edges."""
    return {b if a == n else a for a, b in t.edges if n in (a, b) and t.link_live(a, b)}


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
                getattr(network, op)(t, a)
        elif edge_key(a, b) in t.edges:
            getattr(network, op)(t, a, b)
        for n in t.nodes:
            t.live_neighbors(n).clear()  # callers may mutate what they get
            assert t.live_neighbors(n) == scan_live_neighbors(t, n)
