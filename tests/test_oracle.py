import itertools

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from bottlenet.errors import MalformedRecord, UnknownNode
from bottlenet.metrics import table_optimality
from bottlenet.network import Topology
from bottlenet.oracle import Distances, bfs_distance, components
from bottlenet.topogen import generate_topology
from conftest import make_topology


def brute_force_distances(t: Topology) -> dict[tuple[int, int], float]:
    """Floyd-Warshall over live links; independent of the BFS under test."""
    nodes = sorted(t.nodes)
    dist = {(a, b): (0 if a == b else float("inf"))
            for a in nodes for b in nodes}
    for a, b in t.edges:
        if t.link_live(a, b):
            dist[(a, b)] = dist[(b, a)] = 1
    for k in nodes:
        for i in nodes:
            for j in nodes:
                via = dist[(i, k)] + dist[(k, j)]
                if via < dist[(i, j)]:
                    dist[(i, j)] = via
    return dist


class TestBfsDistance:
    def test_zero_to_self(self, path3):
        assert bfs_distance(path3, 1, 1) == 0

    def test_path_length(self):
        t = make_topology((0, 1), (1, 2), (2, 3))
        assert bfs_distance(t, 0, 3) == 3

    def test_disjoint_triangles_unreachable(self):
        t = make_topology((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
        assert bfs_distance(t, 0, 4) is None

    def test_unknown_node(self, path3):
        with pytest.raises(UnknownNode):
            bfs_distance(path3, 0, 9)


class TestConnected:
    def test_same_component(self, path3):
        assert Distances(path3).between(0, 2) is not None

    def test_across_partition(self):
        t = make_topology((0, 1), (2, 3))
        assert Distances(t).between(0, 3) is None

    def test_cut_bridge_disconnects(self):
        t = make_topology((0, 1), (1, 2), (2, 3), (2, 4))
        assert Distances(t).between(0, 3) is not None
        t.apply_fault("fail_node", (2,))
        assert Distances(t).between(0, 3) is None
        assert Distances(t).between(0, 1) is not None


class TestComponents:
    def test_single_component(self, path3):
        assert components(path3) == [{0, 1, 2}]

    def test_two_components_largest_first(self):
        t = make_topology((0, 1), (1, 2), (3, 4))
        assert components(t) == [{0, 1, 2}, {3, 4}]

    def test_component_of(self):
        t = make_topology((0, 1), (3, 4))
        truth = Distances(t)
        assert {n for n in t.nodes if truth.between(3, n) is not None} == {3, 4}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partitioned_graph_largest_first_ties_by_smallest_node(self, seed):
        t = generate_topology("sparse-partitioned", 100, seed)
        got = components(t)
        g = nx.Graph()
        g.add_nodes_from(t.nodes)
        g.add_edges_from(t.edges)
        assert got == sorted(nx.connected_components(g), key=lambda c: (-len(c), min(c)))
        sizes = [len(c) for c in got]
        assert len(set(sizes)) < len(sizes)  # equal sizes occur, so ties are exercised


class TestDistancesSnapshot:
    def test_unknown_nodes(self, path3):
        truth = Distances(path3)
        with pytest.raises(UnknownNode):
            truth.between(0, 9)
        with pytest.raises(UnknownNode):
            truth.between(9, 0)
        with pytest.raises(UnknownNode):
            truth.between(9, 9)

    def test_later_faults_are_not_seen(self, path3):
        truth = Distances(path3)
        path3.apply_fault("fail_node", (1,))
        assert truth.between(0, 2) == 2
        assert Distances(path3).between(0, 2) is None


graph_strategy = st.sets(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda p: p[0] != p[1]),
    max_size=25)


@given(graph_strategy)
def test_bfs_agrees_with_floyd_warshall(pairs):
    t = Topology()
    for a, b in pairs:
        t.add_edge(a, b)
    truth = brute_force_distances(t)
    for a, b in itertools.product(sorted(t.nodes), repeat=2):
        expected = truth[(a, b)]
        got = bfs_distance(t, a, b)
        if expected == float("inf"):
            assert got is None
        else:
            assert got == expected


@given(graph_strategy)
def test_distance_symmetry_and_triangle_inequality(pairs):
    t = Topology()
    for a, b in pairs:
        t.add_edge(a, b)
    nodes = sorted(t.nodes)
    for a, b in itertools.combinations(nodes, 2):
        assert bfs_distance(t, a, b) == bfs_distance(t, b, a)
    for a, b, c in itertools.combinations(nodes, 3):
        ab, bc, ac = (bfs_distance(t, a, b), bfs_distance(t, b, c),
                      bfs_distance(t, a, c))
        if ab is not None and bc is not None:
            assert ac is not None and ac <= ab + bc


def faulted(pairs, down, data) -> Topology:
    """The graph of pairs with the nodes in down, and up to four drawn links, failed."""
    t = Topology()
    for a, b in pairs:
        t.add_edge(a, b)
    for n in down & t.nodes:
        t.apply_fault("fail_node", (n,))
    for a, b in data.draw(st.sets(st.sampled_from(sorted(t.edges)), max_size=4)
                          if t.edges else st.just(set())):
        t.apply_fault("fail_link", (a, b))
    return t


@given(graph_strategy, st.sets(st.integers(0, 9), max_size=3), st.data())
def test_oracle_agrees_with_networkx(pairs, down, data):
    """networkx on the live subgraph is a second oracle, independent of ours."""
    t = faulted(pairs, down, data)
    g = nx.Graph()
    g.add_nodes_from(n for n in t.nodes if n not in t.down_nodes)
    g.add_edges_from(e for e in t.edges if t.link_live(*e))
    truth = Distances(t)
    for a in t.nodes:
        want = nx.single_source_shortest_path_length(g, a) if a in g else {a: 0}
        for b in t.nodes:
            assert truth.between(a, b) == want.get(b)
            assert bfs_distance(t, a, b) == want.get(b)
    got = components(t)
    assert sorted(map(sorted, got)) == sorted(map(sorted, nx.connected_components(g)))
    assert [len(c) for c in got] == sorted((len(c) for c in got), reverse=True)


@given(graph_strategy, st.sets(st.integers(0, 9), max_size=3), st.data())
def test_table_optimality_and_between_agree_with_floyd_warshall(pairs, down, data):
    """Tables over a faulted graph hold unreachable dests and hop counts past
    the source's eccentricity (up to 11 on at most 10 nodes), and at times one
    hop count that is no hop count at all, which must raise."""
    t = faulted(pairs, down, data)
    if not t.nodes:
        return
    nodes = sorted(t.nodes)
    truth, snapshot = brute_force_distances(t), Distances(t)
    for a, b in itertools.product(nodes, repeat=2):
        want = truth[a, b]
        assert snapshot.between(a, b) == (None if want == float("inf") else want)
    entry = st.tuples(st.sampled_from(nodes), st.integers(1, 11))
    tables = data.draw(st.dictionaries(
        st.sampled_from(nodes), st.dictionaries(st.sampled_from(nodes), entry, max_size=6),
        max_size=6))
    filled = sorted(node for node, entries in tables.items() if entries)
    bad = data.draw(st.none() | st.sampled_from([0, -1, -11, True, False, 1.0]))
    if bad is not None and filled:
        node = data.draw(st.sampled_from(filled))
        dest = data.draw(st.sampled_from(sorted(tables[node])))
        tables[node][dest] = (tables[node][dest][0], bad)
        with pytest.raises(MalformedRecord, match=f"hops {bad!r} is not a hop count"):
            table_optimality(tables, t)
        return
    rows = [(node, dest, hops) for node, entries in tables.items()
            for dest, (_, hops) in entries.items()]
    want = (sum(hops == truth[node, dest] for node, dest, hops in rows) / len(rows)
            if rows else None)
    assert table_optimality(tables, t) == table_optimality(tables, snapshot) == want
