import json

import pytest
from hypothesis import given, strategies as st

from bottlenet.domain import RouteEntry
from bottlenet.errors import ConfigError, PreconditionViolation, UnknownEdge, UnknownNode
from bottlenet.network import (
    Topology,
    fault_error,
    hello_tick,
    load_topology,
    save_topology,
    topology_from_dict,
)
from conftest import make_node, make_topology


class TestNeighbors:
    def test_path_middle(self, path3):
        assert path3.live_neighbors(1) == {0, 2}

    def test_down_node_invisible(self, path3):
        path3.apply_fault("fail_node", (2,))
        assert path3.live_neighbors(1) == {0}

    def test_complete_graph(self):
        k5 = make_topology(*[(a, b) for a in range(5) for b in range(a + 1, 5)])
        for n in range(5):
            assert k5.live_neighbors(n) == set(range(5)) - {n}

    def test_unknown_node(self, path3):
        with pytest.raises(UnknownNode):
            path3.live_neighbors(99)

    def test_down_node_sees_nothing(self, path3):
        path3.apply_fault("fail_node", (1,))
        assert path3.live_neighbors(1) == set()


class TestHelloTick:
    def test_unchanged_neighborhood_is_fixed_point(self, path3):
        node = make_node(1, {0, 2}, rtab={2: RouteEntry(2, 1)})
        hello_tick(path3, node)
        assert node.nbors == {0, 2}
        assert node.rtab == {2: RouteEntry(2, 1)}

    def test_vanished_neighbor_is_returned_and_routes_kept(self):
        # what a lost neighbor means for the table is fsm.purge_routes' call
        t = make_topology((1, 4), (1, 6))
        rtab = {9: RouteEntry(4, 5), 2: RouteEntry(6, 1)}
        node = make_node(1, {4, 6}, rtab=dict(rtab))
        t.apply_fault("fail_node", (4,))
        assert hello_tick(t, node) == {4}
        assert node.nbors == {6}
        assert node.rtab == rtab

    def test_new_neighbor_installs_no_routes(self):
        t = make_topology((1, 4), (1, 11))
        node = make_node(1, {4}, rtab={4: RouteEntry(4, 1)})
        hello_tick(t, node)
        assert node.nbors == {4, 11}
        assert node.rtab == {4: RouteEntry(4, 1)}


class TestFaults:
    def test_fail_restore_node_round_trip(self, path3):
        before = path3.live_neighbors(1)
        path3.apply_fault("fail_node", (2,))
        path3.apply_fault("restore_node", (2,))
        assert path3.live_neighbors(1) == before
        assert not path3.down_nodes

    def test_fail_restore_link_round_trip(self, path3):
        before = path3.live_neighbors(0)
        path3.apply_fault("fail_link", (0, 1))
        path3.apply_fault("restore_link", (0, 1))
        assert path3.live_neighbors(0) == before

    def test_fail_link_is_directionless(self, path3):
        path3.apply_fault("fail_link", (1, 0))
        assert path3.live_neighbors(0) == set()
        assert path3.live_neighbors(1) == {2}

    def test_failed_node_kills_all_incident_links(self):
        star = make_topology((0, 1), (0, 2), (0, 3))
        star.apply_fault("fail_node", (0,))
        for n in (1, 2, 3):
            assert star.live_neighbors(n) == set()

    def test_unknown_targets(self, path3):
        with pytest.raises(UnknownNode):
            path3.apply_fault("fail_node", (42,))
        with pytest.raises(UnknownEdge):
            path3.apply_fault("fail_link", (0, 2))

    def test_returns_the_nodes_whose_live_neighbors_may_change(self):
        star = make_topology((0, 1), (0, 2), (0, 3))
        assert sorted(star.apply_fault("fail_node", (0,))) == [0, 1, 2, 3]
        assert star.apply_fault("fail_link", (2, 0)) == (2, 0)
        assert sorted(star.apply_fault("restore_node", (1,))) == [0, 1]

    @pytest.mark.parametrize("op, target, error", [
        ("explode", (1,), "unknown op 'explode'"),
        ("fail_link", (1,), "op 'fail_link' needs a target of 2"),
        ("fail_node", (0, 1), "op 'fail_node' needs a target of 1"),
        ("fail_node", (True,), "op 'fail_node' needs a target of 1"),
    ])
    def test_bad_op_or_target_changes_nothing(self, path3, op, target, error):
        assert fault_error(op, target).startswith(error)
        with pytest.raises(PreconditionViolation, match=error):
            path3.apply_fault(op, target)
        assert not path3.down_nodes and not path3.down_edges

    @pytest.mark.parametrize("down", [{"down_nodes": {0}}, {"down_edges": {(0, 1)}}],
                             ids=["node", "edge"])
    def test_only_apply_fault_marks_a_node_or_link_down(self, down):
        # the constructor would skip apply_fault's target checks
        with pytest.raises(TypeError, match=next(iter(down))):
            Topology(nodes={0, 1}, edges={(0, 1)}, **down)


@given(st.sets(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40))
def test_neighbor_symmetry(pairs):
    t = Topology()
    for a, b in pairs:
        if a != b:
            t.add_edge(a, b)
    for n in t.nodes:
        for m in t.live_neighbors(n):
            assert n in t.live_neighbors(m)


class TestTopologyFile:
    def test_round_trip(self, tmp_path, path3):
        path = tmp_path / "topo.json"
        save_topology(path3, str(path))
        loaded = load_topology(str(path))
        assert loaded.nodes == path3.nodes
        assert loaded.edges == path3.edges

    def test_missing_field(self):
        with pytest.raises(ConfigError, match="edges"):
            topology_from_dict({"nodes": [0, 1]})

    @pytest.mark.parametrize("doc, field", [
        ({"nodes": 5, "edges": []}, "nodes"),
        ({"nodes": [0, 1], "edges": 5}, "edges"),
        ({"nodes": None, "edges": []}, "nodes"),
    ])
    def test_fields_must_be_arrays(self, doc, field):
        with pytest.raises(ConfigError, match=f"'{field}': expected an array"):
            topology_from_dict(doc)

    @pytest.mark.parametrize("doc", [[0, 1], None, 5], ids=["array", "null", "number"])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ConfigError, match="^<topology>: expected an object with nodes/edges"):
            topology_from_dict(doc)

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigError, match="self-loop"):
            topology_from_dict({"nodes": [0], "edges": [[0, 0]]})

    def test_duplicate_edge_rejected(self):
        doc = {"nodes": [0, 1], "edges": [[0, 1], [1, 0]]}
        with pytest.raises(ConfigError, match="duplicate"):
            topology_from_dict(doc)

    def test_duplicate_node_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            topology_from_dict({"nodes": [0, 0], "edges": []})

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ConfigError, match="unknown endpoint"):
            topology_from_dict({"nodes": [0, 1], "edges": [[0, 9]]})

    def test_node_id_range(self):
        with pytest.raises(ConfigError, match="bad node id"):
            topology_from_dict({"nodes": [0, 70000], "edges": []})

    def test_boolean_node_ids_rejected(self):
        doc = {"nodes": [0, True, 2], "edges": [[0, True], [True, 2]]}
        with pytest.raises(ConfigError, match="'nodes'.*True"):
            topology_from_dict(doc)
        with pytest.raises(ConfigError, match="'edges'.*True"):
            topology_from_dict({"nodes": [0, 1], "edges": [[0, True]]})

    def test_invalid_json_reported_with_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="bad.json"):
            load_topology(str(bad))

    def test_saved_file_is_plain_json(self, tmp_path, path3):
        path = tmp_path / "topo.json"
        save_topology(path3, str(path))
        doc = json.loads(path.read_text())
        assert doc == {"nodes": [0, 1, 2], "edges": [[0, 1], [1, 2]]}
