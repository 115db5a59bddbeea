import hashlib
import random

import pytest

from bottlenet import topogen
from bottlenet.domain import MAX_NODE_ID
from bottlenet.dotexport import export_dot
from bottlenet.errors import InvalidCount, InvalidPath
from bottlenet.network import Topology, save_topology
from bottlenet.oracle import components
from bottlenet.topogen import generate_topology
from conftest import make_topology


def reference_generate(kind: str, n: int, seed: int) -> Topology:
    """The plain rejection sampler: draw every pair of every attempt, build
    the graph, then test it. generic and dense must return its graphs."""
    rng = random.Random(f"{kind}:{n}:{seed}")

    def sample(p):
        t = Topology(nodes=set(range(n)))
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    t.add_edge(a, b)
        return t

    def min_degree(t):
        return min(len(t.live_neighbors(v)) for v in t.nodes)

    p = 3 / (n - 1) if kind == "generic" else (n / 2) / (n - 1)
    while True:
        t = sample(p)
        if len(components(t)) == 1 and (kind == "generic" or min_degree(t) >= n // 4):
            return t


class TestGenerators:
    def test_generic_is_connected(self):
        for seed in range(25):
            t = generate_topology("generic", 15, seed)
            assert len(t.nodes) == 15
            assert len(components(t)) == 1

    def test_generic_mean_degree_near_three(self):
        degrees = []
        for seed in range(25):
            t = generate_topology("generic", 15, seed)
            degrees.extend(len(t.live_neighbors(n)) for n in t.nodes)
        assert 2.4 <= sum(degrees) / len(degrees) <= 3.8

    def test_sparse_partitions_in_majority_of_seeds(self):
        partitioned = sum(len(components(generate_topology(
            "sparse-partitioned", 100, seed))) >= 2 for seed in range(50))
        assert partitioned > 25

    def test_dense_connected_with_solid_degrees(self):
        for seed in range(25):
            t = generate_topology("dense", 20, seed)
            assert len(components(t)) == 1
            assert min(len(t.live_neighbors(n)) for n in t.nodes) >= 5

    def test_deterministic_per_seed(self):
        for kind in ("generic", "sparse-partitioned", "dense"):
            a = generate_topology(kind, 15, 3)
            b = generate_topology(kind, 15, 3)
            assert a.edges == b.edges

    def test_seeds_differ(self):
        assert (generate_topology("generic", 15, 0).edges
                != generate_topology("generic", 15, 1).edges)

    def test_bad_inputs(self):
        with pytest.raises(InvalidCount):
            generate_topology("generic", 1, 0)
        with pytest.raises(InvalidCount):
            generate_topology("mesh", 10, 0)

    @pytest.mark.parametrize("kind", ["generic", "dense"])
    def test_exhausted_attempts_raise(self, monkeypatch, kind):
        monkeypatch.setattr(topogen, "_MAX_ATTEMPTS", 0)
        with pytest.raises(InvalidCount, match=f"could not generate a {kind} graph with 10"):
            generate_topology(kind, 10, 0)

    def test_node_count_capped_at_id_range_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("generation started")
        monkeypatch.setattr(topogen.random, "Random", no_draws)
        for kind in topogen.KINDS:
            with pytest.raises(InvalidCount, match="uint16"):
                generate_topology(kind, MAX_NODE_ID + 2, 0)


class TestSamplerMatchesReference:
    """The early-rejecting sampler returns the reference loop's graphs, down
    to the iteration order of edges and adjacency sets."""

    @pytest.mark.parametrize("kind,sizes", [("generic", range(2, 41)),
                                            ("dense", range(2, 31))])
    def test_same_graphs_and_iteration_order(self, kind, sizes):
        for n in sizes:
            for seed in range(10):
                got, want = generate_topology(kind, n, seed), reference_generate(kind, n, seed)
                assert got.nodes == want.nodes
                assert got.edges == want.edges
                assert list(got.edges) == list(want.edges)
                for v in want.nodes:
                    assert list(got._adj[v]) == list(want._adj[v]), (kind, n, seed, v)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 31, 100, 1000])
    def test_skip_equals_draws(self, m):
        drawn, skipped = random.Random("skip"), random.Random("skip")
        for _ in range(m):
            drawn.random()
        skipped.getrandbits(64 * m)
        assert skipped.getstate() == drawn.getstate()

    def test_skip_in_chunks_equals_draws(self):
        m = 2 * topogen._SKIP_CHUNK + 3
        drawn, skipped = random.Random("skip"), random.Random("skip")
        for _ in range(m):
            drawn.random()
        topogen._skip_draws(m, skipped)
        assert skipped.getstate() == drawn.getstate()

    @pytest.mark.parametrize("spec,digest", [
        (("generic", 120, 0),
         "708478d97524f99c71ea5b871e7cd7fffafd8c0a29d85d75688dd657cfa1ef57"),
        (("dense", 100, 0),
         "ec7ec028c4e2ca8b0849cbb5ffd6a273c6fae834c3fed35125f0b25bd4ea63e0"),
    ], ids=["generic-120-0", "dense-100-0"])
    def test_saved_file_digest_pinned(self, tmp_path, spec, digest):
        path = tmp_path / "topo.json"
        save_topology(generate_topology(*spec), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestDotExport:
    def test_triangle(self):
        dot = export_dot(make_topology((0, 1), (1, 2), (0, 2)))
        assert dot.count(" -- ") == 3
        for n in range(3):
            assert f"  {n};" in dot

    def test_highlight_marks_exactly_path_edges(self):
        t = make_topology((0, 1), (1, 2), (0, 2))
        dot = export_dot(t, highlight=[0, 1, 2])
        assert dot.count("penwidth=2") == 2

    def test_unknown_highlight_node_rejected(self):
        t = make_topology((0, 1))
        with pytest.raises(InvalidPath, match="highlight node 5 not in topology"):
            export_dot(t, highlight=[0, 1, 5])

    def test_non_adjacent_highlight_rejected(self):
        t = make_topology((0, 1), (1, 2))
        with pytest.raises(InvalidPath):
            export_dot(t, highlight=[0, 2])

    def test_revisiting_highlight_rejected(self):
        t = make_topology((0, 1), (1, 2))
        with pytest.raises(InvalidPath):
            export_dot(t, highlight=[0, 1, 0])

    def test_down_highlight_step_drawn_dotted(self):
        t = make_topology((0, 1), (1, 2), (2, 3), (1, 4))
        t.apply_fault("fail_link", (0, 1))
        t.apply_fault("fail_node", (3,))
        t.apply_fault("fail_link", (1, 4))
        dot = export_dot(t, highlight=[0, 1, 2, 3])
        assert "  0 -- 1 [color=red, penwidth=2, style=dotted];" in dot
        assert "  1 -- 2 [color=red, penwidth=2];" in dot
        assert "  2 -- 3 [color=red, penwidth=2, style=dotted];" in dot
        assert "  1 -- 4 [style=dotted];" in dot  # down, off the highlight

    def test_down_node_drawn_dashed(self):
        t = make_topology((0, 1))
        t.apply_fault("fail_node", (1,))
        assert "1 [style=dashed];" in export_dot(t)

    def test_output_is_stable(self):
        t = make_topology((0, 1), (1, 2), (0, 2))
        assert export_dot(t, [0, 1]) == export_dot(t, [0, 1])
