import json
from pathlib import Path

import pytest

from bottlenet import topogen
from bottlenet import trace as codec
from bottlenet.cli import main
from bottlenet.network import load_topology
from bottlenet.trace import load_trace
from conftest import run_python


DATA = Path(__file__).parent / "data"


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def assert_file_error(capsys, argv, path):
    """main(argv) exits 1 with one error line naming path and prints nothing
    on stdout."""
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


@pytest.fixture
def generated_topology(tmp_path):
    out = tmp_path / "topo.json"
    assert main(["gen", "--kind", "generic", "--nodes", "15",
                 "--seed", "0", "--out", str(out)]) == 0
    return str(out)


class TestGen:
    def test_writes_loadable_topology(self, generated_topology):
        t = load_topology(generated_topology)
        assert len(t.nodes) == 15

    @pytest.mark.parametrize("kind", ["generic", "sparse-partitioned", "dense"])
    def test_every_kind(self, tmp_path, kind):
        out = tmp_path / "topo.json"
        assert main(["gen", "--kind", kind, "--nodes", "30", "--seed", "0",
                     "--out", str(out)]) == 0
        assert len(load_topology(str(out)).nodes) == 30

    def test_same_seed_same_bytes(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["gen", "--kind", "dense", "--nodes", "20",
                  "--seed", "5", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_node_count_beyond_id_range_is_a_clean_error(self, tmp_path, monkeypatch,
                                                          capsys):
        def no_draws(*args):
            raise AssertionError("generation started")
        monkeypatch.setattr(topogen.random, "Random", no_draws)
        out = tmp_path / "topo.json"
        assert main(["gen", "--kind", "generic", "--nodes", "70000",
                     "--seed", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_out_into_a_missing_directory_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "topo.json"
        assert_file_error(capsys, ["gen", "--kind", "generic", "--nodes", "15",
                                   "--seed", "0", "--out", str(out)], out)


class TestRun:
    def test_minimal_scenario(self, tmp_path, generated_topology, capsys):
        config = write_scenario(tmp_path, {
            "seed": 11,
            "topology": {"file": generated_topology},
            "requests": [{"at": 1, "src": 0, "dest": 8}],
        })
        trace_out = tmp_path / "trace.jsonl"
        summary_out = tmp_path / "summary.json"
        dot_out = tmp_path / "net.dot"
        code = main(["run", "--config", config,
                     "--trace-out", str(trace_out),
                     "--summary-out", str(summary_out),
                     "--dot-out", str(dot_out)])
        assert code == 0
        trace = load_trace(str(trace_out))
        assert any(ev.kind == "RouteFound" for ev in trace.events)
        summary = json.loads(summary_out.read_text())
        assert summary["discoveries_succeeded"] == 1
        assert "penwidth=2" in dot_out.read_text()
        assert "discoveries_attempted" in capsys.readouterr().out

    def test_dot_out_draws_a_found_route_whose_link_fails_later(self, tmp_path,
                                                                 capsys):
        # The first route found, 0 -> 7, runs over the link 0-11, which
        # fails at t=3000; the run still writes the DOT file and the summary.
        topo = tmp_path / "g20.json"
        assert main(["gen", "--kind", "generic", "--nodes", "20",
                     "--seed", "0", "--out", str(topo)]) == 0
        config = write_scenario(tmp_path, {
            "seed": 1,
            "topology": {"file": str(topo)},
            "horizon": 5000,
            "requests": [{"at": 1, "src": 0, "dest": 7}],
            "faults": [{"at": 3000, "op": "fail_link", "link": [0, 11]}],
        })
        dot_out = tmp_path / "net.dot"
        assert main(["run", "--config", config, "--dot-out", str(dot_out)]) == 0
        assert "discoveries_succeeded   1" in capsys.readouterr().out
        assert "  0 -- 11 [color=red, penwidth=2, style=dotted];" in dot_out.read_text()

    def test_found_path_is_valid_simple_path(self, tmp_path, generated_topology):
        config = write_scenario(tmp_path, {
            "seed": 2,
            "topology": {"file": generated_topology},
            "random_requests": {"count": 1},
        })
        trace_out = tmp_path / "trace.jsonl"
        assert main(["run", "--config", config, "--trace-out", str(trace_out)]) == 0
        t = load_topology(generated_topology)
        for ev in load_trace(str(trace_out)).events:
            if ev.kind == "RouteFound":
                path = ev.data["path"]
                assert len(set(path)) == len(path)
                assert all(t.link_live(a, b) for a, b in zip(path, path[1:]))

    def test_missing_seed_names_the_field(self, tmp_path, generated_topology, capsys):
        config = write_scenario(tmp_path, {
            "topology": {"file": generated_topology},
        })
        assert main(["run", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "scenario.json" in err

    def test_generator_spec_inline(self, tmp_path):
        config = write_scenario(tmp_path, {
            "seed": 4,
            "topology": {"generator": {"kind": "dense", "nodes": 20, "seed": 1}},
            "requests": [{"at": 1, "src": 0, "dest": 9}],
        })
        assert main(["run", "--config", config]) == 0

    def test_relative_topology_path_resolves_against_config(self, tmp_path, generated_topology):
        config = write_scenario(tmp_path, {
            "seed": 11,
            "topology": {"file": "topo.json"},
            "requests": [{"at": 1, "src": 0, "dest": 8}],
        })
        assert main(["run", "--config", config]) == 0

    def test_bad_fault_op(self, tmp_path, generated_topology, capsys):
        config = write_scenario(tmp_path, {
            "seed": 1,
            "topology": {"file": generated_topology},
            "faults": [{"at": 5, "op": "explode_node", "node": 1}],
        })
        assert main(["run", "--config", config]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {config}: field 'faults[0]': ")

    def test_request_to_self_names_the_request(self, tmp_path, generated_topology, capsys):
        config = write_scenario(tmp_path, {
            "seed": 1,
            "topology": {"file": generated_topology},
            "requests": [{"at": 1, "src": 3, "dest": 3}],
        })
        assert main(["run", "--config", config]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {config}: field 'requests[0]': ")

    def test_fault_on_a_missing_edge_names_the_file_and_field(self, tmp_path,
                                                              generated_topology, capsys):
        edges = {frozenset(e) for e in load_topology(generated_topology).edges}
        a, b = next((a, b) for a in range(15) for b in range(a + 1, 15)
                    if frozenset((a, b)) not in edges)
        config = write_scenario(tmp_path, {
            "seed": 1,
            "topology": {"file": generated_topology},
            "faults": [{"at": 5, "op": "fail_link", "link": [a, b]}],
        })
        assert main(["run", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: {config}: field 'faults[0]': "
                       f"edge ({a}, {b}) not in topology\n")

    def test_trace_out_into_a_missing_directory_is_a_clean_error(self, tmp_path, capsys,
                                                                 generated_topology):
        config = write_scenario(tmp_path, {
            "seed": 11,
            "topology": {"file": generated_topology},
            "requests": [{"at": 1, "src": 0, "dest": 8}],
        })
        trace_out = tmp_path / "missing" / "trace.jsonl"
        assert_file_error(capsys, ["run", "--config", config,
                                   "--trace-out", str(trace_out)], trace_out)


class TestSummarize:
    def test_recomputes_from_files(self, tmp_path, generated_topology, capsys):
        config = write_scenario(tmp_path, {
            "seed": 11,
            "topology": {"file": generated_topology},
            "requests": [{"at": 1, "src": 0, "dest": 8}],
        })
        trace_out = tmp_path / "trace.jsonl"
        main(["run", "--config", config, "--trace-out", str(trace_out)])
        capsys.readouterr()
        json_out = tmp_path / "summary.json"
        assert main(["summarize", "--trace", str(trace_out),
                     "--topology", generated_topology,
                     "--json-out", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "total_bottle_bytes" in out
        assert json.loads(json_out.read_text())["discoveries_succeeded"] == 1

    def test_malformed_trace_is_a_clean_error(self, tmp_path, generated_topology,
                                               capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"at":1}\n')
        assert main(["summarize", "--trace", str(trace),
                     "--topology", generated_topology]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing field 'seq'" in err

    def test_missing_trace_file_is_a_clean_error(self, tmp_path, generated_topology,
                                                 capsys):
        trace = tmp_path / "missing.jsonl"
        assert_file_error(capsys, ["summarize", "--trace", str(trace),
                                   "--topology", generated_topology], trace)

    def test_bad_line_in_the_last_chunk_of_a_streamed_trace(self, tmp_path, monkeypatch,
                                                             generated_topology, capsys):
        monkeypatch.setattr(codec, "_CHUNK_LINES", 4)
        config = write_scenario(tmp_path, {
            "seed": 11,
            "topology": {"file": generated_topology},
            "requests": [{"at": 1, "src": 0, "dest": 8}],
        })
        trace = tmp_path / "trace.jsonl"
        main(["run", "--config", config, "--trace-out", str(trace)])
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        assert len(lines) > 3 * 4
        trace.write_text("\n".join(lines + ['{"at":1}']) + "\n")
        assert main(["summarize", "--trace", str(trace),
                     "--topology", generated_topology]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert f"line {len(lines) + 1}: missing field 'seq'" in err

    def test_record_missing_a_data_field_is_a_clean_error(self, tmp_path, capsys):
        lines = (DATA / "golden_two_node.jsonl").read_text().splitlines()
        sent = json.loads(lines[1])
        assert sent["kind"] == "Sent" and sent["data"]["msg"] == "bottle"
        del sent["data"]["btl_id"]
        lines[1] = json.dumps(sent)
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        assert main(["summarize", "--trace", str(trace),
                     "--topology", str(DATA / "two_node_topology.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "line 2: kind 'Sent': missing field 'btl_id'" in err

    def summarize_edited(self, capsys, tmp_path, seq, edit):
        """Exit status, stdout and stderr of summarize on the two-node golden
        trace with edit(record) applied to its record seq, or edit(records)
        to the list of its records when seq is None."""
        records = [json.loads(line) for line in
                   (DATA / "golden_two_node.jsonl").read_text().splitlines()]
        edit(records if seq is None else records[seq])
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        capsys.readouterr()
        status = main(["summarize", "--trace", str(trace),
                       "--topology", str(DATA / "two_node_topology.json")])
        return (status, *capsys.readouterr())

    def unedited_summary(self, capsys):
        """The stdout of summarize on the two-node golden trace as it is."""
        capsys.readouterr()
        main(["summarize", "--trace", str(DATA / "golden_two_node.jsonl"),
              "--topology", str(DATA / "two_node_topology.json")])
        return capsys.readouterr().out

    # The golden trace's records: 0 DiscoveryStarted, 1 Sent (bottle),
    # 2 TableUpdated, 3 Sent (bottle), 4 TableUpdated, 5 RouteFound,
    # 6 Sent (data), 7 Received.
    @pytest.mark.parametrize("seq, edit, named", [
        (1, lambda rec: rec["data"].update(bytes="x"), "seq 1 (kind 'Sent')"),
        # no number reads a bottle id, so a list there changes nothing
        (1, lambda rec: rec["data"].update(btl_id=["zz"]), None),
        (2, lambda rec: rec["data"].update(dest=[0]), "seq 2 (kind 'TableUpdated')"),
        (0, lambda rec: rec.update(at="1"), "seq 0 (kind 'DiscoveryStarted')"),
        (5, lambda rec: rec.update(at="3"), "seq 5 (kind 'RouteFound')"),
        (0, lambda rec: rec["data"].update(attempt="0"), "seq 0 (kind 'DiscoveryStarted')"),
    ], ids=["bytes-str", "btl_id-list", "dest-list", "opening-at-str", "closing-at-str",
            "attempt-str"])
    def test_field_of_the_wrong_type_is_a_clean_error(self, tmp_path, capsys,
                                                      seq, edit, named):
        status, out, err = self.summarize_edited(capsys, tmp_path, seq, edit)
        if named is None:
            assert (status, err, out) == (0, "", self.unedited_summary(capsys))
            return
        assert (status, out) == (1, "")
        assert err.startswith(f"error: {tmp_path / 'trace.jsonl'}: record {named}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("seq, edit, named", [
        (0, lambda rec: rec.update(node="0"),
         "record seq 0 (kind 'DiscoveryStarted'): node '0' "),
        (5, lambda rec: rec["data"].update(src="0"),
         "record seq 5 (kind 'RouteFound'): src '0' "),
        (2, lambda rec: rec["data"].update(hops="1"), "kind 'TableUpdated' at node 1: hops '1' "),
        (2, lambda rec: rec.update(node="1"),
         "kind 'TableUpdated' at node '1': node '1' not in topology"),
        (2, lambda rec: rec["data"].update(dest=5), "kind 'TableUpdated' at node 1: dest 5 "),
        (None, lambda recs: recs.append({"at": 4, "seq": 9, "node": 7, "kind": "TopologyChanged",
                                         "data": {"op": "fail_node", "target": [7]}}),
         "record seq 9 (kind 'TopologyChanged'): node 7 "),
        # a bool or a float hashes and compares equal to the int it stands for
        (0, lambda rec: rec.update(node=False),
         "record seq 0 (kind 'DiscoveryStarted'): node False "),
        (2, lambda rec: rec["data"].update(hops=True),
         "kind 'TableUpdated' at node 1: hops True is not a hop count"),
        (2, lambda rec: rec["data"].update(hops=1.0),
         "kind 'TableUpdated' at node 1: hops 1.0 is not a hop count"),
        (5, lambda rec: rec["data"].update(src=False),
         "record seq 5 (kind 'RouteFound'): src False "),
        (5, lambda rec: rec["data"].update(src=0.0),
         "record seq 5 (kind 'RouteFound'): src 0.0 "),
        # each removes node 0's entry for dest 1, seq 4's
        (None, lambda recs: recs.append({"at": 5, "seq": 8, "node": 0, "kind": "RouteRemoved",
                                         "data": {"dest": True, "reason": "neighbor_lost"}}),
         "record seq 8 (kind 'RouteRemoved'): dest True is not a node id"),
        (None, lambda recs: recs.append({"at": 5, "seq": 8, "node": 0, "kind": "RouteRemoved",
                                         "data": {"dest": 1.0, "reason": "neighbor_lost"}}),
         "record seq 8 (kind 'RouteRemoved'): dest 1.0 is not a node id"),
        # a retry counts a bottle of an open discovery, and none is open
        (0, lambda rec: rec["data"].update(attempt=1),
         "record seq 0 (kind 'DiscoveryStarted'): attempt 1 is neither 0 "),
    ], ids=["sent-node-str", "found-src-str", "hops-str", "table-node-str", "unknown-dest",
            "unknown-fault-target", "sent-node-bool", "hops-bool", "hops-float",
            "found-src-bool", "found-src-float", "removed-dest-bool", "removed-dest-float",
            "retry-unopened"])
    def test_node_or_hop_count_that_does_not_fit_is_a_clean_error(self, tmp_path, capsys,
                                                                  seq, edit, named):
        # each edit left the summary wrong with exit 0, or gave an error that
        # named neither the file nor the record
        status, out, err = self.summarize_edited(capsys, tmp_path, seq, edit)
        assert (status, out) == (1, "")
        assert err.startswith(f"error: {tmp_path / 'trace.jsonl'}: {named}")
        assert "Traceback" not in err

    def test_close_with_nothing_open_is_a_clean_error(self, tmp_path, capsys):
        # a second RouteFound for the discovery seq 5 closed
        status, out, err = self.summarize_edited(
            capsys, tmp_path, None,
            lambda recs: recs.append({"at": 5, "seq": 8, "node": 0, "kind": "RouteFound",
                                      "data": {"src": 0, "dest": 1, "path": [0, 1]}}))
        assert (status, out) == (1, "")
        assert err == (f"error: {tmp_path / 'trace.jsonl'}: record seq 8 (kind 'RouteFound'): "
                       "src 0 has no discovery of dest 1 open\n")

    def test_bottle_id_is_not_parsed(self, tmp_path, capsys):
        # an episode opens on the DiscoveryStarted its source states
        status, out, err = self.summarize_edited(
            capsys, tmp_path, 1, lambda rec: rec["data"].update(btl_id="zz"))
        assert (status, err, out) == (0, "", self.unedited_summary(capsys))


class TestNotUtf8:
    """A 0xff byte, which no UTF-8 text holds, in any file the CLI reads is
    an error line naming the file, never a traceback."""

    def errors(self, capsys, argv, status):
        capsys.readouterr()
        assert main(argv) == status
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        return err

    def test_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_bytes((DATA / "golden_two_node.jsonl").read_bytes() + b'{"at":\xff}\n')
        err = self.errors(capsys, ["summarize", "--trace", str(trace), "--topology",
                                   str(DATA / "two_node_topology.json")], 1)
        assert err.startswith(f"error: {trace}: not UTF-8 text: ")

    def test_topology(self, tmp_path, capsys):
        topology = tmp_path / "topo.json"
        topology.write_bytes(b'{"nodes": [0, 1], "edges": [[0, 1]]}\xff\n')
        err = self.errors(capsys, ["summarize", "--trace",
                                   str(DATA / "golden_two_node.jsonl"),
                                   "--topology", str(topology)], 2)
        assert err.startswith(f"config error: {topology}: ")

    def test_scenario(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_bytes(b'{"seed": 1, "topology": {"file": "t\xff.json"}}')
        err = self.errors(capsys, ["run", "--config", str(config)], 2)
        assert err.startswith(f"config error: {config}: ")


def test_python_m_bottlenet_reports_an_error_in_one_line(tmp_path):
    # the entry point a user types: its exit status and error line, no traceback
    trace = tmp_path / "missing.jsonl"
    done = run_python("-m", "bottlenet", "summarize", "--trace", str(trace),
                      "--topology", str(DATA / "two_node_topology.json"))
    assert (done.returncode, done.stdout) == (1, b"")
    err = done.stderr.decode()
    assert err.startswith("error: ") and str(trace) in err
    assert err.count("\n") == 1 and "Traceback" not in err
