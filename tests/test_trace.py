"""The trace codec stands apart from the simulator that writes traces.

Reading a trace file, and summarizing it, must not need the event loop or
the protocol: ``trace`` and ``metrics`` import neither ``engine`` nor
``fsm``, directly or under another name. A trace file a run writes under
faults summarizes to the live run's summary, also with other line ends and
lines of whitespace between its chunks. Each kind and msg has one declared
shape, and a record that lacks a field of its shape is refused.
"""

import ast
import json
from pathlib import Path

import pytest

from bottlenet import trace as codec
from bottlenet.cli import main
from bottlenet.errors import MalformedTrace

PACKAGE = Path(codec.__file__).parent


def imported_modules(source: str) -> set[str]:
    """The dotted names of the modules a bottlenet source file imports,
    relative imports resolved against the package, each name imported
    from a module counted as a module too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["bottlenet" if node.level else None, node.module]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_imported_modules_sees_every_form_of_import():
    for source, module in [("import bottlenet.fsm", "bottlenet.fsm"),
                           ("from . import engine", "bottlenet.engine"),
                           ("from .engine import run", "bottlenet.engine"),
                           ("from bottlenet import fsm as f", "bottlenet.fsm")]:
        assert module in imported_modules(source), source


@pytest.mark.parametrize("module", ["trace.py", "metrics.py"])
def test_codec_and_metrics_import_nothing_from_the_engine_or_the_fsm(module):
    imported = imported_modules((PACKAGE / module).read_text())
    assert "bottlenet.network" in imported  # the walk sees this module's imports
    assert not {name for name in imported
                for banned in ("bottlenet.engine", "bottlenet.fsm")
                if name == banned or name.startswith(banned + ".")}


CHUNK = 64  # lines per chunk in the round trip below, patched for the reader


@pytest.fixture(scope="module")
def faulty_run(tmp_path_factory):
    """A generic/30 run of random requests under a link fault and a node
    fault, each restored: its topology file, trace file and live summary."""
    d = tmp_path_factory.mktemp("roundtrip")
    topology = d / "g30.json"
    assert main(["gen", "--kind", "generic", "--nodes", "30", "--seed", "0",
                 "--out", str(topology)]) == 0
    a, b = json.loads(topology.read_text())["edges"][0]
    config = d / "scenario.json"
    config.write_text(json.dumps({
        "seed": 3, "topology": {"file": "g30.json"},
        "random_requests": {"count": 100, "spacing": 10},
        "faults": [{"at": 50, "op": "fail_link", "link": [a, b]},
                   {"at": 120, "op": "fail_node", "node": 7},
                   {"at": 300, "op": "restore_link", "link": [a, b]},
                   {"at": 350, "op": "restore_node", "node": 7}]}))
    trace, live = d / "trace.jsonl", d / "live.json"
    assert main(["run", "--config", str(config), "--trace-out", str(trace),
                 "--summary-out", str(live)]) == 0
    return topology, trace, live


@pytest.mark.parametrize("newline, spacer", [("\n", None), ("\r\n", ""), ("\n", "\f")],
                         ids=["as-written", "crlf-blank-line", "form-feed-line"])
def test_trace_file_summarizes_as_the_live_run(faulty_run, tmp_path, monkeypatch,
                                               newline, spacer):
    """A copy of the trace with newline line ends and a spacer line after
    every CHUNK lines summarizes to the live summary's bytes. A blank line is JSON whitespace, so each chunk still takes
    one decode; a form-feed-only line, which str.strip drops but JSON
    rejects, sends every chunk after the first down the reader's
    line-by-line path."""
    monkeypatch.setattr(codec, "_CHUNK_LINES", CHUNK)
    topology, trace, live = faulty_run
    written = trace.read_text()
    lines = written.splitlines()
    assert len(lines) > 3 * CHUNK and '"TopologyChanged"' in written
    text = []
    for n, line in enumerate(lines, 1):
        text.append(line + newline)
        if spacer is not None and n % CHUNK == 0:
            text.append(spacer + newline)
    copy, replay = tmp_path / "copy.jsonl", tmp_path / "replay.json"
    copy.write_bytes("".join(text).encode())
    assert main(["summarize", "--trace", str(copy), "--topology", str(topology),
                 "--json-out", str(replay)]) == 0
    assert replay.read_bytes() == live.read_bytes()


def test_a_kind_and_msg_take_one_shape():
    assert len({(s.kind, s.msg) for s in codec.SHAPES}) == len(codec.SHAPES)
    declared = list(codec.SHAPES)
    with pytest.raises(ValueError,
                       match="a second shape for kind 'DeliveryFailed', msg 'data'"):
        codec._shape("DeliveryFailed", "data", "msg:name src dest reason:name xfer:json")
    assert codec.SHAPES == declared


@pytest.mark.parametrize("data", [
    '{"msg":"data","xfer":3}',
    # a hop-capped packet as traces wrote it before it had a Dropped record
    '{"msg":"data","src":0,"dest":3,"reason":"hop_cap","xfer":null}',
], ids=["bare", "hop-capped"])
def test_a_bounced_data_record_without_to_is_rejected(tmp_path, data):
    path = tmp_path / "old.jsonl"
    path.write_text('{"at":1,"seq":0,"node":0,"kind":"DiscoveryStarted",'
                    '"data":{"dest":3,"attempt":0}}\n'
                    '{"at":5,"seq":1,"node":2,"kind":"DeliveryFailed","data":%s}\n' % data)
    with pytest.raises(MalformedTrace,
                       match=r"old\.jsonl: line 2: kind 'DeliveryFailed': missing field 'to'$"):
        codec.load_trace(str(path))


GOLDEN_TWO_NODE = Path(__file__).parent / "data" / "golden_two_node.jsonl"


@pytest.mark.parametrize("record, error", [
    ('{"at":5,"seq":8,"node":0,"kind":"TableUpdated","data":{"dest":true,"next_hop":1,"hops":2}}',
     "kind 'TableUpdated': dest True is not a node id"),
    ('{"at":5,"seq":8,"node":0,"kind":"TableUpdated","data":{"dest":1.0,"next_hop":1,"hops":2}}',
     "kind 'TableUpdated': dest 1.0 is not a node id"),
    ('{"at":5,"seq":8,"node":true,"kind":"TableUpdated","data":{"dest":0,"next_hop":1,"hops":2}}',
     "node True is not a node id"),
    ('{"at":5,"seq":8,"node":true,"kind":"RouteRemoved","data":{"dest":0,'
     '"reason":"neighbor_lost"}}', "node True is not a node id"),
    ('{"at":5,"seq":8,"node":1.0,"kind":"Sent","data":{"msg":"data","to":0,"src":1,"dest":0,'
     '"xfer":3}}', "node 1.0 is not a node id"),
], ids=["table-dest-bool", "table-dest-float", "table-node-bool", "removed-node-bool",
        "sent-node-float"])
@pytest.mark.parametrize("chunk_lines", [2048, 1], ids=["chunk", "line"])
def test_a_bool_or_float_node_id_is_named_by_its_line(tmp_path, monkeypatch, record, error,
                                                      chunk_lines):
    """A bool or a float node, or TableUpdated dest, would key a table as
    the int it equals and summarize to wrong numbers. The reader refuses
    the record by its line, whether the line came in a chunk or alone."""
    monkeypatch.setattr(codec, "_CHUNK_LINES", chunk_lines)
    path = tmp_path / "trace.jsonl"
    lines = GOLDEN_TWO_NODE.read_text().splitlines()
    path.write_text("\n".join(lines[:4] + [record] + lines[4:]) + "\n")
    with pytest.raises(MalformedTrace) as exc:
        codec.load_trace(str(path))
    assert str(exc.value) == f"{path}: line 5: {error}"
