"""The trace codec stands apart from the simulator that writes traces.

Reading a trace file, and summarizing it, must not need the event loop or
the protocol: ``trace`` and ``metrics`` import neither ``engine`` nor
``fsm``, directly or under another name. A trace file a run writes under
faults summarizes to the live run's summary, also with other line ends and
lines of whitespace between its chunks.
"""

import ast
import json
from pathlib import Path

import pytest

from bottlenet import trace as codec
from bottlenet.cli import main

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
