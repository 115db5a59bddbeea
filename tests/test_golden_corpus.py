"""Golden trace corpus: scenarios whose traces must stay byte-identical.

Each case in data/golden_corpus.json holds a scenario document, the
record count and sha256 of its JSONL trace, and its live summary. The
cases cover link and node faults, concurrent requests, a partitioned
sparse graph, a dense graph and a beacon period above one; five more
(beacon period and latency 2, beacon period 5 with a node down across
several of its beacon instants, timeout equal to the beacon period,
latency equal to the beacon period with a shorter timeout, and a churn
run shaped like the benchmark's) pin that a fault's neighbour refreshes
run at each node's next beacon instant, after every event queued before
the fault for that instant and before every event queued after it. A
change that alters the trace format
on purpose re-pins the values and says why in CHANGES.md; any other
change must leave them as they are. Each case also goes through the
trace file: the bytes written, the records loaded back and their encoding
must match the live run and the pinned hash, and every record must carry
the data fields trace.RECORD_FIELDS requires of its kind. The corpus holds
a record of every shape trace declares, so the hashes pin the bytes
of each declared format.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from bottlenet.config import scenario_from_dict
from bottlenet.engine import run
from bottlenet.trace import RECORD_FIELDS, SHAPES, load_trace
from bottlenet.metrics import summarize
from conftest import jsonl

CORPUS = json.loads((Path(__file__).parent / "data" / "golden_corpus.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[case["name"] for case in CORPUS])
def test_trace_matches_pinned_hash(case):
    trace = run(scenario_from_dict(case["scenario"], source=case["name"]))
    digest = hashlib.sha256(jsonl(trace).encode()).hexdigest()
    assert (len(trace.events), digest) == (case["records"], case["sha256"])
    assert summarize(trace).to_dict() == case["summary"]


@pytest.mark.parametrize("case", CORPUS, ids=[case["name"] for case in CORPUS])
def test_trace_file_round_trip(case, tmp_path):
    trace = run(scenario_from_dict(case["scenario"], source=case["name"]))
    path = tmp_path / "trace.jsonl"
    trace.write(str(path))
    assert path.read_bytes() == jsonl(trace).encode()
    loaded = load_trace(str(path))
    assert loaded.events == trace.events
    digest = hashlib.sha256(jsonl(loaded).encode()).hexdigest()
    assert digest == case["sha256"]


@pytest.mark.parametrize("case", CORPUS, ids=[case["name"] for case in CORPUS])
def test_every_record_conforms_to_the_field_table(case):
    trace = run(scenario_from_dict(case["scenario"], source=case["name"]))
    for ev in trace.events:
        fields = RECORD_FIELDS.get((ev.kind, ev.data.get("msg")))
        assert fields is not None and ev.data.keys() >= fields, ev


def test_corpus_pins_the_bytes_of_every_declared_shape():
    shapes = {ev.shape for case in CORPUS
              for ev in run(scenario_from_dict(case["scenario"], source=case["name"])).events}
    # no two declared shapes are equal, so each has records of its own
    assert shapes == set(SHAPES) and len(SHAPES) == len(set(SHAPES))


def test_readme_trace_format_lists_the_field_table():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Trace format", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (?:`(\w+)`)? *\| `([\w ]+)`", section, re.M)
    assert {(kind, msg or None): frozenset(fields.split())
            for kind, msg, fields in rows} == RECORD_FIELDS
