import os
import random
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import strategies as st

from bottlenet.config import ProtocolConfig, ScenarioConfig, scenario_from_dict
from bottlenet.domain import NodeState
from bottlenet.network import Topology, save_topology
from bottlenet.topogen import generate_topology
from bottlenet.trace import SHAPES, Trace, TraceEvent


def run_python(*args: str) -> subprocess.CompletedProcess:
    """python *args in a new process that imports bottlenet from this
    checkout; its stdout and stderr are captured as bytes."""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})


def jsonl(records: Trace | list[TraceEvent]) -> str:
    """The text Trace.write writes for a trace, or for a list of records as
    a trace's events: the writer's own chunk encoder, without a file."""
    events = records.events if isinstance(records, Trace) else records
    return "".join(Trace(events=events)._jsonl_chunks())


def record_fields() -> dict[tuple[str, str | None], frozenset[str]]:
    """(kind, msg) -> the data fields of its declared shape, which every
    such record carries."""
    return {(s.kind, s.msg): frozenset(s.fields) for s in SHAPES}


def make_topology(*edges: tuple[int, int], extra_nodes: tuple[int, ...] = ()) -> Topology:
    t = Topology(nodes=set(extra_nodes))
    for a, b in edges:
        t.add_edge(a, b)
    return t


def make_node(nid: int, nbors: set[int] | None = None, **kwargs) -> NodeState:
    return NodeState(nid=nid, nbors=set(nbors or ()), **kwargs)


@pytest.fixture
def cfg() -> ProtocolConfig:
    return ProtocolConfig(hop_limit=60, timeout=120, retry_limit=3)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(42)


@pytest.fixture
def path3() -> Topology:
    return make_topology((0, 1), (1, 2))


GRAPH = st.sampled_from(["generic", "dense", "sparse-partitioned"])


@st.composite
def fault_scenarios(draw):
    """A generated graph of 4-25 nodes, concurrent random requests and up
    to 12 link or node faults, as a scenario document. A timeout of
    1-60 lets found bottles come home after their discovery has closed,
    and leaves timers of closed attempts to fire."""
    kind, n = draw(GRAPH), draw(st.integers(4, 25))
    t = generate_topology(kind, n, draw(st.integers(0, 3)))
    edges, nodes = sorted(t.edges), sorted(t.nodes)
    faults = []
    for _ in range(draw(st.integers(0, 12))):
        at, op = draw(st.integers(0, 400)), draw(st.sampled_from(
            ["fail_node", "restore_node", "fail_link", "restore_link"]))
        if op.endswith("_node"):
            faults.append({"at": at, "op": op, "node": draw(st.sampled_from(nodes))})
        elif edges:
            faults.append({"at": at, "op": op,
                           "link": list(draw(st.sampled_from(edges)))})
    return t, {"seed": draw(st.integers(0, 1000)),
               "protocol": {"beacon_period": draw(st.integers(1, 5)),
                            "timeout": draw(st.integers(1, 60)),
                            "retry_limit": draw(st.integers(0, 3))},
               "random_requests": {"count": draw(st.integers(1, 12)),
                                   "spacing": draw(st.integers(1, 40))},
               "faults": faults, "horizon": 1500}


@contextmanager
def scenario_on_file(case) -> Iterator[tuple[ScenarioConfig, Path]]:
    """The scenario of a fault_scenarios case, read from its document with
    the case's topology saved to a file, and that file's path. The file and
    its directory last until the block ends."""
    t, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        topo_path = Path(tmp, "topo.json")
        save_topology(t, str(topo_path))
        yield scenario_from_dict({**doc, "topology": {"file": str(topo_path)}}), topo_path
