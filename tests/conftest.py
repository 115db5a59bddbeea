import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from bottlenet.config import ProtocolConfig
from bottlenet.domain import NodeState
from bottlenet.network import Topology
from bottlenet.topogen import generate_topology


def run_python(*args: str) -> subprocess.CompletedProcess:
    """python *args in a new process that imports bottlenet from this
    checkout; its stdout and stderr are captured as bytes."""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})


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
    to 12 link or node faults, as a scenario document."""
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
               "protocol": {"beacon_period": draw(st.integers(1, 5))},
               "random_requests": {"count": draw(st.integers(1, 12)),
                                   "spacing": draw(st.integers(1, 40))},
               "faults": faults, "horizon": 1500}
