"""Reactive route discovery by history-tracking random walks.

A source that lacks a route launches a "bottle" that drifts through the
network one random unvisited neighbor at a time, recording every node it
touches; each recipient harvests routes from that history, and the
destination sends the bottle back along it.
"""

from .config import ProtocolConfig, ScenarioConfig, load_scenario
from .domain import (
    Bottle,
    BottleId,
    DataPacket,
    NodePhase,
    NodeState,
    RouteEntry,
    deserialize_bottle,
    make_bottle,
    serialize_bottle,
)
from .engine import run
from .metrics import RunSummary, summarize
from .network import Topology, load_topology, save_topology
from .topogen import generate_topology
from .trace import Trace, TraceEvent

__version__ = "0.1.0"

__all__ = [
    "Bottle",
    "BottleId",
    "DataPacket",
    "NodePhase",
    "NodeState",
    "ProtocolConfig",
    "RouteEntry",
    "RunSummary",
    "ScenarioConfig",
    "Topology",
    "Trace",
    "TraceEvent",
    "deserialize_bottle",
    "generate_topology",
    "load_scenario",
    "load_topology",
    "make_bottle",
    "run",
    "save_topology",
    "serialize_bottle",
    "summarize",
    "__version__",
]
