"""Undirected topology with link/node fault injection and neighbour refresh.

Links are bidirectional by construction and a failed node is modeled as
all of its incident links being down while its own state freezes. This
module keeps no routing state: what a lost neighbour means for a routing
table is decided in fsm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from .domain import MAX_NODE_ID, NodeId, NodeState, is_node_id
from .errors import ConfigError, PreconditionViolation, UnknownEdge, UnknownNode

Edge = tuple[NodeId, NodeId]


def edge_key(a: NodeId, b: NodeId) -> Edge:
    return (a, b) if a < b else (b, a)


@dataclass
class Topology:
    """Nodes, undirected edges, and the nodes and edges apply_fault put down.

    An edge passed to the constructor or to add_edge is stored as its
    edge_key, adds its endpoints to nodes, may not be a self-loop, and
    enters the adjacency index, which link_live and live_neighbors read; one
    written to edges directly does not.
    """

    nodes: set[NodeId] = field(default_factory=set)
    edges: set[Edge] = field(default_factory=set)
    down_nodes: set[NodeId] = field(default_factory=set, init=False)
    down_edges: set[Edge] = field(default_factory=set, init=False)
    # node -> every node it shares an edge with, live or not
    _adj: dict[NodeId, set[NodeId]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._adj = {n: set() for n in self.nodes}
        edges, self.edges = self.edges, set()
        for a, b in edges:
            self.add_edge(a, b)

    def add_edge(self, a: NodeId, b: NodeId) -> None:
        if a == b:
            raise ConfigError(f"self-loop at node {a}")
        self.nodes.add(a)
        self.nodes.add(b)
        self.edges.add(edge_key(a, b))
        self._adj.setdefault(a, set()).add(b)
        self._adj.setdefault(b, set()).add(a)

    def copy_without_faults(self) -> Topology:
        """Same nodes, edges and adjacency index, nothing down; no edge is re-added."""
        copy = Topology()
        copy.nodes, copy.edges, copy._adj = (set(self.nodes), set(self.edges),
                                             {n: set(m) for n, m in self._adj.items()})
        return copy

    def link_live(self, a: NodeId, b: NodeId) -> bool:
        """True when a and b share an edge and neither it nor either end is down."""
        if b not in self._adj.get(a, ()):
            return False
        if not self.down_nodes and not self.down_edges:  # every edge is live
            return True
        return (a not in self.down_nodes and b not in self.down_nodes
                and edge_key(a, b) not in self.down_edges)

    def live_neighbors(self, n: NodeId) -> set[NodeId]:
        """Current live neighbor set of n, as a fresh set; empty when n is down."""
        if n not in self.nodes:
            raise UnknownNode(f"node {n} not in topology")
        if n in self.down_nodes:
            return set()
        if not self.down_nodes and not self.down_edges:  # every edge is live
            return set(self._adj.get(n, ()))
        return {m for m in self._adj.get(n, ())
                if m not in self.down_nodes and edge_key(n, m) not in self.down_edges}

    def apply_fault(self, op: str, target: Sequence[NodeId]) -> tuple[NodeId, ...]:
        """Fail or restore the node or link that target names (see
        fault_error) and return the nodes whose live neighbour set this may
        have changed: the link's two ends, or the node and every node it
        shares an edge with."""
        error = fault_error(op, target)
        if error:
            raise PreconditionViolation(error)
        if op.endswith("_node"):
            key = target[0]
            if key not in self.nodes:
                raise UnknownNode(f"node {key} not in topology")
            down, touched = self.down_nodes, (key, *self._adj.get(key, ()))
        else:
            key = edge_key(*target)
            if key not in self.edges:
                raise UnknownEdge(f"edge {key} not in topology")
            down, touched = self.down_edges, tuple(target)
        (down.add if op.startswith("fail_") else down.discard)(key)
        return touched


def hello_tick(t: Topology, node: NodeState) -> set[NodeId]:
    """Refresh a node's neighbor view from the live topology and return the
    neighbors that vanished from it.

    The engine calls this at a node's next beacon instant after a fault
    that may have changed its live neighbors; at any other instant the
    view is already current. Newly seen neighbors are only added to the
    view: nothing is learned about them until someone routes.
    """
    fresh = t.live_neighbors(node.nid)
    vanished = node.nbors - fresh
    node.nbors = fresh
    return vanished


# the fault ops; a node op targets one node, a link op the two ends of an edge
FAULT_OPS = ("fail_node", "restore_node", "fail_link", "restore_link")


def fault_error(op: Any, target: Any) -> str | None:
    """What is wrong with a fault's op and target, if anything: the op must
    be one of FAULT_OPS, and the target one node id for a node op, two for
    a link op. The message names the scenario file's key: 'op', 'node' or
    'link'."""
    if not isinstance(op, str) or op not in FAULT_OPS:
        return f"unknown op {op!r}; 'op' must be one of {', '.join(FAULT_OPS)}"
    key, arity = ("node", 1) if op.endswith("_node") else ("link", 2)
    if (not isinstance(target, (list, tuple)) or len(target) != arity
            or not all(map(is_node_id, target))):
        return (f"op {op!r} needs a target of {arity} node id(s) in 0..{MAX_NODE_ID} "
                f"(its {key!r}), got {target!r}")
    return None


def topology_from_dict(doc: dict, source: str = "<topology>") -> Topology:
    """Build a topology from {"nodes": [...], "edges": [[a, b], ...]}."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: expected an object with nodes/edges")
    for key in ("nodes", "edges"):
        if key not in doc:
            raise ConfigError(f"{source}: missing field '{key}'")
        if not isinstance(doc[key], (list, tuple)):
            raise ConfigError(f"{source}: field '{key}': expected an array, "
                              f"got {doc[key]!r}")
    seen_nodes: set[NodeId] = set()
    for n in doc["nodes"]:
        if not is_node_id(n):
            raise ConfigError(f"{source}: field 'nodes': bad node id {n!r}")
        if n in seen_nodes:
            raise ConfigError(f"{source}: field 'nodes': duplicate id {n}")
        seen_nodes.add(n)
    t = Topology(nodes=seen_nodes)
    for pair in doc["edges"]:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(is_node_id(x) for x in pair)):
            raise ConfigError(f"{source}: field 'edges': bad edge {pair!r}")
        a, b = pair
        if a == b:
            raise ConfigError(f"{source}: field 'edges': self-loop at {a}")
        if a not in t.nodes or b not in t.nodes:
            raise ConfigError(f"{source}: field 'edges': unknown endpoint in {pair!r}")
        if edge_key(a, b) in t.edges:
            raise ConfigError(f"{source}: field 'edges': duplicate edge {pair!r}")
        t.add_edge(a, b)
    return t


def load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, an int too long
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_topology(path: str) -> Topology:
    return topology_from_dict(load_json(path), source=path)


def save_topology(t: Topology, path: str) -> None:
    doc = {"nodes": sorted(t.nodes), "edges": sorted(sorted(e) for e in t.edges)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
