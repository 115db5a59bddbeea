"""Graphviz DOT rendering of a topology, with an optional highlighted path."""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidPath
from .network import Topology, edge_key


def export_dot(t: Topology, highlight: Sequence[int] | None = None) -> str:
    """DOT text for the topology; highlight edges are drawn bold red, and
    dotted too where the edge or one of its ends is down.

    The highlight must be a simple path along edges of the topology, live
    or not: a route found before a fault may use a link that fails later.
    """
    marked: set[tuple[int, int]] = set()
    if highlight:
        for n in highlight:
            if n not in t.nodes:
                raise InvalidPath(f"highlight node {n} not in topology")
        if len(set(highlight)) != len(highlight):
            raise InvalidPath("highlight revisits a node")
        for a, b in zip(highlight, highlight[1:]):
            if edge_key(a, b) not in t.edges:
                raise InvalidPath(f"highlight step {a}-{b} is not an edge")
            marked.add(edge_key(a, b))

    lines = ["graph topology {", "  node [shape=circle];"]
    highlight_nodes = set(highlight or ())
    for n in sorted(t.nodes):
        if n in t.down_nodes:
            lines.append(f"  {n} [style=dashed];")
        elif n in highlight_nodes:
            lines.append(f"  {n} [style=bold, color=red];")
        else:
            lines.append(f"  {n};")
    for a, b in sorted(t.edges):
        if edge_key(a, b) in marked:
            down = "" if t.link_live(a, b) else ", style=dotted"
            lines.append(f"  {a} -- {b} [color=red, penwidth=2{down}];")
        elif edge_key(a, b) in t.down_edges:
            lines.append(f"  {a} -- {b} [style=dotted];")
        else:
            lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
