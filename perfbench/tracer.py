"""Per-layer spans recorded from outside the program.

Each traced function is replaced, for the duration of a ``with`` block, by
a wrapper that records one span (name, start, end, parent span). The
wrapper is installed at the name the caller looks up: ``engine`` binds
``serialize_bottle``, ``hello_tick`` and ``load_topology`` at import,
``metrics`` binds ``bfs_distance`` and ``topogen`` binds ``components``,
so those are patched in the calling module; ``fsm`` handlers and the
``metrics`` helpers are looked up through their own module's globals, and
``Topology.live_neighbors``, ``Trace.write`` and ``Engine.run`` through
their class. Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

from bottlenet import engine, fsm, metrics, network, topogen

# (owner, attribute, span name)
TARGETS = (
    (topogen, "generate_topology", "topogen.generate_topology"),
    (topogen, "components", "oracle.components"),
    (network.Topology, "live_neighbors", "network.live_neighbors"),
    (engine, "hello_tick", "network.hello_tick"),
    (engine, "load_topology", "network.load_topology"),
    (network, "load_topology", "network.load_topology"),
    (engine.Engine, "run", "engine.loop"),
    (engine.Trace, "write", "engine.trace_write"),
    (engine, "load_trace", "engine.load_trace"),
    (fsm, "handle_bottle", "fsm.handle_bottle"),
    (fsm, "update_table_from_history", "fsm.update_table_from_history"),
    (fsm, "choose_next_hop", "fsm.choose_next_hop"),
    (fsm, "handle_route_request", "fsm.handle_route_request"),
    (fsm, "on_timeout", "fsm.on_timeout"),
    (fsm, "on_delivery_failure", "fsm.on_delivery_failure"),
    (engine, "serialize_bottle", "domain.serialize_bottle"),
    (metrics, "bfs_distance", "oracle.bfs_distance"),
    (metrics, "summarize", "metrics.summarize"),
    (metrics, "episodes", "metrics.episodes"),
    (metrics, "table_optimality", "metrics.table_optimality"),
    (metrics, "reconstruct_tables", "metrics.reconstruct_tables"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.hello_changed = 0

    def _wrap(self, name: str, fn):
        idx = self._index.setdefault(name, len(self._index))
        if idx == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.span_name)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_start.append(0)
            self.span_end.append(0)
            stack.append(span)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[span] = perf_counter_ns()
                self.span_start[span] = start
                stack.pop()
        return traced

    def _wrap_hello(self, name: str, fn):
        inner = self._wrap(name, fn)

        @functools.wraps(fn)
        def traced(t, node):
            before = node.nbors
            out = inner(t, node)
            self.hello_changed += node.nbors != before
            return out
        return traced

    def __enter__(self) -> "Tracer":
        """Install the wrappers; the spans of the previous block are dropped."""
        self._reset()
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr]
            wrap = self._wrap_hello if attr == "hello_tick" else self._wrap
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.span_name)
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            agg = out[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            agg["calls"] += 1
            agg["s"] += dur / 1e9
            agg["self_s"] += (dur - child[i]) / 1e9
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: name, start ns, end ns, parent index."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]}"
                         f"\t{self.span_end[i]}\t{self.span_parent[i]}\n")
