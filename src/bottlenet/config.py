"""Run configuration: protocol knobs and scenario files.

Scenarios are JSON documents naming a topology (inline file path or a
generator spec), a seed, protocol parameter overrides, the request
schedule, fault injections, and the simulation horizon. A ScenarioConfig
is judged once, when it is built, and cannot change after."""

from __future__ import annotations

import os
from dataclasses import InitVar, dataclass, field
from typing import Any

from .domain import MAX_NODE_ID
from .errors import ConfigError
from .network import FAULT_OPS, fault_error, load_json
from .topogen import KINDS

DEFAULT_PER_HOP_LATENCY = 1
DEFAULT_HORIZON = 10_000

# smallest value each ProtocolConfig field accepts
_PROTOCOL_MINIMUMS = {"hop_limit": 1, "timeout": 1, "retry_limit": 0,
                      "per_hop_latency": 1, "beacon_period": 1}


@dataclass(frozen=True)
class ProtocolConfig:
    """Per-node protocol parameters.

    Defaults scale with network size: a bottle may walk up to 4x the node
    count, and the request timer covers a full out-and-back walk.
    """

    hop_limit: int
    timeout: int
    retry_limit: int = 3
    per_hop_latency: int = DEFAULT_PER_HOP_LATENCY
    beacon_period: int = DEFAULT_PER_HOP_LATENCY

    def __post_init__(self) -> None:
        for name, minimum in _PROTOCOL_MINIMUMS.items():
            if getattr(self, name) < minimum:
                raise ConfigError(f"protocol.{name} must be >= {minimum}")

    @classmethod
    def defaults_for(cls, n_nodes: int, **overrides: int) -> "ProtocolConfig":
        latency = overrides.get("per_hop_latency", DEFAULT_PER_HOP_LATENCY)
        hop_limit = overrides.get("hop_limit", 4 * n_nodes)
        params = {"hop_limit": hop_limit, "timeout": 2 * hop_limit * latency,
                  "beacon_period": latency}
        return cls(**(params | overrides))


@dataclass(frozen=True)
class RequestSpec:
    at: int
    src: int
    dest: int


@dataclass(frozen=True)
class RandomRequests:
    count: int
    first_at: int = 1
    spacing: int | None = None  # default: long enough for full resolution


@dataclass(frozen=True)
class FaultSpec:
    at: int
    op: str                 # one of network.FAULT_OPS
    target: tuple[int, ...]  # (node,) for a node op, (a, b) for a link op


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario whose fields meet every rule, loaded or built in code: a
    ConfigError names the first bad field. engine.run checks the rest against
    the topology: that each request's nodes and each fault's target exist."""

    seed: int
    topology_file: str | None = None
    generator: dict[str, Any] | None = None
    protocol: dict[str, int] = field(default_factory=dict)
    requests: list[RequestSpec] = field(default_factory=list)
    random_requests: RandomRequests | None = None
    faults: list[FaultSpec] = field(default_factory=list)
    horizon: int | None = None  # None: sized to cover all scheduled requests
    source: InitVar[str] = "<scenario>"

    def __post_init__(self, source: str) -> None:
        _int_field(vars(self), "seed", source)
        _check_topology(self.topology_file, self.generator, source)
        _check_protocol(self.protocol, source)
        for i, req in enumerate(_list_field(vars(self), "requests", source)):
            where = f"{source}: field 'requests[{i}]'"
            fields = _spec_fields(req, RequestSpec, where)
            for key in fields:
                _int_field(fields, key, where)
            if req.src == req.dest:
                raise ConfigError(f"{where}: request at t={req.at}: src and dest are both "
                                  f"node {req.src}; a request to self needs no route")
        if self.random_requests is not None:
            where = f"{source}: field 'random_requests'"
            fields = _spec_fields(self.random_requests, RandomRequests, where)
            _int_field(fields, "count", where, minimum=1)
            _int_field(fields, "first_at", where)
            if fields["spacing"] is not None:  # None is the default
                _int_field(fields, "spacing", where, minimum=1)
        for i, fault in enumerate(_list_field(vars(self), "faults", source)):
            where = f"{source}: field 'faults[{i}]'"
            _int_field(_spec_fields(fault, FaultSpec, where), "at", where)
            error = fault_error(fault.op, fault.target)
            if error:
                raise ConfigError(f"{where}: {error}")
        if self.horizon is not None:
            _int_field(vars(self), "horizon", source, minimum=1)


def _spec_fields(value: Any, spec: type, where: str) -> dict[str, Any]:
    """The fields of value, which must be an instance of spec."""
    if not isinstance(value, spec):
        raise ConfigError(f"{where}: expected a {spec.__name__}, got {value!r}")
    return vars(value)


def _int_field(doc: dict, key: str, source: str, minimum: int | None = 0,
               maximum: int | None = None) -> None:
    """doc[key] must be an integer >= minimum (any integer when minimum is
    None) and <= maximum, if one is given."""
    value = doc[key]
    if (not isinstance(value, int) or isinstance(value, bool)
            or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)):
        expected = "integer" if minimum is None else f"integer >= {minimum}"
        if maximum is not None:
            expected += f" and <= {maximum}"
        raise ConfigError(f"{source}: field '{key}': expected {expected}, got {value!r}")


def _list_field(doc: dict, key: str, source: str) -> list | tuple:
    """doc[key] as an array, empty when absent."""
    value = doc.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{source}: field '{key}': expected an array, got {value!r}")
    return value


def _check_topology(topology_file: Any, generator: Any, source: str) -> None:
    """A file path, or else a generator spec."""
    if topology_file is not None:
        if not isinstance(topology_file, str):
            raise ConfigError(f"{source}: field 'topology.file': expected a path, "
                              f"got {topology_file!r}")
        return
    if generator is None:
        raise ConfigError(f"{source}: field 'topology': need 'file' or 'generator'")
    where = f"{source}: field 'topology.generator'"
    if not isinstance(generator, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in ("kind", "nodes", "seed"):
        if key not in generator:
            raise ConfigError(f"{source}: field 'topology.generator.{key}' is required")
    _keys(generator, where, ("kind", "nodes", "seed"))  # names an unknown key
    if generator["kind"] not in KINDS:
        raise ConfigError(f"{where}: field 'kind': unknown kind {generator['kind']!r}; "
                          f"expected one of {KINDS}")
    # node ids are uint16
    _int_field(generator, "nodes", where, minimum=2, maximum=MAX_NODE_ID + 1)
    _int_field(generator, "seed", where, minimum=None)


def _check_protocol(protocol: Any, source: str) -> None:
    if not isinstance(protocol, dict):
        raise ConfigError(f"{source}: field 'protocol': expected an object")
    for key in protocol:
        if key not in _PROTOCOL_MINIMUMS:
            raise ConfigError(f"{source}: field 'protocol.{key}': unknown parameter")
        _int_field(protocol, key, f"{source}: field 'protocol'",
                   minimum=_PROTOCOL_MINIMUMS[key])


def scenario_from_dict(doc: dict, source: str = "<scenario>") -> ScenarioConfig:
    """The scenario a JSON document describes, judged by ScenarioConfig,
    which holds every rule on its values. Building it needs only that the
    document, topology, random_requests and each request and fault are
    objects with their required keys and no unknown one, and that each
    fault's op picks the key of its target: 'node' or 'link'. A topology
    holds 'file' or else 'generator'. A JSON null is the field's None."""
    seed, topo = _keys(doc, source, ("seed", "topology"),
                       ("protocol", "requests", "random_requests", "faults", "horizon"))
    if not isinstance(topo, dict):
        topo = {}  # ScenarioConfig names the field
    elif "file" in topo or "generator" in topo:  # else ScenarioConfig needs one
        _keys(topo, f"{source}: field 'topology'", ("file" if "file" in topo else "generator",))
    requests = doc.get("requests", [])
    if isinstance(requests, (list, tuple)):  # else ScenarioConfig names it
        requests = [RequestSpec(*_keys(req, f"{source}: field 'requests[{i}]'",
                                       ("at", "src", "dest")))
                    for i, req in enumerate(requests)]
    rr = doc.get("random_requests")
    if rr is not None:
        (count,) = _keys(rr, f"{source}: field 'random_requests'", ("count",),
                         ("first_at", "spacing"))
        rr = RandomRequests(count, rr.get("first_at", 1), rr.get("spacing"))
    faults = doc.get("faults", [])
    if isinstance(faults, (list, tuple)):
        faults = [_fault(fault, f"{source}: field 'faults[{i}]'")
                  for i, fault in enumerate(faults)]
    return ScenarioConfig(
        seed=seed,
        topology_file=topo.get("file"),
        generator=topo.get("generator"),
        protocol=doc.get("protocol", {}),
        requests=requests,
        random_requests=rr,
        faults=faults,
        horizon=doc.get("horizon"),
        source=source,
    )


def _keys(obj: Any, where: str, required: tuple[str, ...],
          optional: tuple[str, ...] = ()) -> list:
    """The values of the required keys in obj, which must be an object
    holding each of them and no key that is neither required nor optional."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    try:
        values = [obj[key] for key in required]
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field '{exc.args[0]}'") from None
    if len(obj) > len(required):
        for key in obj:
            if key not in required and key not in optional:
                raise ConfigError(f"{where}: unknown field '{key}'")
    return values


def _fault(fault: Any, where: str) -> FaultSpec:
    op = fault.get("op") if isinstance(fault, dict) else None
    if op not in FAULT_OPS:  # ScenarioConfig names the op
        return FaultSpec(*_keys(fault, where, ("at", "op"), ("node", "link")), ())
    key = "node" if op.endswith("_node") else "link"
    at, op, target = _keys(fault, where, ("at", "op", key))
    if key == "node":
        return FaultSpec(at, op, (target,))
    return FaultSpec(at, op, tuple(target) if isinstance(target, list) else target)


def load_scenario(path: str) -> ScenarioConfig:
    """The scenario in path; a relative topology.file is read from its directory."""
    doc = load_json(path)
    topo = doc.get("topology") if isinstance(doc, dict) else None
    if isinstance(topo, dict) and isinstance(topo.get("file"), str):
        topo["file"] = os.path.join(os.path.dirname(os.path.abspath(path)), topo["file"])
    return scenario_from_dict(doc, source=path)
