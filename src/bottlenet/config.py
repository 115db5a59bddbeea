"""Run configuration: protocol knobs and scenario files.

Scenarios are JSON documents naming a topology (inline file path or a
generator spec), a seed, protocol parameter overrides, the request
schedule, fault injections, and the simulation horizon.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from .domain import MAX_NODE_ID, is_node_id
from .errors import ConfigError
from .network import FAULT_OPS, load_json
from .topogen import KINDS

DEFAULT_PER_HOP_LATENCY = 1
DEFAULT_HORIZON = 10_000

# smallest value each ProtocolConfig field accepts
_PROTOCOL_MINIMUMS = {"hop_limit": 1, "timeout": 1, "retry_limit": 0,
                      "queue_cap": 1, "per_hop_latency": 1, "beacon_period": 1}


@dataclass(frozen=True)
class ProtocolConfig:
    """Per-node protocol parameters.

    Defaults scale with network size: a bottle may walk up to 4x the node
    count, and the request timer covers a full out-and-back walk.
    """

    hop_limit: int
    timeout: int
    retry_limit: int = 3
    queue_cap: int = 16
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


@dataclass
class ScenarioConfig:
    seed: int
    topology_file: str | None = None
    generator: dict[str, Any] | None = None
    protocol: dict[str, int] = field(default_factory=dict)
    requests: list[RequestSpec] = field(default_factory=list)
    random_requests: RandomRequests | None = None
    faults: list[FaultSpec] = field(default_factory=list)
    horizon: int | None = None  # None: sized to cover all scheduled requests

    def protocol_for(self, n_nodes: int) -> ProtocolConfig:
        return ProtocolConfig.defaults_for(n_nodes, **self.protocol)

    def check(self, source: str = "<scenario>") -> None:
        """The checks scenario_from_dict makes, with its messages, for a
        scenario built in code: a ConfigError names the first bad field.
        engine.run checks the rest against the topology: each fault's op
        and target, and that each request names two different nodes."""
        _int_field(vars(self), "seed", source)
        _check_topology(self.topology_file, self.generator, source)
        _check_protocol(self.protocol, source)
        for i, req in enumerate(_list_field(vars(self), "requests", source)):
            where = f"{source}: field 'requests[{i}]'"
            _request(_spec_fields(req, RequestSpec, where), where)
        if self.random_requests is not None:
            where = f"{source}: field 'random_requests'"
            fields = _spec_fields(self.random_requests, RandomRequests, where)
            if fields["spacing"] is None:  # the default, as an absent key is in a file
                fields = {key: value for key, value in fields.items() if key != "spacing"}
            _random_requests(fields, where)
        for i, fault in enumerate(_list_field(vars(self), "faults", source)):
            where = f"{source}: field 'faults[{i}]'"
            _int_field(_spec_fields(fault, FaultSpec, where), "at", where)
        if self.horizon is not None:
            _int_field(vars(self), "horizon", source, minimum=1)


def _spec_fields(value: Any, spec: type, where: str) -> dict[str, Any]:
    """The fields of value, which must be an instance of spec."""
    if not isinstance(value, spec):
        raise ConfigError(f"{where}: expected a {spec.__name__}, got {value!r}")
    return vars(value)


def _require(doc: dict, key: str, source: str) -> Any:
    if key not in doc:
        raise ConfigError(f"{source}: missing field '{key}'")
    return doc[key]


_REQUIRED = object()


def _int_field(doc: dict, key: str, source: str, minimum: int | None = 0,
               default: Any = _REQUIRED, maximum: int | None = None) -> Any:
    """doc[key] as an integer >= minimum (any integer when minimum is None)
    and <= maximum, if one is given; default when absent, if one is given."""
    if key not in doc and default is not _REQUIRED:
        return default
    value = _require(doc, key, source)
    if (not isinstance(value, int) or isinstance(value, bool)
            or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)):
        expected = "integer" if minimum is None else f"integer >= {minimum}"
        if maximum is not None:
            expected += f" and <= {maximum}"
        raise ConfigError(f"{source}: field '{key}': expected {expected}, got {value!r}")
    return value


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


def _request(req: dict, where: str) -> RequestSpec:
    return RequestSpec(
        at=_int_field(req, "at", where),
        src=_int_field(req, "src", where),
        dest=_int_field(req, "dest", where),
    )


def _random_requests(rr: dict, where: str) -> RandomRequests:
    return RandomRequests(
        count=_int_field(rr, "count", where, minimum=1),
        first_at=_int_field(rr, "first_at", where, default=1),
        spacing=_int_field(rr, "spacing", where, minimum=1, default=None),
    )


def scenario_from_dict(doc: dict, source: str = "<scenario>") -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: expected a JSON object")
    seed = _int_field(doc, "seed", source)

    topo = _require(doc, "topology", source)
    if not isinstance(topo, dict):
        topo = {}
    topology_file = topo.get("file")
    generator = None if "file" in topo else topo.get("generator")
    _check_topology(topology_file, generator, source)

    protocol = doc.get("protocol", {})
    _check_protocol(protocol, source)

    requests = []
    for i, req in enumerate(_list_field(doc, "requests", source)):
        where = f"{source}: field 'requests[{i}]'"
        if not isinstance(req, dict):
            raise ConfigError(f"{where}: expected an object")
        spec = _request(req, where)
        if spec.src == spec.dest:
            raise ConfigError(f"{where}: src and dest are both node {spec.src}; "
                              "a request to self needs no route")
        requests.append(spec)

    random_requests = None
    if "random_requests" in doc:
        rr = doc["random_requests"]
        where = f"{source}: field 'random_requests'"
        if not isinstance(rr, dict):
            raise ConfigError(f"{where}: expected an object")
        random_requests = _random_requests(rr, where)

    faults = []
    for i, fault in enumerate(_list_field(doc, "faults", source)):
        where = f"{source}: field 'faults[{i}]'"
        if not isinstance(fault, dict):
            raise ConfigError(f"{where}: expected an object")
        op = _require(fault, "op", where)
        if not isinstance(op, str) or op not in FAULT_OPS:
            raise ConfigError(f"{where}: field 'op': unknown operation {op!r}")
        at = _int_field(fault, "at", where)
        if op.endswith("_node"):
            target = (_int_field(fault, "node", where, maximum=MAX_NODE_ID),)
        else:
            link = _require(fault, "link", where)
            if (not isinstance(link, (list, tuple)) or len(link) != 2
                    or not all(is_node_id(x) for x in link)):
                raise ConfigError(f"{where}: field 'link': expected [a, b]")
            target = tuple(link)
        faults.append(FaultSpec(at=at, op=op, target=target))

    horizon = doc.get("horizon")
    if horizon is not None:
        horizon = _int_field(doc, "horizon", source, minimum=1)

    return ScenarioConfig(
        seed=seed,
        topology_file=topology_file,
        generator=generator,
        protocol=dict(protocol),
        requests=requests,
        random_requests=random_requests,
        faults=faults,
        horizon=horizon,
    )


def load_scenario(path: str) -> ScenarioConfig:
    scenario = scenario_from_dict(load_json(path), source=path)
    if scenario.topology_file is not None and not os.path.isabs(scenario.topology_file):
        scenario.topology_file = os.path.join(os.path.dirname(os.path.abspath(path)),
                                              scenario.topology_file)
    return scenario
