"""Generated scenario documents: a valid document with one field replaced
either runs, or is refused with a ConfigError that names the field before
the first event; and a scenario built in code with the same value in its
spec is refused with the same message."""

import copy
import dataclasses
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bottlenet.config import scenario_from_dict
from bottlenet.engine import Engine, run
from bottlenet.errors import ConfigError
from bottlenet.network import FAULT_OPS, save_topology
from bottlenet.topogen import generate_topology

TOPOLOGY = generate_topology("generic", 10, 0)
EDGE = sorted(TOPOLOGY.edges)[0]
MISSING = object()  # the key is deleted


def base_doc(topology_file):
    return {
        "seed": 3,
        "topology": {"file": topology_file},
        "protocol": {"hop_limit": 12, "timeout": 30, "retry_limit": 1, "beacon_period": 2},
        "requests": [{"at": 1, "src": 0, "dest": 5}, {"at": 4, "src": 2, "dest": 7}],
        "random_requests": {"count": 2, "first_at": 10, "spacing": 40},
        "faults": [{"at": 3, "op": "fail_node", "node": 4},
                   {"at": 6, "op": "fail_link", "link": list(EDGE)},
                   {"at": 50, "op": "restore_link", "link": list(EDGE)}],
        "horizon": 300,
    }


# every field of the document, as the path of keys to it
PATHS = (
    [("seed",), ("topology", "file"), ("protocol",), ("requests",), ("random_requests",),
     ("faults",), ("horizon",)]
    + [("protocol", key) for key in ("hop_limit", "timeout", "retry_limit", "beacon_period")]
    + [("requests", i, key) for i in (0, 1) for key in ("at", "src", "dest")] + [("requests", 1)]
    + [("random_requests", key) for key in ("count", "first_at", "spacing")]
    + [("faults", i, key) for i in (0, 1, 2) for key in ("at", "op")]
    + [("faults", 0, "node"), ("faults", 1, "link"), ("faults", 2)]
)
NODE_IDS = st.integers(0, 20)  # 10 and up are not in the topology
ANY = st.one_of(st.just(MISSING), st.none(), st.sampled_from(["5", 1.5, True, [1], {"a": 1}]))
BY_KEY = {
    "src": NODE_IDS, "dest": NODE_IDS, "node": NODE_IDS,
    "link": st.lists(NODE_IDS, max_size=3) | st.sampled_from(sorted(TOPOLOGY.edges)).map(list),
    "op": st.sampled_from(FAULT_OPS + ("explode",)),
}


@st.composite
def mutations(draw):
    """(path, value): one field and the value that replaces it."""
    path = draw(st.sampled_from(PATHS))
    values = ANY | BY_KEY.get(path[-1], st.integers(-2, 5))
    if path[-1] == "file":  # a path to no file is refused as the file's error
        values = values.filter(lambda value: not isinstance(value, str))
    return path, draw(values)


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def built(doc, path, value):
    """A function that builds in code the scenario of the base document's
    specs with value in the field path names, or None where value does not
    fit in a spec."""
    base = scenario_from_dict(doc)
    if value is MISSING:
        return None
    name, *rest = path
    if not rest:
        if (name == "random_requests" and value is not None
                or name in ("requests", "faults") and isinstance(value, list)):
            return None  # the loader wants objects, ScenarioConfig specs
        return lambda: dataclasses.replace(base, **{name: value})
    if name == "topology":
        return lambda: dataclasses.replace(base, topology_file=value)
    if name == "protocol":
        return lambda: dataclasses.replace(base, protocol=base.protocol | {rest[0]: value})
    if name == "random_requests":
        return lambda: dataclasses.replace(base, random_requests=dataclasses.replace(
            base.random_requests, **{rest[0]: value}))
    if len(rest) == 1:
        return None  # a whole request or fault: the loader wants an object
    i, key = rest
    specs = list(getattr(base, name))
    spec = specs[i]
    if key == "node":
        spec = dataclasses.replace(spec, target=(value,))
    elif key == "link":
        spec = dataclasses.replace(spec, target=tuple(value) if isinstance(value, list) else value)
    elif key == "op" and value in FAULT_OPS and (
            value.endswith("_node") != spec.op.endswith("_node")):
        return None  # the new op reads its target from the other key
    else:
        spec = dataclasses.replace(spec, **{key: value})
    specs[i] = spec
    return lambda: dataclasses.replace(base, **{name: specs})


def outcome(make_scenario):
    """None when the scenario runs, else its ConfigError's message, which
    must come before the engine's loop starts."""
    loops = []
    original = Engine.run

    def counting(self):
        loops.append(self)
        original(self)

    with mock.patch.object(Engine, "run", counting):
        try:
            run(make_scenario())
        except ConfigError as exc:
            assert loops == [], f"failed mid-run: {exc}"
            return str(exc)
    return None


@pytest.fixture(scope="module")
def doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("topology") / "g10.json"
    save_topology(TOPOLOGY, str(path))
    return base_doc(str(path))


def test_the_base_document_runs(doc):
    assert run(scenario_from_dict(doc)).records("RouteFound")


@settings(max_examples=300, deadline=None)
@given(mutation=mutations())
def test_a_document_runs_or_names_its_bad_field(doc, mutation):
    path, value = mutation
    loaded = outcome(lambda: scenario_from_dict(mutated(doc, path, value)))
    assert loaded is None or re.search(r"field '|missing field", loaded), loaded
    build = built(doc, path, value)
    if build is not None:
        assert outcome(build) == loaded
