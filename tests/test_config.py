import dataclasses
import json
import re
from unittest import mock

import pytest

from bottlenet import config
from bottlenet.config import (ProtocolConfig, RequestSpec, ScenarioConfig, load_scenario,
                              scenario_from_dict)
from bottlenet.engine import run
from bottlenet.errors import ConfigError
from bottlenet.network import save_topology
from bottlenet.topogen import generate_topology


class TestProtocolDefaults:
    def test_scale_with_network_size(self):
        cfg = ProtocolConfig.defaults_for(15)
        assert cfg.hop_limit == 60
        assert cfg.timeout == 2 * 60 * cfg.per_hop_latency
        assert cfg.retry_limit == 3

    def test_timeout_follows_overridden_hop_limit(self):
        cfg = ProtocolConfig.defaults_for(15, hop_limit=10)
        assert cfg.timeout == 20

    def test_explicit_values_win(self):
        cfg = ProtocolConfig.defaults_for(15, timeout=999, retry_limit=7)
        assert cfg.timeout == 999 and cfg.retry_limit == 7

    def test_nonsense_values_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(hop_limit=0, timeout=10)
        with pytest.raises(ConfigError):
            ProtocolConfig(hop_limit=10, timeout=10, beacon_period=0)


class TestScenarioParsing:
    def base(self):
        return {"seed": 1, "topology": {"file": "t.json"}}

    def test_minimal(self):
        sc = scenario_from_dict(self.base())
        assert sc.seed == 1 and sc.topology_file == "t.json"

    def test_missing_seed_named(self):
        with pytest.raises(ConfigError, match="'seed'"):
            scenario_from_dict({"topology": {"file": "t.json"}})

    def test_missing_topology_named(self):
        with pytest.raises(ConfigError, match="'topology'"):
            scenario_from_dict({"seed": 1})

    def test_unknown_protocol_parameter(self):
        doc = self.base() | {"protocol": {"warp_speed": 9}}
        with pytest.raises(ConfigError, match="warp_speed"):
            scenario_from_dict(doc)

    def test_request_fields_checked(self):
        doc = self.base() | {"requests": [{"at": 1, "src": 0}]}
        with pytest.raises(ConfigError, match=r"requests\[0\].*'dest'"):
            scenario_from_dict(doc)

    def test_request_to_self_rejected(self):
        doc = self.base() | {"requests": [{"at": 1, "src": 0, "dest": 1},
                                          {"at": 2, "src": 3, "dest": 3}]}
        with pytest.raises(ConfigError, match=r"requests\[1\].*node 3"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("field", ["requests", "faults"])
    @pytest.mark.parametrize("value", [5, None, {"a": 1}])
    def test_list_field_must_be_an_array(self, field, value):
        with pytest.raises(ConfigError, match=rf"field '{field}': expected an array"):
            scenario_from_dict(self.base() | {field: value})

    def test_unhashable_fault_op_named(self):
        doc = self.base() | {"faults": [{"at": 1, "op": ["x"], "node": 1}]}
        with pytest.raises(ConfigError, match=r"faults\[0\].*'op'"):
            scenario_from_dict(doc)

    def test_fault_link_shape(self):
        doc = self.base() | {"faults": [{"at": 1, "op": "fail_link", "link": [1]}]}
        with pytest.raises(ConfigError, match="link"):
            scenario_from_dict(doc)

    def test_fault_node_beyond_id_range_named(self):
        doc = self.base() | {"faults": [{"at": 1, "op": "fail_node", "node": 70000}]}
        with pytest.raises(ConfigError, match=r"faults\[0\].*'node'"):
            scenario_from_dict(doc)

    def test_fault_link_boolean_rejected(self):
        doc = self.base() | {"faults": [{"at": 1, "op": "fail_link", "link": [True, 2]}]}
        with pytest.raises(ConfigError, match=r"faults\[0\].*'link'"):
            scenario_from_dict(doc)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ConfigError, match="horizon"):
            scenario_from_dict(self.base() | {"horizon": -5})

    def test_boolean_horizon_rejected(self):
        # a bool is an int: true would load as a horizon of 1
        with pytest.raises(ConfigError, match="'horizon'"):
            scenario_from_dict(self.base() | {"horizon": True})

    def test_topology_must_be_an_object(self):
        with pytest.raises(ConfigError, match=r"field 'topology':"):
            scenario_from_dict({"seed": 1, "topology": 5})

    def test_generator_must_be_an_object(self):
        with pytest.raises(ConfigError, match=r"field 'topology\.generator':"):
            scenario_from_dict({"seed": 1, "topology": {"generator": 5}})

    def test_topology_file_must_be_a_path(self):
        with pytest.raises(ConfigError, match=r"'topology\.file'"):
            scenario_from_dict({"seed": 1, "topology": {"file": 5}})

    def test_generator_spec(self):
        doc = {"seed": 1, "topology": {"generator": {"kind": "dense", "nodes": 20, "seed": 2}}}
        sc = scenario_from_dict(doc)
        assert sc.generator == {"kind": "dense", "nodes": 20, "seed": 2}

    def test_protocol_boolean_rejected(self):
        doc = self.base() | {"protocol": {"retry_limit": True}}
        with pytest.raises(ConfigError, match="retry_limit"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("spacing", ["5", 0])
    def test_random_spacing_checked(self, spacing):
        doc = self.base() | {"random_requests": {"count": 3, "spacing": spacing}}
        with pytest.raises(ConfigError, match=r"random_requests.*'spacing'"):
            scenario_from_dict(doc)

    def test_random_first_at_checked(self):
        doc = self.base() | {"random_requests": {"count": 3, "first_at": -4}}
        with pytest.raises(ConfigError, match=r"random_requests.*'first_at'"):
            scenario_from_dict(doc)

    def generator_doc(self, **fields):
        gen = {"kind": "generic", "nodes": 5, "seed": 0} | fields
        return {"seed": 1, "topology": {"generator": gen}}

    @pytest.mark.parametrize("nodes", ["5", 1, 70000])
    def test_generator_nodes_checked(self, nodes):
        with pytest.raises(ConfigError, match=r"topology\.generator.*'nodes'"):
            scenario_from_dict(self.generator_doc(nodes=nodes))

    def test_generator_seed_checked(self):
        with pytest.raises(ConfigError, match=r"topology\.generator.*'seed'"):
            scenario_from_dict(self.generator_doc(seed=True))

    def test_generator_kind_checked(self):
        with pytest.raises(ConfigError, match=r"topology\.generator.*'kind'"):
            scenario_from_dict(self.generator_doc(kind="ring"))

    @pytest.mark.parametrize("key", ["hop_limit", "timeout", "queue_cap",
                                     "per_hop_latency", "beacon_period"])
    def test_protocol_below_minimum_rejected(self, key):
        doc = self.base() | {"protocol": {key: 0}}
        with pytest.raises(ConfigError, match=rf"protocol.*'{key}'.*>= 1"):
            scenario_from_dict(doc)

    GENERATOR = {"kind": "generic", "nodes": 5, "seed": 0}

    @pytest.mark.parametrize("fields, error", [
        ({"fualts": []}, "<scenario>: unknown field 'fualts'"),
        ({"topology": {"file": "t.json", "generator": GENERATOR}},
         "<scenario>: field 'topology': unknown field 'generator'"),
        ({"topology": {"generator": GENERATOR | {"nodez": 7}}},
         "<scenario>: field 'topology.generator': unknown field 'nodez'"),
        ({"requests": [{"at": 1, "src": 0, "dest": 1, "payload_len": 64}]},
         "<scenario>: field 'requests[0]': unknown field 'payload_len'"),
        ({"random_requests": {"count": 3, "spaceing": 5}},
         "<scenario>: field 'random_requests': unknown field 'spaceing'"),
        ({"faults": [{"at": 1, "op": "fail_node", "node": 1, "link": [1, 2]}]},
         "<scenario>: field 'faults[0]': unknown field 'link'"),
        ({"faults": [{"at": 1, "op": "fail_link", "link": [1, 2], "node": 1}]},
         "<scenario>: field 'faults[0]': unknown field 'node'"),
        ({"faults": [{"at": 1, "op": "explode", "nod": 1}]},
         "<scenario>: field 'faults[0]': unknown field 'nod'"),
    ], ids=["document", "topology", "generator", "request", "random_requests",
            "node-fault", "link-fault", "unknown-op-fault"])
    def test_unknown_key_named(self, fields, error):
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(self.base() | fields)
        assert str(exc.value) == error

    @pytest.mark.parametrize("fields, error", [
        ({"requests": [{"at": 1, "src": 0, "payload_len": 64}]}, "missing field 'dest'"),
        ({"topology": {"generator": {"kind": "generic", "nodez": 7, "seed": 0}}},
         r"'topology\.generator\.nodes' is required"),
        ({"topology": {"generatr": GENERATOR}}, "field 'topology': need 'file' or 'generator'"),
        # an unknown op may carry either target key: the op is named
        ({"faults": [{"at": 1, "op": "explode", "node": 1, "link": [1, 2]}]},
         "unknown op 'explode'"),
    ], ids=["request", "generator", "topology", "fault-op"])
    def test_missing_key_and_unknown_op_named_before_an_unknown_key(self, fields, error):
        with pytest.raises(ConfigError, match=error):
            scenario_from_dict(self.base() | fields)

    def test_missing_file_names_its_path(self, tmp_path):
        path = tmp_path / "nowhere.json"
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: .*No such file"):
            load_scenario(str(path))


class TestJudgedOnce:
    """The scenario rules run once, when a ScenarioConfig is built, loaded or
    in code, and the scenario cannot change after; run adds none of them."""

    GENERATOR = {"kind": "generic", "nodes": 6, "seed": 0}

    def judgments(self, make):
        """How often the rules ran while make built and ran a scenario."""
        with mock.patch.object(config, "_check_protocol",
                               wraps=config._check_protocol) as rule:
            run(make())
        return rule.call_count

    def code_built(self):
        return ScenarioConfig(seed=1, generator=self.GENERATOR, horizon=50,
                              requests=[RequestSpec(at=1, src=0, dest=5)])

    def test_loaded_scenario_judged_once(self, tmp_path):
        save_topology(generate_topology("generic", 6, 0), str(tmp_path / "g6.json"))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 1, "topology": {"file": "g6.json"},
                                    "requests": [{"at": 1, "src": 0, "dest": 5}]}))
        assert self.judgments(lambda: load_scenario(str(path))) == 1
        assert load_scenario(str(path)).topology_file == str(tmp_path / "g6.json")

    def test_code_built_scenario_judged_once(self):
        assert self.judgments(self.code_built) == 1
        scenario = self.code_built()
        assert self.judgments(lambda: scenario) == 0

    def test_fields_cannot_change(self):
        scenario = self.code_built()
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.horizon = 0
        assert not hasattr(scenario, "check")
