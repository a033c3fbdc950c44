"""Scenario file validation: field-level diagnostics, static invariants."""

import copy

import pytest

from bridgesim import presets
from bridgesim.scenario import (
    ScenarioInvalid,
    parse_scenario,
    validate_genesis_data,
    validate_scenario,
)


@pytest.fixture
def data():
    return presets.happy_path()


def errors_of(diags):
    return [d for d in diags if d.level == "error"]


def test_reference_scenario_validates(data):
    assert errors_of(validate_scenario(data)) == []


def test_diagnostics_name_the_field(data):
    del data["token_chain"]["total_supply"]
    diags = errors_of(validate_scenario(data))
    assert any("token_chain.total_supply" == d.field for d in diags)


def test_account_sum_must_match_supply(data):
    key = next(iter(data["accounts"]))
    data["accounts"][key] += 1
    diags = errors_of(validate_scenario(data))
    assert any(d.field == "accounts" for d in diags)


def test_genesis_reserves_must_match_supply(data):
    data["side_chains"][0]["genesis"]["Bal_Bank"] += 1
    diags = errors_of(validate_scenario(data))
    assert any("Bal_Resv" in d.field for d in diags)


@pytest.mark.parametrize("field", ["Bal_Resv", "Bal_Bank"])
@pytest.mark.parametrize("delta", [1, -1])
def test_supply_rule(data, field, delta):
    data["side_chains"][0]["genesis"][field] += delta
    diags = errors_of(validate_scenario(data))
    assert [d.field for d in diags] == ["side_chains[0].genesis.Bal_Resv"]
    assert "must equal total supply" in diags[0].message


def test_native_has_no_supply_rule():
    native = presets.happy_path(variant="native_gas")
    native["token_chain"]["total_supply"] += 123
    key = next(iter(native["accounts"]))
    native["accounts"][key] += 123  # keep the account sum rule satisfied
    assert errors_of(validate_scenario(native)) == []


def test_missing_witness_list_field_is_named(data):
    del data["side_chains"][0]["genesis"]["Wit_Addr_List"]
    diags = errors_of(validate_scenario(data))
    assert any(d.field.endswith("Wit_Addr_List") for d in diags)


def test_threshold_must_exceed_half(data):
    data["side_chains"][0]["bridge_head"]["threshold"] = 2  # N = 4
    diags = errors_of(validate_scenario(data))
    assert any("threshold" in d.field for d in diags)


def test_threshold_above_half_is_configurable(data):
    data["side_chains"][0]["bridge_head"]["threshold"] = 4
    assert errors_of(validate_scenario(data)) == []


def test_witness_roster_must_match_genesis(data):
    data["witnesses"][0]["side_address"] = presets.addr("stranger")
    diags = errors_of(validate_scenario(data))
    assert any("Wit_Addr_List" in d.field for d in diags)


def test_side_chain_id_cannot_be_token_id(data):
    data["side_chains"][0]["genesis"]["Chain_ID"] = data["token_chain"]["chain_id"]
    diags = errors_of(validate_scenario(data))
    assert any("Chain_ID" in d.field for d in diags)


def test_workload_creator_must_be_funded(data):
    data["workload"][0]["creator"] = presets.addr("nobody")
    diags = errors_of(validate_scenario(data))
    assert any("creator" in d.field for d in diags)


def test_workload_unknown_chain(data):
    data["workload"][0]["chain_id"] = presets.addr("ghost-chain")
    diags = errors_of(validate_scenario(data))
    assert any("chain_id" in d.field for d in diags)


def test_underfunded_registration_is_a_warning_not_an_error(data):
    data["workload"][0]["attach"] = 500
    diags = validate_scenario(data)
    assert errors_of(diags) == []
    assert any(d.level == "warning" and "attach" in d.field for d in diags)
    scenario = parse_scenario(data)
    assert scenario.warnings


def test_bad_fault_rate(data):
    data["fault_plan"] = {"drop_rate": 1.5}
    diags = errors_of(validate_scenario(data))
    assert any("drop_rate" in d.field for d in diags)


def test_unknown_top_level_field(data):
    data["bogus"] = 1
    diags = errors_of(validate_scenario(data))
    assert any(d.field == "bogus" for d in diags)


def test_parse_raises_with_all_diagnostics(data):
    del data["registry"]
    data["mode"] = "wrong"
    with pytest.raises(ScenarioInvalid) as exc:
        parse_scenario(data)
    fields = {d.field for d in exc.value.diagnostics}
    assert "registry" in fields and "mode" in fields


def test_duplicate_witness_names(data):
    data["witnesses"][1]["name"] = data["witnesses"][0]["name"]
    diags = errors_of(validate_scenario(data))
    assert any("name" in d.field for d in diags)


def test_reorg_schedule_names_known_chain(data):
    data["fault_plan"] = {"reorg_schedule": [
        {"tick": 10, "chain": presets.addr("ghost"), "depth": 1}]}
    diags = errors_of(validate_scenario(data))
    assert any("reorg_schedule" in d.field for d in diags)


def test_genesis_only_validation():
    genesis = presets.happy_path()["side_chains"][0]["genesis"]
    assert validate_genesis_data(genesis) == []
    broken = copy.deepcopy(genesis)
    del broken["SC_Bank"]
    diags = validate_genesis_data(broken)
    assert diags and diags[0].field == "SC_Bank"


def test_native_initial_height_allowed_gasless_rejected(data):
    data["side_chains"][0]["initial_height"] = 3
    diags = errors_of(validate_scenario(data))
    assert any("initial_height" in d.field for d in diags)
    native = presets.happy_path(variant="native_gas")
    native["side_chains"][0]["initial_height"] = 3
    assert errors_of(validate_scenario(native)) == []
