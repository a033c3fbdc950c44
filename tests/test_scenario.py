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


def _add_action(raw, **fields):
    raw["workload"].append({"tick": 5, **fields})
    return f"workload[{len(raw['workload']) - 1}]"


def _pay(raw, **extra):
    return _add_action(raw, action="pay", **{
        "from": presets.addr("alice"), "to": presets.addr("bob"), "value": 1, **extra})


def _record(raw, **extra):
    return _add_action(raw, action="record", chain_id=presets.addr("side-1"), **extra)


def _register(raw, key, value):
    raw["workload"][0][key] = value
    return "workload[0]"


def _reorg(raw, exclude, key="exclude"):
    raw["fault_plan"] = {"reorg_schedule": [
        {"tick": 10, "chain": presets.addr("token-chain"), "depth": 1, key: exclude}]}
    return "fault_plan.reorg_schedule[0]"


def _fault_list(raw, key):
    raw["fault_plan"] = {key: 5}
    return "fault_plan"


def _extra(raw, path, key, value=1):
    """Add ``key`` to the object at ``path``; return that object's field name."""
    obj = raw
    for step in path:
        obj = obj[step]
    obj[key] = value
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)[1:]


def _behavior_change(raw, **extra):
    raw["fault_plan"] = {"behavior_schedule": [
        {"tick": 5, "witness": raw["witnesses"][0]["name"], "behavior": "crashed", **extra}]}
    return "fault_plan.behavior_schedule[0]"


DIGEST = "0x" + "ab" * 32

# (mutation returning the field prefix, the field under it)
BAD_INPUTS = {
    "genesis_hash_bad_hex": (lambda d: _register(d, "genesis_hash", "0xzz"), "genesis_hash"),
    "genesis_hash_short": (lambda d: _register(d, "genesis_hash", DIGEST[:-2]), "genesis_hash"),
    "balance_string": (lambda d: _register(d, "balance", "abc"), "balance"),
    "balance_float": (lambda d: _register(d, "balance", 1.5), "balance"),
    "pay_unknown_chain": (lambda d: _pay(d, chain=presets.addr("ghost")), "chain"),
    "pay_gasprice_not_int": (lambda d: _pay(d, gasprice="x"), "gasprice"),
    "record_bad_from": (lambda d: _record(d, **{"from": "nothex"}), "from"),
    "record_bad_to": (lambda d: _record(d, to="0x12"), "to"),
    "record_data_not_string": (lambda d: _record(d, data=5), "data"),
    "trade_on_gasless_chain": (
        lambda d: _add_action(d, action="trade", chain_id=presets.addr("side-1"), **{
            "from": presets.addr("creator-side"), "to": presets.addr("alice"), "value": 1}),
        "chain_id",
    ),
    "exclude_string": (lambda d: _reorg(d, DIGEST), "exclude"),
    "exclude_upper_case": (lambda d: _reorg(d, [DIGEST.upper().replace("0X", "0x")]),
                           "exclude[0]"),
    "exclude_short": (lambda d: _reorg(d, [DIGEST[:-2]]), "exclude[0]"),
    "exclude_misspelt": (lambda d: _reorg(d, [DIGEST], key="exlude"), "exlude"),
    "unknown_action_field": (lambda d: _pay(d, gasprce=2), "gasprce"),
    "reorg_schedule_not_list": (lambda d: _fault_list(d, "reorg_schedule"), "reorg_schedule"),
    "behavior_schedule_not_list": (lambda d: _fault_list(d, "behavior_schedule"),
                                   "behavior_schedule"),
    "fetch_fail_not_list": (lambda d: _fault_list(d, "fetch_fail"), "fetch_fail"),
    "witness_field_typo": (lambda d: _extra(d, ("witnesses", 0), "behaviour", "crashed"),
                           "behaviour"),
    "side_chain_field_typo": (lambda d: _extra(d, ("side_chains", 0), "initial_heigth", 5),
                              "initial_heigth"),
    "bridge_head_field_typo": (lambda d: _extra(d, ("side_chains", 0, "bridge_head"), "treshold"),
                               "treshold"),
    "owners_field_typo": (lambda d: _extra(d, ("side_chains", 0, "owners"), "vaults"), "vaults"),
    "owners_of_the_other_variant": (lambda d: _extra(d, ("side_chains", 0, "owners"), "trading"),
                                    "trading"),
    "token_chain_field_typo": (lambda d: _extra(d, ("token_chain",), "omgea"), "omgea"),
    "registry_field_typo": (lambda d: _extra(d, ("registry",), "owner"), "owner"),
    "timeouts_field_typo": (lambda d: _extra(d, ("timeouts",), "sleep"), "sleep"),
    "behavior_change_field_typo": (lambda d: _behavior_change(d, tik=5), "tik"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_diagnosed_at_its_field(data, case):
    mutate, name = BAD_INPUTS[case]
    prefix = mutate(data)
    diags = errors_of(validate_scenario(data))
    assert f"{prefix}.{name}" in {d.field for d in diags}
    with pytest.raises(ScenarioInvalid):
        parse_scenario(data)


def test_parsed_actions_carry_their_transactions(data):
    scenario = parse_scenario(data)
    (action,) = scenario.workload
    assert action.chain == scenario.token_chain.chain_id
    assert action.tx.to == scenario.side_chains[0].bridge_head.address
    assert action.tx.value == data["workload"][0]["attach"]
    assert action.params == {k: v for k, v in data["workload"][0].items()
                             if k not in ("tick", "action")}


def test_exclusions_are_digest_bytes(data):
    _reorg(data, [DIGEST])
    (spec,) = parse_scenario(data).fault_plan.reorg_schedule
    assert spec.exclude == frozenset({bytes.fromhex(DIGEST[2:])})
