"""Scenario file validation: field-level diagnostics, static invariants."""

import copy

import pytest

from bridgesim import presets
from bridgesim.genesis import genesis_hash
from bridgesim.scenario import (
    FaultPlan,
    ScenarioInvalid,
    parse_scenario,
    validate_genesis_data,
    validate_scenario,
)
from bridgesim.witness import Behavior


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


def _native(raw):
    """Replace the gasless reference scenario with the native-gas one."""
    raw.clear()
    raw.update(presets.happy_path(variant="native_gas"))
    return raw


def _behavior_change(raw, **extra):
    raw["fault_plan"] = {"behavior_schedule": [
        {"tick": 5, "witness": raw["witnesses"][0]["name"], "behavior": "crashed", **extra}]}
    return "fault_plan.behavior_schedule[0]"


def _ghost_witness(raw):
    """Add a witness of a side chain the scenario does not configure."""
    raw["witnesses"].append({
        "name": "ghost-w0", "chain_id": presets.addr("ghost"),
        "token_address": presets.addr("ghost-w0-token"),
        "side_address": presets.addr("ghost-w0-side"),
    })
    return f"witnesses[{len(raw['witnesses']) - 1}]"


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
    # The bank's relay and the trading book's gateway are genesis constants:
    # neither contract has owners, and a native-gas chain has no owners table.
    "owners_bank": (lambda d: _extra(d, ("side_chains", 0, "owners"), "bank",
                                     [presets.addr("side-1-owner-1")]), "bank", "unknown field"),
    "owners_on_native_gas": (
        lambda d: _extra(_native(d), ("side_chains", 0), "owners",
                         {"trading": [presets.addr("side-1-owner-1")], "required": 1}),
        "owners", "unknown field"),
    "token_chain_field_typo": (lambda d: _extra(d, ("token_chain",), "omgea"), "omgea"),
    "registry_field_typo": (lambda d: _extra(d, ("registry",), "owner"), "owner"),
    "timeouts_field_typo": (lambda d: _extra(d, ("timeouts",), "sleep"), "sleep"),
    "behavior_change_field_typo": (lambda d: _behavior_change(d, tik=5), "tik"),
    "owners_required_exceeds_gasless_lists": (
        lambda d: _extra(d, ("side_chains", 0, "owners"), "required", 3), "required"),
    "witness_of_unknown_chain": (_ghost_witness, "chain_id"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_diagnosed_at_its_field(data, case):
    # An entry may name the message its field must get, after the field.
    mutate, name, *message = BAD_INPUTS[case]
    prefix = mutate(data)
    diags = errors_of(validate_scenario(data))
    assert f"{prefix}.{name}" in {d.field for d in diags}
    if message:
        assert (f"{prefix}.{name}", *message) in {(d.field, d.message) for d in diags}
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


def _every_object(variant):
    """A valid scenario holding one object of every kind the reader reads."""
    data = presets.happy_path(variant=variant)
    side = presets.addr("side-1")
    data["workload"] += [
        presets.transfer_action("deposit", "side-1", 5, "alice", "alice-side", 10),
        presets.transfer_action("withdraw", "side-1", 6, "alice-side", "alice", 5),
        presets.transfer_action("trade", "side-1", 7, "alice-side", "bob-side", 1)
        if variant == "native_gas" else
        {"tick": 7, "action": "record", "chain_id": side, "data": "reading"},
        {"tick": 8, "action": "pay", "from": presets.addr("alice"),
         "to": presets.addr("bob"), "value": 1},
    ]
    data["fault_plan"] = {
        "reorg_schedule": [{"tick": 10, "chain": presets.addr("token-chain"), "depth": 1}],
        "behavior_schedule": [{"tick": 5, "witness": "side-1-w0", "behavior": "crashed"}],
    }
    return data


# object kind: (variant, path to one object of that kind, a required field or None)
OBJECTS = {
    "scenario": ("gasless", (), "max_ticks"),
    "token_chain": ("gasless", ("token_chain",), "omega"),
    "accounts": ("gasless", ("accounts",), None),
    "registry": ("gasless", ("registry",), "address"),
    "side_chain": ("gasless", ("side_chains", 0), "block_interval"),
    "genesis_gasless": ("gasless", ("side_chains", 0, "genesis"), "SC_Bank"),
    "genesis_native": ("native_gas", ("side_chains", 0, "genesis"), "SC_Register"),
    "bridge_head": ("gasless", ("side_chains", 0, "bridge_head"), "threshold"),
    "owners_gasless": ("gasless", ("side_chains", 0, "owners"), "vault"),
    "witness": ("gasless", ("witnesses", 0), "side_address"),
    "timeouts": ("gasless", ("timeouts",), None),
    "fault_plan": ("gasless", ("fault_plan",), None),
    "reorg": ("gasless", ("fault_plan", "reorg_schedule", 0), "depth"),
    "behavior_change": ("gasless", ("fault_plan", "behavior_schedule", 0), "behavior"),
    "register": ("gasless", ("workload", 0), "attach"),
    "deposit": ("gasless", ("workload", 1), "value"),
    "withdraw": ("gasless", ("workload", 2), "to"),
    "record": ("gasless", ("workload", 3), "chain_id"),
    "trade": ("native_gas", ("workload", 3), "from"),
    "pay": ("gasless", ("workload", 4), "from"),
}


def _path(steps):
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps)[1:] or "<root>"


def _replace(data, steps, value):
    if not steps:
        return value
    parent = data
    for step in steps[:-1]:
        parent = parent[step]
    parent[steps[-1]] = value
    return data


@pytest.mark.parametrize("kind", sorted(OBJECTS))
def test_every_object_kind_names_its_faults(kind):
    """A deleted required field, an unknown field and a list in place of the
    object are each named at their own path."""
    variant, steps, required = OBJECTS[kind]
    assert errors_of(validate_scenario(_every_object(variant))) == []
    data = _every_object(variant)
    obj = data
    for step in steps:
        obj = obj[step]
    obj["bogus"] = 1
    field = f"{_path(steps)}.bogus" if steps else "bogus"
    assert field in {d.field for d in errors_of(validate_scenario(data))}
    if required is not None:
        data = _every_object(variant)
        obj = data
        for step in steps:
            obj = obj[step]
        del obj[required]
        field = f"{_path(steps)}.{required}" if steps else required
        assert field in {d.field for d in errors_of(validate_scenario(data))}
    data = _replace(_every_object(variant), steps, [])
    assert _path(steps) in {d.field for d in errors_of(validate_scenario(data))}


def test_bare_genesis_reports_every_fault():
    genesis = presets.happy_path()["side_chains"][0]["genesis"]
    del genesis["SC_Bank"]
    genesis["Bal_Resv"] = -1
    assert {d.field for d in validate_genesis_data(genesis)} == {"SC_Bank", "Bal_Resv"}


def test_reading_leaves_the_input_as_written():
    data = _every_object("gasless")
    del data["timeouts"]  # every default is taken
    written = copy.deepcopy(data)
    scenario = parse_scenario(data)
    assert data == written and scenario.raw is data


def test_a_native_gas_chain_has_no_owners():
    parsed = parse_scenario(_every_object("native_gas")).side_chains[0]
    assert (parsed.owners, parsed.owners_required) == ((), 0)


def test_omitted_optional_fields_take_their_defaults():
    data = _every_object("gasless")
    side = data["side_chains"][0]
    for obj, key in ((data, "seed"), (data, "mode"), (data, "timeouts"), (data, "labels"),
                     (data["registry"], "required"), (side, "initial_height"),
                     (side["owners"], "required"), (data["workload"][3], "data")):
        del obj[key]
    data["fault_plan"] = {}
    scenario = parse_scenario(data)
    assert (scenario.seed, scenario.mode, scenario.timeout, scenario.sleep) == (
        0, "conservation", 50, 10)
    assert scenario.registry.required == 2
    parsed = scenario.side_chains[0]
    assert (parsed.owners_required, parsed.initial_height) == (2, 0)
    assert scenario.fault_plan == FaultPlan()
    assert all(w.behavior == Behavior.HONEST for w in scenario.witnesses)
    register, record, pay = (next(a for a in scenario.workload if a.action == kind)
                             for kind in ("register", "record", "pay"))
    request = register.tx.payload
    assert request.genesis_hash == genesis_hash(parsed.genesis)
    assert request.balance == parsed.genesis.total_reserved()
    assert record.tx.payload.data == ""
    assert record.tx.sender == record.tx.to == parsed.genesis.witnesses[0]
    assert (pay.chain, pay.tx.gasprice) == (scenario.token_chain.chain_id, 1)

    del data["fault_plan"]
    assert parse_scenario(data).fault_plan == FaultPlan()
    data["timeouts"] = {}
    data["fault_plan"] = {"reorg_schedule": [
        {"tick": 10, "chain": presets.addr("token-chain"), "depth": 1}]}
    scenario = parse_scenario(data)
    assert (scenario.timeout, scenario.sleep) == (50, 10)
    assert scenario.fault_plan.reorg_schedule[0].exclude == frozenset()
