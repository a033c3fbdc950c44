"""Genesis file parsing and structural validation."""

import json
from pathlib import Path

import pytest

from bridgesim import presets
from bridgesim.chain import Address
from bridgesim.genesis import (
    GASLESS_FIELDS,
    NATIVE_GAS_FIELDS,
    VARIANT_GASLESS,
    VARIANT_NATIVE_GAS,
    GenesisError,
    genesis_hash,
    parse_genesis,
)


def gasless(**overrides) -> dict:
    data = {
        "Chain_ID": str(Address.from_label("side")),
        "SC_Register": str(Address.from_label("vault")),
        "Bal_Resv": 990,
        "SC_Inter": str(Address.from_label("relay")),
        "SC_Bank": str(Address.from_label("bank")),
        "Bal_Bank": 999010,
        "Wit_Addr_List": [str(Address.from_label(f"w{i}")) for i in range(4)],
    }
    data.update(overrides)
    return data


def native(**overrides) -> dict:
    data = {
        "Chain_ID": str(Address.from_label("side-n")),
        "SC_Register": str(Address.from_label("gateway")),
        "SC_Trading": str(Address.from_label("trading")),
        "Wit_Addr_List": [str(Address.from_label(f"w{i}")) for i in range(4)],
    }
    data.update(overrides)
    return data


def test_gasless_parses():
    spec = parse_genesis(gasless())
    assert spec.variant == "gasless"
    assert spec.bal_resv == 990
    assert spec.total_reserved() == 1_000_000
    assert len(spec.witnesses) == 4


def test_native_parses():
    spec = parse_genesis(native())
    assert spec.variant == "native_gas"
    assert spec.trading_contract == Address.from_label("trading")


@pytest.mark.parametrize("missing", GASLESS_FIELDS)
def test_each_missing_gasless_field_is_named(missing):
    data = gasless()
    del data[missing]
    with pytest.raises(GenesisError) as exc:
        parse_genesis(data)
    assert exc.value.field == missing


@pytest.mark.parametrize("missing", NATIVE_GAS_FIELDS)
def test_each_missing_native_field_is_named(missing):
    data = native()
    del data[missing]
    with pytest.raises(GenesisError) as exc:
        parse_genesis(data)
    if missing == "SC_Trading":
        # Without the trading field the file reads as the gasless layout and
        # the diagnostic names one of that layout's absent fields.
        assert exc.value.field in GASLESS_FIELDS
    else:
        assert exc.value.field == missing


def test_unknown_field_rejected():
    with pytest.raises(GenesisError) as exc:
        parse_genesis(gasless(Extra_Field=1))
    assert exc.value.field == "Extra_Field"


def test_duplicate_witness_rejected():
    w = str(Address.from_label("w0"))
    with pytest.raises(GenesisError) as exc:
        parse_genesis(gasless(Wit_Addr_List=[w, w]))
    assert exc.value.field == "Wit_Addr_List"


def test_empty_witness_list_rejected():
    with pytest.raises(GenesisError):
        parse_genesis(gasless(Wit_Addr_List=[]))


def test_negative_balance_rejected():
    with pytest.raises(GenesisError) as exc:
        parse_genesis(gasless(Bal_Resv=-1))
    assert exc.value.field == "Bal_Resv"


def test_non_integer_balance_rejected():
    with pytest.raises(GenesisError):
        parse_genesis(gasless(Bal_Bank="lots"))


def test_bad_address_rejected():
    with pytest.raises(GenesisError) as exc:
        parse_genesis(gasless(SC_Bank="0x1234"))
    assert exc.value.field == "SC_Bank"


def test_contract_address_collision_rejected():
    with pytest.raises(GenesisError):
        parse_genesis(gasless(SC_Bank=gasless()["SC_Register"]))


def test_every_field_feeds_the_hash():
    base = parse_genesis(gasless())
    variations = [
        gasless(Bal_Resv=991, Bal_Bank=999009),
        gasless(Chain_ID=str(Address.from_label("other"))),
        gasless(Wit_Addr_List=[str(Address.from_label(f"w{i}")) for i in range(5)]),
        gasless(SC_Inter=str(Address.from_label("relay2"))),
    ]
    digests = {genesis_hash(base)}
    for data in variations:
        digests.add(genesis_hash(parse_genesis(data)))
    assert len(digests) == len(variations) + 1


GENESIS_FILE = Path(__file__).resolve().parent.parent / "scenarios" / "genesis_gasless.json"


@pytest.mark.parametrize("data", [
    json.loads(GENESIS_FILE.read_text(encoding="utf-8")),
    presets._side_chain("side-g", VARIANT_GASLESS, 4, 3)["genesis"],
    presets._side_chain("side-n", VARIANT_NATIVE_GAS, 4, 3)["genesis"],
], ids=["genesis_gasless.json", "preset-gasless", "preset-native-gas"])
def test_a_genesis_hashes_as_the_file_it_was_read_from(data):
    """The parsed genesis's canonical form is the file it was read from."""
    assert genesis_hash(parse_genesis(data)) == genesis_hash(data)
