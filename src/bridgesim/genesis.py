"""Side-chain genesis files.

A gasless side chain is born with its entire token ledger pre-allocated to two
contracts: the registration vault (``SC_Register`` holding ``Bal_Resv``, paid
out once registration succeeds) and the reserve bank (``SC_Bank`` holding
``Bal_Bank``, drawn down by later inbound transfers).  The two balances must
sum to the token chain's total supply, so tokens circulating on the side chain
always mirror what the bridge head has locked.

A native-gas side chain needs no pre-funded vaults; its genesis names the
consensus contract (kept under the ``SC_Register`` field for compatibility
with the gasless layout) and the trading ledger.

The canonical JSON form of a genesis file is what gets hashed, so a one-unit
change to any field changes the genesis hash.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import codec, reader
from .chain import Address

VARIANT_GASLESS = "gasless"
VARIANT_NATIVE_GAS = "native_gas"


class GenesisError(ValueError):
    """Genesis file violates a structural rule; ``field`` names the culprit."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class GenesisSpec:
    """Parsed genesis file for either side-chain variant."""

    variant: str
    chain_id: Address
    register_contract: Address
    witnesses: tuple[Address, ...]
    inter_contract: Address | None = None
    bank_contract: Address | None = None
    trading_contract: Address | None = None
    bal_resv: int | None = None
    bal_bank: int | None = None

    def canonical(self) -> dict:
        """The file form: each of the variant's keys and its field's value."""
        return {key: getattr(self, _FIELDS[key]) for key in _TABLES[self.variant]}

    def total_reserved(self) -> int:
        """Sum the creator reserves for the chain (the claimed balance)."""
        if self.variant != VARIANT_GASLESS:
            return 0
        return int(self.bal_resv) + int(self.bal_bank)


def genesis_hash(spec: GenesisSpec | dict) -> bytes:
    """32-byte digest of the canonical genesis serialization."""
    return codec.digest(spec.canonical() if isinstance(spec, GenesisSpec) else spec)


def genesis_variant(raw: object) -> str:
    """The layout a genesis object is held to: the trading-ledger field marks
    the native-gas layout, and anything else is held to the gasless layout."""
    return VARIANT_NATIVE_GAS if isinstance(raw, dict) and "SC_Trading" in raw else VARIANT_GASLESS


_witness_list = reader.list_of(reader.addr, non_empty=True, unique="witness address")
_TABLES = {
    VARIANT_GASLESS: {
        "Chain_ID": reader.addr,
        "SC_Register": reader.addr,
        "Bal_Resv": reader.uint(),
        "SC_Inter": reader.addr,
        "SC_Bank": reader.addr,
        "Bal_Bank": reader.uint(),
        "Wit_Addr_List": _witness_list,
    },
    VARIANT_NATIVE_GAS: {
        "Chain_ID": reader.addr,
        "SC_Register": reader.addr,
        "SC_Trading": reader.addr,
        "Wit_Addr_List": _witness_list,
    },
}
# The GenesisSpec field each file key fills.
_FIELDS = {
    "Chain_ID": "chain_id",
    "SC_Register": "register_contract",
    "Bal_Resv": "bal_resv",
    "SC_Inter": "inter_contract",
    "SC_Bank": "bank_contract",
    "Bal_Bank": "bal_bank",
    "SC_Trading": "trading_contract",
    "Wit_Addr_List": "witnesses",
}
GASLESS_FIELDS = tuple(_TABLES[VARIANT_GASLESS])
NATIVE_GAS_FIELDS = tuple(_TABLES[VARIANT_NATIVE_GAS])


def read_genesis(col: reader.Collector, raw: object, at: str) -> GenesisSpec | None:
    """Reader of a genesis object of either variant.

    Unknown or missing fields are rejected so the canonical form (and
    therefore the hash) is unambiguous.
    """
    f = col.obj(raw, at, lambda raw: _TABLES[genesis_variant(raw)])
    if f is None or len(f) != len(raw):  # every field is required: the rest are unknown
        return None
    prefix = f"{at}." if at else ""
    spec = GenesisSpec(genesis_variant(raw), **{_FIELDS[key]: value for key, value in f.items()})
    contract_addrs = [a for a in (spec.register_contract, spec.inter_contract,
                                  spec.bank_contract, spec.trading_contract) if a is not None]
    if len(set(contract_addrs)) != len(contract_addrs):
        col.err(prefix + "SC_Register", "contract addresses must be distinct")
        return None
    if set(contract_addrs) & set(spec.witnesses):
        col.err(prefix + "Wit_Addr_List", "a witness address collides with a contract")
        return None
    return spec


def parse_genesis(data: dict) -> GenesisSpec:
    """Parse and structurally validate a genesis dict of either variant;
    raises GenesisError naming the first faulty field."""
    col = reader.Collector()
    spec = read_genesis(col, data, "")
    if spec is None:
        first = col.errors[0]
        raise GenesisError(first.field, first.message)
    return spec


def is_genesis_file(data: object) -> bool:
    return isinstance(data, dict) and "Chain_ID" in data
