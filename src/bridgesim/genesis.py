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

from . import codec
from .chain import Address

GASLESS_FIELDS = (
    "Chain_ID",
    "SC_Register",
    "Bal_Resv",
    "SC_Inter",
    "SC_Bank",
    "Bal_Bank",
    "Wit_Addr_List",
)
NATIVE_GAS_FIELDS = ("Chain_ID", "SC_Register", "SC_Trading", "Wit_Addr_List")

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
        if self.variant == VARIANT_GASLESS:
            return {
                "Chain_ID": self.chain_id,
                "SC_Register": self.register_contract,
                "Bal_Resv": self.bal_resv,
                "SC_Inter": self.inter_contract,
                "SC_Bank": self.bank_contract,
                "Bal_Bank": self.bal_bank,
                "Wit_Addr_List": list(self.witnesses),
            }
        return {
            "Chain_ID": self.chain_id,
            "SC_Register": self.register_contract,
            "SC_Trading": self.trading_contract,
            "Wit_Addr_List": list(self.witnesses),
        }

    def total_reserved(self) -> int:
        """Sum the creator reserves for the chain (the claimed balance)."""
        if self.variant != VARIANT_GASLESS:
            return 0
        return int(self.bal_resv) + int(self.bal_bank)


def genesis_hash(spec: GenesisSpec | dict) -> bytes:
    """32-byte digest of the canonical genesis serialization."""
    return codec.digest(spec.canonical() if isinstance(spec, GenesisSpec) else spec)


def _addr(raw: object, field: str) -> Address:
    if not isinstance(raw, str):
        raise GenesisError(field, f"expected 0x-hex address string, got {type(raw).__name__}")
    try:
        return Address.from_hex(raw)
    except codec.SerializationError as exc:
        raise GenesisError(field, str(exc)) from exc


def _amount(raw: object, field: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise GenesisError(field, f"expected integer token amount, got {raw!r}")
    if raw < 0:
        raise GenesisError(field, "token amounts cannot be negative")
    return raw


def parse_genesis(data: dict) -> GenesisSpec:
    """Parse and structurally validate a genesis dict of either variant.

    The variant is inferred from the field set; unknown or missing fields are
    rejected so the canonical form (and therefore the hash) is unambiguous.
    """
    if not isinstance(data, dict):
        raise GenesisError("<root>", "genesis must be a JSON object")
    keys = set(data)
    # The trading-ledger field marks the native-gas layout; anything else is
    # held to the gasless layout.
    if "SC_Trading" in keys:
        variant, fields = VARIANT_NATIVE_GAS, NATIVE_GAS_FIELDS
    else:
        variant, fields = VARIANT_GASLESS, GASLESS_FIELDS
    for name in fields:
        if name not in keys:
            raise GenesisError(name, "required field is missing")
    for name in sorted(keys - set(fields)):
        raise GenesisError(name, "unknown field")

    wit_raw = data["Wit_Addr_List"]
    if not isinstance(wit_raw, list) or not wit_raw:
        raise GenesisError("Wit_Addr_List", "expected a non-empty list of addresses")
    witnesses = tuple(_addr(w, f"Wit_Addr_List[{i}]") for i, w in enumerate(wit_raw))
    if len(set(witnesses)) != len(witnesses):
        raise GenesisError("Wit_Addr_List", "duplicate witness address")

    if variant == VARIANT_GASLESS:
        spec = GenesisSpec(
            variant=variant,
            chain_id=_addr(data["Chain_ID"], "Chain_ID"),
            register_contract=_addr(data["SC_Register"], "SC_Register"),
            inter_contract=_addr(data["SC_Inter"], "SC_Inter"),
            bank_contract=_addr(data["SC_Bank"], "SC_Bank"),
            bal_resv=_amount(data["Bal_Resv"], "Bal_Resv"),
            bal_bank=_amount(data["Bal_Bank"], "Bal_Bank"),
            witnesses=witnesses,
        )
        contract_addrs = [spec.register_contract, spec.inter_contract, spec.bank_contract]
    else:
        spec = GenesisSpec(
            variant=variant,
            chain_id=_addr(data["Chain_ID"], "Chain_ID"),
            register_contract=_addr(data["SC_Register"], "SC_Register"),
            trading_contract=_addr(data["SC_Trading"], "SC_Trading"),
            witnesses=witnesses,
        )
        contract_addrs = [spec.register_contract, spec.trading_contract]
    if len(set(contract_addrs)) != len(contract_addrs):
        raise GenesisError("SC_Register", "contract addresses must be distinct")
    for caddr in contract_addrs:
        if caddr in witnesses:
            raise GenesisError("Wit_Addr_List", "a witness address collides with a contract")
    return spec

