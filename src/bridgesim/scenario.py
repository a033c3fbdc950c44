"""Scenario files: the complete, static description of one simulation run.

A scenario bundles the token chain parameters, every side chain's genesis,
the witness roster, contract owner lists and quorum thresholds, the scheduled
user workload, the fault plan, and the seed.  Everything a run does is a pure
function of this file, which is what makes traces replayable.

Validation is static and side-effect free: it returns a list of diagnostics,
each naming the offending field and the violated rule.  Every object is read
from its table by ``reader.Collector.obj``; the rules that relate fields run
after the objects they relate are read.  Parsing also builds each workload
action's transaction and the reorg exclusions as digest bytes, so a run
reads no scenario text.
"""

from __future__ import annotations

import json
from typing import Any

from .chain import Address, IoTRecord, RegistrationRequest, TradingAction, Transaction, UserTransfer
from .genesis import (
    VARIANT_GASLESS,
    VARIANT_NATIVE_GAS,
    GenesisSpec,
    genesis_hash,
    genesis_variant,
    is_genesis_file,  # noqa: F401  (imported from here by the CLI and perfbench)
    read_genesis,
)
from .reader import (
    Collector,
    Diagnostic,
    addr,
    digest,
    list_of,
    mapping,
    nested,
    one_of,
    owner_list,
    probability,
    text,
    uint,
)
from .record import field, record
from .witness import Behavior

MODES = ("conservation", "strict")

DEFAULT_TIMEOUT_T = 50
DEFAULT_SLEEP_T = 10

# Workload actions: (required fields, optional fields); README lists the defaults.
ACTIONS = {
    "register": (("chain_id", "creator", "side_creator", "attach"), ("genesis_hash", "balance")),
    "deposit": (("chain_id", "from", "to", "value"), ()),
    "withdraw": (("chain_id", "from", "to", "value"), ()),
    "trade": (("chain_id", "from", "to", "value"), ()),
    "pay": (("from", "to", "value"), ("chain", "gasprice")),
    "record": (("chain_id",), ("from", "to", "data")),
}


class ScenarioInvalid(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        super().__init__("; ".join(str(d) for d in diagnostics) or "invalid scenario")
        self.diagnostics = diagnostics


@record
class TokenChainConfig:
    chain_id: Address
    total_supply: int
    block_interval: int
    omega: int


@record
class BridgeHeadConfig:
    address: Address
    threshold: int
    compensation_fee: int
    entrance_fee_minimum: int


@record
class SideChainConfig:
    block_interval: int
    omega: int
    genesis: GenesisSpec
    bridge_head: BridgeHeadConfig
    owners: tuple[Address, ...] = ()  # the registration vault's; none on a native-gas chain
    owners_required: int = 0
    initial_height: int = 0

    @property
    def chain_id(self) -> Address:
        return self.genesis.chain_id


@record
class WitnessEntry:
    name: str
    chain_id: Address
    token_address: Address
    side_address: Address
    behavior: Behavior = Behavior.HONEST


@record
class RegistryConfig:
    address: Address
    owners: tuple[Address, ...]
    required: int


@record
class ReorgSpec:
    tick: int
    chain_id: Address
    depth: int
    exclude: frozenset[bytes] = frozenset()  # tx digests dropped from the replacement


@record
class BehaviorChange:
    tick: int
    witness: str
    behavior: Behavior


@record(frozen=True)
class FaultPlan:
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    max_delay: int = 0
    drop_start_tick: int = 0
    max_consecutive_drops: int = 3
    reorg_schedule: tuple[ReorgSpec, ...] = ()
    behavior_schedule: tuple[BehaviorChange, ...] = ()
    fetch_fail: tuple[str, ...] = ()


@record
class WorkloadAction:
    """A parsed user action: at ``tick`` its transaction ``tx`` enters the
    mempool of chain ``chain``; ``params`` keeps the fields as written, for the trace."""

    tick: int
    action: str
    params: dict[str, Any]
    chain: Address
    tx: Transaction


@record
class Scenario:
    token_chain: TokenChainConfig
    accounts: dict[Address, int]
    side_chains: list[SideChainConfig]
    registry: RegistryConfig
    witnesses: list[WitnessEntry]
    timeout: int
    sleep: int
    workload: list[WorkloadAction]
    fault_plan: FaultPlan
    seed: int
    max_ticks: int
    mode: str
    raw: dict = field(default_factory=dict)
    warnings: list[Diagnostic] = field(default_factory=list)

    def side_chain(self, chain_id: Address) -> SideChainConfig:
        for sc in self.side_chains:
            if sc.chain_id == chain_id:
                return sc
        raise KeyError(str(chain_id))

    def witnesses_for(self, chain_id: Address) -> list[WitnessEntry]:
        return [w for w in self.witnesses if w.chain_id == chain_id]


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class _Reader(Collector):
    """Reads one scenario.  The top-level table is read in order, and a later
    field is read against what the earlier ones parsed to: the token chain,
    the funded accounts, the side chains and the witnesses.  The rules that
    relate them read the same record, so one faulty object does not hide
    the others' faults."""

    def __init__(self) -> None:
        super().__init__()
        self.token: TokenChainConfig | None = None
        self.accounts: dict[Address, int] | None = None
        self.sides: list[tuple[str, SideChainConfig]] = []  # (path, side chain)
        self.witnesses: list[WitnessEntry] = []

    @property
    def token_id(self) -> Address | None:
        return self.token and self.token.chain_id

    def token_chain(self, raw: Any, at: str) -> TokenChainConfig | None:
        self.token = nested(_TOKEN_CHAIN, TokenChainConfig)(self, raw, at)
        return self.token

    def funded(self, raw: Any, at: str) -> dict[Address, int] | None:
        self.accounts = mapping(addr, uint())(self, raw, at)
        return self.accounts

    def side_chain(self, raw: Any, at: str) -> SideChainConfig | None:
        f = self.obj(raw, at, lambda raw: _SIDE_CHAIN[genesis_variant(raw.get("genesis"))])
        if f is None:
            return None
        spec: GenesisSpec = f["genesis"]
        if f["variant"] != spec.variant:
            self.err(f"{at}.variant", f"genesis layout is the {spec.variant} variant")
            return None
        token = self.token
        if token is not None and spec.variant == VARIANT_GASLESS:
            if spec.total_reserved() != token.total_supply:
                self.err(
                    f"{at}.genesis.Bal_Resv",
                    f"Bal_Resv + Bal_Bank = {spec.total_reserved()} must equal "
                    f"total supply {token.total_supply}",
                )
        if token is not None and spec.chain_id == token.chain_id:
            self.err(f"{at}.genesis.Chain_ID", "collides with the token chain id")
        if f["initial_height"] and spec.variant == VARIANT_GASLESS:
            self.err(f"{at}.initial_height", "a gasless side chain must start at height 0")
        threshold, n_wit = f["bridge_head"].threshold, len(spec.witnesses)
        if threshold * 2 <= n_wit:
            self.err(
                f"{at}.bridge_head.threshold",
                f"threshold {threshold} must exceed half of the {n_wit} witnesses",
            )
        vault = f.get("owners", {})  # a gasless chain's
        if vault:
            _required_fits(self, f"{at}.owners.required", vault["owners_required"], "vault",
                           vault["owners"])
        side = SideChainConfig(f["block_interval"], f["omega"], spec, f["bridge_head"],
                               initial_height=f["initial_height"], **vault)
        self.sides.append((at, side))
        return side

    def witness(self, raw: Any, at: str) -> WitnessEntry | None:
        entry = nested(_WITNESS, WitnessEntry)(self, raw, at)
        if entry is None:
            return None
        if not entry.name:
            self.err(f"{at}.name", "expected a non-empty string")
        elif any(w.name == entry.name for w in self.witnesses):
            self.err(f"{at}.name", f"duplicate witness name {entry.name!r}")
        self.witnesses.append(entry)
        return entry

    def witness_name(self, raw: Any, at: str) -> str | None:
        name = text(self, raw, at)
        if name is not None and all(w.name != name for w in self.witnesses):
            self.err(at, f"unknown witness {name!r}")
            return None
        return name

    def side_by_id(self, chain_id: Address | None) -> SideChainConfig | None:
        return next((side for _, side in self.sides if side.chain_id == chain_id), None)

    def known_chain(self, raw: Any, at: str) -> Address | None:
        cid = addr(self, raw, at)
        if cid is not None and cid != self.token_id and self.side_by_id(cid) is None:
            self.err(at, "names no configured chain")
            return None
        return cid

    def chain(self, raw: Any, at: str) -> Address | None:
        return self.token_id if raw == "token" else self.known_chain(raw, at)

    def side(self, raw: Any, at: str) -> SideChainConfig | None:
        cid = addr(self, raw, at)
        side = self.side_by_id(cid)
        if cid is not None and side is None:
            self.err(at, "names no configured side chain")
        return side

    def side_id(self, raw: Any, at: str) -> Address | None:
        side = self.side(raw, at)
        return side and side.chain_id

    def action(self, raw: Any, at: str) -> WorkloadAction | None:
        f = self.obj(raw, at, _action_table)
        if f is None:
            return None
        built = self._build(f, at)
        if built is None:
            return None
        # Cache the digest while few transactions exist: CPython 3.11 stops adding keys
        # to a class's shared __dict__ layout after a few dozen instances, and a key
        # added later gives every instance that sets it a full-size __dict__.
        built[1].digest()
        params = {k: v for k, v in raw.items() if k not in ("tick", "action")}
        return WorkloadAction(f["tick"], f["action"], params, *built)

    def _build(self, f: dict[str, Any], at: str) -> tuple[Address, Transaction] | None:
        """The chain whose mempool takes the action, and its transaction
        (sender, to, value, gasprice, payload)."""
        kind, side = f["action"], f.get("chain_id")
        payer = {"register": "creator", "deposit": "from"}.get(kind)
        if payer and f[payer] not in (self.accounts or {}):
            self.err(f"{at}.{payer}", "not a funded token-chain account")
            return None
        if kind == "register":
            genesis = side.genesis
            expected = (genesis.bal_resv or 0) + side.bridge_head.compensation_fee
            if genesis.variant == VARIANT_GASLESS and f["attach"] != expected:
                # Legal input, but the peg cannot balance; the run will
                # surface it as an invariant failure rather than a parse
                # error, so negative controls stay expressible.
                self.warn(f"{at}.attach", f"attach {f['attach']} != Bal_Resv + fee = "
                          f"{expected}; the peg will not balance")
            request = RegistrationRequest(
                chain_id=side.chain_id,
                genesis_hash=f["genesis_hash"] or genesis_hash(genesis),
                balance=genesis.total_reserved() if f["balance"] is None else f["balance"],
                side_creator=f["side_creator"],
            )
            return self.token_id, Transaction(
                f["creator"], side.bridge_head.address, f["attach"], 1, request)
        if kind == "deposit":
            return self.token_id, Transaction(
                f["from"], side.bridge_head.address, f["value"], 1, UserTransfer(dest=f["to"]))
        if kind == "withdraw" and side.genesis.variant == VARIANT_GASLESS:
            return side.chain_id, Transaction(
                f["from"], side.genesis.inter_contract, f["value"], 1, UserTransfer(dest=f["to"]))
        if kind == "withdraw":
            return side.chain_id, Transaction(
                f["from"], side.genesis.register_contract, 0, 1,
                TradingAction(to=f["to"], value=f["value"], cross_chain=True))
        if kind == "trade":
            if side.genesis.variant == VARIANT_GASLESS:
                self.err(f"{at}.chain_id", "a gasless side chain has no trading ledger")
                return None
            return side.chain_id, Transaction(
                f["from"], side.genesis.trading_contract, 0, 1,
                TradingAction(to=f["to"], value=f["value"]))
        if kind == "pay":
            return f["chain"] or self.token_id, Transaction(
                f["from"], f["to"], f["value"], f["gasprice"], UserTransfer())
        default = side.genesis.witnesses[0]  # record
        return side.chain_id, Transaction(
            f["from"] or default, f["to"] or default, 0, 1, IoTRecord(f["data"]))

    def check_across(self) -> None:
        """The rules that relate the scenario's top-level fields."""
        token, accounts = self.token, self.accounts
        if token is not None and accounts is not None and \
                sum(accounts.values()) != token.total_supply:
            self.err("accounts", f"initial balances sum to {sum(accounts.values())}, "
                                 f"total supply is {token.total_supply}")
        sides = [side for _, side in self.sides]
        for what, keys in (("side-chain id", [sc.chain_id for sc in sides]),
                           ("bridge-head address", [sc.bridge_head.address for sc in sides])):
            if len(set(keys)) != len(keys):
                self.err("side_chains", f"duplicate {what}")
        token_addrs = [w.token_address for w in self.witnesses]
        if len(set(token_addrs)) != len(token_addrs):
            self.err("witnesses", "duplicate token-chain witness address")
        # Witness lists must agree between the roster and each genesis.
        for at, sc in self.sides:
            roster = {w.side_address for w in self.witnesses if w.chain_id == sc.chain_id}
            if roster != set(sc.genesis.witnesses):
                self.err(f"{at}.genesis.Wit_Addr_List",
                         "does not match the side addresses of this chain's witnesses")


def _required_fits(col: Collector, at: str, required: int, name: str,
                   owners: tuple[Address, ...]) -> None:
    """A multisig needs ``required`` approvals from its owner list."""
    if required > len(owners):
        col.err(at, f"{required} exceeds {name} owner count {len(owners)}")


def _registry(col: Collector, raw: Any, at: str) -> RegistryConfig | None:
    registry = nested(_REGISTRY, RegistryConfig)(col, raw, at)
    if registry is not None:
        _required_fits(col, f"{at}.required", registry.required, "registry", registry.owners)
    return registry


def _reorg(tick: int, chain: Address, depth: int, exclude: tuple[bytes, ...]) -> ReorgSpec:
    return ReorgSpec(tick, chain, depth, frozenset(exclude))


# Object tables: field -> reader, or (reader, default) for an optional field.
_TOKEN_CHAIN = {
    "chain_id": addr, "total_supply": uint(1), "block_interval": uint(1), "omega": uint(0),
}
_REGISTRY = {"address": addr, "owners": owner_list, "required": (uint(1), 2)}
_BRIDGE_HEAD = {
    "address": addr, "threshold": uint(1), "compensation_fee": uint(), "entrance_fee_minimum": uint(),
}
# Only a gasless side chain has owners: those of its registration vault, read
# into the side chain's ``owners`` and ``owners_required``.
_OWNERS = {
    VARIANT_GASLESS: {"owners": nested(
        {"vault": owner_list, "required": (uint(1), 2)},
        lambda vault, required: {"owners": vault, "owners_required": required})},
    VARIANT_NATIVE_GAS: {},
}
# A side chain's table is its genesis's variant's.
_SIDE_CHAIN = {
    variant: {
        "variant": one_of((VARIANT_GASLESS, VARIANT_NATIVE_GAS)),
        "block_interval": uint(1),
        "omega": uint(0),
        "genesis": read_genesis,
        "bridge_head": nested(_BRIDGE_HEAD, BridgeHeadConfig),
        **owners,
        "initial_height": (uint(0), 0),
    }
    for variant, owners in _OWNERS.items()
}
_behavior = one_of((b.value for b in Behavior), Behavior)
_WITNESS = {
    "name": text, "chain_id": _Reader.side_id, "token_address": addr, "side_address": addr,
    "behavior": (_behavior, Behavior.HONEST),
}
_TIMEOUTS = {"t": (uint(1), DEFAULT_TIMEOUT_T), "T": (uint(1), DEFAULT_SLEEP_T)}
_REORG = {
    "tick": uint(), "chain": _Reader.known_chain, "depth": uint(),
    "exclude": (list_of(digest), ()),
}
_BEHAVIOR_CHANGE = {
    "tick": uint(), "witness": _Reader.witness_name,
    "behavior": _behavior,
}
_FAULT_PLAN = {
    "drop_rate": (probability, 0.0),
    "dup_rate": (probability, 0.0),
    "max_delay": (uint(), 0),
    "drop_start_tick": (uint(), 0),
    "max_consecutive_drops": (uint(1), 3),
    "reorg_schedule": (list_of(nested(_REORG, _reorg)), ()),
    "behavior_schedule": (list_of(nested(_BEHAVIOR_CHANGE, BehaviorChange)), ()),
    "fetch_fail": (list_of(_Reader.witness_name), ()),
}

# The reader of each workload field; a field has one type in every action.
_FIELDS = {
    "chain_id": _Reader.side,
    "chain": _Reader.chain,
    **dict.fromkeys(("creator", "side_creator", "from", "to"), addr),
    **dict.fromkeys(("attach", "balance", "value", "gasprice"), uint()),
    "genesis_hash": digest,
    "data": text,
}
# Optional fields read None when absent unless a default is written here;
# ``_build`` fills the others in from the chain the action names.
_DEFAULTS = {"gasprice": 1, "data": ""}
_ACTION = {"tick": uint(), "action": one_of(ACTIONS)}
_ACTIONS = {
    kind: {
        **_ACTION,
        **{key: _FIELDS[key] for key in required},
        **{key: (_FIELDS[key], _DEFAULTS.get(key)) for key in optional},
    }
    for kind, (required, optional) in ACTIONS.items()
}
# An unknown action is reported at its kind, and at any field that no action has.
_ANY_ACTION = {**_ACTION, **{key: (read, None) for key, read in _FIELDS.items()}}


def _action_table(raw: dict) -> dict:
    kind = raw.get("action")
    return _ACTIONS.get(kind, _ANY_ACTION) if isinstance(kind, str) else _ANY_ACTION


_SCENARIO = {
    "token_chain": _Reader.token_chain,
    "accounts": _Reader.funded,
    "registry": _registry,
    "side_chains": list_of(_Reader.side_chain, non_empty=True),
    "witnesses": list_of(_Reader.witness, non_empty=True),
    "timeouts": (nested(_TIMEOUTS, dict), {"t": DEFAULT_TIMEOUT_T, "T": DEFAULT_SLEEP_T}),
    "workload": (list_of(_Reader.action), ()),
    "fault_plan": (nested(_FAULT_PLAN, FaultPlan), FaultPlan()),
    "seed": (uint(), 0),
    "max_ticks": uint(1),
    "mode": (one_of(MODES), "conservation"),
    "labels": (lambda col, raw, at: (), None),  # for readers of the file; the run ignores it
}


def parse_scenario(data: dict) -> Scenario:
    """Parse and validate; raises ScenarioInvalid with every diagnostic found."""
    col = _Reader()
    f = col.obj(data, "", _SCENARIO)
    col.check_across()
    if col.errors:
        raise ScenarioInvalid(col.diags)
    return Scenario(
        token_chain=f["token_chain"],
        accounts=f["accounts"],
        side_chains=list(f["side_chains"]),
        registry=f["registry"],
        witnesses=list(f["witnesses"]),
        timeout=f["timeouts"]["t"],
        sleep=f["timeouts"]["T"],
        workload=sorted(f["workload"], key=lambda a: a.tick),
        fault_plan=f["fault_plan"],
        seed=f["seed"],
        max_ticks=f["max_ticks"],
        mode=f["mode"],
        raw=data,
        warnings=[d for d in col.diags if d.level == "warning"],
    )


def validate_scenario(data: dict) -> list[Diagnostic]:
    """Diagnostics for a scenario dict; no error-level entries when valid."""
    try:
        scenario = parse_scenario(data)
    except ScenarioInvalid as exc:
        return exc.diagnostics
    return list(scenario.warnings)


def validate_genesis_data(data: dict) -> list[Diagnostic]:
    """Every structural diagnostic for a bare genesis file.

    Supply consistency (reserves vs. total supply) needs the token chain's
    parameters and is checked when the genesis is embedded in a scenario.
    """
    col = Collector()
    read_genesis(col, data, "")
    return col.diags


def load_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
