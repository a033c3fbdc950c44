"""Scenario files: the complete, static description of one simulation run.

A scenario bundles the token chain parameters, every side chain's genesis,
the witness roster, contract owner lists and quorum thresholds, the scheduled
user workload, the fault plan, and the seed.  Everything a run does is a pure
function of this file, which is what makes traces replayable.

Validation is static and side-effect free: it returns a list of diagnostics,
each naming the offending field and the violated rule.  Parsing is the one
reader of the input: it also builds each workload action's transaction and
the reorg exclusions as digest bytes, so a run reads no scenario text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from . import codec
from .chain import Address, IoTRecord, RegistrationRequest, TradingAction, Transaction, UserTransfer
from .genesis import (
    VARIANT_GASLESS,
    VARIANT_NATIVE_GAS,
    GenesisError,
    GenesisSpec,
    genesis_hash,
    parse_genesis,
)
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


@dataclass(frozen=True)
class Diagnostic:
    field: str
    message: str
    level: str = "error"  # "error" blocks the run; "warning" does not

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


class ScenarioInvalid(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        super().__init__("; ".join(str(d) for d in diagnostics) or "invalid scenario")
        self.diagnostics = diagnostics


@dataclass
class TokenChainConfig:
    chain_id: Address
    total_supply: int
    block_interval: int
    omega: int


@dataclass
class BridgeHeadConfig:
    address: Address
    threshold: int
    compensation_fee: int
    entrance_fee_minimum: int


@dataclass
class SideChainConfig:
    variant: str
    block_interval: int
    omega: int
    genesis: GenesisSpec
    bridge_head: BridgeHeadConfig
    vault_owners: tuple[Address, ...] = ()
    bank_owners: tuple[Address, ...] = ()
    trading_owners: tuple[Address, ...] = ()
    owners_required: int = 2
    initial_height: int = 0

    @property
    def chain_id(self) -> Address:
        return self.genesis.chain_id


@dataclass
class WitnessEntry:
    name: str
    chain_id: Address
    token_address: Address
    side_address: Address
    behavior: Behavior = Behavior.HONEST


@dataclass
class RegistryConfig:
    address: Address
    owners: tuple[Address, ...]
    required: int


@dataclass
class ReorgSpec:
    tick: int
    chain_id: Address
    depth: int
    exclude: frozenset[bytes] = frozenset()  # tx digests dropped from the replacement


@dataclass
class BehaviorChange:
    tick: int
    witness: str
    behavior: Behavior


@dataclass
class FaultPlan:
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    max_delay: int = 0
    drop_start_tick: int = 0
    max_consecutive_drops: int = 3
    reorg_schedule: tuple[ReorgSpec, ...] = ()
    behavior_schedule: tuple[BehaviorChange, ...] = ()
    fetch_fail: tuple[str, ...] = ()


@dataclass
class WorkloadAction:
    """A parsed user action: at ``tick`` its transaction ``tx`` enters the
    mempool of chain ``chain``; ``params`` keeps the fields as written, for the trace."""

    tick: int
    action: str
    params: dict[str, Any]
    chain: Address
    tx: Transaction


@dataclass
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
# Parsing helpers
# ---------------------------------------------------------------------------


class _Collector:
    def __init__(self) -> None:
        self.diags: list[Diagnostic] = []

    def err(self, field_name: str, message: str) -> None:
        self.diags.append(Diagnostic(field_name, message))

    def warn(self, field_name: str, message: str) -> None:
        self.diags.append(Diagnostic(field_name, message, level="warning"))

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diags if d.level == "error"]

    def addr(self, raw: Any, field_name: str) -> Address | None:
        if not isinstance(raw, str):
            self.err(field_name, f"expected 0x-hex address string, got {raw!r}")
            return None
        try:
            return Address.from_hex(raw)
        except codec.SerializationError as exc:
            self.err(field_name, str(exc))
            return None

    def uint(self, raw: Any, field_name: str, minimum: int = 0) -> int | None:
        if isinstance(raw, bool) or not isinstance(raw, int):
            self.err(field_name, f"expected integer, got {raw!r}")
            return None
        if raw < minimum:
            self.err(field_name, f"must be >= {minimum}")
            return None
        return raw

    def digest(self, raw: Any, field_name: str) -> bytes | None:
        try:
            return codec.parse_hex(raw, length=codec.DIGEST_SIZE)
        except codec.SerializationError as exc:
            self.err(field_name, str(exc))
            return None

    def unknown(self, raw: dict, known: Iterable[str], prefix: str) -> None:
        for key in sorted(set(raw) - set(known)):
            self.err(prefix + key, "unknown field")

    def items(self, raw: Any, field_name: str) -> list:
        if not isinstance(raw, list):
            self.err(field_name, f"expected a list, got {raw!r}")
            return []
        return raw


def _parse_owner_list(col: _Collector, raw: Any, field_name: str) -> tuple[Address, ...]:
    if not isinstance(raw, list) or not raw:
        col.err(field_name, "expected a non-empty list of owner addresses")
        return ()
    out = []
    for i, item in enumerate(raw):
        addr = col.addr(item, f"{field_name}[{i}]")
        if addr is not None:
            out.append(addr)
    if len(set(out)) != len(out):
        col.err(field_name, "duplicate owner address")
    return tuple(out)


def parse_scenario(data: dict) -> Scenario:
    """Parse and validate; raises ScenarioInvalid with every diagnostic found."""
    col = _Collector()
    if not isinstance(data, dict):
        raise ScenarioInvalid([Diagnostic("<root>", "scenario must be a JSON object")])

    known = {
        "token_chain", "accounts", "side_chains", "registry", "witnesses",
        "timeouts", "workload", "fault_plan", "seed", "max_ticks", "mode", "labels",
    }
    col.unknown(data, known, "")

    # Token chain ------------------------------------------------------------
    tc_raw = data.get("token_chain")
    token = None
    if not isinstance(tc_raw, dict):
        col.err("token_chain", "required object is missing")
    else:
        col.unknown(tc_raw, ("chain_id", "total_supply", "block_interval", "omega"),
                    "token_chain.")
        cid = col.addr(tc_raw.get("chain_id"), "token_chain.chain_id")
        supply = col.uint(tc_raw.get("total_supply"), "token_chain.total_supply", minimum=1)
        interval = col.uint(tc_raw.get("block_interval"), "token_chain.block_interval", minimum=1)
        omega = col.uint(tc_raw.get("omega"), "token_chain.omega", minimum=0)
        if None not in (cid, supply, interval, omega):
            token = TokenChainConfig(cid, supply, interval, omega)

    # Initial accounts ---------------------------------------------------------
    accounts: dict[Address, int] = {}
    acc_raw = data.get("accounts")
    if not isinstance(acc_raw, dict):
        col.err("accounts", "required object is missing")
    else:
        for key, value in acc_raw.items():
            addr = col.addr(key, f"accounts.{key}")
            amount = col.uint(value, f"accounts.{key}")
            if addr is not None and amount is not None:
                accounts[addr] = amount
        if token is not None and sum(accounts.values()) != token.total_supply:
            col.err(
                "accounts",
                f"initial balances sum to {sum(accounts.values())}, "
                f"total supply is {token.total_supply}",
            )

    # Registry -----------------------------------------------------------------
    registry = None
    reg_raw = data.get("registry")
    if not isinstance(reg_raw, dict):
        col.err("registry", "required object is missing")
    else:
        col.unknown(reg_raw, ("address", "owners", "required"), "registry.")
        addr = col.addr(reg_raw.get("address"), "registry.address")
        owners = _parse_owner_list(col, reg_raw.get("owners"), "registry.owners")
        required = col.uint(reg_raw.get("required", 2), "registry.required", minimum=1)
        if addr is not None and owners and required is not None:
            if required > len(owners):
                col.err("registry.required", f"{required} exceeds owner count {len(owners)}")
            registry = RegistryConfig(addr, owners, required)

    # Side chains ----------------------------------------------------------------
    side_chains: list[SideChainConfig] = []
    sc_raw = data.get("side_chains")
    if not isinstance(sc_raw, list) or not sc_raw:
        col.err("side_chains", "expected a non-empty list")
        sc_raw = []
    for i, item in enumerate(sc_raw):
        prefix = f"side_chains[{i}]"
        if not isinstance(item, dict):
            col.err(prefix, "expected an object")
            continue
        col.unknown(item, ("variant", "block_interval", "omega", "genesis", "bridge_head",
                           "owners", "initial_height"), f"{prefix}.")
        variant = item.get("variant")
        if variant not in (VARIANT_GASLESS, VARIANT_NATIVE_GAS):
            col.err(f"{prefix}.variant", f"must be one of {VARIANT_GASLESS!r}, {VARIANT_NATIVE_GAS!r}")
            continue
        interval = col.uint(item.get("block_interval"), f"{prefix}.block_interval", minimum=1)
        omega = col.uint(item.get("omega"), f"{prefix}.omega", minimum=0)
        genesis_raw = item.get("genesis")
        if not isinstance(genesis_raw, dict):
            col.err(f"{prefix}.genesis", "required object is missing")
            continue
        try:
            spec = parse_genesis(genesis_raw)
        except GenesisError as exc:
            col.err(f"{prefix}.genesis.{exc.field}", str(exc).split(": ", 1)[-1])
            continue
        if spec.variant != variant:
            col.err(f"{prefix}.variant", f"genesis layout is the {spec.variant} variant")
            continue
        if token is not None and spec.variant == VARIANT_GASLESS:
            if spec.total_reserved() != token.total_supply:
                col.err(
                    f"{prefix}.genesis.Bal_Resv",
                    f"Bal_Resv + Bal_Bank = {spec.total_reserved()} must equal "
                    f"total supply {token.total_supply}",
                )
        if token is not None and spec.chain_id == token.chain_id:
            col.err(f"{prefix}.genesis.Chain_ID", "collides with the token chain id")
        bh_raw = item.get("bridge_head")
        if not isinstance(bh_raw, dict):
            col.err(f"{prefix}.bridge_head", "required object is missing")
            continue
        col.unknown(bh_raw, ("address", "threshold", "compensation_fee", "entrance_fee_minimum"),
                    f"{prefix}.bridge_head.")
        bh_addr = col.addr(bh_raw.get("address"), f"{prefix}.bridge_head.address")
        threshold = col.uint(bh_raw.get("threshold"), f"{prefix}.bridge_head.threshold", minimum=1)
        fee = col.uint(bh_raw.get("compensation_fee"), f"{prefix}.bridge_head.compensation_fee")
        minimum = col.uint(
            bh_raw.get("entrance_fee_minimum"), f"{prefix}.bridge_head.entrance_fee_minimum"
        )
        owners_raw = item.get("owners") if isinstance(item.get("owners"), dict) else {}
        required = col.uint(owners_raw.get("required", 2), f"{prefix}.owners.required", minimum=1)
        vault_owners = bank_owners = trading_owners = ()
        col.unknown(owners_raw, ("required", "vault", "bank") if variant == VARIANT_GASLESS
                    else ("required", "trading"), f"{prefix}.owners.")
        if variant == VARIANT_GASLESS:
            vault_owners = _parse_owner_list(col, owners_raw.get("vault"), f"{prefix}.owners.vault")
            bank_owners = _parse_owner_list(col, owners_raw.get("bank"), f"{prefix}.owners.bank")
        else:
            trading_owners = _parse_owner_list(
                col, owners_raw.get("trading"), f"{prefix}.owners.trading"
            )
        initial_height = col.uint(item.get("initial_height", 0), f"{prefix}.initial_height")
        if initial_height and variant == VARIANT_GASLESS:
            col.err(f"{prefix}.initial_height", "a gasless side chain must start at height 0")
        n_wit = len(spec.witnesses)
        if threshold is not None and threshold * 2 <= n_wit:
            col.err(
                f"{prefix}.bridge_head.threshold",
                f"threshold {threshold} must exceed half of the {n_wit} witnesses",
            )
        if None in (interval, omega, bh_addr, threshold, fee, minimum, required, initial_height):
            continue
        side_chains.append(
            SideChainConfig(
                variant=variant,
                block_interval=interval,
                omega=omega,
                genesis=spec,
                bridge_head=BridgeHeadConfig(bh_addr, threshold, fee, minimum),
                vault_owners=vault_owners,
                bank_owners=bank_owners,
                trading_owners=trading_owners,
                owners_required=required,
                initial_height=initial_height,
            )
        )
    ids = [sc.chain_id for sc in side_chains]
    if len(set(ids)) != len(ids):
        col.err("side_chains", "duplicate side-chain id")
    bh_addrs = [sc.bridge_head.address for sc in side_chains]
    if len(set(bh_addrs)) != len(bh_addrs):
        col.err("side_chains", "duplicate bridge-head address")

    # Witnesses -------------------------------------------------------------------
    witnesses: list[WitnessEntry] = []
    wit_raw = data.get("witnesses")
    if not isinstance(wit_raw, list) or not wit_raw:
        col.err("witnesses", "expected a non-empty list")
        wit_raw = []
    names = set()
    for i, item in enumerate(wit_raw):
        prefix = f"witnesses[{i}]"
        if not isinstance(item, dict):
            col.err(prefix, "expected an object")
            continue
        col.unknown(item, ("name", "chain_id", "token_address", "side_address", "behavior"),
                    f"{prefix}.")
        name = item.get("name")
        if not isinstance(name, str) or not name:
            col.err(f"{prefix}.name", "expected a non-empty string")
            continue
        if name in names:
            col.err(f"{prefix}.name", f"duplicate witness name {name!r}")
        names.add(name)
        cid = col.addr(item.get("chain_id"), f"{prefix}.chain_id")
        taddr = col.addr(item.get("token_address"), f"{prefix}.token_address")
        saddr = col.addr(item.get("side_address"), f"{prefix}.side_address")
        behavior_raw = item.get("behavior", Behavior.HONEST.value)
        try:
            behavior = Behavior(behavior_raw)
        except ValueError:
            col.err(f"{prefix}.behavior", f"unknown behavior {behavior_raw!r}")
            continue
        if None in (cid, taddr, saddr):
            continue
        witnesses.append(WitnessEntry(name, cid, taddr, saddr, behavior))
    token_addrs = [w.token_address for w in witnesses]
    if len(set(token_addrs)) != len(token_addrs):
        col.err("witnesses", "duplicate token-chain witness address")
    # Witness lists must agree between the roster and each genesis.
    for i, sc in enumerate(side_chains):
        roster = {w.side_address for w in witnesses if w.chain_id == sc.chain_id}
        if roster != set(sc.genesis.witnesses):
            col.err(
                f"side_chains[{i}].genesis.Wit_Addr_List",
                "does not match the side addresses of this chain's witnesses",
            )

    # Timeouts ----------------------------------------------------------------------
    t_raw = data.get("timeouts", {})
    if not isinstance(t_raw, dict):
        col.err("timeouts", "expected an object")
        t_raw = {}
    col.unknown(t_raw, ("t", "T"), "timeouts.")
    timeout = col.uint(t_raw.get("t", DEFAULT_TIMEOUT_T), "timeouts.t", minimum=1)
    sleep = col.uint(t_raw.get("T", DEFAULT_SLEEP_T), "timeouts.T", minimum=1)

    # Workload ------------------------------------------------------------------------
    actions = _ActionParser(
        col.diags, token and token.chain_id, accounts, {sc.chain_id: sc for sc in side_chains}
    )
    workload = [
        action
        for i, item in enumerate(col.items(data.get("workload", []), "workload"))
        if (action := actions.parse(item, f"workload[{i}]")) is not None
    ]

    # Fault plan --------------------------------------------------------------------------
    fault_plan = _parse_fault_plan(col, data.get("fault_plan", {}), names, side_chains, token)

    seed = col.uint(data.get("seed", 0), "seed")
    max_ticks = col.uint(data.get("max_ticks"), "max_ticks", minimum=1)
    mode = data.get("mode", "conservation")
    if mode not in MODES:
        col.err("mode", f"must be one of {MODES}")

    if col.errors:
        raise ScenarioInvalid(col.diags)
    assert token is not None and registry is not None
    return Scenario(
        token_chain=token,
        accounts=accounts,
        side_chains=side_chains,
        registry=registry,
        witnesses=witnesses,
        timeout=timeout,
        sleep=sleep,
        workload=sorted(workload, key=lambda a: a.tick),
        fault_plan=fault_plan,
        seed=seed,
        max_ticks=max_ticks,
        mode=mode,
        raw=data,
        warnings=[d for d in col.diags if d.level == "warning"],
    )


@dataclass
class _ActionParser(_Collector):
    """Reads workload actions and builds the transaction each one submits.

    Each field is read by its reader in ``_FIELDS``, which reports a
    diagnostic into the scenario's ``diags`` and returns None for an unusable
    value; an action is built only when all of its fields read cleanly.
    """

    diags: list[Diagnostic]
    token_id: Address | None
    accounts: dict[Address, int]
    sides: dict[Address, SideChainConfig]

    def text(self, raw: Any, at: str) -> str | None:
        if not isinstance(raw, str):
            self.err(at, "expected a string")
            return None
        return raw

    def side(self, raw: Any, at: str) -> SideChainConfig | None:
        cid = self.addr(raw, at)
        if cid is not None and cid not in self.sides:
            self.err(at, "names no configured side chain")
        return self.sides.get(cid)

    def chain(self, raw: Any, at: str) -> Address | None:
        if raw == "token":
            return self.token_id
        cid = self.addr(raw, at)
        if cid is not None and cid != self.token_id and cid not in self.sides:
            self.err(at, 'names no configured chain; use "token" or a chain id')
            return None
        return cid

    def parse(self, item: Any, at: str) -> WorkloadAction | None:
        if not isinstance(item, dict):
            self.err(at, "expected an object")
            return None
        tick = self.uint(item.get("tick"), f"{at}.tick")
        kind = item.get("action")
        if kind not in ACTIONS:
            self.err(f"{at}.action", f"unknown action {kind!r}")
            return None
        required, optional = ACTIONS[kind]
        params = {k: v for k, v in item.items() if k not in ("tick", "action")}
        self.unknown(params, required + optional, f"{at}.")
        f: dict[str, Any] = {}
        for key in required + optional:
            if key in params:
                f[key] = _FIELDS[key](self, params[key], f"{at}.{key}")
            elif key in required:
                self.err(f"{at}.{key}", "required field is missing")
        if tick is None or len(f) < len(required) or None in f.values():
            return None
        built = self._build(kind, f, at)
        if built is None:
            return None
        # Cache the digest while few transactions exist: CPython 3.11 stops adding keys
        # to a class's shared __dict__ layout after a few dozen instances, and a key
        # added later gives every instance that sets it a full-size __dict__.
        built[1].digest()
        return WorkloadAction(tick, kind, params, *built)

    def _build(self, kind: str, f: dict[str, Any], at: str) -> tuple[Address, Transaction] | None:
        """The chain whose mempool takes the action, and its transaction
        (sender, to, value, gasprice, payload)."""
        side = f.get("chain_id")
        payer = {"register": "creator", "deposit": "from"}.get(kind)
        if payer and f[payer] not in self.accounts:
            self.err(f"{at}.{payer}", "not a funded token-chain account")
            return None
        if kind == "register":
            genesis = side.genesis
            expected = (genesis.bal_resv or 0) + side.bridge_head.compensation_fee
            if side.variant == VARIANT_GASLESS and f["attach"] != expected:
                # Legal input, but the peg cannot balance; the run will
                # surface it as an invariant failure rather than a parse
                # error, so negative controls stay expressible.
                self.warn(f"{at}.attach", f"attach {f['attach']} != Bal_Resv + fee = "
                          f"{expected}; the peg will not balance")
            request = RegistrationRequest(
                chain_id=side.chain_id,
                genesis_hash=f.get("genesis_hash") or genesis_hash(genesis),
                balance=f.get("balance", genesis.total_reserved()),
                side_creator=f["side_creator"],
            )
            return self.token_id, Transaction(
                f["creator"], side.bridge_head.address, f["attach"], 1, request)
        if kind == "deposit":
            return self.token_id, Transaction(
                f["from"], side.bridge_head.address, f["value"], 1, UserTransfer(dest=f["to"]))
        if kind == "withdraw" and side.variant == VARIANT_GASLESS:
            return side.chain_id, Transaction(
                f["from"], side.genesis.inter_contract, f["value"], 1, UserTransfer(dest=f["to"]))
        if kind == "withdraw":
            return side.chain_id, Transaction(
                f["from"], side.genesis.register_contract, 0, 1,
                TradingAction(to=f["to"], value=f["value"], cross_chain=True))
        if kind == "trade":
            if side.variant == VARIANT_GASLESS:
                self.err(f"{at}.chain_id", "a gasless side chain has no trading ledger")
                return None
            return side.chain_id, Transaction(
                f["from"], side.genesis.trading_contract, 0, 1,
                TradingAction(to=f["to"], value=f["value"]))
        if kind == "pay":
            return f.get("chain", self.token_id), Transaction(
                f["from"], f["to"], f["value"], f.get("gasprice", 1), UserTransfer())
        default = side.genesis.witnesses[0]  # record
        return side.chain_id, Transaction(
            f.get("from", default), f.get("to", default), 0, 1, IoTRecord(f.get("data", "")))


# The reader of each workload field; a field has one type in every action.
_FIELDS = {
    "chain_id": _ActionParser.side,
    "chain": _ActionParser.chain,
    **dict.fromkeys(("creator", "side_creator", "from", "to"), _ActionParser.addr),
    **dict.fromkeys(("attach", "balance", "value", "gasprice"), _ActionParser.uint),
    "genesis_hash": _ActionParser.digest,
    "data": _ActionParser.text,
}


def _parse_fault_plan(
    col: _Collector,
    raw: Any,
    witness_names: set[str],
    side_chains: list[SideChainConfig],
    token: TokenChainConfig | None,
) -> FaultPlan:
    if not isinstance(raw, dict):
        col.err("fault_plan", "expected an object")
        return FaultPlan()
    plan = FaultPlan()
    for rate_name in ("drop_rate", "dup_rate"):
        value = raw.get(rate_name, 0.0)
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 <= value <= 1:
            col.err(f"fault_plan.{rate_name}", "expected a probability in [0, 1]")
        else:
            setattr(plan, rate_name, float(value))
    plan.max_delay = col.uint(raw.get("max_delay", 0), "fault_plan.max_delay") or 0
    plan.drop_start_tick = col.uint(raw.get("drop_start_tick", 0), "fault_plan.drop_start_tick") or 0
    plan.max_consecutive_drops = (
        col.uint(raw.get("max_consecutive_drops", 3), "fault_plan.max_consecutive_drops", minimum=1)
        or 3
    )
    known_ids = {sc.chain_id for sc in side_chains}
    if token is not None:
        known_ids.add(token.chain_id)
    reorgs = []
    for i, item in enumerate(col.items(raw.get("reorg_schedule", []), "fault_plan.reorg_schedule")):
        prefix = f"fault_plan.reorg_schedule[{i}]"
        if not isinstance(item, dict):
            col.err(prefix, "expected an object")
            continue
        col.unknown(item, ("tick", "chain", "depth", "exclude"), f"{prefix}.")
        tick = col.uint(item.get("tick"), f"{prefix}.tick")
        cid = col.addr(item.get("chain"), f"{prefix}.chain")
        depth = col.uint(item.get("depth"), f"{prefix}.depth")
        exclude = frozenset(
            col.digest(text, f"{prefix}.exclude[{j}]")
            for j, text in enumerate(col.items(item.get("exclude", []), f"{prefix}.exclude"))
        )
        if cid is not None and cid not in known_ids:
            col.err(f"{prefix}.chain", "names no configured chain")
            continue
        if None in (tick, cid, depth):
            continue
        reorgs.append(ReorgSpec(tick, cid, depth, exclude))
    plan.reorg_schedule = tuple(reorgs)
    changes = []
    for i, item in enumerate(
        col.items(raw.get("behavior_schedule", []), "fault_plan.behavior_schedule")
    ):
        prefix = f"fault_plan.behavior_schedule[{i}]"
        if not isinstance(item, dict):
            col.err(prefix, "expected an object")
            continue
        col.unknown(item, ("tick", "witness", "behavior"), f"{prefix}.")
        tick = col.uint(item.get("tick"), f"{prefix}.tick")
        name = item.get("witness")
        if name not in witness_names:
            col.err(f"{prefix}.witness", f"unknown witness {name!r}")
            continue
        try:
            behavior = Behavior(item.get("behavior"))
        except ValueError:
            col.err(f"{prefix}.behavior", f"unknown behavior {item.get('behavior')!r}")
            continue
        if tick is None:
            continue
        changes.append(BehaviorChange(tick, name, behavior))
    plan.behavior_schedule = tuple(changes)
    fails = []
    for i, name in enumerate(col.items(raw.get("fetch_fail", []), "fault_plan.fetch_fail")):
        if name not in witness_names:
            col.err(f"fault_plan.fetch_fail[{i}]", f"unknown witness {name!r}")
            continue
        fails.append(name)
    plan.fetch_fail = tuple(fails)
    col.unknown(raw, {
        "drop_rate", "dup_rate", "max_delay", "drop_start_tick",
        "max_consecutive_drops", "reorg_schedule", "behavior_schedule", "fetch_fail",
    }, "fault_plan.")
    return plan


def validate_scenario(data: dict) -> list[Diagnostic]:
    """Diagnostics for a scenario dict; no error-level entries when valid."""
    try:
        scenario = parse_scenario(data)
    except ScenarioInvalid as exc:
        return exc.diagnostics
    return list(scenario.warnings)


def validate_genesis_data(data: dict) -> list[Diagnostic]:
    """Structural diagnostics for a bare genesis file.

    Supply consistency (reserves vs. total supply) needs the token chain's
    parameters and is checked when the genesis is embedded in a scenario.
    """
    try:
        parse_genesis(data)
    except GenesisError as exc:
        return [Diagnostic(exc.field, str(exc).split(": ", 1)[-1])]
    return []


def load_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def is_genesis_file(data: dict) -> bool:
    return isinstance(data, dict) and "Chain_ID" in data
