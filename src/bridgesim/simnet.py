"""Deterministic discrete-event scheduler.

One run is a pure function of (scenario, seed).  Time advances in integer
ticks; each tick executes fixed phases in a fixed order:

  1. scheduled events due this tick, in (tick, sequence) order -- workload
     actions entering mempools, delayed network deliveries, reorg injections,
     witness behavior changes;
  2. block production for every chain whose interval divides the tick;
  3. the witness phase: each witness whose wake tick has come steps, in
     roster order.  A witness wakes on every tick until its cursors anchor
     their first windows, then on every multiple of its sleep period T;
  4. the owner phase (owner daemons watch for registration success and submit
     the vault-suicide approvals);
  5. settledness bookkeeping: when the bridge comes to rest, the peg
     invariants are evaluated and recorded, and the run ends at the first rest
     point with nothing left to do.  Settledness is derived again only after a
     tick that changed something: one that dispatched an event, offered a
     block a transaction, stepped a live witness or moved an owner daemon.  A
     tick that did none of these leaves every input of that answer as it was.

Faults exist only on the message and block channels: witness submissions can
be dropped, duplicated or delayed (seeded), chains can be reorganized, and
witness behaviors can be flipped mid-run.  No fault ever touches contract
state directly.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from . import codec, trace as trace_mod
from .chain import (
    Address,
    Chain,
    ChainKind,
    EventTopic,
    InvalidReorg,
    MultisigAction,
    Transaction,
)
from .contracts import (
    POKE_ACTION,
    BridgeHead,
    ChainIdRegistry,
    ConsensusGateway,
    InterRelay,
    RegistrationVault,
    ReserveBank,
    TradingBook,
)
from .genesis import VARIANT_GASLESS, GenesisSpec
from .scenario import Scenario, SideChainConfig, WorkloadAction
from .witness import (
    Behavior,
    FetchFailure,
    RelayCursor,
    WitnessConfig,
    WitnessNode,
    WorldView,
    form_batch,
)

# Scheduled-event kinds
DELIVER_TX = "deliver_tx"
WORKLOAD = "workload"
SETUP_TX = "setup_tx"
INJECT_REORG = "inject_reorg"
INJECT_FAULT = "inject_fault"


@dataclass(order=True)
class SimEvent:
    fire_tick: int
    sequence: int
    kind: str = field(compare=False)
    data: Any = field(compare=False)


@dataclass
class ChainHost:
    chain: Chain
    interval: int
    mempool: list[Transaction] = field(default_factory=list)

    def due(self, tick: int) -> bool:
        # A dormant chain (height 0, nothing queued) produces no blocks, so a
        # side chain is still at height 0 when its registration is validated;
        # once alive it produces on every interval to advance confirmations.
        if tick <= 0 or tick % self.interval != 0:
            return False
        return bool(self.mempool) or self.chain.height > 0


@dataclass
class InvariantResult:
    name: str
    chain: str
    passed: bool
    details: str = ""

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "chain": self.chain,
            "pass": self.passed,
            "details": self.details,
        }


@dataclass
class ScanProgress:
    """How far the settle-point checks have read one chain, and what they found.

    A block below a recorded height changes only when ``inject_reorg``
    reorganizes the chain, which drops the chain's progress; the next check
    then reads it again from genesis.
    """

    gas_read: int = -1   # last height the zero-gasprice check read
    gas_bad: int = 0     # violations in heights 0..gas_read
    # witness -> (last height read, origins of its relay-worthy events there)
    relay_worthy: dict[WitnessNode, tuple[int, set[tuple]]] = field(default_factory=dict)
    # witness -> (windows read, end of the last, all contiguous so far)
    windows: dict[WitnessNode, tuple[int, int | None, bool]] = field(default_factory=dict)


class OwnerDaemon:
    """Watches one gasless side chain; fires the vault suicide when both the
    registry success and the vault payout are confirmed."""

    def __init__(self, side: SideChainConfig, registry_addr: Address,
                 token: Chain, side_chain: Chain, omega_token: int) -> None:
        self.side = side
        self.token_cursor = RelayCursor(omega=omega_token)
        self.side_cursor = RelayCursor(omega=side.omega)
        self.seen_registry_success = False
        self.seen_payout = False
        self.submitted = False
        self._watches: tuple = ()
        if side.genesis.variant == VARIANT_GASLESS:
            self._watches = (
                (self.token_cursor, token, frozenset({registry_addr})),
                (self.side_cursor, side_chain, frozenset({side.genesis.register_contract})),
            )

    def watches(self) -> tuple:
        """(cursor, chain, watched contracts) per chain the daemon still scans."""
        return () if self.submitted else self._watches

    def step(self) -> tuple[bool, list[Transaction]]:
        """Scan what is confirmed: (whether a cursor moved, the approvals due)."""
        watches = self.watches()
        if not watches:
            return False, []
        moved = False
        for cursor, chain, watched in watches:
            while (batch := form_batch(cursor, chain, watched)) is not None:
                moved = True
                for ev in batch[0]:
                    if (
                        ev.topic == EventTopic.EXIST_OR_NOT
                        and ev.payload.get("success")
                        and ev.payload.get("chain_id") == self.side.chain_id
                    ):
                        self.seen_registry_success = True
                    if (
                        ev.topic == EventTopic.REGISTRATION_RESULT
                        and ev.contract == self.side.genesis.register_contract
                        and ev.payload.get("success")
                        and not ev.payload.get("duplicate")
                    ):
                        self.seen_payout = True
        if self.seen_registry_success and self.seen_payout:
            self.submitted = True
            return True, [
                Transaction(
                    sender=owner,
                    to=self.side.genesis.register_contract,
                    value=0,
                    gasprice=0,
                    payload=MultisigAction(action="suicide"),
                )
                for owner in self.side.owners["vault"]
            ]
        return moved, []


class Simulation(WorldView):
    """Builds the world from a scenario and runs it to rest (or max_ticks)."""

    def __init__(self, scenario: Scenario, threshold_override: int | None = None) -> None:
        self.scenario = scenario
        self.threshold_override = threshold_override
        self.trace = trace_mod.TraceWriter()
        self.tick = 0
        self._seq = 0
        self.events: list[SimEvent] = []
        self.inflight = 0
        self.rng_network = random.Random(f"{scenario.seed}:network")
        self._drop_streaks: dict[tuple, int] = {}
        self.resend_records = 0
        self.invariant_failures: list[InvariantResult] = []
        self.settled_checks = 0
        self.was_settled = False
        self.ended_at: int | None = None
        self.quiescent = False
        self._registry_prev: set[str] = set()
        self._progress: dict[Address, ScanProgress] = {}

        self._build()

    # ------------------------------------------------------------------ build

    def _push(self, tick: int, kind: str, data: Any) -> None:
        self._seq += 1
        heapq.heappush(self.events, SimEvent(tick, self._seq, kind, data))

    def _build(self) -> None:
        sc = self.scenario
        token_cfg = sc.token_chain
        token_spec = {
            "Chain_ID": token_cfg.chain_id,
            "Total_Supply": token_cfg.total_supply,
            "Accounts": {str(a): v for a, v in sorted(sc.accounts.items())},
        }
        token = Chain(
            token_cfg.chain_id,
            ChainKind.TOKEN,
            token_spec,
            token_cfg.total_supply,
            dict(sc.accounts),
        )
        self.token_id = token_cfg.chain_id
        self.hosts: dict[Address, ChainHost] = {
            token_cfg.chain_id: ChainHost(token, token_cfg.block_interval)
        }
        self.registry = ChainIdRegistry(
            sc.registry.address, sc.registry.owners, sc.registry.required
        )
        token.register_contract(sc.registry.address, self.registry)
        gas_exempt_token: set[Address] = set(sc.registry.owners)

        self.bridge_heads: dict[Address, BridgeHead] = {}
        self.owner_daemons: list[OwnerDaemon] = []
        for side in sc.side_chains:
            witnesses = sc.witnesses_for(side.chain_id)
            threshold = self.threshold_override or side.bridge_head.threshold
            head = BridgeHead(
                address=side.bridge_head.address,
                side_chain_id=side.chain_id,
                witnesses=tuple(w.token_address for w in witnesses),
                threshold=threshold,
                compensation_fee=side.bridge_head.compensation_fee,
                entrance_fee_minimum=side.bridge_head.entrance_fee_minimum,
                timeout=sc.timeout,
                registry_address=sc.registry.address,
            )
            token.register_contract(side.bridge_head.address, head)
            self.bridge_heads[side.chain_id] = head
            gas_exempt_token.update(w.token_address for w in witnesses)

            side_chain = self._build_side_chain(side, threshold)
            self.hosts[side.chain_id] = ChainHost(side_chain, side.block_interval)
            self.owner_daemons.append(
                OwnerDaemon(side, sc.registry.address, token, side_chain, token_cfg.omega)
            )
        token.witness_exempt = gas_exempt_token
        token.seal_genesis()

        self.witnesses: list[WitnessNode] = []
        for entry in sc.witnesses:
            side = sc.side_chain(entry.chain_id)
            cfg = WitnessConfig(
                name=entry.name,
                token_address=entry.token_address,
                side_address=entry.side_address,
                genesis=side.genesis,
                bridge_head=side.bridge_head.address,
                registry=sc.registry.address,
                omega_token=token_cfg.omega,
                omega_side=side.omega,
                timeout=sc.timeout,
                sleep=sc.sleep,
                behavior=entry.behavior,
            )
            self.witnesses.append(WitnessNode(cfg, token_cfg.chain_id, sc.seed))
        # Every hosted contract; contracts are genesis state and keep their
        # identity across rollbacks and reorgs.
        self._contracts = tuple(
            contract for host in self.hosts.values() for contract in host.chain.contracts.values()
        )
        # (witness, cursor, chain, watched contracts) for every chain every
        # witness scans; only whether the witness is crashed changes later.
        self._watches = tuple(
            (witness, cursor, self.hosts[chain_id].chain, watched)
            for witness in self.witnesses
            for chain_id, cursor, watched, _ in witness.scans
        )

        # The registry's standing authorization for each bridge head is
        # installed through real owner transactions at tick 0, so the multisig
        # path is exercised and visible in every trace.  Side-chain standing
        # authorizations (bank relay, trading gateway) are genesis state: the
        # chain must still be at height 0 when its registration is validated.
        for side in sc.side_chains:
            for owner in sc.registry.owners:
                self._push(0, SETUP_TX, (token_cfg.chain_id, Transaction(
                    sender=owner, to=sc.registry.address, value=0, gasprice=0,
                    payload=MultisigAction(action="authorize", args=(side.bridge_head.address,)),
                )))

        for action in sc.workload:
            self._push(action.tick, WORKLOAD, action)
        for reorg in sc.fault_plan.reorg_schedule:
            self._push(reorg.tick, INJECT_REORG, reorg)
        for change in sc.fault_plan.behavior_schedule:
            self._push(change.tick, INJECT_FAULT, change)

        self.trace.header(sc, self.threshold_override)

    def _build_side_chain(self, side: SideChainConfig, threshold: int) -> Chain:
        g = side.genesis
        if g.variant == VARIANT_GASLESS:
            chain = Chain(
                g.chain_id,
                ChainKind.GASLESS_SIDE,
                g.canonical(),
                g.total_reserved(),
            )
            vault = RegistrationVault(
                address=g.register_contract,
                balance=g.bal_resv,
                witnesses=g.witnesses,
                threshold=threshold,
                timeout=self.scenario.timeout,
                owners=side.owners["vault"],
                required=side.owners_required,
            )
            bank = ReserveBank(
                address=g.bank_contract,
                balance=g.bal_bank,
                owners=side.owners["bank"],
                required=side.owners_required,
                authorized_relay=g.inter_contract,
            )
            relay = InterRelay(
                address=g.inter_contract,
                bank_address=g.bank_contract,
                witnesses=g.witnesses,
                threshold=threshold,
                timeout=self.scenario.timeout,
                total_supply=g.total_reserved(),
                entrance_reserve=g.bal_resv,
                mode=self.scenario.mode,
            )
            chain.register_contract(g.register_contract, vault)
            chain.register_contract(g.bank_contract, bank)
            chain.register_contract(g.inter_contract, relay)
        else:
            chain = Chain(
                g.chain_id,
                ChainKind.NATIVE_GAS_SIDE,
                g.canonical(),
                total_supply=0,
            )
            trading = TradingBook(
                address=g.trading_contract,
                chain_id=g.chain_id,
                owners=side.owners["trading"],
                required=side.owners_required,
                authorized_gateway=g.register_contract,
            )
            gateway = ConsensusGateway(
                address=g.register_contract,
                trading_address=g.trading_contract,
                witnesses=g.witnesses,
                threshold=threshold,
                timeout=self.scenario.timeout,
            )
            chain.register_contract(g.trading_contract, trading)
            chain.register_contract(g.register_contract, gateway)
        chain.witness_exempt = set(g.witnesses).union(*side.owners.values())
        chain.seal_genesis()
        for _ in range(side.initial_height):
            chain.apply_block([])
        return chain

    # -------------------------------------------------------------- WorldView

    def chain(self, chain_id: Address) -> Chain:
        return self.hosts[chain_id].chain

    def registry_ids(self) -> set[Address]:
        return self.registry.snapshot_ids()

    def fetch_genesis(self, witness: WitnessNode, chain_id: Address) -> GenesisSpec:
        if witness.config.name in self.scenario.fault_plan.fetch_fail:
            raise FetchFailure(f"{witness.config.name}: genesis store unreachable")
        host = self.hosts.get(chain_id)
        if host is None:
            raise FetchFailure(f"no chain {chain_id}")
        side = self.scenario.side_chain(chain_id)
        return side.genesis

    def side_height(self, chain_id: Address) -> int | None:
        host = self.hosts.get(chain_id)
        return None if host is None else host.chain.height

    def actual_chain_id(self, chain_id: Address) -> Address | None:
        host = self.hosts.get(chain_id)
        return None if host is None else host.chain.chain_id

    def submit(self, witness: WitnessNode, chain_id: Address, tx: Transaction) -> None:
        plan = self.scenario.fault_plan
        digest = tx.digest()
        self.trace.record(self.tick, "submit", str(chain_id), {
            "witness": witness.config.name, "tx": digest,
            "payload": tx.payload.TAG, "round": tx.round,
        })
        key = (witness.config.name, str(tx.to))
        if plan.drop_rate > 0 and self.tick >= plan.drop_start_tick:
            streak = self._drop_streaks.get(key, 0)
            if streak < plan.max_consecutive_drops and \
                    self.rng_network.random() < plan.drop_rate:
                self._drop_streaks[key] = streak + 1
                self.trace.record(self.tick, "drop", str(chain_id),
                                  {"witness": witness.config.name, "tx": digest})
                return
        self._drop_streaks[key] = 0
        delay = 1 + (self.rng_network.randint(0, plan.max_delay) if plan.max_delay else 0)
        self._push(self.tick + delay, DELIVER_TX, (chain_id, tx))
        self.inflight += 1
        if plan.dup_rate > 0 and self.rng_network.random() < plan.dup_rate:
            delay2 = 1 + (self.rng_network.randint(0, plan.max_delay) if plan.max_delay else 0)
            self._push(self.tick + delay2, DELIVER_TX, (chain_id, tx))
            self.inflight += 1
            self.trace.record(self.tick, "dup", str(chain_id),
                              {"witness": witness.config.name, "tx": digest})

    def log_batch(self, witness: WitnessNode, chain_id: Address,
                  window: tuple[int, int], count: int) -> None:
        self.trace.record(self.tick, "batch", str(chain_id), {
            "witness": witness.config.name, "window": list(window), "events": count,
        })

    def log_resend(self, witness: WitnessNode, vote, round_no: int) -> None:
        self.resend_records += 1
        self.trace.record(self.tick, "resend", str(vote.target_chain), {
            "witness": witness.config.name, "target": vote.target,
            "direction": vote.direction, "round": round_no, "subject": vote.subject,
        })

    def log_abstain(self, witness: WitnessNode, reason: str) -> None:
        self.trace.record(self.tick, "abstain", str(self.token_id), {
            "witness": witness.config.name, "reason": reason,
        })

    # ------------------------------------------------------------------- run

    def run(self) -> "RunResult":
        sc = self.scenario
        while self.tick <= sc.max_ticks:
            self._run_tick()
            if self.ended_at is not None:
                break
            self.tick += 1
        if self.ended_at is None:
            # Ran out of ticks; evaluate invariants on whatever state remains.
            results = self.check_invariants()
            self._record_invariants(results, final=True)
            self.quiescent = False
            self.ended_at = min(self.tick, sc.max_ticks)
        self.trace.record(self.ended_at, "end", "", self._summary())
        return RunResult(self)

    def _run_tick(self) -> None:
        tick = self.tick
        changed = tick == 0  # no earlier answer to keep
        while self.events and self.events[0].fire_tick <= tick:
            self._dispatch(heapq.heappop(self.events))
            changed = True
        for chain_id, host in self.hosts.items():
            if host.due(tick):
                changed |= self._produce(chain_id, host)
        for witness in self.witnesses:
            if witness.wake <= tick:
                changed |= witness.step(self, tick)
        for daemon in self.owner_daemons:
            moved, txs = daemon.step()
            changed |= moved
            for tx in txs:
                self.hosts[daemon.side.chain_id].mempool.append(tx)
                self.trace.record(tick, "submit", str(daemon.side.chain_id), {
                    "owner": tx.sender, "tx": tx.digest(),
                    "payload": tx.payload.TAG, "round": None,
                })
        if not changed:
            # The last answer stands: unsettled, or settled, checked and
            # not finished.
            return
        settled = self._settled()
        if settled and not self.was_settled:
            results = self.check_invariants()
            self._record_invariants(results, final=False)
            self.settled_checks += 1
        self.was_settled = settled
        if settled and self._finished():
            self.quiescent = True
            self.ended_at = tick

    def _dispatch(self, ev: SimEvent) -> None:
        if ev.kind == DELIVER_TX:
            chain_id, tx = ev.data
            self.inflight -= 1
            self.hosts[chain_id].mempool.append(tx)
            self.trace.record(self.tick, "deliver", str(chain_id), {"tx": tx.digest()})
        elif ev.kind == WORKLOAD:
            self._apply_action(ev.data)
        elif ev.kind == SETUP_TX:
            chain_id, tx = ev.data
            self.hosts[chain_id].mempool.append(tx)
            self.trace.record(self.tick, "action", str(chain_id), {
                "action": "setup", "tx": tx.digest(), "payload": tx.payload,
            })
        elif ev.kind == INJECT_REORG:
            spec = ev.data
            self.inject_reorg(spec.chain_id, spec.depth, spec.exclude)
        elif ev.kind == INJECT_FAULT:
            change = ev.data
            for witness in self.witnesses:
                if witness.config.name == change.witness:
                    witness.config.behavior = change.behavior
            self.trace.record(self.tick, "fault", "", {
                "witness": change.witness, "behavior": change.behavior.value,
            })

    def _apply_action(self, action: WorkloadAction) -> None:
        self.hosts[action.chain].mempool.append(action.tx)
        self.trace.record(self.tick, "action", str(action.chain), {
            "action": action.action, "tx": action.tx.digest(),
            "params": codec.to_plain(action.params),
        })

    def _produce(self, chain_id: Address, host: ChainHost) -> bool:
        """Seal one block; True if it was offered any transaction."""
        chain = host.chain
        txs: list[Transaction] = []
        deadline = chain.earliest_deadline()
        if deadline is not None and deadline <= self.tick:
            for addr in chain.contract_order:
                due = chain.contracts[addr].next_deadline()
                if due is not None and due <= self.tick:
                    txs.append(Transaction(
                        sender=addr, to=addr, value=0, gasprice=0,
                        payload=MultisigAction(action=POKE_ACTION),
                    ))
        txs.extend(host.mempool)
        host.mempool = []
        block, rejections = chain.apply_block(txs, now=self.tick)
        self.trace.record(self.tick, "block", str(chain_id), {
            "height": block.height,
            "hash": block.hash,
            "txs": [tx.digest() for tx in block.transactions],
            "rejected": [
                {"tx": r.tx.digest(), "reason": r.reason} for r in rejections
            ],
            "events": block.events,
            "state": chain.state_digest(),
        })
        return bool(txs)

    # ---------------------------------------------------------------- reorgs

    def inject_reorg(self, chain_id: Address, depth: int, exclude: frozenset[bytes]) -> None:
        """Replace the top ``depth`` blocks, shifting surviving transactions
        one block later; a transaction whose digest is in ``exclude`` is dropped
        entirely (it also vanishes from every node's view of history)."""
        chain = self.hosts[chain_id].chain
        if depth > chain.height:
            # Scenario validation cannot rule this out: a dormant side chain's
            # height at a given tick depends on the rest of the input.
            raise InvalidReorg(
                f"reorg at tick {self.tick} on chain {chain_id}: depth {depth} "
                f"exceeds the chain's height {chain.height}"
            )
        if depth == 0:
            self.trace.record(self.tick, "reorg", str(chain_id),
                              {"depth": 0, "note": "no-op"})
            return
        removed = chain.blocks[len(chain.blocks) - depth:]
        kept: list[list[Transaction]] = [[] for _ in range(depth)]
        for i, blk in enumerate(removed):
            slot = min(i + 1, depth - 1)
            for tx in blk.transactions:
                if tx.digest() in exclude:
                    continue
                kept[slot].append(tx)
        fork_height = chain.height - depth
        chain.reorg(depth, kept, now=self.tick)
        self._progress.pop(chain_id, None)
        # The state changed under a bridge that may be at rest: check it again.
        self.was_settled = False
        self.trace.record(self.tick, "reorg", str(chain_id), {
            "depth": depth,
            "fork_height": fork_height,
            "excluded": sorted(exclude),
            "new_head": chain.head.hash,
            "state": chain.state_digest(),
        })

    # ------------------------------------------------------------- invariants

    def _settled(self) -> bool:
        """True when no transfer is in flight anywhere: nothing queued, no
        open tally, no unconfirmed-or-unscanned event a witness will relay."""
        if self.inflight:
            return False
        if any(host.mempool for host in self.hosts.values()):
            return False
        if any(not w.idle() for w in self.witnesses):
            return False
        if any(contract.busy() for contract in self._contracts):
            return False
        # Any relay-worthy event a live witness has not scanned yet.
        return not any(
            ev.topic in (EventTopic.CROSS_CHAIN_ARRIVED, EventTopic.ASSETS_LOCKED)
            or (ev.topic == EventTopic.EXIST_OR_NOT and ev.payload.get("success"))
            for ev in _unscanned(self._witness_watches())
        )

    def _witness_watches(self) -> Iterator[tuple]:
        """(cursor, chain, watched contracts) per chain of every live witness."""
        for witness, cursor, chain, watched in self._watches:
            if witness.config.behavior != Behavior.CRASHED:
                yield cursor, chain, watched

    def _finished(self) -> bool:
        if self.events:
            return False
        # Nothing unscanned may still trigger a reaction.
        daemon_watches = (w for daemon in self.owner_daemons for w in daemon.watches())
        unscanned = _unscanned(itertools.chain(self._witness_watches(), daemon_watches))
        return next(unscanned, None) is None

    def check_invariants(self) -> list[InvariantResult]:
        out: list[InvariantResult] = []
        sc = self.scenario
        token = self.hosts[self.token_id].chain

        for chain_id, host in self.hosts.items():
            chain = host.chain
            if chain.has_token_ledger():
                total = chain.ledger_total()
                out.append(InvariantResult(
                    "conservation", str(chain_id),
                    total == chain.total_supply,
                    f"ledger {total}, supply {chain.total_supply}",
                ))

        for side in sc.side_chains:
            head = self.bridge_heads[side.chain_id]
            side_chain = self.hosts[side.chain_id].chain
            if side.genesis.variant == VARIANT_GASLESS:
                circulating = sum(side_chain.accounts.values())
                out.append(InvariantResult(
                    "peg_conservation", str(side.chain_id),
                    head.locked == circulating,
                    f"locked {head.locked}, circulating {circulating}",
                ))
            else:
                trading: TradingBook = side_chain.contracts[side.genesis.trading_contract]
                gateway: ConsensusGateway = side_chain.contracts[side.genesis.register_contract]
                ledgered = gateway.side_token_total(trading)
                out.append(InvariantResult(
                    "peg_trading_ledger", str(side.chain_id),
                    head.locked == ledgered,
                    f"locked {head.locked}, ledger+escrow {ledgered}",
                ))

        unsafe = sum(lane.unsafe for contract in self._contracts for lane in contract.lanes())
        out.append(InvariantResult(
            "quorum_safety", "",
            not unsafe,
            f"{unsafe} executions below a safe quorum" if unsafe else "",
        ))

        ids = [str(c) for c in self.registry.chain_ids]
        grew = set(self._registry_prev).issubset(set(ids))
        out.append(InvariantResult(
            "registry_monotonic", str(self.token_id),
            len(set(ids)) == len(ids) and grew,
            f"ids {ids}",
        ))
        self._registry_prev = set(ids)

        for side in sc.side_chains:
            if side.genesis.variant != VARIANT_GASLESS:
                continue
            side_chain = self.hosts[side.chain_id].chain
            bank: ReserveBank = side_chain.contracts[side.genesis.bank_contract]
            out.append(InvariantResult(
                "bank_access_control", str(side.chain_id),
                True,
                f"{len(bank.access_violations)} rejected foreign calls",
            ))

        out.extend(self._check_relay_canon())
        out.extend(self._check_window_contiguity())
        out.append(self._check_zero_gasprice())
        return out

    def _progress_of(self, chain_id: Address) -> ScanProgress:
        return self._progress.setdefault(chain_id, ScanProgress())

    def _relay_worthy(self, witness: WitnessNode) -> set[tuple]:
        """Origins of every event this witness should ever have relayed.

        Each chain is read on from the last height the previous settle point
        read, up to the end of the witness's scanned windows.
        """
        cfg = witness.config
        # A gasless witness that cannot fetch the genesis abstains from the
        # registration vote, so it has no vault payout to relay.
        relays_payout = (cfg.genesis.variant != VARIANT_GASLESS
                         or cfg.name not in self.scenario.fault_plan.fetch_fail)
        found: set[tuple] = set()
        for chain_id, cursor, watched, _ in witness.scans:
            chain = self.hosts[chain_id].chain
            progress = self._progress_of(chain_id)
            read, wanted = progress.relay_worthy.get(witness, (-1, set()))
            end = min(cursor.next_start - 1, chain.height)
            for height in range(read + 1, end + 1):
                for ev in chain.events_at(height):
                    if ev.contract not in watched:
                        continue
                    if chain_id == self.token_id:
                        worthy = (
                            ev.topic == EventTopic.CROSS_CHAIN_ARRIVED
                            and ev.payload.get("kind") == "transfer"
                        ) or (
                            relays_payout and ev.topic == EventTopic.EXIST_OR_NOT
                            and ev.payload.get("success")
                            and ev.payload.get("chain_id") == cfg.genesis.chain_id
                        )
                    else:
                        worthy = ev.topic == EventTopic.ASSETS_LOCKED or (
                            ev.topic == EventTopic.CROSS_CHAIN_ARRIVED
                            and ev.contract == cfg.genesis.register_contract
                        )
                    if worthy:
                        wanted.add(ev.origin_plain(chain_id))
            progress.relay_worthy[witness] = (max(read, end), wanted)
            found |= wanted
        return found

    def _check_relay_canon(self) -> list[InvariantResult]:
        out = []
        changed = {c.witness for c in self.scenario.fault_plan.behavior_schedule}
        for witness in self.witnesses:
            cfg = witness.config
            if cfg.behavior != Behavior.HONEST or cfg.name in changed:
                continue
            wanted = self._relay_worthy(witness)
            got = set(witness.relayed_origins)
            out.append(InvariantResult(
                "relay_matches_canon", cfg.name,
                got == wanted,
                "" if got == wanted else
                f"relayed-not-canon {sorted(got - wanted)}, missed {sorted(wanted - got)}",
            ))
        return out

    def _check_window_contiguity(self) -> list[InvariantResult]:
        """Each cursor's windows follow on from each other; the windows a
        previous settle point checked are not read again."""
        out = []
        for witness in self.witnesses:
            ok = True
            for chain_id, cursor, _, _ in witness.scans:
                progress = self._progress_of(chain_id)
                read, prev_end, good = progress.windows.get(witness, (0, None, True))
                for start, end in cursor.history[read:]:
                    if end < start - 1 or (prev_end is not None and start != prev_end + 1):
                        good = False
                    prev_end = end
                progress.windows[witness] = (len(cursor.history), prev_end, good)
                ok = ok and good
            out.append(InvariantResult(
                "window_contiguity", witness.config.name, ok, "",
            ))
        return out

    def _check_zero_gasprice(self) -> InvariantResult:
        """Counts zero-gasprice transactions from unexempt senders, reading
        only the blocks added since the previous settle point."""
        bad = 0
        for chain_id, host in self.hosts.items():
            chain = host.chain
            progress = self._progress_of(chain_id)
            if progress.gas_read < chain.height:
                allowed = chain.witness_exempt.union(chain.contract_order)
                for height in range(progress.gas_read + 1, chain.height + 1):
                    for tx in chain.blocks[height].transactions:
                        if tx.gasprice == 0 and tx.sender not in allowed:
                            progress.gas_bad += 1
                progress.gas_read = chain.height
            bad += progress.gas_bad
        return InvariantResult("zero_gasprice_rule", "", bad == 0, f"{bad} violations")

    def _record_invariants(self, results: list[InvariantResult], final: bool) -> None:
        for res in results:
            if not res.passed:
                self.invariant_failures.append(res)
        self.trace.record(self.tick, "invariant", "", {
            "final": final,
            "results": [r.to_record() for r in results],
        })

    # ---------------------------------------------------------------- summary

    def _summary(self) -> dict:
        sc = self.scenario
        sides = {}
        for side in sc.side_chains:
            head = self.bridge_heads[side.chain_id]
            chain = self.hosts[side.chain_id].chain
            entry = {
                "variant": side.genesis.variant,
                "locked": head.locked,
                "fee_reserve": head.fee_reserve,
                "registered": head.registered,
                "height": chain.height,
            }
            if side.genesis.variant == VARIANT_GASLESS:
                vault: RegistrationVault = chain.contracts[side.genesis.register_contract]
                bank: ReserveBank = chain.contracts[side.genesis.bank_contract]
                entry.update({
                    "circulating": sum(chain.accounts.values()),
                    "vault_balance": vault.balance,
                    "vault_suicided": vault.suicided,
                    "bank_balance": bank.balance,
                })
            else:
                trading: TradingBook = chain.contracts[side.genesis.trading_contract]
                gateway: ConsensusGateway = chain.contracts[side.genesis.register_contract]
                entry.update({
                    "trading_sum": trading.ledger_sum(),
                    "escrow": gateway.escrow_total,
                })
            sides[str(side.chain_id)] = entry
        return {
            "quiescent": self.quiescent,
            "ended_at": self.ended_at,
            "registry": [str(c) for c in self.registry.chain_ids],
            "side_chains": sides,
            "token_height": self.hosts[self.token_id].chain.height,
            "invariant_failures": [r.to_record() for r in self.invariant_failures],
            "settled_checks": self.settled_checks,
            "resends": self.resend_records,
        }


def _unscanned(watches: Iterable[tuple]) -> Iterator:
    """Watched events at or past each cursor's next start, for every
    (cursor, chain, watched contracts) triple."""
    for cursor, chain, watched in watches:
        for block in chain.blocks[cursor.next_start:]:
            for ev in block.events:
                if ev.contract in watched:
                    yield ev


class RunResult:
    """Outcome of one run: the trace, the report data, and the final world."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.trace_lines = sim.trace.lines
        self.summary = sim._summary()
        self.failures = list(sim.invariant_failures)
        self.quiescent = sim.quiescent

    @property
    def ok(self) -> bool:
        return not self.failures

    def write_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.trace_lines))
            fh.write("\n")


def run_scenario(scenario: Scenario, threshold_override: int | None = None) -> RunResult:
    return Simulation(scenario, threshold_override=threshold_override).run()
