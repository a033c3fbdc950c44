"""Deterministic discrete-event scheduler.

One run is a pure function of (scenario, seed).  Time advances in integer
ticks; each tick executes fixed phases in a fixed order:

  1. scheduled events due this tick, in (tick, sequence) order -- workload
     actions entering mempools, delayed network deliveries, reorg injections,
     witness behavior changes.  A heap entry is (tick, sequence, handler,
     data), and the handler is a plain function called with the simulation;
  2. block production for every chain whose interval divides the tick; a
     block's trace line reuses the chain's texts of its hash and state digest;
  3. the node phase: each witness, then each owner daemon, whose wake tick
     has come steps, in roster order.  The paper's polling loop wakes on
     every tick until the cursors anchor their first windows, then on every
     multiple of the sleep period T; a witness's wake tick is the first of
     those at which a step could read, anchor or send
     (``WitnessNode.next_wake``).  A step reads every window that has become
     ready and sends the votes that are due, and the trace is the polling
     loop's (see ``witness``);
  4. within the node phase, the owner daemons still watching for
     registration success and the vault payout step at the first tick at
     which they could read, and queue the vault-suicide approvals;
  5. settledness bookkeeping, at every tick that runs the phases: when the
     bridge comes to rest, the peg invariants are evaluated and recorded, and
     the run ends at the first rest point with nothing left to do.  One rest
     test answers both, reading each watch at most once.

Time advances to the next event.  After a tick that runs the phases, the
horizon is the least of the next scheduled event, every wake tick, and each
chain's next block that is offered a transaction (a queued one, or a poke
once the chain's exact earliest lane deadline has come).  A tick below it
only seals the empty blocks that are due, in chain order, so every tick at
or past it dispatches an event, offers a block a transaction or steps a
node.  A live chain seals one block at every multiple of its interval, so
the tick at which a head reaches a height is arithmetic (``Chain.tick_at``),
and a wake tick moves only when its witness or daemon steps, a behavior
changes, a chain reorganizes, or a block holds an event of a contract it
watches or wakes a dormant chain.

Faults exist only on the message and block channels: witness submissions can
be dropped, duplicated or delayed (seeded), chains can be reorganized, and
witness behaviors can be flipped mid-run.  No fault ever touches contract
state directly.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Callable

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
from .record import field, record
from .scenario import BehaviorChange, ReorgSpec, Scenario, SideChainConfig, WorkloadAction
from .witness import (
    Behavior,
    FetchFailure,
    RelayCursor,
    Watch,
    WitnessConfig,
    WitnessNode,
    WorldView,
    first_ready,
    pass_over,
    read_ready,
)


@record
class ChainHost:
    chain: Chain
    mempool: list[Transaction] = field(default_factory=list)
    label: str = field(init=False)  # the chain id's text, for trace lines

    def __post_init__(self) -> None:
        self.label = str(self.chain.chain_id)


@record(frozen=True)
class InvariantResult(codec.Encoded):
    """One invariant's verdict on one chain (or witness), as traced."""

    name: str
    chain: str
    passed: bool
    details: str = ""

    KEYS = {"passed": "pass"}


@record
class ScanProgress:
    """How far the settle-point checks have read one chain, and what they found.

    A block at or below ``read`` changes only when ``inject_reorg``
    reorganizes the chain, which resets the chain's progress; the next check
    then reads it again from genesis.
    """

    read: int = -1    # last height read
    gas_bad: int = 0  # zero-gasprice violations in heights 0..read
    # side chain id -> (height, origin, is_payout) of each event here that its
    # witnesses should relay, in height order
    worthy: dict[Address, list[tuple[int, tuple, bool]]] = field(default_factory=dict)


class OwnerDaemon:
    """Watches one gasless side chain; fires the vault suicide when both the
    registry success and the vault payout are confirmed."""

    def __init__(self, side: SideChainConfig, registry_addr: Address,
                 token: Chain, side_chain: Chain, omega_token: int) -> None:
        self.side = side
        self.seen_registry_success = False
        self.seen_payout = False
        # Empty on a native-gas chain, and emptied once the daemon submits.
        self.watches: tuple[Watch, ...] = ()
        if side.genesis.variant == VARIANT_GASLESS:
            self.watches = (
                Watch(token, RelayCursor(omega=omega_token), frozenset({registry_addr})),
                Watch(side_chain, RelayCursor(omega=side.omega),
                      frozenset({side.genesis.register_contract})),
            )
        self.wake: float = 0  # kept by the scheduler, as a witness's is

    # The daemon polls on every tick; see ``WitnessNode`` for these three.
    def next_wake(self, earliest: int) -> float:
        return max(earliest, first_ready(self.watches))

    def wake_by(self, tick: float) -> None:
        if tick < self.wake and self.watches:
            self.wake = tick

    def catch_up(self, tick: int) -> None:
        pass_over(self.watches, tick - 1)

    def step(self, view: Simulation, tick: int) -> bool:
        """Scan what is confirmed and queue the approvals once both are seen;
        True if it read a batch, anchored a cursor's first window or queued.
        Called only while the daemon has something to watch."""
        acted, batches = read_ready(self.watches)
        for _, events, _ in batches:
            for ev in events:
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
            self.watches = ()
            for owner in self.side.owners:
                view.queue(self, Transaction(
                    sender=owner,
                    to=self.side.genesis.register_contract,
                    value=0,
                    gasprice=0,
                    payload=MultisigAction(action="suicide"),
                ))
            return True
        return acted


class Simulation(WorldView):
    """Builds the world from a scenario and runs it to rest (or max_ticks)."""

    def __init__(self, scenario: Scenario, threshold_override: int | None = None) -> None:
        self.scenario = scenario
        self.threshold_override = threshold_override
        self.trace = trace_mod.TraceWriter()
        self.tick = 0
        self._seq = 0
        # (tick, sequence, handler, data), run as ``handler(self, data)`` in push
        # order within a tick; handlers are plain functions, so no cycle forms.
        self.events: list[tuple[int, int, Callable[[Simulation, Any], None], Any]] = []
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
        self.horizon: float = 0  # see ``_horizon``

        self._build()
        self._progress = {chain_id: ScanProgress() for chain_id in self.hosts}

    # ------------------------------------------------------------------ build

    def _push(self, tick: int, handler: Callable[[Simulation, Any], None], data: Any) -> None:
        self._seq += 1
        heapq.heappush(self.events, (tick, self._seq, handler, data))

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
            undo_depth=self._undo_depth(token_cfg.chain_id),
            interval=token_cfg.block_interval,
        )
        self.token_id = token_cfg.chain_id
        self.hosts: dict[Address, ChainHost] = {
            token_cfg.chain_id: ChainHost(token)
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
            threshold = (side.bridge_head.threshold if self.threshold_override is None
                         else self.threshold_override)
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
            self.hosts[side.chain_id] = ChainHost(side_chain)
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
            self.witnesses.append(WitnessNode(cfg, token, self.chain(side.chain_id), sc.seed))
        # Every hosted contract; contracts are genesis state and keep their
        # identity across rollbacks and reorgs.
        self._contracts = tuple(
            contract for host in self.hosts.values() for contract in host.chain.contracts.values()
        )
        # The witnesses and owner daemons, each contract's watchers with their
        # cursor on its chain, and those whose wake tick is to be worked out.
        self._nodes = (*self.witnesses, *self.owner_daemons)
        self._watchers: dict[Address, list[tuple[Any, RelayCursor]]] = {}
        for node in self._nodes:
            for _, cursor, watched in node.watches:
                for contract in watched:
                    self._watchers.setdefault(contract, []).append((node, cursor))
        self._stale = dict.fromkeys(self._nodes)

        for action in sc.workload:
            self._push(action.tick, Simulation._apply_action, action)
        for reorg in sc.fault_plan.reorg_schedule:
            self._push(reorg.tick, Simulation.inject_reorg, reorg)
        for change in sc.fault_plan.behavior_schedule:
            self._push(change.tick, Simulation._change_behavior, change)

        self.trace.header(sc, self.threshold_override)

        # The registry's standing authorization for each bridge head is
        # installed through real owner transactions, queued before anything
        # else at tick 0, so the multisig path is exercised and visible in
        # every trace.  Side-chain standing authorizations (bank relay,
        # trading gateway) are genesis state: the chain must still be at
        # height 0 when its registration is validated.
        token_host = self.hosts[token_cfg.chain_id]
        for side in sc.side_chains:
            for owner in sc.registry.owners:
                tx = Transaction(
                    sender=owner, to=sc.registry.address, value=0, gasprice=0,
                    payload=MultisigAction(action="authorize", args=(side.bridge_head.address,)),
                )
                token_host.mempool.append(tx)
                self.trace.record(0, "action", token_host.label, {
                    "action": "setup", "tx": tx.digest(), "payload": tx.payload,
                })

    def _undo_depth(self, chain_id: Address) -> int:
        """How many newest blocks of a chain keep their undo records: as many
        as its deepest scheduled reorg drops, 0 when none is scheduled."""
        return max((reorg.depth for reorg in self.scenario.fault_plan.reorg_schedule
                    if reorg.chain_id == chain_id), default=0)

    def _build_side_chain(self, side: SideChainConfig, threshold: int) -> Chain:
        g = side.genesis
        if g.variant == VARIANT_GASLESS:
            chain = Chain(
                g.chain_id,
                ChainKind.GASLESS_SIDE,
                g.canonical(),
                g.total_reserved(),
                undo_depth=self._undo_depth(g.chain_id),
                interval=side.block_interval,
            )
            vault = RegistrationVault(
                address=g.register_contract,
                balance=g.bal_resv,
                witnesses=g.witnesses,
                threshold=threshold,
                timeout=self.scenario.timeout,
                owners=side.owners,
                required=side.owners_required,
            )
            bank = ReserveBank(
                address=g.bank_contract,
                balance=g.bal_bank,
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
                undo_depth=self._undo_depth(g.chain_id),
                interval=side.block_interval,
            )
            trading = TradingBook(
                address=g.trading_contract,
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
        chain.witness_exempt = set(g.witnesses).union(side.owners)
        chain.seal_genesis()
        for _ in range(side.initial_height):
            chain.apply_block([])
        return chain

    # -------------------------------------------------------------- WorldView

    def chain(self, chain_id: Address) -> Chain:
        return self.hosts[chain_id].chain

    def registry_ids(self) -> set[Address]:
        return set(self.registry.chain_ids)

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

    def submit(self, witness: WitnessNode, chain_id: Address, tx: Transaction) -> None:
        plan = self.scenario.fault_plan
        digest = tx.digest()
        self.trace.record(self.tick, "submit", str(chain_id),
                          trace_mod.submit_payload(witness.config.name, tx))
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
        self._push(self.tick + delay, Simulation._deliver, (chain_id, tx))
        self.inflight += 1
        if plan.dup_rate > 0 and self.rng_network.random() < plan.dup_rate:
            delay2 = 1 + (self.rng_network.randint(0, plan.max_delay) if plan.max_delay else 0)
            self._push(self.tick + delay2, Simulation._deliver, (chain_id, tx))
            self.inflight += 1
            self.trace.record(self.tick, "dup", str(chain_id),
                              {"witness": witness.config.name, "tx": digest})

    def queue(self, daemon: OwnerDaemon, tx: Transaction) -> None:
        """An owner's transaction, straight into its side chain's mempool."""
        chain_id = daemon.side.chain_id
        self.hosts[chain_id].mempool.append(tx)
        self.trace.record(self.tick, "submit", str(chain_id), {
            "owner": tx.sender, "tx": tx.digest(), "payload": tx.payload.TAG, "round": None,
        })

    def log_batch(self, witness: WitnessNode, chain_id: Address,
                  window: tuple[int, int], count: int) -> None:
        self.trace.record(self.tick, "batch", str(chain_id),
                          trace_mod.batch_payload(witness.config.name, window, count))

    def log_resend(self, witness: WitnessNode, vote, round_no: int) -> None:
        self.resend_records += 1
        self.trace.record(self.tick, "resend", str(vote.target_chain), {
            "witness": witness.config.name, "target": vote.target,
            "direction": vote.direction, "round": round_no, "subject": vote.payload.subject,
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
            self.ended_at = min(self.tick, sc.max_ticks)
        summary = self._summary()
        self.trace.record(self.ended_at, "end", "", summary)
        return RunResult(self, summary)

    def _run_tick(self) -> None:
        tick = self.tick
        if tick < self.horizon:
            for host in self.hosts.values():
                chain = host.chain
                if tick % chain.interval == 0 and chain.height:
                    self.trace.empty_block(tick, host.label, *chain.seal_empty(tick))
            return
        while self.events and self.events[0][0] <= tick:
            _, _, handler, data = heapq.heappop(self.events)
            self._dispatch(handler, data)
        for host in self.hosts.values():
            # A dormant chain (height 0, nothing queued) produces no blocks, so a
            # side chain is still at height 0 when its registration is validated;
            # once alive it produces on every interval to advance confirmations.
            if tick % host.chain.interval == 0 and tick and (host.mempool or host.chain.height):
                self._produce(host)
        if self._stale:
            stale, self._stale = self._stale, {}
            for node in stale:
                node.wake = node.next_wake(tick)
        horizon = math.inf
        for node in self._nodes:
            if node.wake <= tick:
                node.step(self, tick)
                node.wake = node.next_wake(tick + 1)
            if node.wake < horizon:
                horizon = node.wake
        self.horizon = self._horizon(tick, horizon)
        settled, finished = self._settled()
        if settled and not self.was_settled:
            results = self.check_invariants()
            self._record_invariants(results, final=False)
            self.settled_checks += 1
        self.was_settled = settled
        if finished:
            self.quiescent = True
            self.ended_at = tick

    def _horizon(self, tick: int, wake: float) -> float:
        """The next tick at which anything but sealing an empty block can
        happen: the next scheduled event, the least ``wake`` tick, or a
        chain's next block that is offered a queued transaction or a poke."""
        horizon = min(self.events[0][0], wake) if self.events else wake
        for host in self.hosts.values():
            due = tick + 1 if host.mempool else host.chain.earliest_deadline()
            if due is not None and due < horizon:
                interval = host.chain.interval
                horizon = min(horizon, -(-max(due, tick + 1) // interval) * interval)
        return horizon

    def _dispatch(self, handler: Callable[[Simulation, Any], None], data: Any) -> None:
        handler(self, data)

    def _deliver(self, message: tuple[Address, Transaction]) -> None:
        chain_id, tx = message
        self.inflight -= 1
        self.hosts[chain_id].mempool.append(tx)
        self.trace.record(self.tick, "deliver", str(chain_id), trace_mod.deliver_payload(tx))

    def _apply_action(self, action: WorkloadAction) -> None:
        self.hosts[action.chain].mempool.append(action.tx)
        self.trace.record(self.tick, "action", str(action.chain), {
            "action": action.action, "tx": action.tx.digest(), "params": action.params,
        })

    def _change_behavior(self, change: BehaviorChange) -> None:
        for witness in self.witnesses:
            if witness.config.name == change.witness:
                witness.catch_up(self.tick)
                witness.config.behavior = change.behavior
                self._stale[witness] = None
        self.trace.record(self.tick, "fault", "", {
            "witness": change.witness, "behavior": change.behavior.value,
        })

    def _produce(self, host: ChainHost) -> None:
        """Seal one block, offered the queued transactions and the pokes due."""
        chain, now = host.chain, self.tick
        txs = host.mempool
        deadline = chain.earliest_deadline()
        if deadline is not None and deadline <= now:
            txs = [
                Transaction(sender=addr, to=addr, value=0, gasprice=0,
                            payload=MultisigAction(action=POKE_ACTION))
                for addr in chain.contract_order
                if (due := chain.contracts[addr].next_deadline()) is not None and due <= now
            ] + txs
        if not txs:
            self.trace.empty_block(now, host.label, *chain.seal_empty(now))
            return
        host.mempool = []
        waking = not chain.height
        _, rejections = chain.apply_block(txs, now=now)
        self.trace.record(now, "block", host.label, trace_mod.block_payload(chain, rejections))
        if waking:
            self._stale.update(dict.fromkeys(self._nodes))
        # A new event can only bring its watchers' wake ticks earlier, and
        # no earlier than the next block.
        height = chain.height
        soonest = chain.tick_at(height + 1)
        for contract in {ev.contract for ev in chain.head.events}:
            for node, cursor in self._watchers.get(contract, ()):
                if node.wake > soonest:
                    node.wake_by(chain.tick_at(cursor.ready_for(height)))

    # ---------------------------------------------------------------- reorgs

    def inject_reorg(self, spec: ReorgSpec) -> None:
        """Replace the top ``depth`` blocks, shifting surviving transactions
        one block later; a transaction whose digest is in ``exclude`` is dropped
        entirely (it also vanishes from every node's view of history)."""
        chain_id, depth, exclude = spec.chain_id, spec.depth, spec.exclude
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
        for node in self._nodes:
            node.catch_up(self.tick)
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
        self._progress[chain_id] = ScanProgress()
        self._stale.update(dict.fromkeys(self._nodes))
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

    def _settled(self) -> tuple[bool, bool]:
        """(settled, finished).

        Settled: no transfer is in flight anywhere -- nothing queued, no open
        tally, no unconfirmed-or-unscanned event a live witness will relay.
        Finished: settled, no event scheduled, and no watched event left
        unscanned that may still trigger a reaction.  Each watch is read at
        most once, and the owner daemons' only when all else is finished.
        """
        if self.inflight:
            return False, False
        if any(host.mempool for host in self.hosts.values()):
            return False, False
        if any(not w.idle() for w in self.witnesses):
            return False, False
        if any(contract.busy() for contract in self._contracts):
            return False, False
        finished = not self.events
        for witness in self.witnesses:
            if witness.config.behavior == Behavior.CRASHED:
                continue
            for watch in witness.watches:
                for ev in watch.unscanned():
                    if ev.topic in (EventTopic.CROSS_CHAIN_ARRIVED, EventTopic.ASSETS_LOCKED) or (
                        ev.topic == EventTopic.EXIST_OR_NOT and ev.payload.get("success")
                    ):
                        return False, False
                    finished = False
        if finished:
            finished = all(
                next(watch.unscanned(), None) is None
                for daemon in self.owner_daemons for watch in daemon.watches
            )
        return True, finished

    def check_invariants(self) -> list[InvariantResult]:
        out: list[InvariantResult] = []
        sc = self.scenario

        for chain_id, host in self.hosts.items():
            chain = host.chain
            if chain.has_token_ledger():
                supply, bad = chain.total_supply, chain.unbalanced
                out.append(InvariantResult(
                    "conservation", str(chain_id), bad is None,
                    f"ledger {supply}, supply {supply}" if bad is None else
                    f"ledger {bad[1]} after height {bad[0]}, supply {supply}",
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

        # The ids are a history, so they hold no duplicate.  A failed check
        # keeps the ids that last passed: every later check fails until
        # they are all back.
        ids = [str(c) for c in self.registry.chain_ids]
        grew = self._registry_prev.issubset(ids)
        out.append(InvariantResult("registry_monotonic", str(self.token_id), grew, f"ids {ids}"))
        if grew:
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

        self._read_new_blocks()
        out.extend(self._check_relay_canon())
        out.extend(self._check_window_contiguity())
        out.append(self._check_zero_gasprice())
        return out

    def _read_new_blocks(self) -> None:
        """Read every chain on from the last height a settle point read, up to
        its head: count the zero-gasprice transactions of unexempt senders,
        and note each relay-worthy event under the side chain whose witnesses
        should relay it."""
        for chain_id, host in self.hosts.items():
            chain, progress = host.chain, self._progress[chain_id]
            first = progress.read + 1
            allowed = chain.witness_exempt.union(chain.contract_order)
            for height in range(first, chain.height + 1):
                for tx in chain.blocks[height].transactions:
                    if tx.gasprice == 0 and tx.sender not in allowed:
                        progress.gas_bad += 1
            on_token = chain_id == self.token_id
            for height in chain.heights_with_events(first, chain.height):
                for ev in chain.events_at(height):
                    if not on_token:
                        # On a side chain only contracts its witnesses watch
                        # emit these: the bank or the gateway locking, and
                        # the gateway escrowing a withdrawal.
                        if ev.topic not in (EventTopic.ASSETS_LOCKED,
                                            EventTopic.CROSS_CHAIN_ARRIVED):
                            continue
                        side, payout = chain_id, False
                    elif ev.topic == EventTopic.CROSS_CHAIN_ARRIVED and \
                            ev.payload.get("kind") == "transfer":
                        side, payout = ev.payload["chain_id"], False  # a deposit's side chain
                    elif ev.topic == EventTopic.EXIST_OR_NOT and ev.payload.get("success"):
                        side, payout = ev.payload["chain_id"], True  # the id registered
                    else:
                        continue
                    progress.worthy.setdefault(side, []).append(
                        (height, ev.origin_plain(chain_id), payout))
            progress.read = chain.height

    def _relay_worthy(self, witness: WitnessNode) -> set[tuple]:
        """Origins of every event this witness should have relayed so far:
        its side chain's relay-worthy events in the windows it has scanned."""
        cfg = witness.config
        # A gasless witness that cannot fetch the genesis abstains from the
        # registration vote, so it has no vault payout to relay.
        relays_payout = (cfg.genesis.variant != VARIANT_GASLESS
                         or cfg.name not in self.scenario.fault_plan.fetch_fail)
        found: set[tuple] = set()
        for chain, cursor, _ in witness.watches:
            worthy = self._progress[chain.chain_id].worthy.get(cfg.genesis.chain_id, ())
            found.update(origin for height, origin, payout in worthy
                         if height < cursor.next_start and (relays_payout or not payout))
        return found

    def _check_relay_canon(self) -> list[InvariantResult]:
        out = []
        flipped = {c.witness for c in self.scenario.fault_plan.behavior_schedule}
        for witness in self.witnesses:
            cfg = witness.config
            if cfg.behavior != Behavior.HONEST or cfg.name in flipped:
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
        """Each cursor's windows follow on from each other."""
        return [
            InvariantResult("window_contiguity", witness.config.name,
                            not any(watch.cursor.gaps for watch in witness.watches), "")
            for witness in self.witnesses
        ]

    def _check_zero_gasprice(self) -> InvariantResult:
        """Zero-gasprice transactions from unexempt senders, on every chain."""
        bad = sum(progress.gas_bad for progress in self._progress.values())
        return InvariantResult("zero_gasprice_rule", "", bad == 0, f"{bad} violations")

    def _record_invariants(self, results: list[InvariantResult], final: bool) -> None:
        for res in results:
            if not res.passed:
                self.invariant_failures.append(res)
        self.trace.record(self.tick, "invariant", "", trace_mod.invariants_payload(final, results))

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
            "invariant_failures": [r.canonical() for r in self.invariant_failures],
            "settled_checks": self.settled_checks,
            "resends": self.resend_records,
        }


class RunResult:
    """Outcome of one run: the trace, the report data, and the final world."""

    def __init__(self, sim: Simulation, summary: dict) -> None:
        self.sim = sim
        self.trace_lines = sim.trace.lines
        self.summary = summary
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
