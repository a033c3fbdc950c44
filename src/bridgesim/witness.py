"""Witness (notary) nodes.

A witness runs a client on the token chain and on one side chain.  It never
trusts the chain head directly: every observation comes out of a confirmation
window that lags the head by the chain's unconfirmation window size, so a
reorganization no deeper than that window can never change what the witness
has already acted on.  Consensus results are learned the same way, which makes
the whole relay loop reorg-immune for bounded depths.

The relay loop per target contract is: scan the next confirmed window, merge
its relay-worthy events with anything still unconfirmed, submit one relay
transaction carrying the batch and its content digest, then wait for the
matching consensus-result event.  If nothing concludes within the timeout the
batch is resent, adopting whatever round the contract last announced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from . import codec
from .chain import (
    Address,
    Chain,
    Confirm,
    Event,
    EventTopic,
    Transaction,
    TransferEntry,
    Transferring,
)
from .contracts import INBOUND, OUTBOUND, REGISTRATION, entries_subject
from .genesis import VARIANT_GASLESS, GenesisSpec, genesis_hash


class Behavior(str, Enum):
    HONEST = "honest"
    CRASHED = "crashed"
    BYZANTINE_REJECT_ALL = "byzantine_reject_all"
    BYZANTINE_APPROVE_ALL = "byzantine_approve_all"
    EQUIVOCATING = "equivocating"


class WindowNotReady(Exception):
    """The next confirmation window has not fully left the revertible zone."""


class FetchFailure(Exception):
    """Genesis file could not be retrieved; the witness abstains, never votes."""


# ---------------------------------------------------------------------------
# Registration validation
# ---------------------------------------------------------------------------


def registration_conditions(
    genesis: GenesisSpec,
    side_height: int,
    claimed_hash: bytes,
    claimed_balance: int,
    claimed_chain_id: Address,
    registered_ids: set[Address],
    token_chain_id: Address,
) -> list[bool]:
    """The six checks a witness asserts before accepting a registration."""
    return [
        genesis_hash(genesis) == claimed_hash,          # genesis integrity
        side_height == 0,                               # a brand new chain
        claimed_balance == genesis.total_reserved(),    # reserves as declared
        claimed_chain_id == genesis.chain_id,           # id matches the file
        claimed_chain_id != token_chain_id,             # not the token chain
        claimed_chain_id not in registered_ids,         # id not taken
    ]


def validate_registration(
    genesis: GenesisSpec,
    side_height: int,
    claimed_hash: bytes,
    claimed_balance: int,
    claimed_chain_id: Address,
    registered_ids: set[Address],
    token_chain_id: Address,
) -> bool:
    """True exactly when every registration condition holds."""
    return all(
        registration_conditions(
            genesis,
            side_height,
            claimed_hash,
            claimed_balance,
            claimed_chain_id,
            registered_ids,
            token_chain_id,
        )
    )


def validate_registration_nativegas(
    claimed_chain_id: Address,
    actual_chain_id: Address | None,
    registered_ids: set[Address],
    token_chain_id: Address,
) -> bool:
    """Native-gas variant: only the chain-id checks apply.

    Height and balances are irrelevant because such a chain may already be
    live and carries no pre-funded vaults; ``actual_chain_id`` is the id the
    running chain reports for itself (None when no such chain is reachable).
    """
    return (
        actual_chain_id is not None
        and claimed_chain_id == actual_chain_id
        and claimed_chain_id != token_chain_id
        and claimed_chain_id not in registered_ids
    )


# ---------------------------------------------------------------------------
# Windowed scanning
# ---------------------------------------------------------------------------


@dataclass
class RelayCursor:
    """Position of a witness's scan over one chain.

    The first window is anchored at the head observed when the chain first
    becomes deep enough (covering the ``omega`` blocks that lag the head by
    ``omega``); every later window is the next contiguous ``omega`` blocks and
    opens once the head is at least ``omega`` past its end.  ``omega == 0``
    models instant finality: everything up to the head is scanned immediately.
    """

    omega: int
    next_start: int = 0
    first_time: bool = True
    history: list[tuple[int, int]] = field(default_factory=list)

    def window_if_ready(self, head: int) -> tuple[int, int]:
        if self.omega == 0:
            if head < self.next_start:
                raise WindowNotReady(f"no new blocks past {self.next_start - 1}")
            return (self.next_start, head)
        if self.first_time:
            if head - 2 * self.omega + 1 < 0:
                raise WindowNotReady(f"head {head} < {2 * self.omega - 1}")
            return (head - 2 * self.omega + 1, head - self.omega)
        start = self.next_start
        end = start + self.omega - 1
        if head < end + self.omega:
            raise WindowNotReady(f"head {head} < {end + self.omega}")
        return (start, end)

    def advance(self, window: tuple[int, int]) -> None:
        self.history.append(window)
        self.next_start = window[1] + 1
        self.first_time = False


def form_batch(
    cursor: RelayCursor, chain: Chain, watched: set[Address]
) -> tuple[list[Event], tuple[int, int]]:
    """Collect the next confirmed window of events from watched contracts.

    Raises WindowNotReady when the window has not cleared the revertible zone;
    the caller sleeps and retries.  On success the cursor advances, so
    successive batches cover contiguous, disjoint height ranges.
    """
    window = cursor.window_if_ready(chain.height)
    events: list[Event] = []
    for height in range(window[0], window[1] + 1):
        for ev in chain.events_at(height):
            if ev.contract in watched:
                events.append(ev)
    cursor.advance(window)
    return events, window


# ---------------------------------------------------------------------------
# The witness node
# ---------------------------------------------------------------------------


@dataclass
class WitnessConfig:
    name: str
    token_address: Address
    side_address: Address
    side_chain_id: Address
    variant: str
    bridge_head: Address
    registry: Address
    # Gasless side contracts (None on native-gas chains)
    vault: Address | None
    relay: Address | None
    bank: Address | None
    # Native-gas side contract (None on gasless chains)
    gateway: Address | None
    omega_token: int
    omega_side: int
    timeout: int       # resend timeout t, in ticks
    sleep: int         # polling period T, in ticks
    behavior: Behavior = Behavior.HONEST

    def token_watched(self) -> set[Address]:
        return {self.bridge_head, self.registry}

    def side_watched(self) -> set[Address]:
        if self.variant == VARIANT_GASLESS:
            return {a for a in (self.vault, self.relay, self.bank) if a is not None}
        return {self.gateway} if self.gateway else set()


@dataclass
class PendingVote:
    """An unconfirmed submission: either a confirmation or a relay batch."""

    kind: str                       # "confirm" | "relay"
    target_chain: Address
    target: Address
    direction: str
    subject: bytes
    entries: tuple[TransferEntry, ...] = ()
    verdict: bool = True
    chain_id: Address | None = None  # registration confirmations only
    last_submit: int | None = None
    submit_count: int = 0


@dataclass
class ObservedRegistration:
    side_creator: Address
    amount: int
    payout: int
    subject: bytes


class WitnessNode:
    """One witness; stepped by the scheduler, submits through the network."""

    def __init__(self, config: WitnessConfig, token_chain_id: Address, seed: int) -> None:
        self.config = config
        self.token_chain_id = token_chain_id
        self.cursors: dict[Address, RelayCursor] = {
            token_chain_id: RelayCursor(omega=config.omega_token),
            config.side_chain_id: RelayCursor(omega=config.omega_side),
        }
        self.pending: dict[tuple, PendingVote] = {}
        self.adopted_rounds: dict[tuple, int] = {}
        self.observed_registration: ObservedRegistration | None = None
        self.relayed_origins: set[tuple] = set()
        self.resend_count = 0
        self._force_submit: set[tuple] = set()
        self._rng = random.Random(f"{seed}:witness:{config.name}")

    # -- helpers -------------------------------------------------------------

    def _round_key(self, target: Address, direction: str) -> tuple:
        return (str(target), direction)

    def adopted_round(self, target: Address, direction: str) -> int:
        return self.adopted_rounds.get(self._round_key(target, direction), 0)

    def _adopt(self, target: Address, direction: str, next_round: int) -> None:
        key = self._round_key(target, direction)
        if next_round > self.adopted_rounds.get(key, 0):
            self.adopted_rounds[key] = next_round
            for pkey, vote in self.pending.items():
                if vote.target == target and vote.direction == direction:
                    self._force_submit.add(pkey)

    def idle(self) -> bool:
        return not self.pending

    # -- relay construction (vote content depends on the behavior) -----------

    def relay_and_vote(
        self,
        entries: Iterable[TransferEntry],
        target: Address,
        direction: str,
        round_no: int,
    ) -> list[Transaction]:
        """Build the relay transaction(s) for one batch under this behavior."""
        cfg = self.config
        entries = tuple(sorted(entries, key=lambda e: e.origin_plain()))
        if cfg.behavior in (Behavior.CRASHED, Behavior.BYZANTINE_REJECT_ALL):
            return []
        if cfg.behavior == Behavior.EQUIVOCATING and entries:
            bump = self._rng.randint(1, 1 << 30)
            first = entries[0]
            entries = (
                TransferEntry(
                    first.origin_chain,
                    first.origin_height,
                    first.origin_seq,
                    first.to,
                    first.value + bump,
                ),
            ) + entries[1:]
        subject = entries_subject(direction, entries)
        sender = cfg.token_address if target in (cfg.bridge_head, cfg.registry) else cfg.side_address
        return [
            Transaction(
                sender=sender,
                to=target,
                value=0,
                gasprice=0,
                round=round_no,
                payload=Transferring(direction=direction, subject=subject, entries=entries),
            )
        ]

    def _confirm_tx(self, vote: PendingVote, round_no: int) -> list[Transaction]:
        cfg = self.config
        if cfg.behavior == Behavior.CRASHED:
            return []
        subject = vote.subject
        if cfg.behavior == Behavior.EQUIVOCATING:
            subject = codec.digest([subject, self._rng.randint(1, 1 << 30)])
        return [
            Transaction(
                sender=cfg.token_address,
                to=cfg.bridge_head,
                value=0,
                gasprice=0,
                round=round_no,
                payload=Confirm(chain_id=vote.chain_id, subject=subject, verdict=vote.verdict),
            )
        ]

    # -- event handling -------------------------------------------------------

    def _decide_registration(self, view: "WorldView", payload: dict) -> bool | None:
        """Verdict for a registration request; None means abstain."""
        cfg = self.config
        claimed_chain_id = Address.from_hex(payload["chain_id"])
        claimed_hash = codec.parse_hex(payload["genesis_hash"], length=codec.DIGEST_SIZE)
        claimed_balance = int(payload["balance"])
        registered = view.registry_ids()
        if cfg.behavior == Behavior.BYZANTINE_APPROVE_ALL:
            return True
        if cfg.behavior == Behavior.BYZANTINE_REJECT_ALL:
            return False
        if cfg.variant == VARIANT_GASLESS:
            try:
                spec = view.fetch_genesis(self, claimed_chain_id)
            except FetchFailure:
                return None
            side_height = view.side_height(claimed_chain_id)
            if side_height is None:
                return None
            return validate_registration(
                spec,
                side_height,
                claimed_hash,
                claimed_balance,
                claimed_chain_id,
                registered,
                self.token_chain_id,
            )
        actual = view.actual_chain_id(claimed_chain_id)
        return validate_registration_nativegas(
            claimed_chain_id, actual, registered, self.token_chain_id
        )

    def _payout_for(self, view: "WorldView", payload: dict) -> int:
        """Registration payout a witness will relay to the side chain."""
        if self.config.variant == VARIANT_GASLESS:
            try:
                spec = view.fetch_genesis(self, Address.from_hex(payload["chain_id"]))
                return int(spec.bal_resv)
            except FetchFailure:
                pass
        return int(payload["amount"])

    def _handle_token_event(self, view: "WorldView", ev: Event) -> None:
        cfg = self.config
        if ev.topic == EventTopic.CROSS_CHAIN_ARRIVED and ev.contract == cfg.bridge_head:
            payload = ev.payload
            if payload.get("kind") == REGISTRATION:
                subject = codec.parse_hex(payload["subject"], length=codec.DIGEST_SIZE)
                self.observed_registration = ObservedRegistration(
                    side_creator=Address.from_hex(payload["side_creator"]),
                    amount=int(payload["amount"]),
                    payout=self._payout_for(view, payload),
                    subject=subject,
                )
                verdict = self._decide_registration(view, payload)
                if verdict is None:
                    view.log_abstain(self, "genesis fetch failed")
                    return
                key = ("confirm", str(cfg.bridge_head))
                self.pending[key] = PendingVote(
                    kind="confirm",
                    target_chain=self.token_chain_id,
                    target=cfg.bridge_head,
                    direction=REGISTRATION,
                    subject=subject,
                    verdict=verdict,
                    chain_id=Address.from_hex(payload["chain_id"]),
                )
                self._force_submit.add(key)
            elif payload.get("kind") == "transfer":
                entry = TransferEntry(
                    origin_chain=self.token_chain_id,
                    origin_height=ev.height,
                    origin_seq=ev.seq,
                    to=Address.from_hex(payload["to"]),
                    value=int(payload["value"]),
                )
                target = cfg.relay if cfg.variant == VARIANT_GASLESS else cfg.gateway
                self._queue_entry(cfg.side_chain_id, target, INBOUND, entry)
        elif ev.topic == EventTopic.EXIST_OR_NOT and ev.contract == cfg.registry:
            payload = ev.payload
            if Address.from_hex(payload["chain_id"]) != cfg.side_chain_id:
                return
            if not payload["success"] or self.observed_registration is None:
                return
            obs = self.observed_registration
            entry = TransferEntry(
                origin_chain=self.token_chain_id,
                origin_height=ev.height,
                origin_seq=ev.seq,
                to=obs.side_creator,
                value=obs.payout,
            )
            target = cfg.vault if cfg.variant == VARIANT_GASLESS else cfg.gateway
            self._queue_entry(cfg.side_chain_id, target, REGISTRATION, entry)
        elif ev.topic == EventTopic.REGISTRATION_RESULT and ev.contract == cfg.bridge_head:
            self._settle_result(cfg.bridge_head, REGISTRATION, ev.payload)
        elif ev.topic == EventTopic.CONSENSUS_RESULT and ev.contract == cfg.bridge_head:
            self._settle_result(cfg.bridge_head, ev.payload.get("stream", OUTBOUND), ev.payload)

    def _handle_side_event(self, view: "WorldView", ev: Event) -> None:
        cfg = self.config
        if ev.topic == EventTopic.ASSETS_LOCKED:
            entry = TransferEntry(
                origin_chain=cfg.side_chain_id,
                origin_height=ev.height,
                origin_seq=ev.seq,
                to=Address.from_hex(ev.payload["to"]),
                value=int(ev.payload["value"]),
            )
            self._queue_entry(self.token_chain_id, cfg.bridge_head, OUTBOUND, entry)
        elif ev.topic == EventTopic.CROSS_CHAIN_ARRIVED and ev.contract == cfg.gateway:
            # Escrowed withdraw request awaiting the side-chain quorum.
            entry = TransferEntry(
                origin_chain=cfg.side_chain_id,
                origin_height=ev.height,
                origin_seq=ev.seq,
                to=Address.from_hex(ev.payload["to"]),
                value=int(ev.payload["value"]),
            )
            self._queue_entry(cfg.side_chain_id, cfg.gateway, OUTBOUND, entry)
        elif ev.topic == EventTopic.REGISTRATION_RESULT:
            self._settle_result(ev.contract, REGISTRATION, ev.payload)
        elif ev.topic == EventTopic.CONSENSUS_RESULT:
            self._settle_result(ev.contract, ev.payload.get("stream", INBOUND), ev.payload)

    def _queue_entry(
        self, target_chain: Address, target: Address, direction: str, entry: TransferEntry
    ) -> None:
        key = ("relay", str(target), direction)
        vote = self.pending.get(key)
        if vote is None:
            entries: tuple[TransferEntry, ...] = (entry,)
        else:
            merged = {e.origin_plain(): e for e in vote.entries}
            merged[entry.origin_plain()] = entry
            entries = tuple(sorted(merged.values(), key=lambda e: e.origin_plain()))
        self.pending[key] = PendingVote(
            kind="relay",
            target_chain=target_chain,
            target=target,
            direction=direction,
            subject=entries_subject(direction, entries),
            entries=entries,
        )
        self._force_submit.add(key)

    def _settle_result(self, contract: Address, direction: str, payload: dict) -> None:
        self._adopt(contract, direction, int(payload.get("next_round", 0)))
        subject_hex = payload.get("subject")
        success = bool(payload.get("success", False))
        origins = {tuple(o) for o in payload.get("origins", [])} if success else set()
        for key in list(self.pending):
            vote = self.pending[key]
            if vote.target != contract or vote.direction != direction:
                continue
            # A result naming this exact subject concludes it for good, no
            # matter the outcome: a revert or execution failure will never
            # succeed on retry.  Timeout results carry no subject and leave
            # the pending vote alive for the resend path.
            if subject_hex and "0x" + vote.subject.hex() == subject_hex:
                del self.pending[key]
                continue
            if vote.kind == "relay" and origins:
                remaining = tuple(e for e in vote.entries if e.origin_plain() not in origins)
                if not remaining:
                    del self.pending[key]
                elif len(remaining) != len(vote.entries):
                    self.pending[key] = PendingVote(
                        kind="relay",
                        target_chain=vote.target_chain,
                        target=vote.target,
                        direction=direction,
                        subject=entries_subject(direction, remaining),
                        entries=remaining,
                        last_submit=vote.last_submit,
                        submit_count=vote.submit_count,
                    )
                    self._force_submit.add(key)
            elif vote.kind == "confirm" and success:
                # The registration concluded even if the subject we saw was
                # announced under a different request instance.
                del self.pending[key]

    # -- the relay loop -------------------------------------------------------

    def step(self, view: "WorldView", tick: int) -> None:
        cfg = self.config
        if cfg.behavior == Behavior.CRASHED:
            return
        formed_all = not any(c.first_time for c in self.cursors.values())
        if formed_all and tick % cfg.sleep != 0 and not self._force_submit:
            return
        self._scan(view)
        self._submit_due(view, tick)

    def _scan(self, view: "WorldView") -> None:
        cfg = self.config
        for chain_id, watched, handler in (
            (self.token_chain_id, cfg.token_watched(), self._handle_token_event),
            (cfg.side_chain_id, cfg.side_watched(), self._handle_side_event),
        ):
            chain = view.chain(chain_id)
            cursor = self.cursors[chain_id]
            while True:
                try:
                    events, window = form_batch(cursor, chain, watched)
                except WindowNotReady:
                    break
                if events:
                    view.log_batch(self, chain_id, window, len(events))
                for ev in events:
                    handler(view, ev)

    def _submit_due(self, view: "WorldView", tick: int) -> None:
        self._force_submit &= set(self.pending)
        for key in sorted(self.pending, key=str):
            vote = self.pending[key]
            due = key in self._force_submit
            resend = False
            if not due and vote.last_submit is not None:
                due = tick - vote.last_submit >= self.config.timeout
                resend = due
            if not due:
                continue
            round_no = self.adopted_round(vote.target, vote.direction)
            if vote.kind == "confirm":
                txs = self._confirm_tx(vote, round_no)
            else:
                txs = self.relay_and_vote(vote.entries, vote.target, vote.direction, round_no)
            if resend and txs:
                self.resend_count += 1
                view.log_resend(self, vote, round_no)
            for tx in txs:
                self.relayed_origins.update(e.origin_plain() for e in vote.entries)
                view.submit(self, vote.target_chain, tx)
            vote.last_submit = tick
            vote.submit_count += 1
            self._force_submit.discard(key)
            if not txs:
                # This behavior never submits this vote; drop it so the node
                # does not hold up quiescence.
                del self.pending[key]


class WorldView:
    """What a witness can see and do; implemented by the scheduler."""

    def chain(self, chain_id: Address) -> Chain:
        raise NotImplementedError

    def registry_ids(self) -> set[Address]:
        raise NotImplementedError

    def fetch_genesis(self, witness: WitnessNode, chain_id: Address) -> GenesisSpec:
        raise NotImplementedError

    def side_height(self, chain_id: Address) -> int | None:
        raise NotImplementedError

    def actual_chain_id(self, chain_id: Address) -> Address | None:
        raise NotImplementedError

    def submit(self, witness: WitnessNode, chain_id: Address, tx: Transaction) -> None:
        raise NotImplementedError

    def log_batch(self, witness, chain_id, window, count) -> None:  # pragma: no cover
        pass

    def log_resend(self, witness, vote, round_no) -> None:  # pragma: no cover
        pass

    def log_abstain(self, witness, reason) -> None:  # pragma: no cover
        pass
