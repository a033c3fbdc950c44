"""Witness (notary) nodes.

A witness runs a client on the token chain and on one side chain.  It never
trusts the chain head directly: every observation comes out of a confirmation
window that lags the head by the chain's unconfirmation window size, so a
reorganization no deeper than that window can never change what the witness
has already acted on.  Consensus results are learned the same way, which makes
the whole relay loop reorg-immune for bounded depths.

The relay loop per target contract is: scan the confirmed windows, merge
their relay-worthy events with anything still unconfirmed, submit one relay
transaction carrying the batch and its content digest, then wait for the
matching consensus-result event.  If nothing concludes within the timeout the
batch is resent, adopting whatever round the contract last announced.
"""

from __future__ import annotations

import bisect
import random
from enum import Enum
from typing import AbstractSet, Iterable, Iterator, NamedTuple

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
from .record import record


class Behavior(str, Enum):
    HONEST = "honest"
    CRASHED = "crashed"
    BYZANTINE_REJECT_ALL = "byzantine_reject_all"
    BYZANTINE_APPROVE_ALL = "byzantine_approve_all"
    EQUIVOCATING = "equivocating"


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


def validate_registration_nativegas(
    claimed_chain_id: Address,
    side_height: int | None,
    registered_ids: set[Address],
    token_chain_id: Address,
) -> bool:
    """Native-gas variant: only the chain-id checks apply.

    Height and balances are irrelevant because such a chain may already be
    live and carries no pre-funded vaults.  ``side_height`` is the height of
    the chain hosted under the claimed id, None when there is none.
    """
    return (
        side_height is not None
        and claimed_chain_id != token_chain_id
        and claimed_chain_id not in registered_ids
    )


# ---------------------------------------------------------------------------
# Windowed scanning
# ---------------------------------------------------------------------------


@record
class RelayCursor:
    """Position of a witness's scan over one chain.

    The first window is anchored at the head observed when the chain first
    becomes deep enough (covering the ``omega`` blocks that lag the head by
    ``omega``); every later window is the next contiguous ``omega`` blocks and
    opens once the head is at least ``omega`` past its end.  ``omega == 0``
    models instant finality: everything up to the head is scanned immediately.
    ``gaps`` counts the (start, end) spans ``advance`` was given that do not
    follow on from the one before, or that end before they start.
    """

    omega: int
    next_start: int = 0
    first_time: bool = True
    last_end: int | None = None  # end of the last span advanced over
    gaps: int = 0

    def window_if_ready(self, head: int) -> tuple[int, int] | None:
        """The next window, or None while it is still in the revertible zone."""
        if self.omega == 0:
            return (self.next_start, head) if head >= self.next_start else None
        if self.first_time:
            if head - 2 * self.omega + 1 < 0:
                return None
            return (head - 2 * self.omega + 1, head - self.omega)
        start = self.next_start
        end = start + self.omega - 1
        return (start, end) if head >= end + self.omega else None

    def advance(self, span: tuple[int, int]) -> None:
        start, end = span
        if end < start - 1 or (self.last_end is not None and start != self.last_end + 1):
            self.gaps += 1
        self.last_end = end
        self.next_start = end + 1
        self.first_time = False


def scan_ready(
    cursor: RelayCursor, chain: Chain, watched: AbstractSet[Address]
) -> list[tuple[list[Event], tuple[int, int]]]:
    """Read every window that has cleared the revertible zone.

    The cursor moves past all of them, so successive scans cover contiguous,
    disjoint height ranges.  Returned are (events, window) for the windows
    that hold events of watched contracts, in height order; windows without
    any are passed over unread.
    """
    head = chain.height
    first = cursor.window_if_ready(head)
    if first is None:
        return []
    omega, first_end = cursor.omega, first[1]
    end = first_end
    if omega:
        # Later windows are contiguous, ``omega`` wide, and ready while the
        # head is ``omega`` past their end.
        end += (head - omega - first_end) // omega * omega
    batches: list[tuple[list[Event], tuple[int, int]]] = []
    for height in chain.heights_with_events(first[0], end):
        events = [ev for ev in chain.events_at(height) if ev.contract in watched]
        if not events:
            continue
        if height <= first_end:
            window = first
        else:
            start = height - (height - first_end - 1) % omega
            window = (start, start + omega - 1)
        if batches and batches[-1][1] == window:
            batches[-1][0].extend(events)
        else:
            batches.append((events, window))
    cursor.advance((first[0], end))
    return batches


class Watch(NamedTuple):
    """One scanner's reading of one chain, built once with the chain
    resolved; scans, settle-point checks and the rest test share it."""

    chain: Chain
    cursor: RelayCursor
    watched: frozenset[Address]

    def unscanned(self) -> Iterator[Event]:
        """Watched events at or past the cursor's next start."""
        chain = self.chain
        for height in chain.heights_with_events(self.cursor.next_start, chain.height):
            for ev in chain.events_at(height):
                if ev.contract in self.watched:
                    yield ev


def read_ready(
    watches: Iterable[Watch],
) -> tuple[bool, list[tuple[Watch, list[Event], tuple[int, int]]]]:
    """Scan every watch: (whether it acted, each batch read as (watch,
    events, window)).  A scan acted when it read a batch or anchored a
    first window, which passes over the heights below it unread."""
    acted = False
    read = []
    for watch in watches:
        chain, cursor, watched = watch
        anchoring = cursor.first_time
        batches = scan_ready(cursor, chain, watched)
        acted |= bool(batches) or (anchoring and not cursor.first_time)
        if batches:
            read.extend((watch, events, window) for events, window in batches)
    return acted, read


# ---------------------------------------------------------------------------
# The witness node
# ---------------------------------------------------------------------------


@record
class WitnessConfig:
    """One witness's keys and timing, and the side chain it serves.

    The side chain's genesis names the contracts the witness talks to there:
    registration relays go to ``SC_Register``, inbound relays to ``SC_Inter``
    where the chain has one (gasless) and to ``SC_Register`` otherwise.
    """

    name: str
    token_address: Address
    side_address: Address
    genesis: GenesisSpec
    bridge_head: Address
    registry: Address
    omega_token: int
    omega_side: int
    timeout: int       # resend timeout t, in ticks
    sleep: int         # polling period T, in ticks
    behavior: Behavior = Behavior.HONEST

    def token_watched(self) -> frozenset[Address]:
        return frozenset({self.bridge_head, self.registry})

    def side_watched(self) -> frozenset[Address]:
        g = self.genesis
        return frozenset(a for a in (g.register_contract, g.inter_contract, g.bank_contract)
                         if a is not None)


@record
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
    last_submit: int | None = None  # None: due on the next step

    @classmethod
    def relay(cls, target_chain: Address, target: Address, direction: str,
              entries: tuple[TransferEntry, ...]) -> PendingVote:
        """A relay batch, with the subject that binds its entries."""
        return cls(kind="relay", target_chain=target_chain, target=target,
                   direction=direction, subject=entries_subject(direction, entries),
                   entries=entries)


def _event_entry(origin_chain: Address, ev: Event, to: Address | None = None,
                 value: int | None = None) -> TransferEntry:
    """The relay entry for ``ev``, keyed by the event's own origin; the
    recipient and value are the event's unless given."""
    return TransferEntry(
        origin_chain=origin_chain,
        origin_height=ev.height,
        origin_seq=ev.seq,
        to=ev.payload["to"] if to is None else to,
        value=ev.payload["value"] if value is None else value,
    )


@record
class ObservedRegistration:
    side_creator: Address
    payout: int


class WitnessNode:
    """One witness; stepped by the scheduler, submits through the network."""

    def __init__(self, config: WitnessConfig, token_chain: Chain, side_chain: Chain,
                 seed: int) -> None:
        self.config = config
        self.token_chain_id = token_chain.chain_id
        self.side_chain_id = config.genesis.chain_id
        # The token chain's watch, then the side chain's.
        self.watches = (
            Watch(token_chain, RelayCursor(omega=config.omega_token), config.token_watched()),
            Watch(side_chain, RelayCursor(omega=config.omega_side), config.side_watched()),
        )
        self.anchored = False  # every cursor has anchored its first window
        self.pending: dict[tuple, PendingVote] = {}
        self.adopted_rounds: dict[tuple, int] = {}
        self.observed_registration: ObservedRegistration | None = None
        self.relayed_origins: set[tuple] = set()
        self.wake = 0  # the next tick ``step`` is due
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
            for vote in self.pending.values():
                if vote.target == target and vote.direction == direction:
                    vote.last_submit = None

    def idle(self) -> bool:
        return not self.pending

    # -- relay construction (vote content depends on the behavior) -----------

    def relay_and_vote(
        self,
        entries: tuple[TransferEntry, ...],
        target: Address,
        direction: str,
        round_no: int,
        subject: bytes | None = None,
    ) -> Transaction | None:
        """Build the relay transaction for one batch under this behavior, or
        None when this behavior sends none.

        ``entries`` are in origin order, as a pending vote keeps them.
        ``subject``, when given, is the one already bound to ``entries`` (a
        pending vote's); it is recomputed only when this behavior alters an
        entry.
        """
        cfg = self.config
        if cfg.behavior in (Behavior.CRASHED, Behavior.BYZANTINE_REJECT_ALL):
            return None
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
            subject = None
        if subject is None:
            subject = entries_subject(direction, entries)
        sender = cfg.token_address if target in (cfg.bridge_head, cfg.registry) else cfg.side_address
        return Transaction(
            sender=sender,
            to=target,
            value=0,
            gasprice=0,
            round=round_no,
            payload=Transferring(direction=direction, subject=subject, entries=entries),
        )

    def _confirm_tx(self, vote: PendingVote, round_no: int) -> Transaction | None:
        cfg = self.config
        if cfg.behavior == Behavior.CRASHED:
            return None
        subject = vote.subject
        if cfg.behavior == Behavior.EQUIVOCATING:
            subject = codec.digest([subject, self._rng.randint(1, 1 << 30)])
        return Transaction(
            sender=cfg.token_address,
            to=cfg.bridge_head,
            value=0,
            gasprice=0,
            round=round_no,
            payload=Confirm(chain_id=vote.chain_id, subject=subject, verdict=vote.verdict),
        )

    # -- event handling -------------------------------------------------------

    def _decide_registration(
        self, view: "WorldView", payload: dict, spec: GenesisSpec | None
    ) -> bool | None:
        """Verdict for a registration request; None means abstain.  ``spec``
        is the fetched genesis of the claimed chain (None on a native-gas one)."""
        cfg = self.config
        claimed_chain_id = payload["chain_id"]
        registered = view.registry_ids()
        if cfg.behavior == Behavior.BYZANTINE_APPROVE_ALL:
            return True
        if cfg.behavior == Behavior.BYZANTINE_REJECT_ALL:
            return False
        side_height = view.side_height(claimed_chain_id)
        if spec is None:
            return validate_registration_nativegas(
                claimed_chain_id, side_height, registered, self.token_chain_id)
        if side_height is None:
            return None
        return all(registration_conditions(
            spec, side_height, payload["genesis_hash"], payload["balance"],
            claimed_chain_id, registered, self.token_chain_id,
        ))

    def _handle_token_event(self, view: "WorldView", ev: Event) -> None:
        cfg = self.config
        if ev.topic == EventTopic.CROSS_CHAIN_ARRIVED and ev.contract == cfg.bridge_head:
            payload = ev.payload
            if payload.get("kind") == REGISTRATION:
                # A gasless chain's payout is its genesis's Bal_Resv; a
                # witness that cannot fetch the genesis neither votes nor
                # relays a payout.
                spec = None
                if cfg.genesis.variant == VARIANT_GASLESS:
                    try:
                        spec = view.fetch_genesis(self, payload["chain_id"])
                    except FetchFailure:
                        view.log_abstain(self, "genesis fetch failed")
                        return
                verdict = self._decide_registration(view, payload, spec)
                if verdict is None:
                    view.log_abstain(self, "genesis fetch failed")
                    return
                self.observed_registration = ObservedRegistration(
                    side_creator=payload["side_creator"],
                    payout=payload["amount"] if spec is None else spec.bal_resv,
                )
                key = ("confirm", str(cfg.bridge_head))
                self.pending[key] = PendingVote(
                    kind="confirm",
                    target_chain=self.token_chain_id,
                    target=cfg.bridge_head,
                    direction=REGISTRATION,
                    subject=payload["subject"],
                    verdict=verdict,
                    chain_id=payload["chain_id"],
                )
            elif payload.get("kind") == "transfer":
                target = cfg.genesis.inter_contract or cfg.genesis.register_contract
                self._queue_entry(self.side_chain_id, target, INBOUND,
                                  _event_entry(self.token_chain_id, ev))
        elif ev.topic == EventTopic.EXIST_OR_NOT and ev.contract == cfg.registry:
            payload = ev.payload
            if payload["chain_id"] != self.side_chain_id:
                return
            if not payload["success"] or self.observed_registration is None:
                return
            obs = self.observed_registration
            self._queue_entry(self.side_chain_id, cfg.genesis.register_contract, REGISTRATION,
                              _event_entry(self.token_chain_id, ev, obs.side_creator, obs.payout))
        elif ev.topic == EventTopic.REGISTRATION_RESULT and ev.contract == cfg.bridge_head:
            self._settle_result(cfg.bridge_head, REGISTRATION, ev.payload)
        elif ev.topic == EventTopic.CONSENSUS_RESULT and ev.contract == cfg.bridge_head:
            self._settle_result(cfg.bridge_head, ev.payload.get("stream", OUTBOUND), ev.payload)

    def _handle_side_event(self, view: "WorldView", ev: Event) -> None:
        if ev.topic == EventTopic.ASSETS_LOCKED:
            self._queue_entry(self.token_chain_id, self.config.bridge_head, OUTBOUND,
                              _event_entry(self.side_chain_id, ev))
        elif ev.topic == EventTopic.CROSS_CHAIN_ARRIVED:
            # Escrowed withdraw request, back to the contract holding it for
            # the side-chain quorum.
            self._queue_entry(self.side_chain_id, ev.contract, OUTBOUND,
                              _event_entry(self.side_chain_id, ev))
        elif ev.topic == EventTopic.REGISTRATION_RESULT:
            self._settle_result(ev.contract, REGISTRATION, ev.payload)
        elif ev.topic == EventTopic.CONSENSUS_RESULT:
            self._settle_result(ev.contract, ev.payload.get("stream", INBOUND), ev.payload)

    def _queue_entry(
        self, target_chain: Address, target: Address, direction: str, entry: TransferEntry
    ) -> None:
        """Merge ``entry`` into the pending relay batch for ``target``, in
        origin order; it replaces a queued entry with the same origin."""
        key = ("relay", str(target), direction)
        vote = self.pending.get(key)
        if vote is None:
            entries: tuple[TransferEntry, ...] = (entry,)
        else:
            entries, origin = vote.entries, entry.origin_plain()
            at = bisect.bisect_left(entries, origin, key=TransferEntry.origin_plain)
            same = at < len(entries) and entries[at].origin_plain() == origin
            entries = entries[:at] + (entry,) + entries[at + same:]
        self.pending[key] = PendingVote.relay(target_chain, target, direction, entries)

    def _settle_result(self, contract: Address, direction: str, payload: dict) -> None:
        self._adopt(contract, direction, payload["next_round"])
        success = payload["success"]
        origins = set(payload.get("origins", ())) if success else set()
        for key in list(self.pending):
            vote = self.pending[key]
            if vote.target != contract or vote.direction != direction:
                continue
            # A result naming this exact subject concludes it for good, no
            # matter the outcome: a revert or execution failure will never
            # succeed on retry.  Timeout results carry an empty subject and
            # leave the pending vote alive for the resend path.
            if vote.subject == payload["subject"]:
                del self.pending[key]
                continue
            if vote.kind == "relay" and origins:
                remaining = tuple(e for e in vote.entries if e.origin_plain() not in origins)
                if not remaining:
                    del self.pending[key]
                elif len(remaining) != len(vote.entries):
                    self.pending[key] = PendingVote.relay(
                        vote.target_chain, vote.target, direction, remaining)
            elif vote.kind == "confirm" and success:
                # The registration concluded even if the subject we saw was
                # announced under a different request instance.
                del self.pending[key]

    # -- the relay loop -------------------------------------------------------

    def step(self, view: "WorldView", tick: int) -> bool:
        """Scan and submit at this witness's wake tick; True if it acted.

        It acted when it read a batch, anchored a cursor's first window, or
        submitted or dropped a vote: only these change what the scheduler's
        settledness reads, so a step that did none of them leaves it as it was.

        The scheduler calls it only at ``wake``, and ``step`` then sets the
        next wake tick: every tick while a cursor has not yet anchored its
        first window, else the next multiple of ``sleep``.  A crashed witness
        does nothing but keeps waking on that rule, so it acts again on the
        first such tick after it recovers.  No other state makes a step due:
        a vote is due while it is unsent (``last_submit`` is None), only the
        event handlers leave a vote unsent, and ``_submit_due`` sends
        every such vote in the same step.  A sent vote is resent once
        ``timeout`` ticks have passed since it went, which the next wake at or
        after that tick does.
        """
        cfg = self.config
        acted = False
        if cfg.behavior != Behavior.CRASHED:
            acted, batches = read_ready(self.watches)
            for watch, events, window in batches:
                chain_id = watch.chain.chain_id
                view.log_batch(self, chain_id, window, len(events))
                handle = (self._handle_token_event if chain_id == self.token_chain_id
                          else self._handle_side_event)
                for ev in events:
                    handle(view, ev)
            if self.pending and any(self._due(vote, tick) for vote in self.pending.values()):
                self._submit_due(view, tick)
                acted = True
        self.anchored = self.anchored or not any(w.cursor.first_time for w in self.watches)
        self.wake = (tick // cfg.sleep + 1) * cfg.sleep if self.anchored else tick + 1
        return acted

    def _due(self, vote: PendingVote, tick: int) -> bool:
        """Unsent, or sent ``timeout`` or more ticks ago."""
        return vote.last_submit is None or tick - vote.last_submit >= self.config.timeout

    def _submit_due(self, view: "WorldView", tick: int) -> None:
        for key in sorted(self.pending, key=str):
            vote = self.pending[key]
            if not self._due(vote, tick):
                continue
            resend = vote.last_submit is not None
            round_no = self.adopted_round(vote.target, vote.direction)
            if vote.kind == "confirm":
                tx = self._confirm_tx(vote, round_no)
            else:
                tx = self.relay_and_vote(vote.entries, vote.target, vote.direction,
                                         round_no, vote.subject)
            if tx is None:
                # This behavior never submits this vote; drop it so the node
                # does not hold up quiescence.
                del self.pending[key]
                continue
            if resend:
                view.log_resend(self, vote, round_no)
            self.relayed_origins.update(e.origin_plain() for e in vote.entries)
            view.submit(self, vote.target_chain, tx)
            vote.last_submit = tick


class WorldView:
    """What a witness can see and do; implemented by the scheduler."""

    def registry_ids(self) -> set[Address]:
        raise NotImplementedError

    def fetch_genesis(self, witness: WitnessNode, chain_id: Address) -> GenesisSpec:
        raise NotImplementedError

    def side_height(self, chain_id: Address) -> int | None:
        raise NotImplementedError

    def submit(self, witness: WitnessNode, chain_id: Address, tx: Transaction) -> None:
        raise NotImplementedError

    def log_batch(self, witness, chain_id, window, count) -> None:  # pragma: no cover
        pass

    def log_resend(self, witness, vote, round_no) -> None:  # pragma: no cover
        pass

    def log_abstain(self, witness, reason) -> None:  # pragma: no cover
        pass
