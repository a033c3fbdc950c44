"""Witness (notary) nodes.

A witness runs a client on the token chain and on one side chain.  It never
trusts the chain head directly: every observation comes out of a confirmation
window that lags the head by the chain's unconfirmation window size, so a
reorganization no deeper than that window can never change what the witness
has already acted on.  Consensus results are learned the same way, which makes
the whole relay loop reorg-immune for bounded depths.

The relay loop per target contract and lane is: scan the confirmed windows,
merge their relay-worthy events into the lane's pending vote, submit it, then
wait for the matching result event.  A pending vote holds the payload it
sends: a registration confirmation for the bridge head, or a relay batch
bound to its content digest.  One builder turns it into each submission's
transaction; a Byzantine behavior withholds or alters the payload there.  If
nothing concludes within the timeout the vote is resent, adopting whatever
round the contract last announced.

The paper's witness polls on a fixed grid of wake ticks.  This one steps
only at the first wake tick at which it could read, anchor or send
(``WitnessNode.next_wake``).  The wake ticks it sleeps through leave the
cursors short of windows without watched events, which the next step passes
over, reading the same batches in the same windows; a reorg deeper than the
window could move a read event into them, so the cursors catch up first.
"""

from __future__ import annotations

import bisect
import math
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
    side_height: int | None,
    claimed_hash: bytes,
    claimed_balance: int,
    claimed_chain_id: Address,
    registered_ids: set[Address],
    token_chain_id: Address,
) -> list[bool]:
    """The six checks a witness asserts before accepting a registration;
    ``side_height`` is None when no chain is hosted under the claimed id."""
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

    def ready_height(self, chain: Chain, watched: frozenset[Address]) -> float:
        """The least head of ``chain`` at which a scan could anchor or read an
        event of a ``watched`` contract: ``2*omega - 1`` before anchoring,
        ``next_start`` when ``omega == 0``, else ``ready_for`` the first such
        event at or past ``next_start``."""
        omega, start = self.omega, self.next_start
        if self.first_time:
            return 2 * omega - 1
        if not omega:
            return start
        height = chain.first_event_at(watched, start)
        return height - (height - start) % omega + 2 * omega - 1 if height < math.inf else height

    def ready_for(self, height: int) -> float:
        """The least head at which a scan could read an event at ``height``
        at or past ``next_start``, as ``ready_height`` works it out; never
        before anchoring or when ``omega`` is 0, where no event moves it."""
        omega, start = self.omega, self.next_start
        if self.first_time or not omega:
            return math.inf
        return height - (height - start) % omega + 2 * omega - 1

    def advance(self, span: tuple[int, int]) -> None:
        start, end = span
        if end < start - 1 or (self.last_end is not None and start != self.last_end + 1):
            self.gaps += 1
        self.last_end = end
        self.next_start = end + 1
        self.first_time = False


def scan_ready(
    cursor: RelayCursor, chain: Chain, watched: AbstractSet[Address], head: int | None = None
) -> list[tuple[list[Event], tuple[int, int]]]:
    """Read every window that has cleared the revertible zone below ``head``
    (the chain's head unless given).

    The cursor moves past all of them, so successive scans cover contiguous,
    disjoint height ranges.  Returned are (events, window) for the windows
    that hold events of watched contracts, in height order; windows without
    any are passed over unread.
    """
    head = chain.height if head is None else head
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
        """Watched events at or past the cursor's next start, contract by
        contract: only the heights that hold them are read."""
        chain, start = self.chain, self.cursor.next_start
        for contract in self.watched:
            heights = chain.contract_event_heights.get(contract, ())
            for height in heights[bisect.bisect_left(heights, start):]:
                for ev in chain.events_at(height):
                    if ev.contract == contract:
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


def first_ready(watches: Iterable[Watch]) -> float:
    """The first tick (0 if past) at which a watch's head reaches its
    cursor's ready height."""
    ready = math.inf
    for chain, cursor, watched in watches:
        height = cursor.ready_height(chain, watched)
        if height < math.inf and (tick := chain.tick_at(height)) < ready:
            ready = tick
    return ready


def pass_over(watches: Iterable[Watch], tick: int) -> None:
    """Scan every watch at its chain's head as of ``tick``.  Used only where
    the windows ready then hold no watched event, so it only moves cursors."""
    for chain, cursor, watched in watches:
        scan_ready(cursor, chain, watched, chain.height_at(tick))


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
    """An unconfirmed vote: the payload a witness sends to ``target`` in its
    ``direction`` lane, a registration ``Confirm`` or a relay batch's
    ``Transferring``, until a result settles it."""

    target_chain: Address
    target: Address
    direction: str
    payload: Confirm | Transferring
    last_submit: int | None = None  # None: due on the next step

    @classmethod
    def relay(cls, target_chain: Address, target: Address, direction: str,
              entries: tuple[TransferEntry, ...]) -> PendingVote:
        """A relay batch, with the subject that binds its entries."""
        return cls(target_chain, target, direction,
                   Transferring(direction, entries_subject(direction, entries), entries))


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
        # Both keyed by (target, lane): a confirm goes to the bridge head's
        # registration lane, which no relay batch goes to.
        self.pending: dict[tuple[Address, str], PendingVote] = {}
        self.adopted_rounds: dict[tuple[Address, str], int] = {}
        self.observed_registration: ObservedRegistration | None = None
        self.relayed_origins: set[tuple] = set()
        self.wake: float = 0  # the tick of the next step, kept by the scheduler
        self.live_as: Behavior | None = None  # the behavior at the last live step
        # The last tick at which the cursors are where the polling loop has them.
        self.caught_up_to = -1
        self._rng = random.Random(f"{seed}:witness:{config.name}")

    # -- helpers -------------------------------------------------------------

    def _adopt(self, key: tuple[Address, str], next_round: int) -> None:
        if next_round > self.adopted_rounds.get(key, 0):
            self.adopted_rounds[key] = next_round
            vote = self.pending.get(key)
            if vote is not None:
                vote.last_submit = None

    def idle(self) -> bool:
        return not self.pending

    def _vote_tx(self, vote: PendingVote, round_no: int) -> Transaction | None:
        """The transaction that sends ``vote`` in ``round_no`` under this
        behavior, or None when this behavior sends no such vote.

        An equivocator alters the payload anew on every submission: a
        confirm's subject, or the value of a batch's first entry, with the
        subject rebound to the altered entries.
        """
        cfg = self.config
        payload = vote.payload
        if isinstance(payload, Transferring):
            if cfg.behavior == Behavior.BYZANTINE_REJECT_ALL:
                return None
            if cfg.behavior == Behavior.EQUIVOCATING:
                first, *rest = payload.entries
                entries = (TransferEntry(first.origin_chain, first.origin_height, first.origin_seq,
                                         first.to, first.value + self._rng.randint(1, 1 << 30)),
                           *rest)
                payload = Transferring(vote.direction, entries_subject(vote.direction, entries),
                                       entries)
        elif cfg.behavior == Behavior.EQUIVOCATING:
            subject = codec.digest([payload.subject, self._rng.randint(1, 1 << 30)])
            payload = Confirm(payload.chain_id, subject, payload.verdict)
        sender = cfg.token_address if vote.target_chain == self.token_chain_id else cfg.side_address
        return Transaction(sender=sender, to=vote.target, value=0, gasprice=0, round=round_no,
                           payload=payload)

    # -- event handling -------------------------------------------------------

    def _decide_registration(
        self, view: "WorldView", payload: dict, spec: GenesisSpec | None
    ) -> bool:
        """Verdict for a registration request.  ``spec`` is the fetched
        genesis of the claimed chain (None on a native-gas one); a chain the
        witness cannot see has no height, so it is not brand new."""
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
                self.observed_registration = ObservedRegistration(
                    side_creator=payload["side_creator"],
                    payout=payload["amount"] if spec is None else spec.bal_resv,
                )
                self.pending[cfg.bridge_head, REGISTRATION] = PendingVote(
                    self.token_chain_id, cfg.bridge_head, REGISTRATION,
                    Confirm(payload["chain_id"], payload["subject"], verdict))
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
        key = (target, direction)
        vote = self.pending.get(key)
        if vote is None:
            entries: tuple[TransferEntry, ...] = (entry,)
        else:
            entries, origin = vote.payload.entries, entry.origin_plain()
            at = bisect.bisect_left(entries, origin, key=TransferEntry.origin_plain)
            same = at < len(entries) and entries[at].origin_plain() == origin
            entries = entries[:at] + (entry,) + entries[at + same:]
        self.pending[key] = PendingVote.relay(target_chain, target, direction, entries)

    def _settle_result(self, contract: Address, direction: str, payload: dict) -> None:
        key = (contract, direction)
        self._adopt(key, payload["next_round"])
        vote = self.pending.get(key)
        if vote is None:
            return
        # A result naming this exact subject concludes it for good, no
        # matter the outcome: a revert or execution failure will never
        # succeed on retry.  Timeout results carry an empty subject and
        # leave the pending vote alive for the resend path.
        if vote.payload.subject == payload["subject"]:
            del self.pending[key]
        elif payload["success"] and isinstance(vote.payload, Confirm):
            # The registration concluded even if the subject we saw was
            # announced under a different request instance.
            del self.pending[key]
        elif payload["success"]:
            entries, origins = vote.payload.entries, set(payload.get("origins", ()))
            remaining = tuple(e for e in entries if e.origin_plain() not in origins)
            if not remaining:
                del self.pending[key]
            elif len(remaining) != len(entries):
                self.pending[key] = PendingVote.relay(vote.target_chain, contract, direction,
                                                      remaining)

    # -- the relay loop -------------------------------------------------------

    def step(self, view: "WorldView", tick: int) -> bool:
        """Scan and submit at this witness's wake tick; True if it acted.

        It acted when it read a batch, anchored a cursor's first window, or
        submitted or dropped a vote.  The scheduler does not read the answer:
        it wakes a witness only at a tick at which a step can act, and tests
        hold each step to that.  A crashed witness does nothing.  A vote is
        due while unsent (``last_submit`` is None) and again once ``timeout``
        ticks have passed since it went.
        """
        cfg = self.config
        acted = False
        self.caught_up_to = tick
        if cfg.behavior != Behavior.CRASHED:
            self.live_as = cfg.behavior
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
        return acted

    def next_wake(self, earliest: int) -> float:
        """The first wake tick of the polling loop from ``earliest`` on at
        which a step could act: the behavior is not the one of the last live
        step, a watched head has reached its cursor's ready height, or a vote
        falls due.  A crashed witness never acts.  The polling loop wakes on
        every tick until the cursors anchor, then on multiples of ``sleep``.
        """
        cfg = self.config
        behavior, at = cfg.behavior, earliest
        if behavior is Behavior.CRASHED:
            return math.inf
        if behavior is self.live_as:
            ready = first_ready(self.watches)
            for vote in self.pending.values():
                due = earliest if vote.last_submit is None else vote.last_submit + cfg.timeout
                if due < ready:
                    ready = due
            if ready > at:
                at = ready
        return -(-at // cfg.sleep) * cfg.sleep if self.anchored and at < math.inf else at

    def wake_by(self, tick: float) -> None:
        """Wake by the first wake tick from ``tick`` on, unless crashed: a
        new event will be ready to read then.  ``wake`` is on that grid."""
        cfg = self.config
        if tick < self.wake and cfg.behavior is not Behavior.CRASHED:
            self.wake = -(-tick // cfg.sleep) * cfg.sleep if self.anchored else tick

    def catch_up(self, tick: int) -> None:
        """Move the cursors to where the polling loop has them before
        ``tick``: past the windows ready at the last wake tick since the last
        step, if live then.  Called before a reorg, which can move an event
        into heights the loop passed over, and before a behavior change."""
        sleep, last = self.config.sleep, tick - 1
        if self.anchored:
            last -= last % sleep
        if last > self.caught_up_to and self.config.behavior is not Behavior.CRASHED:
            pass_over(self.watches, last)
        self.caught_up_to = tick - 1

    def _due(self, vote: PendingVote, tick: int) -> bool:
        """Unsent, or sent ``timeout`` or more ticks ago."""
        return vote.last_submit is None or tick - vote.last_submit >= self.config.timeout

    def _submit_due(self, view: "WorldView", tick: int) -> None:
        """Send every due vote: the confirm first, then the relay batches by
        target and lane."""
        for key, vote in sorted(self.pending.items(),
                                key=lambda item: (not isinstance(item[1].payload, Confirm),
                                                  item[0])):
            if not self._due(vote, tick):
                continue
            round_no = self.adopted_rounds.get(key, 0)
            tx = self._vote_tx(vote, round_no)
            if tx is None:
                # This behavior never submits this vote; drop it so the node
                # does not hold up quiescence.
                del self.pending[key]
                continue
            if vote.last_submit is not None:
                view.log_resend(self, vote, round_no)
            if isinstance(vote.payload, Transferring):
                self.relayed_origins.update(e.origin_plain() for e in vote.payload.entries)
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
