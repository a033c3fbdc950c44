"""Contract state machines for the two-way peg.

Token chain side:
  * ``BridgeHead``   -- per-side-chain lock/unlock vault; runs the registration
                        quorum and the outbound-unlock quorum.
  * ``ChainIdRegistry`` -- singleton registry of side-chain ids, guarded by an
                        n-of-m owner multisig that grants bridge heads a
                        standing authorization to append.

Gasless side chain:
  * ``RegistrationVault`` -- pre-funded vault paid out (in full) to the creator
                        once the witnesses confirm registration; then suicides
                        by owner multisig.
  * ``InterRelay``   -- entry point for both transfer directions; delegates all
                        token movement to the reserve bank.
  * ``ReserveBank``  -- pre-funded vault backing later inbound transfers.  The
                        only address that may move its funds is the relay
                        that the genesis names.

Native-gas side chain:
  * ``ConsensusGateway`` -- merged registration/transfer consensus contract.
  * ``TradingBook``  -- the token ledger of a native-gas chain; all business
                        transfers go through it, and its column sum must equal
                        the bridge head's locked amount at rest.

Every contract implements the ``Contract`` protocol.  Witness votes all go
through one kind of lane, ``QuorumStream``: it checks a vote (witness, round)
before the chain journals anything, admits it (duplicate echo, subject check,
tally, threshold) and concludes a round (result payload, paid origins,
quorum-safety count).  A contract with lanes keeps
only its own payout or gate step and its pre-checks.  Votes tally per (round,
subject digest): one vote per witness per round, votes from other rounds are
rejected, and a subject only ever executes once.  The lane's history of
paid per-event origin keys makes payouts exactly-once even across merged
resend batches.
"""

from __future__ import annotations

from . import codec
from .chain import (
    Address,
    Chain,
    Confirm,
    EventTopic,
    History,
    MultisigAction,
    Refusal,
    RegistrationRequest,
    TradingAction,
    Transaction,
    TransferEntry,
    Transferring,
    UserTransfer,
)
from .record import field, record

POKE_ACTION = "poke"

REGISTRATION = "registration"
INBOUND = "inbound"
OUTBOUND = "outbound"

MODE_CONSERVATION = "conservation"
MODE_STRICT = "strict"


class ContractError(Refusal):
    """Base for contract-level rejections; the transaction is excluded."""


class AlreadyRegistered(ContractError):
    pass


class RequestPending(ContractError):
    pass


class BelowEntranceFeeMinimum(ContractError):
    pass


class UnknownWitness(ContractError):
    pass


class StaleRound(ContractError):
    pass


class MalformedVote(ContractError):
    pass


class MultisigIncomplete(ContractError):
    pass


class NonzeroBalance(ContractError):
    pass


class AlreadySuicided(ContractError):
    pass


class NotAuthorized(ContractError):
    pass


class NotRegistered(ContractError):
    pass


class SafetyGateViolation(ContractError):
    pass


class ExceedsCirculating(ContractError):
    pass


class InsufficientLedgerBalance(ContractError):
    pass


class UnexpectedValue(ContractError):
    pass


def _require_no_value(tx: Transaction) -> None:
    if tx.value:
        raise UnexpectedValue(f"{tx.payload.TAG} must not carry value")


_SUBJECT = codec.Shape("direction", "entries")


def entries_subject(direction: str, entries: tuple[TransferEntry, ...]) -> bytes:
    """Digest binding a relay batch to its exact content, joined from the
    entries' cached texts."""
    return codec.digest_text(_SUBJECT.text(
        codec.canonical_dumps(direction), codec.array([e.text() for e in entries])
    ))


def registration_subject(
    chain_id: Address, genesis_hash: bytes, balance: int, side_creator: Address, origin: tuple
) -> bytes:
    return codec.digest(
        {
            "kind": REGISTRATION,
            "chain_id": chain_id,
            "genesis_hash": genesis_hash,
            "balance": balance,
            "side_creator": side_creator,
            "origin": list(origin),
        }
    )


@record
class QuorumTally:
    """Votes collected for one subject within the stream's current round."""

    subject: bytes
    yes: set[Address] = field(default_factory=set)
    no: set[Address] = field(default_factory=set)
    entries: tuple[TransferEntry, ...] = ()

    def voters(self) -> set[Address]:
        return self.yes | self.no


@record
class QuorumStream:
    """One consensus lane of a contract (registration, inbound or outbound).

    The round is a monotone instance counter: it advances whenever the lane
    concludes (success, failure or timeout), and votes carrying any other
    round number are rejected, which is what keeps stragglers and replays from
    pooling across consensus instances.

    The lane owns exactly-once payout and quorum safety: ``unpaid`` drops
    the tally entries whose origins an earlier success paid (``paid``), and
    ``unsafe`` counts executions short of the threshold or under a threshold
    of at most half the roster.

    A lane is plain data, because a chain rollback swaps each contract's
    state for its pickled pre-image: it holds no callables and no reference
    back to its contract.  ``witnesses`` is the contract's own roster tuple,
    shared; ``executed`` and ``paid`` are histories, and ``paid`` may be
    shared by the lanes of one contract, so that an origin pays once.
    """

    name: str
    threshold: int
    timeout: int
    witnesses: tuple[Address, ...] = ()
    round: int = 0
    deadline: int | None = None
    tallies: dict[bytes, QuorumTally] = field(default_factory=dict)
    executed: History = field(default_factory=History)
    paid: History = field(default_factory=History)
    unsafe: int = 0

    @property
    def topic(self) -> EventTopic:
        """Topic of the results this lane concludes with."""
        if self.name == REGISTRATION:
            return EventTopic.REGISTRATION_RESULT
        return EventTopic.CONSENSUS_RESULT

    def busy(self) -> bool:
        return bool(self.tallies) or self.deadline is not None

    def check_round(self, tx_round: int | None) -> None:
        if tx_round is None:
            raise MalformedVote(f"{self.name}: vote without a round")
        if tx_round != self.round:
            raise StaleRound(f"{self.name}: round {tx_round} != current {self.round}")

    def check(self, tx: Transaction) -> None:
        """A vote's sender is on the roster and its round is current."""
        if tx.sender not in self.witnesses:
            raise UnknownWitness(f"{tx.sender} not in witness list")
        self.check_round(tx.round)

    def record(
        self,
        witness: Address,
        subject: bytes,
        verdict: bool,
        now: int,
        entries: tuple[TransferEntry, ...] = (),
    ) -> QuorumTally:
        tally = self.tallies.get(subject)
        if tally is None:
            tally = QuorumTally(subject=subject, entries=entries)
            self.tallies[subject] = tally
        if self.deadline is None and self.timeout > 0:
            self.deadline = now + self.timeout
        (tally.yes if verdict else tally.no).add(witness)
        return tally

    def reached(self, tally: QuorumTally) -> bool:
        return len(tally.yes) >= self.threshold

    def unpaid(self, tally: QuorumTally) -> list[TransferEntry]:
        return [e for e in tally.entries if e.origin_plain() not in self.paid]

    def expired(self, now: int) -> bool:
        return self.deadline is not None and now >= self.deadline

    def admit(
        self,
        chain: Chain,
        tx: Transaction,
        address: Address,
        announced: bytes | None,
        echo_topic: EventTopic,
    ) -> QuorumTally | None:
        """Take one witness vote that passed ``check``; return its tally once
        that reaches quorum.

        A relay batch for an already-executed subject is echoed back to
        ``address`` as a duplicate result under ``echo_topic``; a repeated
        confirm is dropped silently.  A relay batch must carry the digest of
        its entries.  A confirm is tallied under whatever subject it names,
        but only the subject the contract ``announced`` can fire.
        """
        vote = tx.payload
        if vote.subject in self.executed:
            if isinstance(vote, Transferring):
                chain.emit(address, echo_topic, self._payload(
                    echo_topic, self.round - 1, vote.subject, True, [], True, None))
            return None
        if isinstance(vote, Confirm):
            if announced is None:
                raise MalformedVote("no registration awaiting confirmation")
            tally = self.record(tx.sender, vote.subject, vote.verdict, chain.now)
            if vote.subject != announced:
                return None  # votes for a subject the contract never announced cannot fire
        else:
            if entries_subject(self.name, vote.entries) != vote.subject:
                raise MalformedVote("subject digest does not match the carried entries")
            tally = self.record(tx.sender, vote.subject, True, chain.now, vote.entries)
        return tally if self.reached(tally) else None

    def conclude(
        self,
        subject: bytes = b"",
        tally: QuorumTally | None = None,
        *,
        success: bool = False,
        error: str | None = None,
        **extra,
    ) -> dict:
        """Close the current round and return its result payload.

        A quorum that executed (``tally`` given, no ``error``) is counted if
        unsafe, and a success marks its origins paid.  A concluded ``subject``
        never executes again; a timeout concludes none.
        """
        round_no = self.round
        if subject:
            self.executed.append(subject)
        self.round += 1
        self.deadline = None
        self.tallies.clear()
        if tally is not None and error is None and (
                len(tally.yes) < self.threshold or self.threshold * 2 <= len(self.witnesses)):
            self.unsafe += 1
        origins = [e.origin_plain() for e in tally.entries] if success and tally else []
        for origin in origins:
            self.paid.append(origin)
        return {**self._payload(self.topic, round_no, subject, success, origins, False, error),
                **extra}

    def _payload(self, topic: EventTopic, round_no: int, subject: bytes, success: bool,
                 origins: list, duplicate: bool, error: str | None) -> dict:
        if topic == EventTopic.CONSENSUS_RESULT:
            payload = {"stream": self.name, "origins": origins, "duplicate": duplicate}
        else:
            # A registration result lists origins only when its batch had
            # entries, and marks only duplicates.
            payload = {"origins": origins} if origins else {}
            if duplicate:
                payload["duplicate"] = True
        payload.update(round=round_no, next_round=self.round, subject=subject, success=success)
        if error:
            payload["error"] = error
        return payload


@record
class Multisig:
    """n-of-m owner approvals collected per action; fires once at the n-th."""

    owners: tuple[Address, ...]
    required: int
    approvals: dict[bytes, set[Address]] = field(default_factory=dict)
    completed: History = field(default_factory=History)

    def approve(self, owner: Address, action_key: bytes) -> bool:
        """Record one approval; True exactly when the action becomes ready."""
        if owner not in self.owners:
            raise NotAuthorized(f"{owner} is not an owner")
        if action_key in self.completed:
            return False
        got = self.approvals.setdefault(action_key, set())
        got.add(owner)
        if len(got) >= self.required:
            self.completed.append(action_key)
            return True
        return False


def action_key(action: str, args: tuple) -> bytes:
    return codec.digest({"action": action, "args": list(args)})


class Contract:
    """What the chain and the scheduler ask of every hosted contract.

    The chain calls ``check`` on each zero-value transaction before it
    journals the contract, ``handle`` for each transaction it admitted (so
    ``handle`` does not check a vote's sender and round again),
    ``held_balance`` for token conservation and ``next_deadline`` for its
    earliest deadline.
    The scheduler pokes every contract whose ``next_deadline`` has come.  It
    asks ``busy`` to decide whether the bridge is at rest, ``lanes`` for
    quorum safety (each lane's ``unsafe`` count) and ``state_view`` for the
    per-block state digest (typed values under ``str`` keys; ``codec.digest``
    encodes them).  The defaults fit a contract without vote lanes that holds
    no tokens; a contract with lanes lists them in ``lanes``, in poke order.
    A contract calls its chain directly: ``emit``, ``credit``, ``contract``
    (a contract it calls) and ``now``.
    """

    address: Address
    # Topic of duplicate echoes; None echoes under the lane's own topic.
    ECHO_TOPIC: EventTopic | None = None

    def lanes(self) -> tuple[QuorumStream, ...]:
        return ()

    def held_balance(self) -> int:
        return 0

    def busy(self) -> bool:
        return any(lane.busy() for lane in self.lanes())

    def next_deadline(self) -> int | None:
        """The earliest deadline among the lanes; None when no lane has one."""
        earliest = None
        for lane in self.lanes():
            due = lane.deadline
            if due is not None and (earliest is None or due < earliest):
                earliest = due
        return earliest

    def state_view(self) -> dict:
        raise NotImplementedError

    def check(self, tx: Transaction) -> QuorumStream | None:
        """The lane a vote goes to, once its routing, sender and round pass;
        None for anything that is not a vote to a lane.

        It only reads state, so the chain runs it before it journals the
        contract, and a refusal here costs no rollback.
        """
        payload = tx.payload
        if not (isinstance(payload, (Confirm, Transferring)) and self.lanes()):
            return None
        lane = self._lane(payload)
        lane.check(tx)
        return lane

    def handle(self, chain: Chain, tx: Transaction) -> None:
        """Route a vote to its lane, a poke to the lanes' deadlines, and
        anything else (everything, on a contract without lanes) to
        ``transact``.  A vote that reaches its lane carries no value, so it
        passed ``check`` at admission."""
        payload = tx.payload
        lanes = self.lanes()
        if lanes and isinstance(payload, (Confirm, Transferring)):
            _require_no_value(tx)
            lane = self._lane(payload)
            tally = lane.admit(chain, tx, self.address, self._announced(),
                               self.ECHO_TOPIC or lane.topic)
            if tally is not None:
                outcome = self._execute(chain, lane, tally)
                chain.emit(self.address, lane.topic, lane.conclude(tally.subject, tally, **outcome))
        elif lanes and isinstance(payload, MultisigAction) and payload.action == POKE_ACTION:
            _require_no_value(tx)
            for lane in lanes:
                if lane.expired(chain.now):
                    self._expire(chain, lane)
        else:
            self.transact(chain, tx)

    def transact(self, chain: Chain, tx: Transaction) -> None:
        """Every transaction ``handle`` does not route to a lane."""
        raise NotImplementedError

    def _lane(self, payload: Confirm | Transferring) -> QuorumStream:
        """The lane a vote is tallied in: relay batches go by direction."""
        if isinstance(payload, Transferring):
            for lane in self.lanes():
                if lane.name == payload.direction:
                    return lane
        raise MalformedVote(f"no lane takes this {payload.TAG} vote")

    def _announced(self) -> bytes | None:
        """The subject a confirm vote may fire for (None: nothing to confirm)."""
        return None

    def _execute(self, chain: Chain, lane: QuorumStream, tally: QuorumTally) -> dict:
        """Payout or gate step of a quorum; returns the outcome for ``conclude``."""
        raise NotImplementedError

    def _expire(self, chain: Chain, lane: QuorumStream) -> None:
        chain.emit(self.address, lane.topic, lane.conclude(error="timeout"))


# ---------------------------------------------------------------------------
# Token-chain contracts
# ---------------------------------------------------------------------------


@record
class PendingRegistration:
    chain_id: Address
    creator: Address
    amount: int  # attach minus compensation fee; the locked portion
    fee_pot: int
    subject: bytes


class ChainIdRegistry(Contract):
    """Singleton registry of registered side-chain ids (append-only, no dupes)."""

    def __init__(self, address: Address, owners: tuple[Address, ...], required: int) -> None:
        self.address = address
        self.multisig = Multisig(owners=owners, required=required)
        self.authorized: set[Address] = set()
        self.chain_ids = History()

    def transact(self, chain: Chain, tx: Transaction) -> None:
        _require_no_value(tx)
        payload = tx.payload
        if not isinstance(payload, MultisigAction):
            raise NotAuthorized(f"registry does not accept {payload.TAG}")
        if payload.action != "authorize":
            raise NotAuthorized(f"unknown registry action {payload.action}")
        if self.multisig.approve(tx.sender, action_key(payload.action, payload.args)):
            self.authorized.add(payload.args[0])

    def update_from(self, chain: Chain, caller: Address, chain_id: Address) -> bool:
        """Append via the standing authorization granted to a bridge head.

        Returns True when the id was new (the success signal carried by the
        ExistOrNot event); False when it was already present.
        """
        if caller not in self.authorized:
            raise MultisigIncomplete(f"{caller} holds no standing registry authorization")
        fresh = chain_id not in self.chain_ids
        self.chain_ids.append(chain_id)
        chain.emit(
            self.address,
            EventTopic.EXIST_OR_NOT,
            {"chain_id": chain_id, "success": fresh},
        )
        return fresh

    def state_view(self) -> dict:
        return {
            "chain_ids": list(self.chain_ids),
            "authorized": sorted(self.authorized),
        }


class BridgeHead(Contract):
    """Per-side-chain vault on the token chain (lock, unlock, registration)."""

    def __init__(
        self,
        address: Address,
        side_chain_id: Address,
        witnesses: tuple[Address, ...],
        threshold: int,
        compensation_fee: int,
        entrance_fee_minimum: int,
        timeout: int,
        registry_address: Address,
    ) -> None:
        self.address = address
        self.side_chain_id = side_chain_id
        self.compensation_fee = compensation_fee
        self.entrance_fee_minimum = entrance_fee_minimum
        self.registry_address = registry_address
        # Starts with no balance; everything it ever holds arrived by lock.
        self.locked = 0
        self.fee_reserve = 0
        self.registered = False
        # The registration lane's deadline is set exactly while a request is
        # pending, so lane expiry alone decides when to revert it.
        self.pending: PendingRegistration | None = None
        roster = tuple(witnesses)
        self.reg_stream = QuorumStream(REGISTRATION, threshold, timeout, roster)
        self.out_stream = QuorumStream(OUTBOUND, threshold, timeout, roster)

    def lanes(self) -> tuple[QuorumStream, ...]:
        return (self.reg_stream, self.out_stream)

    def held_balance(self) -> int:
        pot = self.pending.fee_pot if self.pending else 0
        return self.locked + self.fee_reserve + pot

    def transact(self, chain: Chain, tx: Transaction) -> None:
        if isinstance(tx.payload, RegistrationRequest):
            self.request_registration(chain, tx)
        elif isinstance(tx.payload, UserTransfer):
            self.deposit(chain, tx)
        else:
            raise NotAuthorized(f"bridge head does not accept {tx.payload.TAG}")

    def _lane(self, payload: Confirm | Transferring) -> QuorumStream:
        # The registration lane takes confirms, never relay batches.
        if isinstance(payload, Confirm):
            return self.reg_stream
        if payload.direction != OUTBOUND:
            raise MalformedVote(f"bridge head takes no {payload.direction} relays")
        return self.out_stream

    def _announced(self) -> bytes | None:
        return None if self.pending is None else self.pending.subject

    # -- registration ------------------------------------------------------

    def request_registration(self, chain: Chain, tx: Transaction) -> None:
        req: RegistrationRequest = tx.payload
        if self.registered:
            raise AlreadyRegistered(f"side chain {self.side_chain_id} already registered")
        if self.pending is not None:
            raise RequestPending("a registration request is already awaiting consensus")
        if tx.value <= self.compensation_fee:
            raise BelowEntranceFeeMinimum(
                f"attached {tx.value} does not exceed compensation fee {self.compensation_fee}"
            )
        amount = tx.value - self.compensation_fee
        if amount < self.entrance_fee_minimum:
            raise BelowEntranceFeeMinimum(
                f"attached minus fee {amount} is below the entrance-fee minimum "
                f"{self.entrance_fee_minimum}"
            )
        origin = (str(chain.chain_id), chain.block_height, chain.tx_index)
        subject = registration_subject(
            req.chain_id, req.genesis_hash, req.balance, req.side_creator, origin
        )
        self.locked += amount
        self.pending = PendingRegistration(
            chain_id=req.chain_id,
            creator=tx.sender,
            amount=amount,
            fee_pot=self.compensation_fee,
            subject=subject,
        )
        # The revert clock starts at the request itself.
        self.reg_stream.deadline = chain.now + self.reg_stream.timeout
        chain.emit(
            self.address,
            EventTopic.CROSS_CHAIN_ARRIVED,
            {
                "kind": REGISTRATION,
                "chain_id": req.chain_id,
                "amount": amount,
                "balance": req.balance,
                "genesis_hash": req.genesis_hash,
                "side_creator": req.side_creator,
                "round": self.reg_stream.round,
                "subject": subject,
            },
        )

    def _settle_fees(self, chain: Chain, pot: int, voters: set[Address]) -> None:
        """Split a fee pot evenly among the voting witnesses, rest to the vault."""
        recipients = sorted(voters)
        if recipients:
            share = pot // len(recipients)
            for addr in recipients:
                chain.credit(addr, share)
            pot -= share * len(recipients)
        self.fee_reserve += pot

    def _execute(self, chain: Chain, lane: QuorumStream, tally: QuorumTally) -> dict:
        if lane is self.reg_stream:
            return self._finish_registration(chain, tally)
        fresh = lane.unpaid(tally)
        total = sum(e.value for e in fresh)
        if total > self.locked:
            return {"error": f"unlock {total} exceeds locked {self.locked}"}
        for e in fresh:
            self.locked -= e.value
            chain.credit(e.to, e.value)
        return {"success": True}

    def _finish_registration(self, chain: Chain, tally: QuorumTally) -> dict:
        pending = self.pending
        assert pending is not None
        registry: ChainIdRegistry = chain.contract(self.registry_address)
        outcome = {"chain_id": pending.chain_id}
        if registry.update_from(chain, self.address, pending.chain_id):
            self.registered = True
            outcome["success"] = True
        else:
            # Quorum passed but the id was taken: release the locked amount
            # back to the creator, keep only the fee.
            self.locked -= pending.amount
            chain.credit(pending.creator, pending.amount)
            outcome["reason"] = "chain id already registered"
        self._settle_fees(chain, pending.fee_pot, tally.voters())
        self.pending = None
        return outcome

    def _expire(self, chain: Chain, lane: QuorumStream) -> None:
        if lane is not self.reg_stream:
            super()._expire(chain, lane)
            return
        # Deadline passed without quorum: refund the creator minus the fee.
        pending = self.pending
        assert pending is not None
        tally = lane.tallies.get(pending.subject)
        voters = tally.voters() if tally else set()
        refund = max(pending.amount - self.compensation_fee, 0)
        revert_fee = pending.amount - refund
        self.locked -= pending.amount
        chain.credit(pending.creator, refund)
        self._settle_fees(chain, pending.fee_pot + revert_fee, voters)
        self.pending = None
        chain.emit(self.address, lane.topic, lane.conclude(
            pending.subject, chain_id=pending.chain_id, reason="timeout", refund=refund))

    # -- transfers ----------------------------------------------------------

    def deposit(self, chain: Chain, tx: Transaction) -> None:
        """Lock tokens for the side chain (token -> side direction)."""
        transfer: UserTransfer = tx.payload
        if not self.registered:
            raise NotRegistered("side chain is not registered yet")
        if transfer.dest is None:
            raise MalformedVote("bridge deposit needs a destination address")
        self.locked += tx.value
        # Witnesses identify the transfer by this event's own (height, seq).
        chain.emit(
            self.address,
            EventTopic.CROSS_CHAIN_ARRIVED,
            {
                "kind": "transfer",
                "chain_id": self.side_chain_id,
                "to": transfer.dest,
                "value": tx.value,
            },
        )

    def state_view(self) -> dict:
        return {
            "locked": self.locked,
            "fee_reserve": self.fee_reserve,
            "registered": self.registered,
            "pending": None if self.pending is None else self.pending.subject,
            "reg_round": self.reg_stream.round,
            "out_round": self.out_stream.round,
        }


# ---------------------------------------------------------------------------
# Gasless side-chain contracts
# ---------------------------------------------------------------------------


class RegistrationVault(Contract):
    """Holds the entrance reserve until the registration quorum releases it."""

    def __init__(
        self,
        address: Address,
        balance: int,
        witnesses: tuple[Address, ...],
        threshold: int,
        timeout: int,
        owners: tuple[Address, ...],
        required: int,
    ) -> None:
        self.address = address
        self.balance = balance
        self.suicided = False
        self.multisig = Multisig(owners=owners, required=required)
        self.stream = QuorumStream(REGISTRATION, threshold, timeout, tuple(witnesses))

    def lanes(self) -> tuple[QuorumStream, ...]:
        return (self.stream,)

    def held_balance(self) -> int:
        return self.balance

    def transact(self, chain: Chain, tx: Transaction) -> None:
        _require_no_value(tx)
        payload = tx.payload
        if not (isinstance(payload, MultisigAction) and payload.action == "suicide"):
            raise NotAuthorized(f"vault does not accept {payload.TAG}")
        if self.suicided:
            raise AlreadySuicided("vault already deactivated")
        if self.multisig.approve(tx.sender, action_key("suicide", ())):
            if self.balance != 0:
                raise NonzeroBalance(f"vault still holds {self.balance}")
            self.suicided = True

    def _lane(self, payload: Confirm | Transferring) -> QuorumStream:
        if self.suicided:
            raise AlreadySuicided("vault has been deactivated")
        return super()._lane(payload)

    def _execute(self, chain: Chain, lane: QuorumStream, tally: QuorumTally) -> dict:
        if len(tally.entries) != 1 or tally.entries[0].value != self.balance:
            return {"error": "payout must equal the vault balance exactly"}
        payout = tally.entries[0]
        self.balance = 0
        chain.credit(payout.to, payout.value)
        return {"success": True, "to": payout.to, "amount": payout.value}

    def state_view(self) -> dict:
        return {"balance": self.balance, "suicided": self.suicided,
                "round": self.stream.round}


class ReserveBank(Contract):
    """Pre-funded side-chain vault; only the relay may move its balance.

    The relay's authorization is a genesis constant: the access control is
    part of the chain's pre-definition, and no transaction changes it.
    """

    def __init__(self, address: Address, balance: int, authorized_relay: Address) -> None:
        self.address = address
        self.balance = balance
        self.authorized_relay = authorized_relay
        self.access_violations: list[str] = []

    def held_balance(self) -> int:
        return self.balance

    def transact(self, chain: Chain, tx: Transaction) -> None:
        _require_no_value(tx)
        raise NotAuthorized("only the relay may interact with the bank")

    def _check_caller(self, caller: Address) -> None:
        if caller != self.authorized_relay:
            self.access_violations.append(str(caller))
            raise NotAuthorized(f"{caller} is not the authorized relay")

    def lock_from_relay(self, chain: Chain, caller: Address,
                        dest: Address, value: int) -> None:
        self._check_caller(caller)
        self.balance += value
        chain.emit(self.address, EventTopic.ASSETS_LOCKED, {"to": dest, "value": value})

    def unlock_from_relay(self, chain: Chain, caller: Address,
                          to: Address, value: int) -> None:
        self._check_caller(caller)
        if value > self.balance:
            raise SafetyGateViolation(f"unlock {value} exceeds bank balance {self.balance}")
        self.balance -= value
        chain.credit(to, value)

    def state_view(self) -> dict:
        return {
            "balance": self.balance,
            "authorized_relay": self.authorized_relay,
        }


class InterRelay(Contract):
    """Side-chain entry point for both directions of the peg."""

    def __init__(
        self,
        address: Address,
        bank_address: Address,
        witnesses: tuple[Address, ...],
        threshold: int,
        timeout: int,
        total_supply: int,
        entrance_reserve: int,
        mode: str = MODE_CONSERVATION,
    ) -> None:
        self.address = address
        self.bank_address = bank_address
        self.total_supply = total_supply
        self.entrance_reserve = entrance_reserve
        self.mode = mode
        self.stream = QuorumStream(INBOUND, threshold, timeout, tuple(witnesses))

    def lanes(self) -> tuple[QuorumStream, ...]:
        return (self.stream,)

    # held_balance stays 0: every token it receives is forwarded to the bank
    # in the same transaction.

    # Outbound: user locks tokens for the token chain.
    def transact(self, chain: Chain, tx: Transaction) -> None:
        transfer = tx.payload
        if not isinstance(transfer, UserTransfer):
            raise NotAuthorized(f"relay does not accept {transfer.TAG}")
        if transfer.dest is None:
            raise MalformedVote("outbound transfer needs a token-chain destination")
        bank: ReserveBank = chain.contract(self.bank_address)
        bound = self.total_supply - bank.balance
        if tx.value > bound:
            raise ExceedsCirculating(
                f"outbound {tx.value} exceeds circulating bound {bound}"
            )
        bank.lock_from_relay(chain, self.address, transfer.dest, tx.value)

    # Inbound: witness quorum releases bank funds to side accounts.
    def _execute(self, chain: Chain, lane: QuorumStream, tally: QuorumTally) -> dict:
        bank: ReserveBank = chain.contract(self.bank_address)
        fresh = lane.unpaid(tally)
        error = self._gate_error(bank, fresh)
        if error is not None:
            return {"error": error}
        for e in fresh:
            bank.unlock_from_relay(chain, self.address, e.to, e.value)
        return {"success": True}

    def _gate_error(self, bank: ReserveBank, fresh: list[TransferEntry]) -> str | None:
        total = sum(e.value for e in fresh)
        if total > bank.balance:
            return f"unlock {total} exceeds bank balance {bank.balance}"
        if self.mode == MODE_STRICT:
            # Literal ledger identity: the bank balance after the unlock plus
            # the entrance reserve plus the requested amount must reproduce
            # the total supply.  This holds only while no prior disbursement
            # has happened, so strict mode admits exactly one net drawdown.
            running = bank.balance
            for e in fresh:
                post = running - e.value
                if post + self.entrance_reserve + e.value != self.total_supply:
                    return (
                        f"strict gate: bank {post} + entrance {self.entrance_reserve} "
                        f"+ {e.value} != supply {self.total_supply}"
                    )
                running = post
        return None

    def state_view(self) -> dict:
        return {"round": self.stream.round, "mode": self.mode}


# ---------------------------------------------------------------------------
# Native-gas side-chain contracts
# ---------------------------------------------------------------------------


class TradingBook(Contract):
    """Token ledger of a native-gas side chain.

    All business transfers go through this book; its column sum must equal the
    bridge head's locked amount for the chain whenever the bridge is at rest.
    Only the gateway that the genesis names may credit or debit it through
    the bridge; no transaction changes that gateway.
    """

    def __init__(self, address: Address, authorized_gateway: Address) -> None:
        self.address = address
        self.balances: dict[Address, int] = {}
        self.authorized_gateway = authorized_gateway

    def ledger_sum(self) -> int:
        return sum(self.balances.values())

    def transfer(self, sender: Address, to: Address, value: int) -> None:
        have = self.balances.get(sender, 0)
        if value > have:
            raise InsufficientLedgerBalance(f"{sender} holds {have} < {value}")
        self.balances[sender] = have - value
        self.balances[to] = self.balances.get(to, 0) + value

    def transact(self, chain: Chain, tx: Transaction) -> None:
        _require_no_value(tx)
        payload = tx.payload
        if isinstance(payload, TradingAction) and not payload.cross_chain:
            self.transfer(tx.sender, payload.to, payload.value)
            return
        raise NotAuthorized(f"trading book does not accept {payload.TAG}")

    def _check_caller(self, caller: Address) -> None:
        if caller != self.authorized_gateway:
            raise NotAuthorized(f"{caller} is not the authorized gateway")

    def credit_from_gateway(self, caller: Address, to: Address, value: int) -> None:
        self._check_caller(caller)
        self.balances[to] = self.balances.get(to, 0) + value

    def debit_from_gateway(self, caller: Address, user: Address, value: int) -> None:
        self._check_caller(caller)
        have = self.balances.get(user, 0)
        if value > have:
            raise InsufficientLedgerBalance(f"{user} holds {have} < {value}")
        self.balances[user] = have - value

    def state_view(self) -> dict:
        return {
            "balances": {str(a): v for a, v in sorted(self.balances.items())},
            "gateway": self.authorized_gateway,
        }


class ConsensusGateway(Contract):
    """Merged registration/transfer consensus contract for native-gas chains."""

    # Duplicates are echoed as consensus results on every lane, registration
    # included, although registration concludes with registration results.
    ECHO_TOPIC = EventTopic.CONSENSUS_RESULT

    def __init__(
        self,
        address: Address,
        trading_address: Address,
        witnesses: tuple[Address, ...],
        threshold: int,
        timeout: int,
    ) -> None:
        self.address = address
        self.trading_address = trading_address
        roster = tuple(witnesses)
        # One paid-origin history for all three lanes: an origin pays once across them.
        paid = History()
        self.streams = {
            name: QuorumStream(name, threshold, timeout, roster, paid=paid)
            for name in (REGISTRATION, INBOUND, OUTBOUND)
        }
        self.escrow_total = 0

    def lanes(self) -> tuple[QuorumStream, ...]:
        return tuple(self.streams.values())

    def busy(self) -> bool:
        return self.escrow_total > 0 or super().busy()

    def side_token_total(self, trading: TradingBook) -> int:
        return trading.ledger_sum() + self.escrow_total

    def transact(self, chain: Chain, tx: Transaction) -> None:
        """User starts a side->token transfer; the amount moves into escrow."""
        _require_no_value(tx)
        action = tx.payload
        if not (isinstance(action, TradingAction) and action.cross_chain):
            raise NotAuthorized(f"gateway does not accept {action.TAG}")
        trading: TradingBook = chain.contract(self.trading_address)
        trading.debit_from_gateway(self.address, tx.sender, action.value)
        self.escrow_total += action.value
        chain.emit(self.address, EventTopic.CROSS_CHAIN_ARRIVED,
                   {"kind": "transfer", "direction": OUTBOUND,
                    "to": action.to, "value": action.value})

    def _execute(self, chain: Chain, lane: QuorumStream, tally: QuorumTally) -> dict:
        trading: TradingBook = chain.contract(self.trading_address)
        fresh = lane.unpaid(tally)
        if lane.name == OUTBOUND:
            if sum(e.value for e in fresh) > self.escrow_total:
                return {"error": "escrow underflow"}
            for e in fresh:
                self.escrow_total -= e.value
                chain.emit(self.address, EventTopic.ASSETS_LOCKED,
                           {"to": e.to, "value": e.value, "origin": e.origin_plain()})
        else:
            for e in fresh:
                trading.credit_from_gateway(self.address, e.to, e.value)
        return {"success": True}

    def state_view(self) -> dict:
        return {
            "escrow": self.escrow_total,
            "rounds": {k: s.round for k, s in self.streams.items()},
        }
