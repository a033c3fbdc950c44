"""In-memory blockchain substrate.

Each chain is an append-only list of blocks over an account ledger plus a set
of contract state machines.  Block application is the only way state changes:
transactions are applied in order, contracts emit events, and every block
stores the events it produced; the chain indexes the heights of the blocks
that hold any.  While it applies a block the chain holds that block's height,
tick and events and the index of the transaction in hand; contracts call the
chain directly.  A reorganization replaces the top ``depth`` blocks.

Admission comes before the journal.  Each transaction first meets the rules
that only read state: gas, negative value, the payload kind when no contract
is called, and for a zero-value contract call the contract's ``check`` (lane
routing, roster membership, round).  A refusal there is recorded with its
reason and touches nothing.

State is journaled, not copied.  The first time a block touches an account or
a contract, the chain keeps its pre-image in the block's undo record: the old
balance (or that the account was absent), or the contract's pickled
``__dict__``, where a ``History`` (what only grows) is held by its length.  A
transaction that fails once it is applied (inside its contract, or on a
debit) restores the block-start pre-images, drops from the record those it
added itself and replays the accepted prefix against the rest; a reorg
restores the undo records of the dropped blocks, newest first, then applies
the replacement.  Only blocks that changed state have a record, and only the
newest ``undo_depth`` blocks keep it when that is set: no reorg goes deeper.

Gas is modeled as flow control only: a transaction either qualifies for the
zero-gasprice exemption or must be able to afford ``value + gasprice``.  A
gas-free transaction is exempt when its sender is a contract on the chain, or
when it calls a contract on the chain and its sender is in the chain's
genesis-fixed ``witness_exempt`` set: the witnesses and registry owners on
the token chain, the witnesses and the vault owners on a side chain.
No tokens are ever destroyed or minted by block application, so the sum of
account balances and contract-held balances is invariant on chains that carry
a token ledger.  There are no block rewards.
"""

from __future__ import annotations

import bisect
import itertools
import math
import pickle
import weakref
from enum import Enum
from functools import total_ordering
from typing import Any, ClassVar, Iterable, Iterator, Optional

from . import codec
from .record import frozen_guard, record

ADDRESS_SIZE = 20
GENESIS_PARENT = b"\x00" * codec.DIGEST_SIZE

# The 20-byte address space admits 16**40 (~1.46e48) distinct identifiers,
# which bounds the number of side chains representable; the simulator never
# needs to enumerate it.


@total_ordering
class Address(codec.Encoded):
    """20-byte opaque identifier, rendered as 0x-prefixed lowercase hex.

    Addresses are interned: there is one object per 20-byte value, made in
    ``__new__`` with its hex text, its canonical text and its hash (a function
    of the bytes), so each is computed once per value.  Equality is identity
    and ordering is by ``raw``; an address is frozen like a frozen record.  An
    address pickles as its bytes, so a pre-image holds each address once and
    unpickling returns the interned object.
    """

    raw: bytes

    _interned: ClassVar[dict[bytes, "Address"]] = {}
    __setattr__ = __delattr__ = frozen_guard

    def __new__(cls, raw: bytes) -> "Address":
        addr = cls._interned.get(raw) if type(raw) is bytes else None
        if addr is None:
            if type(raw) is not bytes or len(raw) != ADDRESS_SIZE:
                raise ValueError(f"address must be {ADDRESS_SIZE} bytes")
            addr = object.__new__(cls)
            hex_text = "0x" + raw.hex()
            addr.__dict__.update(raw=raw, _str=hex_text, _text=f'"{hex_text}"', _hash=hash(raw))
            cls._interned[raw] = addr
        return addr

    def __reduce__(self) -> tuple:
        return (Address, (self.raw,))

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Address") -> bool:
        return self.raw < other.raw if type(other) is Address else NotImplemented

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        return cls(codec.parse_hex(text, length=ADDRESS_SIZE))

    @classmethod
    def from_label(cls, label: str) -> "Address":
        """Deterministic address derived from a human-readable label."""
        return cls(codec.digest(["addr", label])[:ADDRESS_SIZE])

    def canonical(self) -> str:
        return self._str

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"Address({self._str})"


class History:
    """An ordered, append-only collection with a membership index; appending
    a present item changes nothing.  Equality is by value, in order.  It
    pickles as its key and length, and unpickling cuts the live history back
    to that length and returns it: a restored pre-image keeps its identity.
    """

    _live: ClassVar[weakref.WeakValueDictionary[int, "History"]] = weakref.WeakValueDictionary()
    _keys: ClassVar[Iterator[int]] = itertools.count()

    def __init__(self, items: Iterable = ()) -> None:
        self._items = dict.fromkeys(items)  # insertion-ordered; values unused
        self._key = next(History._keys)
        History._live[self._key] = self

    def append(self, item: Any) -> None:
        self._items[item] = None

    def __contains__(self, item: Any) -> bool:
        return item in self._items

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        return list(self) == list(other) if isinstance(other, (History, list)) else NotImplemented

    def __reduce__(self) -> tuple:
        return (_truncated, (self._key, len(self._items)))

    def __deepcopy__(self, memo: dict) -> "History":
        return History(self._items)  # by value: the items are hashable, so immutable


def _truncated(key: int, length: int) -> History:
    history = History._live[key]
    while len(history._items) > length:
        history._items.popitem()  # the newest item
    return history


class ChainKind(str, Enum):
    TOKEN = "token"
    GASLESS_SIDE = "gasless_side"
    NATIVE_GAS_SIDE = "native_gas_side"


class EventTopic(str, Enum):
    EXIST_OR_NOT = "ExistOrNot"
    CROSS_CHAIN_ARRIVED = "CrossChainArrived"
    ASSETS_LOCKED = "AssetsLocked"
    REGISTRATION_RESULT = "RegistrationResult"
    CONSENSUS_RESULT = "ConsensusResult"


class Refusal(Exception):
    """A rule of the model refuses a transaction: it is excluded from its
    block and recorded with its reason.  Any other exception while a block is
    applied is a fault of the model and stops the run (``ModelError``)."""


class InvalidTransaction(Refusal):
    """Transaction cannot be applied; it is excluded from the block."""


class ModelError(Exception):
    """An exception other than a ``Refusal`` while a block was applied."""


class InvalidReorg(Exception):
    """Reorg request is structurally impossible (depth)."""


# ---------------------------------------------------------------------------
# Payloads
# ---------------------------------------------------------------------------
#
# A transaction carries exactly one tagged payload; the tag decides which
# contract operation may consume it, and is written under "type" in the
# payload's canonical form.  Payloads, transfer entries, transactions and
# events derive their canonical form and cached text from their fields
# (``codec.Encoded``): block hashes, vote subjects and block records join the
# cached texts of their members instead of encoding every member again.


@record(frozen=True)
class RegistrationRequest(codec.Encoded):
    """Creator asks the bridge head to register a side chain."""

    chain_id: Address
    genesis_hash: bytes
    balance: int
    side_creator: Address

    TAG = "registration_request"


@record(frozen=True)
class Confirm(codec.Encoded):
    """Witness verdict on a registration request."""

    chain_id: Address
    subject: bytes
    verdict: bool

    TAG = "confirm"


@record(frozen=True)
class TransferEntry(codec.Encoded):
    """One cross-chain credit, tagged with the origin of the event it mirrors.

    The origin names the emitting chain, the block height and the event's
    position within that block, which makes every observable event executable
    at most once no matter how often it is relayed.
    """

    origin_chain: Address
    origin_height: int
    origin_seq: int
    to: Address
    value: int

    def origin_plain(self) -> tuple:
        return (str(self.origin_chain), self.origin_height, self.origin_seq)


@record(frozen=True)
class Transferring(codec.Encoded):
    """Witness relay of a batch of observed cross-chain events, plus its vote."""

    direction: str  # "registration" | "inbound" | "outbound"
    subject: bytes
    entries: tuple[TransferEntry, ...]

    TAG = "transferring"


@record(frozen=True)
class UserTransfer(codec.Encoded):
    """User payment; ``dest`` names the far-chain recipient on bridge deposits."""

    dest: Optional[Address] = None

    TAG = "user_transfer"


@record(frozen=True)
class IoTRecord(codec.Encoded):
    """Application record on a side chain; never interacts with the bridge."""

    data: str

    TAG = "iot_record"


@record(frozen=True)
class MultisigAction(codec.Encoded):
    """Owner approval for a contract-administration action, or a deadline poke."""

    action: str
    args: tuple = ()

    TAG = "multisig_action"


@record(frozen=True)
class TradingAction(codec.Encoded):
    """Trading-ledger operation: intra-chain transfer or cross-chain withdraw."""

    to: Address
    value: int
    cross_chain: bool = False

    TAG = "trading_action"


Payload = (
    RegistrationRequest
    | Confirm
    | Transferring
    | UserTransfer
    | IoTRecord
    | MultisigAction
    | TradingAction
)


@record(frozen=True)
class Transaction(codec.Encoded):
    sender: Address
    to: Address
    value: int
    gasprice: int
    payload: Payload
    round: Optional[int] = None

    KEYS = {"sender": "from"}

    def digest(self) -> bytes:
        # Cached beside the fields, so equality and hashing do not see it.
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = self.__dict__["_digest"] = codec.digest_text(self.text())
        return cached

    def id_text(self) -> str:
        """The canonical text of ``digest()``, which names the transaction in
        trace records; cached like it."""
        cached = self.__dict__.get("_id_text")
        if cached is None:
            cached = self.__dict__["_id_text"] = codec.canonical_dumps(self.digest())
        return cached


@record(frozen=True)
class Event(codec.Encoded):
    """Emitted by a contract while applying exactly one transaction.

    ``seq`` is the event's position within its block, so (height, seq) is a
    chain-unique identity even when one transaction emits several events.
    ``payload`` holds the typed values the contract built (``Address``,
    ``bytes``, ``int``, tuples); readers use them as they are, and only the
    trace encoder turns them into text.  A contract hands over values it no
    longer changes: a payload must never alias the contract's own state.  So
    an event never changes once emitted, and caches its text like the
    immutable values.
    """

    contract: Address
    topic: EventTopic
    payload: dict
    height: int
    tx_index: int
    seq: int

    def origin_plain(self, chain_id: Address) -> tuple:
        return (str(chain_id), self.height, self.seq)


_BLOCK_HASHED = codec.Shape("height", "parent_hash", "transactions")
_EMPTY_BLOCK_HASHED = codec.Shape("height", "parent_hash", transactions="[]")


@record(slots=True)
class Block:
    height: int
    parent_hash: bytes
    transactions: tuple[Transaction, ...]
    events: tuple[Event, ...] = ()
    hash: bytes = b""
    produced_at: int = 0  # scheduler tick; node-local metadata, not hashed

    def compute_hash(self, parent_text: str | None = None) -> bytes:
        """Digest of height, parent hash (or its given text) and the txs' texts."""
        if parent_text is None:
            parent_text = codec.canonical_dumps(self.parent_hash)
        return codec.digest_text(_BLOCK_HASHED.text(
            int.__repr__(self.height), parent_text,
            codec.array([tx.text() for tx in self.transactions]) if self.transactions else "[]",
        ))


@record
class Rejection:
    """A transaction excluded from a block, with the reason."""

    tx: Transaction
    reason: str


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


_STATE = codec.Shape("accounts", "contracts")


class Chain:
    """One blockchain: blocks, account ledger, and hosted contract states.

    ``accounts`` is the chain's primary balance map.  On the token chain and
    on gasless side chains it is the token ledger and obeys conservation:
    after every block that was offered transactions, the accounts and the
    contracts' held balances sum to ``total_supply``, and ``unbalanced``
    keeps the first block where they did not.  On native-gas side chains it
    is the native gas balance, which carries no cross-chain value (tokens
    there live in the trading ledger contract).

    State changes only through ``apply_block`` and ``reorg``.  The undo
    journal and the memoised ``state_digest``, ``earliest_deadline`` and
    ``first_event_at`` rely on it: every change goes through ``credit``,
    ``debit`` or ``_touch_contract`` (a contract about to be called), which
    record the pre-image and drop the memos (an account's change only the
    state digest), and every undo goes through ``_restore``, which drops
    them too.  A contract's view text is dropped the same way, when that
    contract is touched or restored.
    """

    def __init__(
        self,
        chain_id: Address,
        kind: ChainKind,
        genesis_spec: dict,
        total_supply: int,
        accounts: dict[Address, int] | None = None,
        undo_depth: int | None = None,
        interval: int = 1,
    ) -> None:
        self.chain_id = chain_id
        self.interval = interval  # ticks between blocks; see ``tick_at``
        self.kind = kind
        self.genesis_spec = genesis_spec
        self.total_supply = total_supply
        self.accounts: dict[Address, int] = dict(accounts or {})
        # (height, ledger total) of the first block after which the token
        # ledger did not sum to the supply; None while it always has.
        self.unbalanced: tuple[int, int] | None = None
        self.contracts: dict[Address, Any] = {}
        self.witness_exempt: frozenset[Address] = frozenset()
        genesis = Block(height=0, parent_hash=GENESIS_PARENT, transactions=())
        genesis.hash = codec.digest(genesis_spec)
        self.blocks: list[Block] = [genesis]
        # The head block and the canonical text of its hash (``head_text``).
        self._head_text = (genesis, codec.canonical_dumps(genesis.hash))
        # Ascending heights of the blocks that hold events, of any contract
        # and of each; readers look up events there, not at every height.
        self.event_heights: list[int] = []
        self.contract_event_heights: dict[Address, list[int]] = {}
        # height -> undo record (account pre-images, contract pre-images) of
        # every block that changed state (the newest ``undo_depth`` blocks'
        # only, if set); None marks an absent account.
        self._undo: dict[int, tuple[dict[Address, int | None], dict[Address, bytes]]] = {}
        self.undo_depth = undo_depth
        # The block being applied: its undo record, height, tick and events so
        # far, and the index of the transaction in hand.
        self._record: tuple[dict[Address, int | None], dict[Address, bytes]] = ({}, {})
        self.block_height = self.now = self.tx_index = 0
        self._events: list[Event] = []
        # state_digest, earliest_deadline and first_event_at, until the next
        # change or restore: a block's events come with a contract's change,
        # and a reorg drops them by restoring those blocks' undo records.
        self._memo: dict[Any, Any] = {}
        # Each contract's canonical state-view text, until it is called or
        # restored.
        self._view_texts: dict[Address, str] = {}
        self.seal_genesis()

    # -- inspection ---------------------------------------------------------

    @property
    def height(self) -> int:
        return self.blocks[-1].height

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def head_text(self) -> str:
        """The canonical text of the head block's hash, kept until the head
        changes (a new block, a reorg, or a block appended directly)."""
        block, text = self._head_text
        head = self.blocks[-1]
        if block is not head:
            self._head_text = (head, text := codec.canonical_dumps(head.hash))
        return text

    def balance(self, addr: Address) -> int:
        return self.accounts.get(addr, 0)

    def has_token_ledger(self) -> bool:
        return self.kind in (ChainKind.TOKEN, ChainKind.GASLESS_SIDE)

    def ledger_total(self) -> int:
        held = sum(c.held_balance() for c in self.contracts.values())
        return sum(self.accounts.values()) + held

    def events_at(self, height: int) -> tuple[Event, ...]:
        return self.blocks[height].events

    def heights_with_events(self, first: int, last: int) -> list[int]:
        """The heights in ``first..last`` whose blocks hold events, ascending."""
        heights = self.event_heights
        if not heights or heights[-1] < first:
            return []
        return heights[bisect.bisect_left(heights, first):bisect.bisect_right(heights, last)]

    # -- mutation -----------------------------------------------------------

    def register_contract(self, address: Address, state: Any) -> None:
        if self.height != 0:
            raise ValueError("contracts are genesis state; the chain is already live")
        if address in self.contracts:
            raise ValueError(f"contract already registered at {address}")
        self.contracts[address] = state

    def seal_genesis(self) -> None:
        """Called before the first block, once contracts and exemptions are
        wired.  Both are genesis-only, so the exemptions are frozen and the
        contracts' sorted order is taken here, and neither is journaled."""
        if self.height != 0:
            raise ValueError("genesis already sealed by block production")
        self.witness_exempt = frozenset(self.witness_exempt)
        self.contract_order: tuple[Address, ...] = tuple(sorted(self.contracts))

    def credit(self, addr: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("negative credit")
        self._touch_account(addr)
        self.accounts[addr] = self.accounts.get(addr, 0) + amount

    def debit(self, addr: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("negative debit")
        have = self.accounts.get(addr, 0)
        if have < amount:
            raise InvalidTransaction(f"insufficient balance at {addr}: {have} < {amount}")
        self._touch_account(addr)
        self.accounts[addr] = have - amount

    def _check_gas(self, tx: Transaction) -> None:
        if tx.gasprice < 0:
            raise InvalidTransaction("negative gasprice")
        if tx.gasprice == 0:
            from_contract = tx.sender in self.contracts
            exempt_witness = tx.sender in self.witness_exempt and tx.to in self.contracts
            if not (from_contract or exempt_witness):
                raise InvalidTransaction("zero gasprice without exemption")
            return
        if self.has_token_ledger():
            have, need = self.balance(tx.sender), tx.value + tx.gasprice
            if have < need:
                raise InvalidTransaction(f"cannot afford value+gas: {have} < {need}")
        # Gas is a validity requirement only; no balance is consumed by it.

    def _admit(self, tx: Transaction) -> None:
        """Raise if ``tx`` is refused by a rule that only reads state: gas,
        negative value, the payload kind when no contract is called, and a
        zero-value contract call's ``Contract.check``.  A value-carrying call
        is checked by its contract after the debit, as ``handle`` orders it."""
        self._check_gas(tx)
        if tx.value < 0:
            raise InvalidTransaction("negative value")
        contract = self.contracts.get(tx.to)
        if contract is None:
            if not isinstance(tx.payload, (UserTransfer, IoTRecord)):
                raise InvalidTransaction(f"no contract at {tx.to} for {tx.payload.TAG}")
        elif not tx.value:
            contract.check(tx)

    def emit(self, contract: Address, topic: EventTopic, payload: dict) -> None:
        """Add an event of the transaction in hand to the block being applied."""
        self._events.append(Event(contract, topic, payload, self.block_height,
                                  self.tx_index, seq=len(self._events)))

    def contract(self, addr: Address) -> Any:
        """The contract at ``addr``, journaled before a contract calls it."""
        state = self._touch_contract(addr)
        if state is None:
            raise InvalidTransaction(f"no contract at {addr}")
        return state

    def _apply_tx(self, tx: Transaction, tx_index: int) -> None:
        """Apply an admitted transaction, journaling what it changes."""
        self.tx_index = tx_index
        contract = self._touch_contract(tx.to)
        if contract is None:
            if tx.value:
                self.debit(tx.sender, tx.value)
                self.credit(tx.to, tx.value)
            return
        # Value attached to a contract call is held by the contract on token
        # ledgers; the contract must absorb it into its held-balance accounting
        # (or reject the transaction) or the conservation check will fire.
        if tx.value:
            self.debit(tx.sender, tx.value)
        contract.handle(self, tx)

    def apply_block(
        self,
        transactions: list[Transaction],
        now: int = 0,
    ) -> tuple[Block, list[Rejection]]:
        """Seal the next block from ``transactions``, applied in order.

        Invalid transactions are excluded (the block still forms from the
        remaining valid ones) and reported back for logging.  ``now`` is the
        scheduler tick at which the block is produced; contracts use it for
        their deadlines.  A block without transactions is sealed by
        ``seal_empty``.
        """
        if not transactions:
            self.seal_empty(now)
            return self.blocks[-1], []
        head = self.blocks[-1]
        height = self.block_height = head.height + 1
        self.now = now
        rejections: list[Rejection] = []
        accepted: list[Transaction] = []
        self._events = events = []
        self._record = record = ({}, {})
        try:
            for tx in transactions:
                try:
                    self._admit(tx)
                except Refusal as exc:
                    # Refused before it touched anything: nothing to undo.
                    rejections.append(Rejection(tx, _reason(exc)))
                    continue
                marks = [len(pre_images) for pre_images in record]
                try:
                    self._apply_tx(tx, len(accepted))
                except Refusal as exc:
                    # Roll back to the block start and replay the accepted
                    # prefix; such failures are rare, so this beats
                    # journaling per tx.  The pre-images this transaction
                    # added go: the prefix never touched those entries,
                    # and finds its own intact.
                    self._restore(*record)
                    for pre_images, mark in zip(record, marks):
                        for key in list(pre_images)[mark:]:
                            del pre_images[key]
                    events.clear()
                    for i, prev in enumerate(accepted):
                        self._apply_tx(prev, i)
                    rejections.append(Rejection(tx, _reason(exc)))
                    continue
                accepted.append(tx)
        except Exception as exc:
            raise ModelError(f"tick {now}, chain {self.chain_id}, tx "
                             f"0x{tx.digest().hex()}: {_reason(exc)}") from exc
        if any(record):
            self._undo[height] = record
        if self.unbalanced is None and self.has_token_ledger():
            total = self.ledger_total()
            if total != self.total_supply:
                self.unbalanced = (height, total)
        block = Block(height, head.hash, tuple(accepted), tuple(events), produced_at=now)
        block.hash = block.compute_hash(self.head_text())
        if events:
            self.event_heights.append(height)
            for contract in {ev.contract for ev in events}:
                self.contract_event_heights.setdefault(contract, []).append(height)
        if self.undo_depth is not None:
            self._undo.pop(height - self.undo_depth, None)
        self.blocks.append(block)
        self._head_text = (block, codec.canonical_dumps(block.hash))
        return block, rejections

    def seal_empty(self, now: int = 0) -> tuple[int, str, str]:
        """Seal the next block with no transactions, produced at ``now``, and
        return its height and the texts of its hash and the state digest.

        Such a block changes nothing: it opens no undo record, is not held to
        conservation, and is hashed from one template.
        """
        head, parent_text = self._head_text
        if head is not self.blocks[-1]:
            head, parent_text = self.blocks[-1], self.head_text()
        height = head.height + 1  # an int formats as its canonical text
        digest = codec.digest_text(_EMPTY_BLOCK_HASHED.text(height, parent_text))
        block = Block(height, head.hash, (), (), digest, now)
        if self.undo_depth is not None:
            self._undo.pop(height - self.undo_depth, None)
        self.blocks.append(block)
        self._head_text = (block, hash_text := '"0x' + digest.hex() + '"')
        state = self._memo.get("digest")
        return height, hash_text, self.state_text() if state is None else state[1]

    # A live chain seals one block at every multiple of its interval, and a
    # dormant one (height 0) none until it is offered a transaction; a reorg
    # keeps the height.  So heights and ticks map to each other by arithmetic
    # from the head block's tick.

    def height_at(self, tick: int) -> int:
        """The head's height once the blocks due by a past ``tick`` were
        sealed."""
        head, interval = self.blocks[-1], self.interval
        if not head.height:
            return 0
        return max(0, head.height - head.produced_at // interval + tick // interval)

    def tick_at(self, height: float) -> float:
        """The tick at which the head reaches ``height``; 0 if it has."""
        head, interval = self.blocks[-1], self.interval
        if height <= head.height:
            return 0
        if not head.height:
            return math.inf
        return (head.produced_at // interval + height - head.height) * interval

    def reorg(self, depth: int, replacement: list[list[Transaction]], now: int) -> None:
        """Drop the top ``depth`` blocks and seal one block per batch in
        ``replacement``, produced at ``now``.

        The dropped blocks' undo records are restored, newest first, and each
        batch is applied through ``apply_block``, so the new blocks hold what
        that path accepts and the surviving history fully determines the
        resulting state.
        """
        if depth < 0 or depth > self.height:
            raise InvalidReorg(f"depth {depth} out of range (height {self.height})")
        if self.undo_depth is not None and depth > self.undo_depth:
            raise InvalidReorg(f"depth {depth} exceeds the undo depth {self.undo_depth}")
        if depth == 0 and not replacement:
            return
        fork_height = self.height - depth
        for h in range(self.height, fork_height, -1):
            record = self._undo.pop(h, None)
            if record is not None:
                self._restore(*record)
        del self.blocks[fork_height + 1:]
        for heights in (self.event_heights, *self.contract_event_heights.values()):
            del heights[bisect.bisect_right(heights, fork_height):]
        for txs in replacement:
            self.apply_block(txs, now=now)

    # -- undo journal ---------------------------------------------------------

    def _touch_account(self, addr: Address) -> None:
        """Journal the account at ``addr`` before it changes."""
        if addr not in self._record[0]:
            self._record[0][addr] = self.accounts.get(addr)
        self._memo.pop("digest", None)

    def _touch_contract(self, addr: Address) -> Any:
        """The contract at ``addr`` (None if there is none), journaled before a call."""
        contract = self.contracts.get(addr)
        if contract is not None:
            if addr not in self._record[1]:
                self._record[1][addr] = pickle.dumps(
                    contract.__dict__, pickle.HIGHEST_PROTOCOL)
            self._view_texts.pop(addr, None)
            self._memo.clear()
        return contract

    def _restore(self, accounts: dict[Address, int | None],
                 contracts: dict[Address, bytes]) -> None:
        """Put back the pre-images of one undo record."""
        for addr, balance in accounts.items():
            if balance is None:
                del self.accounts[addr]
            else:
                self.accounts[addr] = balance
        # Contract objects keep their identity across rollbacks; holders of a
        # reference (the scheduler, tests) always see the live state.
        for addr, image in contracts.items():
            self.contracts[addr].__dict__ = pickle.loads(image)
            self._view_texts.pop(addr, None)
        self._memo.clear()

    def state_digest(self) -> bytes:
        """Content digest of the full ledger + contract state, for comparisons.

        Memoised until the next journaled change or restore.  Its text is
        joined from the address texts, the balances and each contract's view
        text, which is kept until that contract is called or restored.
        """
        memo = self._memo.get("digest")
        if memo is None:
            views = self._view_texts
            contracts = []
            for addr in sorted(self.contracts):
                view = views.get(addr)
                if view is None:
                    view = views[addr] = codec.canonical_dumps(self.contracts[addr].state_view())
                contracts.append((addr.text(), view))
            accounts = sorted([(a.text(), int.__repr__(v)) for a, v in self.accounts.items()])
            digest = codec.digest_text(_STATE.text(codec.mapping(accounts),
                                                   codec.mapping(contracts)))
            memo = self._memo["digest"] = (digest, codec.canonical_dumps(digest))
        return memo[0]

    def state_text(self) -> str:
        """The canonical text of ``state_digest()``, memoised with it."""
        self.state_digest()
        return self._memo["digest"][1]

    def earliest_deadline(self) -> int | None:
        """The earliest lane deadline of any hosted contract; None if none is set.

        Memoised like ``state_digest``: only a block that calls a contract, a
        rejection rollback or a reorg can move a deadline.
        """
        memo = self._memo
        if "deadline" not in memo:
            earliest = None
            for contract in self.contracts.values():
                due = contract.next_deadline()
                if due is not None and (earliest is None or due < earliest):
                    earliest = due
            memo["deadline"] = earliest
        return memo["deadline"]

    def first_event_at(self, contracts: frozenset[Address], start: int) -> float:
        """The least height from ``start`` on whose block holds an event of
        one of ``contracts``; infinity if none.  Memoised like
        ``earliest_deadline``."""
        first = self._memo.get((contracts, start))
        if first is None:
            first = math.inf
            for contract in contracts:
                heights = self.contract_event_heights.get(contract)
                if heights and heights[-1] >= start:
                    first = min(first, heights[bisect.bisect_left(heights, start)])
            self._memo[contracts, start] = first
        return first
