"""In-memory blockchain substrate.

Each chain is an append-only list of blocks over an account ledger plus a set
of contract state machines.  Block application is the only way state changes:
transactions are applied in order, contracts emit events, and every block
stores the events it produced.  A bounded reorganization replaces the top
``depth`` blocks and recomputes state from the fork point.

Gas is modeled as flow control only: a transaction either qualifies for the
zero-gasprice exemption (listed witness to a cross-chain contract, or any
cross-chain contract as sender) or must be able to afford ``value + gasprice``.
No tokens are ever destroyed or minted by block application, so the sum of
account balances and contract-held balances is invariant on chains that carry
a token ledger.  There are no block rewards.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Optional

from . import codec

ADDRESS_SIZE = 20
GENESIS_PARENT = b"\x00" * codec.DIGEST_SIZE

# The 20-byte address space admits 16**40 (~1.46e48) distinct identifiers,
# which bounds the number of side chains representable; the simulator never
# needs to enumerate it.


@dataclass(frozen=True, order=True)
class Address:
    """20-byte opaque identifier, rendered as 0x-prefixed lowercase hex."""

    raw: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.raw, bytes) or len(self.raw) != ADDRESS_SIZE:
            raise ValueError(f"address must be {ADDRESS_SIZE} bytes")

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        return cls(codec.parse_hex(text, length=ADDRESS_SIZE))

    @classmethod
    def from_label(cls, label: str) -> "Address":
        """Deterministic address derived from a human-readable label."""
        return cls(codec.digest(["addr", label])[:ADDRESS_SIZE])

    def canonical(self) -> str:
        return "0x" + self.raw.hex()

    def __str__(self) -> str:
        return self.canonical()

    def __repr__(self) -> str:
        return f"Address({self.canonical()})"


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


class InvalidTransaction(Exception):
    """Transaction cannot be applied; it is excluded from the block."""


class InvalidReorg(Exception):
    """Reorg request is structurally impossible (depth/linkage)."""


# ---------------------------------------------------------------------------
# Payloads
# ---------------------------------------------------------------------------
#
# A transaction carries exactly one tagged payload; the tag decides which
# contract operation may consume it.  Payloads serialize into the canonical
# dict form used for block hashing and the trace.


@dataclass(frozen=True)
class RegistrationRequest:
    """Creator asks the bridge head to register a side chain."""

    chain_id: Address
    genesis_hash: bytes
    balance: int
    side_creator: Address

    TAG = "registration_request"

    def canonical(self) -> dict:
        return {
            "type": self.TAG,
            "chain_id": self.chain_id,
            "genesis_hash": self.genesis_hash,
            "balance": self.balance,
            "side_creator": self.side_creator,
        }


@dataclass(frozen=True)
class Confirm:
    """Witness verdict on a registration request."""

    chain_id: Address
    subject: bytes
    verdict: bool

    TAG = "confirm"

    def canonical(self) -> dict:
        return {
            "type": self.TAG,
            "chain_id": self.chain_id,
            "subject": self.subject,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class TransferEntry:
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

    def canonical(self) -> dict:
        return {
            "origin_chain": self.origin_chain,
            "origin_height": self.origin_height,
            "origin_seq": self.origin_seq,
            "to": self.to,
            "value": self.value,
        }

    def origin_plain(self) -> tuple:
        return (str(self.origin_chain), self.origin_height, self.origin_seq)


@dataclass(frozen=True)
class Transferring:
    """Witness relay of a batch of observed cross-chain events, plus its vote."""

    direction: str  # "registration" | "inbound" | "outbound"
    subject: bytes
    entries: tuple[TransferEntry, ...]

    TAG = "transferring"

    def canonical(self) -> dict:
        return {
            "type": self.TAG,
            "direction": self.direction,
            "subject": self.subject,
            "entries": [e.canonical() for e in self.entries],
        }


@dataclass(frozen=True)
class UserTransfer:
    """User payment; ``dest`` names the far-chain recipient on bridge deposits."""

    dest: Optional[Address] = None

    TAG = "user_transfer"

    def canonical(self) -> dict:
        return {"type": self.TAG, "dest": self.dest}


@dataclass(frozen=True)
class IoTRecord:
    """Application record on a side chain; never interacts with the bridge."""

    data: str

    TAG = "iot_record"

    def canonical(self) -> dict:
        return {"type": self.TAG, "data": self.data}


@dataclass(frozen=True)
class MultisigAction:
    """Owner approval for a contract-administration action, or a deadline poke."""

    action: str
    args: tuple = ()

    TAG = "multisig_action"

    def canonical(self) -> dict:
        return {"type": self.TAG, "action": self.action, "args": list(self.args)}


@dataclass(frozen=True)
class TradingAction:
    """Trading-ledger operation: intra-chain transfer or cross-chain withdraw."""

    to: Address
    value: int
    cross_chain: bool = False

    TAG = "trading_action"

    def canonical(self) -> dict:
        return {
            "type": self.TAG,
            "to": self.to,
            "value": self.value,
            "cross_chain": self.cross_chain,
        }


Payload = (
    RegistrationRequest
    | Confirm
    | Transferring
    | UserTransfer
    | IoTRecord
    | MultisigAction
    | TradingAction
)


@dataclass(frozen=True)
class Transaction:
    sender: Address
    to: Address
    value: int
    gasprice: int
    payload: Payload
    round: Optional[int] = None

    def canonical(self) -> dict:
        return {
            "from": self.sender,
            "to": self.to,
            "value": self.value,
            "gasprice": self.gasprice,
            "round": self.round,
            "payload": self.payload.canonical(),
        }

    def digest(self) -> bytes:
        return codec.digest(self.canonical())


@dataclass(frozen=True)
class Event:
    """Emitted by a contract while applying exactly one transaction.

    ``seq`` is the event's position within its block, so (height, seq) is a
    chain-unique identity even when one transaction emits several events.
    """

    contract: Address
    topic: EventTopic
    payload: dict
    height: int
    tx_index: int
    seq: int

    def canonical(self) -> dict:
        return {
            "contract": self.contract,
            "topic": self.topic.value,
            "payload": self.payload,
            "height": self.height,
            "tx_index": self.tx_index,
            "seq": self.seq,
        }

    def origin_plain(self, chain_id: Address) -> tuple:
        return (str(chain_id), self.height, self.seq)


@dataclass
class Block:
    height: int
    parent_hash: bytes
    transactions: list[Transaction]
    events: list[Event] = field(default_factory=list)
    hash: bytes = b""
    produced_at: int = 0  # scheduler tick; node-local metadata, not hashed

    def compute_hash(self) -> bytes:
        return codec.digest(
            {
                "height": self.height,
                "parent_hash": self.parent_hash,
                "transactions": [tx.canonical() for tx in self.transactions],
            }
        )


@dataclass
class Rejection:
    """A transaction excluded from a block, with the reason."""

    tx: Transaction
    reason: str


class Chain:
    """One blockchain: blocks, account ledger, and hosted contract states.

    ``accounts`` is the chain's primary balance map.  On the token chain and
    on gasless side chains it is the token ledger and obeys conservation; on
    native-gas side chains it is the native gas balance, which carries no
    cross-chain value (tokens there live in the trading ledger contract).
    """

    def __init__(
        self,
        chain_id: Address,
        kind: ChainKind,
        genesis_spec: dict,
        total_supply: int,
        accounts: dict[Address, int] | None = None,
    ) -> None:
        self.chain_id = chain_id
        self.kind = kind
        self.genesis_spec = genesis_spec
        self.total_supply = total_supply
        self.accounts: dict[Address, int] = dict(accounts or {})
        self.contracts: dict[Address, Any] = {}
        self.witness_exempt: set[Address] = set()
        genesis = Block(height=0, parent_hash=GENESIS_PARENT, transactions=[])
        genesis.hash = codec.digest(genesis_spec)
        self.blocks: list[Block] = [genesis]
        self._snapshots: dict[int, tuple] = {}
        self._snapshot(0)

    # -- inspection ---------------------------------------------------------

    @property
    def height(self) -> int:
        return self.blocks[-1].height

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def balance(self, addr: Address) -> int:
        return self.accounts.get(addr, 0)

    def has_token_ledger(self) -> bool:
        return self.kind in (ChainKind.TOKEN, ChainKind.GASLESS_SIDE)

    def ledger_total(self) -> int:
        held = sum(c.held_balance() for c in self.contracts.values())
        return sum(self.accounts.values()) + held

    def events_at(self, height: int) -> list[Event]:
        return self.blocks[height].events

    # -- mutation -----------------------------------------------------------

    def register_contract(self, address: Address, state: Any) -> None:
        if self.height != 0:
            raise ValueError("contracts are genesis state; the chain is already live")
        if address in self.contracts:
            raise ValueError(f"contract already registered at {address}")
        self.contracts[address] = state

    def seal_genesis(self) -> None:
        """Re-take the genesis snapshot after contracts/exemptions are wired.

        Must be called before the first block; rollbacks and full replays
        start from this state.
        """
        if self.height != 0:
            raise ValueError("genesis already sealed by block production")
        self._snapshot(0)

    def credit(self, addr: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("negative credit")
        self.accounts[addr] = self.accounts.get(addr, 0) + amount

    def debit(self, addr: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("negative debit")
        have = self.accounts.get(addr, 0)
        if have < amount:
            raise InvalidTransaction(f"insufficient balance at {addr}: {have} < {amount}")
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
            need = tx.value + tx.gasprice
            if self.balance(tx.sender) < need:
                raise InvalidTransaction(
                    f"cannot afford value+gas: {self.balance(tx.sender)} < {need}"
                )
        # Gas is a validity requirement only; no balance is consumed by it.

    def _apply_tx(self, tx: Transaction, ctx: "ApplyContext") -> None:
        self._check_gas(tx)
        if tx.value < 0:
            raise InvalidTransaction("negative value")
        contract = self.contracts.get(tx.to)
        if contract is None:
            if not isinstance(tx.payload, (UserTransfer, IoTRecord)):
                raise InvalidTransaction(f"no contract at {tx.to} for {tx.payload.TAG}")
            if tx.value:
                self.debit(tx.sender, tx.value)
                self.credit(tx.to, tx.value)
            return
        # Value attached to a contract call is held by the contract on token
        # ledgers; the contract must absorb it into its held-balance accounting
        # (or reject the transaction) or the conservation check will fire.
        if tx.value:
            self.debit(tx.sender, tx.value)
        contract.handle(ctx, tx)

    def apply_block(
        self,
        transactions: Iterable[Transaction],
        now: int = 0,
        on_reject: Callable[[Rejection], None] | None = None,
    ) -> tuple[Block, list[Rejection]]:
        """Seal the next block from ``transactions``, applied in order.

        Invalid transactions are excluded (the block still forms from the
        remaining valid ones) and reported back for logging.  ``now`` is the
        scheduler tick at which the block is produced; contracts use it for
        their deadlines.
        """
        height = self.height + 1
        block_start = self._snapshots[self.height]
        accepted: list[Transaction] = []
        events: list[Event] = []
        rejections: list[Rejection] = []
        before = self.ledger_total() if self.has_token_ledger() else None
        for tx in transactions:
            ctx = ApplyContext(self, height, len(accepted), events, now)
            try:
                self._apply_tx(tx, ctx)
            except Exception as exc:  # noqa: BLE001 - any contract error rejects the tx
                # Roll back to the block start and replay the accepted prefix;
                # rejections are rare, so this beats snapshotting per tx.
                self._restore(block_start)
                events.clear()
                for i, prev in enumerate(accepted):
                    self._apply_tx(prev, ApplyContext(self, height, i, events, now))
                rej = Rejection(tx, f"{type(exc).__name__}: {exc}")
                rejections.append(rej)
                if on_reject:
                    on_reject(rej)
                continue
            accepted.append(tx)
        block = Block(
            height=height, parent_hash=self.head.hash, transactions=accepted, produced_at=now
        )
        block.hash = block.compute_hash()
        block.events = events
        self.blocks.append(block)
        self._snapshot(height)
        if before is not None:
            after = self.ledger_total()
            assert after == before == self.total_supply, (
                f"conservation broken on {self.chain_id}: {before} -> {after}, "
                f"supply {self.total_supply}"
            )
        return block, rejections

    def reorg(self, depth: int, replacement: list[Block]) -> None:
        """Drop the top ``depth`` blocks and append ``replacement``.

        State is rewound to the fork-point snapshot and the replacement
        transactions are re-applied through the normal path, so the surviving
        history fully determines the resulting state.
        """
        if depth < 0 or depth > self.height:
            raise InvalidReorg(f"depth {depth} out of range (height {self.height})")
        if depth == 0 and not replacement:
            return
        fork_height = self.height - depth
        expected_parent = self.blocks[fork_height].hash
        for i, blk in enumerate(replacement):
            if blk.height != fork_height + 1 + i:
                raise InvalidReorg(f"replacement block {i} has height {blk.height}")
            if blk.parent_hash != expected_parent:
                raise InvalidReorg(f"replacement block {i} does not link to fork point")
            expected_parent = blk.compute_hash()
        self._restore(self._snapshots[fork_height])
        self.blocks = self.blocks[: fork_height + 1]
        for h in [h for h in self._snapshots if h > fork_height]:
            del self._snapshots[h]
        for blk in replacement:
            self.apply_block(blk.transactions, now=blk.produced_at)

    def replay_from_genesis(self) -> "Chain":
        """Independent oracle: rebuild state by replaying every block."""
        fresh = Chain(
            self.chain_id,
            self.kind,
            self.genesis_spec,
            self.total_supply,
            self._snapshots[0][0],
        )
        # Contracts are rebuilt from their own genesis-time snapshots.
        accounts0, contracts0, exempt0 = self._snapshots[0]
        fresh.accounts = copy.deepcopy(accounts0)
        fresh.contracts = copy.deepcopy(contracts0)
        fresh.witness_exempt = set(exempt0)
        fresh._snapshot(0)
        for blk in self.blocks[1:]:
            fresh.apply_block(blk.transactions, now=blk.produced_at)
        return fresh

    # -- snapshots ------------------------------------------------------------

    def _state_copy(self) -> tuple:
        return (
            copy.deepcopy(self.accounts),
            copy.deepcopy(self.contracts),
            set(self.witness_exempt),
        )

    def _restore(self, snap: tuple) -> None:
        accounts, contracts, exempt = snap
        self.accounts = copy.deepcopy(accounts)
        self.witness_exempt = set(exempt)
        # Contract objects keep their identity across rollbacks; holders of a
        # reference (the scheduler, tests) always see the live state.
        fresh = copy.deepcopy(contracts)
        for addr, obj in fresh.items():
            live = self.contracts.get(addr)
            if live is None:
                self.contracts[addr] = obj
            else:
                live.__dict__ = obj.__dict__

    def _snapshot(self, height: int) -> None:
        self._snapshots[height] = self._state_copy()

    def state_digest(self) -> bytes:
        """Content digest of the full ledger + contract state, for comparisons."""
        contracts = {
            str(addr): self.contracts[addr].state_view() for addr in sorted(self.contracts)
        }
        accounts = {str(a): v for a, v in sorted(self.accounts.items())}
        return codec.digest({"accounts": accounts, "contracts": contracts})


class ApplyContext:
    """Environment a contract sees while handling one transaction."""

    def __init__(
        self, chain: Chain, height: int, tx_index: int, events: list[Event], now: int
    ) -> None:
        self.chain = chain
        self.height = height
        self.tx_index = tx_index
        self.now = now
        self._events = events
        self.event_start = len(events)

    def emit(self, contract: Address, topic: EventTopic, payload: dict) -> Event:
        ev = Event(
            contract,
            topic,
            codec.to_plain(payload),
            self.height,
            self.tx_index,
            seq=len(self._events),
        )
        self._events.append(ev)
        return ev

    def credit(self, addr: Address, amount: int) -> None:
        self.chain.credit(addr, amount)

    def contract(self, addr: Address) -> Any:
        state = self.chain.contracts.get(addr)
        if state is None:
            raise InvalidTransaction(f"no contract at {addr}")
        return state
