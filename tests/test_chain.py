"""Chain substrate: block application, conservation, reorgs, genesis hashing."""

import copy
import json
import pickle
import random

import pytest

import plain_json
from replay import replay
from bridgesim import codec
from bridgesim.chain import (
    Address,
    Chain,
    ChainKind,
    EventTopic,
    History,
    InvalidReorg,
    ModelError,
    Transaction,
    UserTransfer,
)
from bridgesim.contracts import Contract, ContractError, QuorumStream
from bridgesim.genesis import genesis_hash, parse_genesis
from bridgesim.record import FrozenInstanceError, frozen_guard

A = Address.from_label("a")
B = Address.from_label("b")
C = Address.from_label("c")


def token_chain(balances=None) -> Chain:
    balances = balances if balances is not None else {A: 600, B: 400}
    chain = Chain(
        Address.from_label("token"),
        ChainKind.TOKEN,
        {"Chain_ID": Address.from_label("token"), "Accounts": {}},
        total_supply=sum(balances.values()),
        accounts=balances,
    )
    chain.seal_genesis()
    return chain


def pay(sender, to, value, gasprice=1) -> Transaction:
    return Transaction(sender=sender, to=to, value=value, gasprice=gasprice,
                       payload=UserTransfer())


class TestInternedAddress:
    def test_every_way_to_an_address_gives_the_one_object(self):
        a = Address.from_label("interned")
        assert Address.from_hex(str(a)) is a
        assert Address.from_label("interned") is a
        assert Address(bytes(a.raw)) is a
        assert pickle.loads(pickle.dumps(a, pickle.HIGHEST_PROTOCOL)) is a
        assert pickle.loads(pickle.dumps({"roster": (a, a)}))["roster"][1] is a
        assert copy.deepcopy([a])[0] is a and copy.copy(a) is a

    def test_a_pickle_holds_each_address_once(self):
        a = Address.from_label("interned")
        one, many = pickle.dumps([a]), pickle.dumps([a, Address(a.raw), a])
        assert one.count(a.raw) == many.count(a.raw) == 1

    def test_order_is_the_order_of_the_bytes(self):
        addrs = [Address.from_label(f"order-{i}") for i in range(40)]
        assert [a.raw for a in sorted(addrs)] == sorted(a.raw for a in addrs)
        low, high = sorted(addrs[:2])
        assert low < high and low <= high and high > low and high >= low
        assert not low < low and low <= low

    def test_equality_is_identity_and_the_hash_is_of_the_bytes(self):
        a = Address.from_label("interned")
        assert a == Address(a.raw) and a != Address.from_label("other")
        assert a != str(a) and a != a.raw
        assert hash(a) == hash(a.raw)
        assert {a: 1}[Address.from_hex(str(a))] == 1

    def test_it_stays_frozen(self):
        a = Address.from_label("interned")
        assert type(a).__setattr__ is frozen_guard
        with pytest.raises(FrozenInstanceError):
            a.raw = b"\x00" * 20
        with pytest.raises(FrozenInstanceError):
            del a.raw
        assert Address.from_label("interned").raw == codec.digest(["addr", "interned"])[:20]

    def test_texts_are_the_canonical_ones(self):
        a = Address.from_label("interned")
        assert str(a) == a.canonical() == "0x" + a.raw.hex()
        assert a.text() == codec.canonical_dumps(a) == json.dumps(str(a))
        assert repr(a) == f"Address({a})"

    @pytest.mark.parametrize("raw", [b"\x01" * 19, b"\x01" * 21, "0" * 20, bytearray(20)])
    def test_only_twenty_bytes_make_an_address(self, raw):
        with pytest.raises(ValueError):
            Address(raw)


class TestHistory:
    def test_it_appends_each_item_once_in_order_and_compares_by_value(self):
        history = History(["a", "b"])
        history.append("a")
        history.append("c")
        history.append("b")
        assert list(history) == ["a", "b", "c"] and len(history) == 3
        assert "c" in history and "d" not in history
        assert history == History(["a", "b", "c"]) == ["a", "b", "c"]
        assert history != History(["a", "c", "b"]) and history != {"a", "b", "c"}

    def test_a_pickle_holds_its_length_and_truncates_the_live_history(self):
        history = History([b"x" * 32])
        image = pickle.dumps({"lane": history, "shared": history}, pickle.HIGHEST_PROTOCOL)
        for i in range(1000):
            history.append(i)
        # The length grows from one byte to two; no item is written.
        assert len(pickle.dumps({"lane": history, "shared": history},
                                pickle.HIGHEST_PROTOCOL)) - len(image) <= 2
        state = pickle.loads(image)
        assert state["lane"] is history and state["shared"] is history
        assert history == [b"x" * 32] and 999 not in history
        history.append(999)
        assert list(history) == [b"x" * 32, 999]

    def test_a_deep_copied_lane_owns_its_histories_and_a_pickle_stays_live(self):
        lane = QuorumStream("inbound", threshold=2, timeout=50)
        lane.executed.append(b"s" * 32)
        lane.paid.append((str(A), 1, 0))
        twin = copy.deepcopy(lane)
        assert twin == lane
        assert twin.executed is not lane.executed and twin.paid is not lane.paid
        twin.executed.append(b"t" * 32)
        twin.paid.append((str(A), 2, 0))
        assert lane.executed == [b"s" * 32] and lane.paid == [(str(A), 1, 0)]
        image = pickle.dumps(vars(lane), pickle.HIGHEST_PROTOCOL)
        lane.executed.append(b"u" * 32)
        state = pickle.loads(image)
        assert state["executed"] is lane.executed and state["paid"] is lane.paid
        assert lane.executed == [b"s" * 32]


class TestApplyBlock:
    def test_empty_block_advances_height_without_events(self):
        chain = token_chain()
        block, rejections = chain.apply_block([])
        assert block.height == 1
        assert block.events == ()
        assert rejections == []

    def test_simple_transfer_conserves_supply(self):
        chain = token_chain()
        chain.apply_block([pay(A, B, 10)])
        assert chain.balance(A) == 590
        assert chain.balance(B) == 410
        assert chain.ledger_total() == 1000

    def test_overdraft_rejected_and_balances_unchanged(self):
        chain = token_chain()
        block, rejections = chain.apply_block([pay(A, B, 601)])
        assert len(rejections) == 1
        assert "cannot afford" in rejections[0].reason
        assert block.transactions == ()
        assert chain.balance(A) == 600 and chain.balance(B) == 400

    def test_block_forms_from_remaining_valid_transactions(self):
        chain = token_chain()
        block, rejections = chain.apply_block([pay(A, B, 601), pay(A, B, 5)])
        assert len(rejections) == 1
        assert len(block.transactions) == 1
        assert chain.balance(B) == 405

    def test_gas_affordability_counts_toward_balance(self):
        chain = token_chain()
        _, rejections = chain.apply_block([pay(A, B, 600, gasprice=1)])
        assert len(rejections) == 1
        assert chain.balance(A) == 600

    def test_zero_gasprice_needs_exemption(self):
        chain = token_chain()
        _, rejections = chain.apply_block([pay(A, B, 5, gasprice=0)])
        assert len(rejections) == 1
        assert "zero gasprice" in rejections[0].reason

    def test_hash_covers_height_parent_and_transactions(self):
        chain1 = token_chain()
        chain2 = token_chain()
        b1, _ = chain1.apply_block([pay(A, B, 10)])
        b2, _ = chain2.apply_block([pay(A, B, 10)])
        assert b1.hash == b2.hash
        b3, _ = chain1.apply_block([pay(A, B, 10)])
        assert b3.hash != b1.hash  # same txs, different height/parent


class TestHeight:
    def test_fresh_chain_is_height_zero(self):
        assert token_chain().height == 0

    def test_three_blocks_give_height_three(self):
        chain = token_chain()
        for _ in range(3):
            chain.apply_block([])
        assert chain.height == 3

    def test_reorg_with_equal_replacement_preserves_height(self):
        chain = token_chain()
        for _ in range(4):
            chain.apply_block([])
        chain.reorg(2, [[pay(A, B, 1)], []], now=0)
        assert chain.height == 4


class TestReorg:
    def test_depth_zero_empty_replacement_is_identity(self):
        chain = token_chain()
        chain.apply_block([pay(A, B, 10)])
        digest_before = chain.state_digest()
        chain.reorg(0, [], now=0)
        assert chain.state_digest() == digest_before
        assert chain.height == 1

    def test_a_reorg_cuts_the_block_list_in_place(self):
        chain = token_chain()
        blocks = chain.blocks
        for value in (1, 2, 3):
            chain.apply_block([pay(A, B, value)])
        kept = blocks[:2]
        chain.reorg(2, [[pay(A, C, 4)]], now=0)
        assert chain.blocks is blocks and blocks[:2] == kept and len(blocks) == 3
        assert chain.head.transactions == (pay(A, C, 4),)

    def test_depth_beyond_height_rejected(self):
        chain = token_chain()
        chain.apply_block([])
        with pytest.raises(InvalidReorg):
            chain.reorg(5, [], now=0)

    def test_depth_beyond_the_undo_depth_rejected(self):
        """A chain with undo depth 1 keeps only its head block's undo record,
        and refuses a reorg that would need an older one instead of
        restoring part of the state."""
        chain = Chain(Address.from_label("token"), ChainKind.TOKEN, {}, 1000,
                      {A: 600, B: 400}, undo_depth=1)
        chain.apply_block([pay(A, B, 10)])
        chain.apply_block([pay(A, B, 5)])
        chain.apply_block([])
        assert list(chain._undo) == []  # the empty head block changed nothing
        chain.apply_block([pay(A, C, 7)])
        assert list(chain._undo) == [4]
        digest, height = chain.state_digest(), chain.height
        with pytest.raises(InvalidReorg, match="exceeds the undo depth 1"):
            chain.reorg(2, [[], []], now=0)
        assert (chain.state_digest(), chain.height) == (digest, height)
        chain.reorg(1, [[]], now=0)
        assert (chain.balance(A), chain.balance(B), chain.balance(C)) == (585, 415, 0)

    def test_removing_a_transfer_undoes_it(self):
        chain = token_chain()
        chain.apply_block([pay(A, B, 50)])
        assert chain.balance(B) == 450
        chain.reorg(1, [[]], now=0)
        assert chain.balance(B) == 400
        assert chain.balance(A) == 600

    def test_repeated_reorgs_at_one_height_match_replay(self):
        # A dropped block's undo record must go with it: a later reorg of the
        # same height restores only what the surviving block changed.
        chain = token_chain()
        chain.apply_block([pay(A, B, 10)])
        chain.apply_block([pay(A, B, 5)])
        chain.reorg(1, [[]], now=0)
        chain.reorg(2, [[pay(A, C, 7)], []], now=0)
        chain.reorg(1, [[]], now=0)
        assert (chain.balance(A), chain.balance(B), chain.balance(C)) == (593, 400, 7)
        assert chain.state_digest() == replay(token_chain(), chain).state_digest()

    def test_reorg_state_equals_full_replay_oracle(self):
        # Independent check: state after an in-place reorg must match a from-
        # scratch replay of the surviving block sequence.
        rng = random.Random(1234)
        for _ in range(10):
            chain = token_chain({A: 500, B: 300, C: 200})
            for _ in range(rng.randint(3, 8)):
                txs = [pay(rng.choice([A, B, C]), rng.choice([A, B, C]),
                           rng.randint(0, 40)) for _ in range(rng.randint(0, 3))]
                chain.apply_block(txs)
            depth = rng.randint(1, min(3, chain.height))
            replacement = [[pay(rng.choice([A, B, C]), rng.choice([A, B, C]),
                                rng.randint(0, 30)) for _ in range(rng.randint(0, 2))]
                           for _ in range(depth)]
            chain.reorg(depth, replacement, now=0)
            oracle = replay(token_chain({A: 500, B: 300, C: 200}), chain)
            assert oracle.state_digest() == chain.state_digest()
            assert [b.hash for b in oracle.blocks] == [b.hash for b in chain.blocks]


class PayThenFail(Contract):
    """Pays 5 of its own holding to the transfer's ``dest``, then fails."""

    def __init__(self, address: Address) -> None:
        self.address = address
        self.held = 5

    def held_balance(self) -> int:
        return self.held

    def state_view(self) -> dict:
        return {"held": self.held}

    def transact(self, ctx, tx) -> None:
        self.held -= 5
        ctx.credit(tx.payload.dest, 5)
        raise ContractError("payout refused after the credit")


class Counter(Contract):
    """Counts the calls it takes."""

    def __init__(self, address: Address) -> None:
        self.address = address
        self.calls = 0

    def state_view(self) -> dict:
        return {"calls": self.calls}

    def transact(self, ctx, tx) -> None:
        self.calls += 1


class Beacon(Contract):
    """Emits two events per call, numbered by its call count."""

    def __init__(self, address: Address) -> None:
        self.address = address
        self.calls = 0

    def state_view(self) -> dict:
        return {"calls": self.calls}

    def transact(self, chain, tx) -> None:
        self.calls += 1
        for part in (0, 1):
            chain.emit(self.address, EventTopic.ASSETS_LOCKED, {"call": self.calls, "part": part})


class Broken(Contract):
    """A contract with a bug: every call raises ``KeyError``."""

    def __init__(self, address: Address) -> None:
        self.address = address

    def transact(self, chain, tx) -> None:
        raise KeyError("missing")


class TestModelError:
    def test_a_bug_is_not_a_refusal(self):
        """A ``ContractError`` rejects its transaction; any other exception
        stops the block with a ``ModelError`` naming the tick, the chain and
        the transaction's digest."""
        payer, broken = Address.from_label("pay-then-fail"), Address.from_label("broken")
        chain = Chain(Address.from_label("token"), ChainKind.TOKEN, {}, 1005, {A: 600, B: 400})
        chain.register_contract(payer, PayThenFail(payer))
        chain.register_contract(broken, Broken(broken))
        chain.seal_genesis()
        refused = Transaction(A, payer, 0, 1, UserTransfer(dest=C))
        block, rejections = chain.apply_block([refused], now=3)
        assert [r.tx for r in rejections] == [refused] and block.height == 1
        call = Transaction(A, broken, 0, 1, UserTransfer())
        with pytest.raises(ModelError) as info:
            chain.apply_block([pay(A, B, 1), call], now=7)
        assert str(info.value) == (f"tick 7, chain {chain.chain_id}, tx 0x{call.digest().hex()}: "
                                   "KeyError: 'missing'")
        assert isinstance(info.value.__cause__, KeyError)


class TestRejectionRollback:
    def test_event_positions_survive_a_mid_block_rejection(self):
        """An accepted call that emits, a call that fails inside its contract
        after touching state, and another accepted call: the rollback's replay
        of the prefix gives the accepted calls' events the transaction indexes
        and block-local seqs that a replay from genesis gives them."""
        payer, beacon = Address.from_label("pay-then-fail"), Address.from_label("beacon")

        def build():
            chain = Chain(Address.from_label("token"), ChainKind.TOKEN, {}, 1005,
                          {A: 600, B: 400})
            chain.register_contract(payer, PayThenFail(payer))
            chain.register_contract(beacon, Beacon(beacon))
            chain.seal_genesis()
            return chain

        chain = build()

        def call(to, dest=None):
            return Transaction(sender=A, to=to, value=0, gasprice=1,
                               payload=UserTransfer(dest=dest))

        chain.apply_block([pay(A, B, 1)])
        block, rejections = chain.apply_block([call(beacon), call(payer, C), call(beacon)])
        assert [r.tx for r in rejections] == [call(payer, C)]
        assert [(e.height, e.tx_index, e.seq) for e in block.events] == \
            [(2, 0, 0), (2, 0, 1), (2, 1, 2), (2, 1, 3)]
        assert [e.payload["call"] for e in block.events] == [1, 1, 2, 2]
        assert replay(build(), chain).blocks[2].events == block.events

    def test_rejections_keep_the_pre_images_of_the_accepted_prefix(self, monkeypatch):
        """Two rejected calls after an accepted prefix: each drops from the
        block's undo record only the pre-images it added, the absent account
        it created among them, and the prefix is replayed against the record
        without pickling its contract again."""
        payer, counter = Address.from_label("pay-then-fail"), Address.from_label("counter")
        D = Address.from_label("d")
        chain = Chain(Address.from_label("token"), ChainKind.TOKEN, {}, 1005, {A: 600, B: 400})
        chain.register_contract(payer, PayThenFail(payer))
        chain.register_contract(counter, Counter(counter))
        chain.seal_genesis()
        pickled = []
        dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dumps", lambda *args: pickled.append(1) or dumps(*args))

        def call(to, dest=None):
            return Transaction(sender=A, to=to, value=0, gasprice=1,
                               payload=UserTransfer(dest=dest))

        block, rejections = chain.apply_block(
            [pay(A, B, 1), call(counter), call(payer, C), call(payer, D), pay(B, C, 2)])
        assert [r.tx for r in rejections] == [call(payer, C), call(payer, D)]
        assert block.transactions == (pay(A, B, 1), call(counter), pay(B, C, 2))
        accounts, contracts = chain._undo[block.height]
        assert accounts == {A: 600, B: 400, C: None} and list(contracts) == [counter]
        # The counter once, and each rejected call's payer, dropped with it.
        assert len(pickled) == 3
        assert chain.contracts[counter].calls == 1
        chain.reorg(1, [[]], now=0)
        assert list(chain.accounts.items()) == [(A, 600), (B, 400)]
        assert chain.contracts[counter].calls == 0

    def test_account_created_by_a_rejected_tx_is_absent_again(self):
        payer = Address.from_label("pay-then-fail")
        chain = Chain(Address.from_label("token"), ChainKind.TOKEN, {}, 1005, {A: 600, B: 400})
        contract = PayThenFail(payer)
        chain.register_contract(payer, contract)
        chain.seal_genesis()
        chain.apply_block([pay(A, B, 1)])
        start = list(chain.accounts)
        call = Transaction(sender=A, to=payer, value=0, gasprice=1,
                           payload=UserTransfer(dest=C))
        block, rejections = chain.apply_block([call])
        assert [r.reason for r in rejections] == ["ContractError: payout refused after the credit"]
        assert C not in chain.accounts
        assert list(chain.accounts) == start
        assert chain.contracts[payer] is contract and contract.held == 5
        # An accepted tx that creates an account keeps it, in its place.
        chain.apply_block([pay(A, B, 1), call, pay(B, C, 2)])
        assert list(chain.accounts) == start + [C]
        assert chain.balance(C) == 2


class TestConservationProperty:
    def test_random_workloads_never_change_total(self):
        rng = random.Random(99)
        for trial in range(20):
            chain = token_chain({A: 700, B: 200, C: 100})
            for _ in range(rng.randint(1, 10)):
                txs = [
                    pay(rng.choice([A, B, C]), rng.choice([A, B, C]),
                        rng.randint(0, 900))  # many will overdraft and reject
                    for _ in range(rng.randint(0, 4))
                ]
                chain.apply_block(txs)
                assert chain.ledger_total() == 1000

    def test_no_block_ever_mints(self):
        chain = token_chain()
        for _ in range(5):
            chain.apply_block([pay(A, B, 1)])
            assert chain.ledger_total() == chain.total_supply


class TestDeterminism:
    def test_cached_tx_digest_leaves_equality_and_hash_alone(self):
        first, second = pay(A, B, 10), pay(A, B, 10)
        assert first.digest() == codec.digest(first.canonical())
        assert first.digest() is first.digest()
        assert first == second and hash(first) == hash(second)
        assert first.digest() == second.digest()
        with pytest.raises(FrozenInstanceError):
            first.value = 11
        with pytest.raises(FrozenInstanceError):
            del first.value
        assert first.value == 10

    def test_identical_inputs_identical_hashes(self):
        def build():
            chain = token_chain()
            chain.apply_block([pay(A, B, 10), pay(B, C, 4)])
            chain.apply_block([pay(C, A, 2)])
            return [b.hash for b in chain.blocks]

        assert build() == build()


class TestGenesisHash:
    GENESIS = {
        "Chain_ID": str(Address.from_label("side")),
        "SC_Register": str(Address.from_label("vault")),
        "Bal_Resv": 990,
        "SC_Inter": str(Address.from_label("relay")),
        "SC_Bank": str(Address.from_label("bank")),
        "Bal_Bank": 999010,
        "Wit_Addr_List": [str(Address.from_label("w1")), str(Address.from_label("w2"))],
    }

    def test_same_spec_same_digest(self):
        spec = parse_genesis(self.GENESIS)
        assert genesis_hash(spec) == genesis_hash(spec)

    def test_one_unit_change_changes_digest(self):
        spec = parse_genesis(self.GENESIS)
        bumped = dict(self.GENESIS, Bal_Resv=991, Bal_Bank=999009)
        assert genesis_hash(spec) != genesis_hash(parse_genesis(bumped))

    def test_serialize_parse_serialize_fixpoint(self):
        # The canonical file form must round-trip to the identical digest.
        import json

        spec = parse_genesis(self.GENESIS)
        on_disk = codec.canonical_dumps(spec.canonical())
        reparsed = parse_genesis(json.loads(on_disk))
        assert codec.canonical_dumps(reparsed.canonical()) == on_disk
        assert genesis_hash(reparsed) == genesis_hash(spec)

    def test_side_chain_genesis_block_carries_spec_digest(self):
        spec = parse_genesis(self.GENESIS)
        chain = Chain(spec.chain_id, ChainKind.GASLESS_SIDE,
                      plain_json.plain(spec.canonical()), spec.total_reserved())
        assert chain.blocks[0].hash == genesis_hash(spec)
