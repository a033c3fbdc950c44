"""Contract state machines: registration, quorums, multisig, the peg vaults."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plain_json
from replay import replay
from bridgesim import codec
from bridgesim.chain import (
    Address,
    Chain,
    ChainKind,
    Confirm,
    EventTopic,
    History,
    MultisigAction,
    RegistrationRequest,
    TradingAction,
    Transaction,
    TransferEntry,
    Transferring,
    UserTransfer,
)
from bridgesim.contracts import (
    INBOUND,
    OUTBOUND,
    POKE_ACTION,
    REGISTRATION,
    BridgeHead,
    ChainIdRegistry,
    ConsensusGateway,
    InterRelay,
    Multisig,
    NotAuthorized,
    QuorumStream,
    RegistrationVault,
    ReserveBank,
    TradingBook,
    entries_subject,
)

TOKEN_ID = Address.from_label("token")
SIDE_ID = Address.from_label("side")
CREATOR = Address.from_label("creator")
SIDE_CREATOR = Address.from_label("creator-side")
OWNER1 = Address.from_label("owner-1")
OWNER2 = Address.from_label("owner-2")
REGISTRY_ADDR = Address.from_label("registry")
BRIDGE_ADDR = Address.from_label("bridge-head")
VAULT_ADDR = Address.from_label("vault")
RELAY_ADDR = Address.from_label("relay")
BANK_ADDR = Address.from_label("bank")
GATEWAY_ADDR = Address.from_label("gateway")
TRADING_ADDR = Address.from_label("trading")

WIT_T = [Address.from_label(f"w{i}-token") for i in range(4)]
WIT_S = [Address.from_label(f"w{i}-side") for i in range(4)]

TOTAL = 1_000_000
BAL_RESV = 990
BAL_BANK = TOTAL - BAL_RESV
FEE = 10
MINIMUM = 100
TIMEOUT = 50


def make_token(threshold=3):
    chain = Chain(TOKEN_ID, ChainKind.TOKEN, {"Chain_ID": TOKEN_ID}, TOTAL,
                  {CREATOR: 20_000, Address.from_label("alice"): TOTAL - 20_000})
    registry = ChainIdRegistry(REGISTRY_ADDR, (OWNER1, OWNER2), 2)
    registry.authorized.add(BRIDGE_ADDR)
    head = BridgeHead(BRIDGE_ADDR, SIDE_ID, tuple(WIT_T), threshold,
                      FEE, MINIMUM, TIMEOUT, REGISTRY_ADDR)
    chain.register_contract(REGISTRY_ADDR, registry)
    chain.register_contract(BRIDGE_ADDR, head)
    chain.witness_exempt = set(WIT_T)
    chain.seal_genesis()
    return chain, registry, head


def make_side(threshold=3, mode="conservation", bal_bank=BAL_BANK):
    chain = Chain(SIDE_ID, ChainKind.GASLESS_SIDE, {"Chain_ID": SIDE_ID},
                  BAL_RESV + bal_bank)
    vault = RegistrationVault(VAULT_ADDR, BAL_RESV, tuple(WIT_S), threshold,
                              TIMEOUT, (OWNER1, OWNER2), 2)
    bank = ReserveBank(BANK_ADDR, bal_bank, authorized_relay=RELAY_ADDR)
    relay = InterRelay(RELAY_ADDR, BANK_ADDR, tuple(WIT_S), threshold, TIMEOUT,
                       total_supply=BAL_RESV + bal_bank, entrance_reserve=BAL_RESV,
                       mode=mode)
    chain.register_contract(VAULT_ADDR, vault)
    chain.register_contract(BANK_ADDR, bank)
    chain.register_contract(RELAY_ADDR, relay)
    chain.witness_exempt = set(WIT_S) | {OWNER1, OWNER2}
    chain.seal_genesis()
    return chain, vault, relay, bank


def make_native(threshold=3):
    chain = Chain(SIDE_ID, ChainKind.NATIVE_GAS_SIDE, {"Chain_ID": SIDE_ID}, 0)
    trading = TradingBook(TRADING_ADDR, authorized_gateway=GATEWAY_ADDR)
    gateway = ConsensusGateway(GATEWAY_ADDR, TRADING_ADDR, tuple(WIT_S),
                               threshold, TIMEOUT)
    chain.register_contract(TRADING_ADDR, trading)
    chain.register_contract(GATEWAY_ADDR, gateway)
    chain.witness_exempt = set(WIT_S)
    chain.seal_genesis()
    return chain, gateway, trading


def request_tx(attach=1_000, balance=TOTAL, chain_id=SIDE_ID):
    return Transaction(
        sender=CREATOR, to=BRIDGE_ADDR, value=attach, gasprice=1,
        payload=RegistrationRequest(
            chain_id=chain_id, genesis_hash=b"\x11" * 32, balance=balance,
            side_creator=SIDE_CREATOR,
        ),
    )


def confirm_tx(i, subject, verdict=True, round_no=0):
    return Transaction(
        sender=WIT_T[i], to=BRIDGE_ADDR, value=0, gasprice=0, round=round_no,
        payload=Confirm(chain_id=SIDE_ID, subject=subject, verdict=verdict),
    )


def entry(to, value, height=5, seq=0, chain=TOKEN_ID):
    return TransferEntry(origin_chain=chain, origin_height=height,
                         origin_seq=seq, to=to, value=value)


def relay_tx(sender, target, direction, entries, round_no=0, subject=None, gasprice=0):
    entries = tuple(entries)
    subject = subject if subject is not None else entries_subject(direction, entries)
    return Transaction(
        sender=sender, to=target, value=0, gasprice=gasprice, round=round_no,
        payload=Transferring(direction=direction, subject=subject, entries=entries),
    )


def pending_subject(head):
    assert head.pending is not None
    return head.pending.subject


def events_of(block, topic):
    return [ev for ev in block.events if ev.topic == topic]


class TestBridgeHeadRegistration:
    def test_request_locks_attach_minus_fee_and_announces_it(self):
        chain, _, head = make_token()
        block, rejections = chain.apply_block([request_tx(attach=1_000)], now=5)
        assert rejections == []
        assert head.locked == 990
        arrived = events_of(block, EventTopic.CROSS_CHAIN_ARRIVED)
        assert len(arrived) == 1
        assert arrived[0].payload["amount"] == 990
        assert head.reg_stream.deadline == 5 + TIMEOUT

    def test_announcement_and_state_view_keep_typed_values(self):
        # Values become text only where they are encoded.
        chain, _, head = make_token()
        block, _ = chain.apply_block([request_tx(attach=1_000)])
        payload = events_of(block, EventTopic.CROSS_CHAIN_ARRIVED)[0].payload
        assert (payload["chain_id"], payload["side_creator"]) == (SIDE_ID, SIDE_CREATOR)
        assert payload["genesis_hash"] == b"\x11" * 32
        assert payload["subject"] == pending_subject(head) == head.state_view()["pending"]

    def test_attach_below_minimum_is_returned(self):
        chain, _, head = make_token()
        _, rejections = chain.apply_block([request_tx(attach=50)])
        assert len(rejections) == 1
        assert "BelowEntranceFeeMinimum" in rejections[0].reason
        assert chain.balance(CREATOR) == 20_000
        assert head.locked == 0

    def test_attach_not_exceeding_fee_is_returned(self):
        chain, _, head = make_token()
        _, rejections = chain.apply_block([request_tx(attach=FEE)])
        assert len(rejections) == 1
        assert chain.balance(CREATOR) == 20_000

    def test_second_request_after_success_is_already_registered(self):
        chain, _, head = make_token()
        chain.apply_block([request_tx()])
        subject = pending_subject(head)
        chain.apply_block([confirm_tx(i, subject) for i in range(3)])
        assert head.registered
        _, rejections = chain.apply_block([request_tx()])
        assert "AlreadyRegistered" in rejections[0].reason

    def test_request_while_pending_is_rejected(self):
        chain, _, head = make_token()
        chain.apply_block([request_tx()])
        _, rejections = chain.apply_block([request_tx()])
        assert "RequestPending" in rejections[0].reason

    def test_quorum_semantics_two_votes_idle_third_fires(self):
        chain, registry, head = make_token(threshold=3)
        chain.apply_block([request_tx()])
        subject = pending_subject(head)
        chain.apply_block([confirm_tx(0, subject), confirm_tx(1, subject)])
        assert not head.registered
        assert registry.chain_ids == []
        block, _ = chain.apply_block([confirm_tx(2, subject)])
        assert head.registered
        assert registry.chain_ids == [SIDE_ID]
        exist = events_of(block, EventTopic.EXIST_OR_NOT)
        assert len(exist) == 1 and exist[0].payload["success"] is True

    def test_duplicate_vote_changes_nothing(self):
        chain, _, head = make_token()
        chain.apply_block([request_tx()])
        subject = pending_subject(head)
        chain.apply_block([confirm_tx(0, subject), confirm_tx(0, subject)])
        tally = head.reg_stream.tallies[subject]
        assert len(tally.yes) == 1
        assert not head.registered

    def test_deadline_revert_refunds_locked_minus_fee(self):
        chain, _, head = make_token()
        chain.apply_block([request_tx(attach=1_000)], now=5)
        subject = pending_subject(head)
        chain.apply_block([confirm_tx(0, subject), confirm_tx(1, subject)], now=6)
        block, _ = chain.apply_block([poke_tx(BRIDGE_ADDR)], now=5 + TIMEOUT)
        results = events_of(block, EventTopic.REGISTRATION_RESULT)
        assert len(results) == 1 and results[0].payload["success"] is False
        assert results[0].payload["refund"] == 990 - FEE
        assert chain.balance(CREATOR) == 20_000 - 1_000 + 980
        assert head.locked == 0
        assert not head.registered
        # both the held fee and the revert fee went to the two voters + vault
        assert chain.balance(WIT_T[0]) == 10 and chain.balance(WIT_T[1]) == 10
        assert head.fee_reserve == 0

    def test_poke_before_deadline_does_nothing(self):
        chain, _, head = make_token()
        chain.apply_block([request_tx()], now=5)
        block, _ = chain.apply_block([poke_tx(BRIDGE_ADDR)], now=20)
        assert events_of(block, EventTopic.REGISTRATION_RESULT) == []
        assert head.pending is not None

    def test_duplicate_chain_id_refunds_without_registering(self):
        chain, registry, head = make_token()
        registry.chain_ids.append(SIDE_ID)  # someone else took the id
        chain.apply_block([request_tx()])
        subject = pending_subject(head)
        block, _ = chain.apply_block([confirm_tx(i, subject) for i in range(3)])
        exist = events_of(block, EventTopic.EXIST_OR_NOT)
        assert exist[0].payload["success"] is False
        assert not head.registered
        assert head.locked == 0
        assert chain.balance(CREATOR) == 20_000 - FEE

    def test_fee_settles_evenly_with_remainder_to_vault(self):
        chain, _, head = make_token()
        chain.apply_block([request_tx()])
        subject = pending_subject(head)
        chain.apply_block([confirm_tx(i, subject) for i in range(3)])
        # fee 10 over 3 voters -> 3 each, 1 to the vault's reserve
        assert [chain.balance(w) for w in WIT_T[:3]] == [3, 3, 3]
        assert head.fee_reserve == 1
        assert chain.ledger_total() == TOTAL


class TestRegistry:
    def authorize_tx(self, owner, head=BRIDGE_ADDR):
        return Transaction(sender=owner, to=REGISTRY_ADDR, value=0, gasprice=1,
                           payload=MultisigAction(action="authorize", args=(head,)))

    def owner_funded_token(self, owners, required, heads=(BRIDGE_ADDR,)):
        """Token chain whose registry authorizes nobody yet; owners can pay gas."""
        chain = Chain(TOKEN_ID, ChainKind.TOKEN, {"Chain_ID": TOKEN_ID}, TOTAL,
                      {CREATOR: 20_000, **{o: 10 for o in owners},
                       Address.from_label("alice"): TOTAL - 20_000 - 10 * len(owners)})
        registry = ChainIdRegistry(REGISTRY_ADDR, tuple(owners), required)
        chain.register_contract(REGISTRY_ADDR, registry)
        for addr in heads:
            chain.register_contract(addr, BridgeHead(addr, SIDE_ID, tuple(WIT_T), 3, FEE,
                                                     MINIMUM, TIMEOUT, REGISTRY_ADDR))
        chain.witness_exempt = set(WIT_T)
        chain.seal_genesis()
        return chain, registry

    def register_through(self, chain, head_addr):
        request = Transaction(sender=CREATOR, to=head_addr, value=1_000, gasprice=1,
                              payload=request_tx().payload)
        chain.apply_block([request])
        subject = chain.contracts[head_addr].pending.subject
        votes = [Transaction(sender=WIT_T[i], to=head_addr, value=0, gasprice=0, round=0,
                             payload=Confirm(chain_id=SIDE_ID, subject=subject, verdict=True))
                 for i in range(3)]
        return chain.apply_block(votes)

    def test_first_insert_succeeds_then_duplicate_reports_false(self):
        other = Address.from_label("bridge-head-2")
        chain, registry = self.owner_funded_token((OWNER1, OWNER2), 2,
                                                  heads=(BRIDGE_ADDR, other))
        chain.apply_block([self.authorize_tx(o, h) for h in (BRIDGE_ADDR, other)
                           for o in (OWNER1, OWNER2)])
        first, _ = self.register_through(chain, BRIDGE_ADDR)
        second, _ = self.register_through(chain, other)
        assert [ev.payload["success"] for ev in events_of(first, EventTopic.EXIST_OR_NOT)] \
            == [True]
        assert [ev.payload["success"] for ev in events_of(second, EventTopic.EXIST_OR_NOT)] \
            == [False]
        assert registry.chain_ids == [SIDE_ID]

    def test_incomplete_multisig_rejected(self):
        chain, registry = self.owner_funded_token((OWNER1, OWNER2), 2)
        chain.apply_block([self.authorize_tx(OWNER1)])
        _, rejections = self.register_through(chain, BRIDGE_ADDR)
        # the quorum-completing vote cannot append without the authorization
        assert [r.reason.split(":")[0] for r in rejections] == ["MultisigIncomplete"]
        assert registry.chain_ids == []

    def test_n_of_m_configurable(self):
        owners = tuple(Address.from_label(f"o{i}") for i in range(5))
        chain, registry = self.owner_funded_token(owners, 3)
        chain.apply_block([self.authorize_tx(o) for o in owners[:2]])
        assert BRIDGE_ADDR not in registry.authorized
        chain.apply_block([self.authorize_tx(owners[2])])
        assert BRIDGE_ADDR in registry.authorized
        self.register_through(chain, BRIDGE_ADDR)
        assert registry.chain_ids == [SIDE_ID]

    def test_standing_authorization_via_owner_transactions(self):
        chain, registry, head = make_token()
        registry.authorized.clear()
        grant = lambda owner: Transaction(
            sender=owner, to=REGISTRY_ADDR, value=0, gasprice=1,
            payload=MultisigAction(action="authorize", args=(BRIDGE_ADDR,)))
        chain.credit(OWNER1, 10)
        chain.credit(OWNER2, 10)
        chain.debit(Address.from_label("alice"), 20)  # keep the ledger balanced
        chain.apply_block([grant(OWNER1)])
        assert BRIDGE_ADDR not in registry.authorized
        chain.apply_block([grant(OWNER2)])
        assert BRIDGE_ADDR in registry.authorized

    def test_non_owner_cannot_approve(self):
        registry = ChainIdRegistry(REGISTRY_ADDR, (OWNER1, OWNER2), 2)
        with pytest.raises(NotAuthorized):
            registry.multisig.approve(CREATOR, b"k")


class TestRegistrationVault:
    def payout_entries(self):
        return [entry(SIDE_CREATOR, BAL_RESV)]

    def test_quorum_pays_full_balance_to_creator(self):
        chain, vault, _, _ = make_side()
        votes = [relay_tx(WIT_S[i], VAULT_ADDR, REGISTRATION, self.payout_entries())
                 for i in range(3)]
        block, rejections = chain.apply_block(votes)
        assert rejections == []
        assert vault.balance == 0
        assert chain.balance(SIDE_CREATOR) == BAL_RESV
        results = events_of(block, EventTopic.REGISTRATION_RESULT)
        assert results and results[0].payload["success"] is True

    def test_below_quorum_pays_nothing(self):
        chain, vault, _, _ = make_side()
        chain.apply_block([relay_tx(WIT_S[i], VAULT_ADDR, REGISTRATION,
                                    self.payout_entries()) for i in range(2)])
        assert vault.balance == BAL_RESV
        assert chain.balance(SIDE_CREATOR) == 0

    def test_payout_must_equal_vault_balance_exactly(self):
        chain, vault, _, _ = make_side()
        wrong = [entry(SIDE_CREATOR, BAL_RESV - 1)]
        block, _ = chain.apply_block(
            [relay_tx(WIT_S[i], VAULT_ADDR, REGISTRATION, wrong) for i in range(3)])
        results = events_of(block, EventTopic.REGISTRATION_RESULT)
        assert results[0].payload["success"] is False
        assert vault.balance == BAL_RESV

    def suicide_tx(self, owner):
        return Transaction(sender=owner, to=VAULT_ADDR, value=0, gasprice=0,
                           payload=MultisigAction(action="suicide"))

    def test_vote_after_suicide_rejected(self):
        chain, vault, _, _ = make_side()
        chain.apply_block([relay_tx(WIT_S[i], VAULT_ADDR, REGISTRATION,
                                    self.payout_entries()) for i in range(3)])
        chain.apply_block([self.suicide_tx(OWNER1), self.suicide_tx(OWNER2)])
        assert vault.suicided
        _, rejections = chain.apply_block(
            [relay_tx(WIT_S[0], VAULT_ADDR, REGISTRATION, self.payout_entries(),
                      round_no=1)])
        assert "AlreadySuicided" in rejections[0].reason

    def test_suicide_requires_both_owners(self):
        chain, vault, _, _ = make_side()
        chain.apply_block([relay_tx(WIT_S[i], VAULT_ADDR, REGISTRATION,
                                    self.payout_entries()) for i in range(3)])
        # a non-owner's approval is refused and one owner twice is not two
        _, rejections = chain.apply_block([self.suicide_tx(WIT_S[0]),
                                           self.suicide_tx(OWNER1), self.suicide_tx(OWNER1)])
        assert [r.reason.split(":")[0] for r in rejections] == ["NotAuthorized"]
        assert not vault.suicided
        _, rejections = chain.apply_block([self.suicide_tx(OWNER2)])
        assert rejections == []
        assert vault.suicided
        _, rejections = chain.apply_block([self.suicide_tx(OWNER1)])
        assert "AlreadySuicided" in rejections[0].reason

    def test_suicide_before_payout_rejects_nonzero_balance(self):
        chain, vault, _, _ = make_side()
        _, rejections = chain.apply_block([self.suicide_tx(OWNER1), self.suicide_tx(OWNER2)])
        assert [r.reason for r in rejections] == [f"NonzeroBalance: vault still holds {BAL_RESV}"]
        assert not vault.suicided and vault.balance == BAL_RESV

    def test_suicide_via_owner_transactions(self):
        chain, vault, _, _ = make_side()
        chain.apply_block([relay_tx(WIT_S[i], VAULT_ADDR, REGISTRATION,
                                    self.payout_entries()) for i in range(3)])
        chain.apply_block([self.suicide_tx(OWNER1)])
        assert not vault.suicided
        chain.apply_block([self.suicide_tx(OWNER2)])
        assert vault.suicided


class TestInterRelayInbound:
    def test_quorum_unlocks_from_bank(self):
        chain, _, relay, bank = make_side()
        to = Address.from_label("side-user")
        entries = [entry(to, 100)]
        chain.apply_block([relay_tx(WIT_S[i], RELAY_ADDR, INBOUND, entries)
                           for i in range(3)])
        assert bank.balance == BAL_BANK - 100
        assert chain.balance(to) == 100

    def test_below_quorum_is_pending_without_state_change(self):
        chain, _, relay, bank = make_side()
        entries = [entry(Address.from_label("side-user"), 100)]
        chain.apply_block([relay_tx(WIT_S[i], RELAY_ADDR, INBOUND, entries)
                           for i in range(2)])
        assert bank.balance == BAL_BANK
        assert relay.stream.tallies  # votes recorded, nothing executed

    def test_value_beyond_bank_balance_is_gate_violation(self):
        chain, _, relay, bank = make_side(bal_bank=50)
        entries = [entry(Address.from_label("side-user"), 100)]
        block, _ = chain.apply_block([relay_tx(WIT_S[i], RELAY_ADDR, INBOUND, entries)
                                      for i in range(3)])
        results = events_of(block, EventTopic.CONSENSUS_RESULT)
        assert results[0].payload["success"] is False
        assert "exceeds bank balance" in results[0].payload["error"]
        assert bank.balance == 50

    def test_duplicate_origin_executes_once(self):
        chain, _, relay, bank = make_side()
        to = Address.from_label("side-user")
        entries = [entry(to, 100)]
        chain.apply_block([relay_tx(WIT_S[i], RELAY_ADDR, INBOUND, entries)
                           for i in range(3)])
        # same origin resent inside a merged batch in the next round
        merged = [entry(to, 100), entry(to, 40, height=6)]
        chain.apply_block([relay_tx(WIT_S[i], RELAY_ADDR, INBOUND, merged, round_no=1)
                           for i in range(3)])
        assert chain.balance(to) == 140  # not 240
        assert bank.balance == BAL_BANK - 140

    def test_strict_mode_admits_only_the_first_drawdown(self):
        chain, _, relay, bank = make_side(mode="strict")
        to = Address.from_label("side-user")
        chain.apply_block([relay_tx(WIT_S[i], RELAY_ADDR, INBOUND, [entry(to, 100)])
                           for i in range(3)])
        assert chain.balance(to) == 100
        block, _ = chain.apply_block(
            [relay_tx(WIT_S[i], RELAY_ADDR, INBOUND, [entry(to, 60, height=7)],
                      round_no=1) for i in range(3)])
        results = events_of(block, EventTopic.CONSENSUS_RESULT)
        assert results[0].payload["success"] is False
        assert "strict gate" in results[0].payload["error"]
        assert chain.balance(to) == 100

    def test_conservation_mode_admits_repeated_drawdowns(self):
        chain, _, relay, bank = make_side()
        to = Address.from_label("side-user")
        chain.apply_block([relay_tx(WIT_S[i], RELAY_ADDR, INBOUND, [entry(to, 100)])
                           for i in range(3)])
        chain.apply_block([relay_tx(WIT_S[i], RELAY_ADDR, INBOUND,
                                    [entry(to, 60, height=7)], round_no=1)
                           for i in range(3)])
        assert chain.balance(to) == 160


class TestEarliestDeadline:
    """``Chain.earliest_deadline`` is memoised; a vote, a rejection rollback
    and a reorg each leave it equal to the lanes' own deadlines."""

    def open_tally(self, now=10):
        chain, _, relay, _ = make_side()
        entries = [entry(Address.from_label("side-user"), 100)]
        assert chain.earliest_deadline() is None
        chain.apply_block(votes(WIT_S[:2], RELAY_ADDR, INBOUND, entries), now=now)
        assert chain.earliest_deadline() == relay.stream.deadline == now + TIMEOUT
        return chain, relay, entries

    def test_a_reorg_restores_a_concluded_lanes_deadline(self):
        chain, relay, entries = self.open_tally()
        chain.apply_block(votes(WIT_S[2:3], RELAY_ADDR, INBOUND, entries), now=20)
        assert chain.earliest_deadline() is None
        chain.reorg(1, [], now=30)  # drops the concluding vote's block, replays nothing
        assert chain.earliest_deadline() == relay.stream.deadline == 10 + TIMEOUT

    def test_a_rejection_rollback_keeps_the_accepted_votes_deadline(self):
        chain, _, relay, _ = make_side()
        entries = [entry(Address.from_label("side-user"), 100)]
        assert chain.earliest_deadline() is None
        outsider = relay_tx(OWNER1, RELAY_ADDR, INBOUND, entries)
        _, rejections = chain.apply_block(
            votes(WIT_S[:1], RELAY_ADDR, INBOUND, entries) + [outsider], now=10)
        assert [r.tx for r in rejections] == [outsider]
        assert chain.earliest_deadline() == relay.stream.deadline == 10 + TIMEOUT

    def test_a_poke_clears_it(self):
        chain, relay, _ = self.open_tally()
        chain.apply_block([poke_tx(RELAY_ADDR)], now=10 + TIMEOUT)
        assert chain.earliest_deadline() is relay.stream.deadline is None


class TestInterRelayOutbound:
    def fund(self, chain, user, amount):
        # move tokens out of the bank into a user account through the
        # inbound path, keeping the side ledger balanced
        entries = [entry(user, amount)]
        chain.apply_block([relay_tx(WIT_S[i], RELAY_ADDR, INBOUND, entries)
                           for i in range(3)])

    def outbound_tx(self, user, value, dest=None):
        return Transaction(
            sender=user, to=RELAY_ADDR, value=value, gasprice=1,
            payload=UserTransfer(dest=dest or Address.from_label("token-user")),
        )

    def test_lock_moves_value_to_bank_and_emits(self):
        chain, _, relay, bank = make_side()
        user = Address.from_label("side-user")
        self.fund(chain, user, 90)
        block, rejections = chain.apply_block([self.outbound_tx(user, 50)])
        assert rejections == []
        assert bank.balance == BAL_BANK - 90 + 50
        assert chain.balance(user) == 40  # gas is flow control, not a charge
        locked = events_of(block, EventTopic.ASSETS_LOCKED)
        assert locked[0].payload["value"] == 50

    def test_bound_is_supply_minus_bank(self):
        # Conservation keeps real holders inside the bound, so the guard is
        # exercised by driving the handler directly with an oversized value.
        from bridgesim.contracts import ExceedsCirculating

        chain, _, relay, bank = make_side()
        bound = relay.total_supply - bank.balance
        with pytest.raises(ExceedsCirculating):
            relay.handle(chain, self.outbound_tx(Address.from_label("side-user"),
                                                 bound + 1))
        assert bank.balance == BAL_BANK

    def test_insufficient_user_balance_rejected(self):
        chain, _, relay, bank = make_side()
        user = Address.from_label("side-user")
        self.fund(chain, user, 40)
        _, rejections = chain.apply_block([self.outbound_tx(user, 90)])
        assert "cannot afford" in rejections[0].reason

    def test_zero_value_lock_is_a_noop_with_event(self):
        chain, _, relay, bank = make_side()
        user = Address.from_label("side-user")
        self.fund(chain, user, 40)
        block, rejections = chain.apply_block([self.outbound_tx(user, 0)])
        assert rejections == []
        assert bank.balance == BAL_BANK - 40
        assert events_of(block, EventTopic.ASSETS_LOCKED)[0].payload["value"] == 0


class TestBridgeHeadUnlock:
    def registered_head(self):
        chain, _, head = registered_head()
        assert head.locked == 990
        return chain, head

    def unlock_entries(self, value, to=None, height=9, seq=0):
        return [entry(to or Address.from_label("token-user"), value,
                      height=height, seq=seq, chain=SIDE_ID)]

    def test_quorum_unlocks_and_credits(self):
        chain, head = self.registered_head()
        to = Address.from_label("token-user")
        chain.apply_block([relay_tx(WIT_T[i], BRIDGE_ADDR, OUTBOUND,
                                    self.unlock_entries(50)) for i in range(3)])
        assert head.locked == 940
        assert chain.balance(to) == 50

    def test_unlock_beyond_locked_fails_batch(self):
        chain, head = self.registered_head()
        block, _ = chain.apply_block(
            [relay_tx(WIT_T[i], BRIDGE_ADDR, OUTBOUND, self.unlock_entries(1_000))
             for i in range(3)])
        results = events_of(block, EventTopic.CONSENSUS_RESULT)
        assert results[0].payload["success"] is False
        assert "exceeds locked" in results[0].payload["error"]
        assert head.locked == 990

    def test_only_current_round_tallies(self):
        chain, head = self.registered_head()
        entries = self.unlock_entries(50)
        stale = [relay_tx(WIT_T[i], BRIDGE_ADDR, OUTBOUND, entries, round_no=3)
                 for i in range(3)]
        _, rejections = chain.apply_block(stale)
        assert len(rejections) == 3
        assert all("StaleRound" in r.reason for r in rejections)
        assert head.locked == 990
        # interleave current-round votes for three different values; only a
        # full same-subject quorum fires
        e1 = self.unlock_entries(10, height=9)
        e2 = self.unlock_entries(20, height=10)
        chain.apply_block([
            relay_tx(WIT_T[0], BRIDGE_ADDR, OUTBOUND, e1),
            relay_tx(WIT_T[1], BRIDGE_ADDR, OUTBOUND, e2),
            relay_tx(WIT_T[2], BRIDGE_ADDR, OUTBOUND, e1),
            relay_tx(WIT_T[3], BRIDGE_ADDR, OUTBOUND, e1),
        ])
        assert head.locked == 980  # only the value-10 subject reached quorum


def registered_head():
    chain, registry, head = make_token()
    chain.apply_block([request_tx()])
    chain.apply_block([confirm_tx(i, pending_subject(head)) for i in range(3)])
    return chain, registry, head


def poke_tx(addr):
    return Transaction(sender=addr, to=addr, value=0, gasprice=0,
                       payload=MultisigAction(action=POKE_ACTION))


def votes(senders, target, direction, entries, round_no=0):
    return [relay_tx(s, target, direction, entries, round_no) for s in senders]


# Every vote lane, as (chain, contract address, stream, vote builder, outsider).
# The vote builder takes (sender, round, subject or None); the outsider is a
# sender that may submit gas-free or pay gas, but is not a witness.
def head_confirm_lane():
    chain, _, head = make_token()
    chain.apply_block([request_tx()])
    subject = pending_subject(head)
    vote = lambda sender, round_no, _subject=None: Transaction(
        sender=sender, to=BRIDGE_ADDR, value=0, gasprice=0 if sender in WIT_T else 1,
        round=round_no, payload=Confirm(chain_id=SIDE_ID, subject=subject, verdict=True))
    return chain, head.reg_stream, vote, WIT_T[0], CREATOR


def head_outbound_lane():
    chain, _, head = registered_head()
    entries = (entry(Address.from_label("token-user"), 50, height=9, chain=SIDE_ID),)
    vote = lambda sender, round_no, subject=None: Transaction(
        sender=sender, to=BRIDGE_ADDR, value=0, gasprice=0 if sender in WIT_T else 1,
        round=round_no, payload=relay_tx(sender, BRIDGE_ADDR, OUTBOUND, entries,
                                         subject=subject).payload)
    return chain, head.out_stream, vote, WIT_T[0], CREATOR


def side_lane(make, addr, direction, stream_of, outsider_gas=0):
    """``outsider_gas`` is the gasprice the outsider, a vault owner, pays:
    none where it is exempt, and 1 on a native-gas chain, where only the
    witnesses are exempt and gas costs nothing."""
    def build():
        chain, *contracts = make()
        entries = (entry(SIDE_CREATOR, BAL_RESV),)
        vote = lambda sender, round_no, subject=None: relay_tx(
            sender, addr, direction, entries, round_no, subject,
            gasprice=0 if sender in WIT_S else outsider_gas)
        return chain, stream_of(*contracts), vote, WIT_S[0], OWNER1
    return build


LANES = {
    "head_confirm": head_confirm_lane,
    "head_outbound": head_outbound_lane,
    "vault": side_lane(make_side, VAULT_ADDR, REGISTRATION, lambda vault, *_: vault.stream),
    "relay": side_lane(make_side, RELAY_ADDR, INBOUND, lambda _, relay, bank: relay.stream),
    "gateway": side_lane(make_native, GATEWAY_ADDR, INBOUND,
                         lambda gateway, _: gateway.streams[INBOUND], outsider_gas=1),
}

ADMISSION_FAULTS = {
    "unknown_witness": ("UnknownWitness", lambda vote, witness, outsider: vote(outsider, 0)),
    "stale_round": ("StaleRound", lambda vote, witness, outsider: vote(witness, 7)),
    "subject_mismatch": ("MalformedVote",
                         lambda vote, witness, outsider: vote(witness, 0, b"\x99" * 32)),
}


# A registration confirm carries no entries, so it has no subject to mismatch.
@pytest.mark.parametrize("lane,fault", [
    (lane, fault) for lane in sorted(LANES) for fault in sorted(ADMISSION_FAULTS)
    if (lane, fault) != ("head_confirm", "subject_mismatch")
])
def test_vote_admission_rejects(lane, fault):
    chain, stream, vote, witness, outsider = LANES[lane]()
    error, bad_vote = ADMISSION_FAULTS[fault]
    block, rejections = chain.apply_block([bad_vote(vote, witness, outsider)])
    assert [r.reason.split(":")[0] for r in rejections] == [error]
    assert block.events == ()
    assert all(not t.voters() for t in stream.tallies.values())
    # the lane still takes a well-formed vote from the same witness
    _, rejections = chain.apply_block([vote(witness, stream.round)])
    assert rejections == []


def test_admission_refusals_touch_nothing(monkeypatch):
    """Refusals by rules that only read state are rejected before the chain
    journals anything: no pre-image is taken and nothing is restored or
    replayed.  Their reasons, pinned as the restore-and-replay path gave them,
    stay the same, and so does a value-carrying vote's, which is still
    refused by its contract after the debit."""
    chain, vault, relay, _ = make_side()
    payout = [entry(SIDE_CREATOR, BAL_RESV)]
    chain.apply_block([relay_tx(WIT_S[i], VAULT_ADDR, REGISTRATION, payout) for i in range(3)])
    suicide = [Transaction(sender=owner, to=VAULT_ADDR, value=0, gasprice=0,
                           payload=MultisigAction(action="suicide")) for owner in (OWNER1, OWNER2)]
    chain.apply_block(suicide)
    assert vault.suicided and chain.balance(SIDE_CREATOR) == BAL_RESV
    inbound = [entry(SIDE_CREATOR, 7, height=11)]
    loads, dumps = [], []
    real_loads, real_dumps = pickle.loads, pickle.dumps
    monkeypatch.setattr(pickle, "loads", lambda *a: loads.append(1) or real_loads(*a))
    monkeypatch.setattr(pickle, "dumps", lambda *a: dumps.append(1) or real_dumps(*a))
    accepted = relay_tx(WIT_S[0], RELAY_ADDR, INBOUND, inbound)
    refused = [
        relay_tx(WIT_S[1], RELAY_ADDR, INBOUND, inbound, round_no=3),
        relay_tx(OWNER1, RELAY_ADDR, INBOUND, inbound),
        relay_tx(WIT_S[1], RELAY_ADDR, OUTBOUND, inbound),
        relay_tx(WIT_S[0], VAULT_ADDR, REGISTRATION, payout, round_no=1),
        Transaction(sender=SIDE_CREATOR, to=OWNER2, value=5, gasprice=0,
                    payload=UserTransfer()),
    ]
    block, rejections = chain.apply_block([accepted, *refused])
    assert block.transactions == (accepted,)
    assert [r.tx for r in rejections] == refused
    assert [r.reason for r in rejections] == [
        "StaleRound: inbound: round 3 != current 0",
        f"UnknownWitness: {OWNER1} not in witness list",
        "MalformedVote: no lane takes this transferring vote",
        "AlreadySuicided: vault has been deactivated",
        "InvalidTransaction: zero gasprice without exemption",
    ]
    assert relay.stream.tallies[accepted.payload.subject].yes == {WIT_S[0]}
    # The accepted vote's relay, once; nothing restored.
    assert len(dumps) == 1 and loads == []
    assert list(chain._undo[block.height][1]) == [RELAY_ADDR]
    # A stale vote from an outsider that carries value: debited, then refused
    # for the value, rolled back.
    paying = Transaction(sender=SIDE_CREATOR, to=RELAY_ADDR, value=5, gasprice=1, round=9,
                         payload=relay_tx(SIDE_CREATOR, RELAY_ADDR, INBOUND, inbound).payload)
    _, rejections = chain.apply_block([paying])
    assert [r.reason for r in rejections] == ["UnexpectedValue: transferring must not carry value"]
    assert chain.balance(SIDE_CREATOR) == BAL_RESV


# ---------------------------------------------------------------------------
# Lane outcomes no shipped trace reaches, pinned payload by payload.
# Each case returns (block, contract address, state checks); the block holds
# exactly one result event from that contract.
# ---------------------------------------------------------------------------

CONSENSUS_KEYS = {"stream", "round", "next_round", "subject", "success", "origins",
                  "duplicate"}
REG_RESULT_KEYS = {"success", "subject", "round", "next_round"}


def case_head_unlock_exceeds_locked():
    chain, _, head = registered_head()
    entries = [entry(Address.from_label("token-user"), 1_000, height=9, chain=SIDE_ID)]
    block, _ = chain.apply_block(votes(WIT_T[:3], BRIDGE_ADDR, OUTBOUND, entries))
    return block, BRIDGE_ADDR, [(head.locked, 990), (head.out_stream.round, 1)]


def case_head_outbound_duplicate():
    chain, _, head = registered_head()
    entries = [entry(Address.from_label("token-user"), 50, height=9, chain=SIDE_ID)]
    chain.apply_block(votes(WIT_T[:3], BRIDGE_ADDR, OUTBOUND, entries))
    block, _ = chain.apply_block(votes(WIT_T[3:], BRIDGE_ADDR, OUTBOUND, entries, 1))
    return block, BRIDGE_ADDR, [(head.locked, 940), (head.out_stream.round, 1)]


def case_head_chain_id_taken():
    chain, registry, head = make_token()
    registry.chain_ids.append(SIDE_ID)
    chain.apply_block([request_tx()])
    block, _ = chain.apply_block([confirm_tx(i, pending_subject(head)) for i in range(3)])
    return block, BRIDGE_ADDR, [(head.locked, 0), (head.registered, False),
                                (head.pending, None), (chain.balance(CREATOR), 20_000 - FEE),
                                (registry.chain_ids, [SIDE_ID]), (head.reg_stream.round, 1)]


def case_vault_payout_mismatch():
    chain, vault, _, _ = make_side()
    block, _ = chain.apply_block(votes(WIT_S[:3], VAULT_ADDR, REGISTRATION,
                                       [entry(SIDE_CREATOR, BAL_RESV - 1)]))
    return block, VAULT_ADDR, [(vault.balance, BAL_RESV), (vault.stream.round, 1),
                               (chain.balance(SIDE_CREATOR), 0)]


def case_vault_duplicate():
    chain, vault, _, _ = make_side()
    payout = [entry(SIDE_CREATOR, BAL_RESV)]
    chain.apply_block(votes(WIT_S[:3], VAULT_ADDR, REGISTRATION, payout))
    block, _ = chain.apply_block(votes(WIT_S[3:], VAULT_ADDR, REGISTRATION, payout, 1))
    return block, VAULT_ADDR, [(vault.balance, 0), (chain.balance(SIDE_CREATOR), BAL_RESV),
                               (vault.stream.round, 1)]


def case_vault_timeout():
    chain, vault, _, _ = make_side()
    chain.apply_block(votes(WIT_S[:2], VAULT_ADDR, REGISTRATION,
                            [entry(SIDE_CREATOR, BAL_RESV)]), now=5)
    block, _ = chain.apply_block([poke_tx(VAULT_ADDR)], now=5 + TIMEOUT)
    return block, VAULT_ADDR, [(vault.balance, BAL_RESV), (vault.stream.round, 1),
                               (vault.stream.deadline, None), (vault.stream.tallies, {})]


def case_relay_bank_underflow():
    chain, _, relay, bank = make_side(bal_bank=50)
    block, _ = chain.apply_block(votes(WIT_S[:3], RELAY_ADDR, INBOUND,
                                       [entry(Address.from_label("side-user"), 100)]))
    return block, RELAY_ADDR, [(bank.balance, 50), (relay.stream.round, 1)]


def case_relay_strict_gate():
    chain, _, relay, bank = make_side(mode="strict")
    to = Address.from_label("side-user")
    chain.apply_block(votes(WIT_S[:3], RELAY_ADDR, INBOUND, [entry(to, 100)]))
    block, _ = chain.apply_block(votes(WIT_S[:3], RELAY_ADDR, INBOUND,
                                       [entry(to, 60, height=7)], 1))
    return block, RELAY_ADDR, [(bank.balance, BAL_BANK - 100), (chain.balance(to), 100),
                               (relay.stream.round, 2)]


def case_relay_duplicate():
    chain, _, relay, bank = make_side()
    entries = [entry(Address.from_label("side-user"), 100)]
    chain.apply_block(votes(WIT_S[:3], RELAY_ADDR, INBOUND, entries))
    block, _ = chain.apply_block(votes(WIT_S[3:], RELAY_ADDR, INBOUND, entries, 1))
    return block, RELAY_ADDR, [(bank.balance, BAL_BANK - 100), (relay.stream.round, 1)]


def case_gateway_escrow_underflow():
    chain, gateway, trading = make_native()
    entries = [entry(Address.from_label("token-user"), 60, chain=SIDE_ID)]
    block, _ = chain.apply_block(votes(WIT_S[:3], GATEWAY_ADDR, OUTBOUND, entries))
    return block, GATEWAY_ADDR, [(gateway.escrow_total, 0),
                                 (gateway.streams[OUTBOUND].round, 1)]


def gateway_duplicate(direction):
    def case():
        chain, gateway, trading = make_native()
        entries = [entry(SIDE_CREATOR, 100)]
        chain.apply_block(votes(WIT_S[:3], GATEWAY_ADDR, direction, entries))
        block, _ = chain.apply_block(votes(WIT_S[3:], GATEWAY_ADDR, direction, entries, 1))
        return block, GATEWAY_ADDR, [(trading.balances, {SIDE_CREATOR: 100}),
                                     (gateway.streams[direction].round, 1)]
    return case


def gateway_timeout(direction):
    def case():
        chain, gateway, trading = make_native()
        chain.apply_block(votes(WIT_S[:1], GATEWAY_ADDR, direction,
                                [entry(SIDE_CREATOR, 100)]), now=5)
        block, _ = chain.apply_block([poke_tx(GATEWAY_ADDR)], now=5 + TIMEOUT)
        stream = gateway.streams[direction]
        return block, GATEWAY_ADDR, [(trading.balances, {}), (stream.round, 1),
                                     (stream.deadline, None), (stream.tallies, {})]
    return case


FAILED = {"success": False, "duplicate": False, "origins": []}
ECHO = {"success": True, "duplicate": True, "origins": []}
TIMEOUT_KEYS = {"error": "timeout", "subject": "0x", "success": False}

# id -> (case, topic, payload keys, pinned payload values, round, next_round)
LANE_OUTCOMES = {
    "head_unlock_exceeds_locked": (
        case_head_unlock_exceeds_locked, EventTopic.CONSENSUS_RESULT, CONSENSUS_KEYS | {"error"},
        {**FAILED, "stream": OUTBOUND, "error": "unlock 1000 exceeds locked 990"}, 0, 1),
    "head_outbound_duplicate": (
        case_head_outbound_duplicate, EventTopic.CONSENSUS_RESULT, CONSENSUS_KEYS,
        {**ECHO, "stream": OUTBOUND}, 0, 1),
    "head_chain_id_taken": (
        case_head_chain_id_taken, EventTopic.REGISTRATION_RESULT,
        REG_RESULT_KEYS | {"chain_id", "reason"},
        {"success": False, "reason": "chain id already registered", "chain_id": str(SIDE_ID)},
        0, 1),
    "vault_payout_mismatch": (
        case_vault_payout_mismatch, EventTopic.REGISTRATION_RESULT, REG_RESULT_KEYS | {"error"},
        {"success": False, "error": "payout must equal the vault balance exactly"}, 0, 1),
    "vault_duplicate": (
        case_vault_duplicate, EventTopic.REGISTRATION_RESULT, REG_RESULT_KEYS | {"duplicate"},
        {"success": True, "duplicate": True}, 0, 1),
    "vault_timeout": (
        case_vault_timeout, EventTopic.REGISTRATION_RESULT, REG_RESULT_KEYS | {"error"},
        TIMEOUT_KEYS, 0, 1),
    "relay_bank_underflow": (
        case_relay_bank_underflow, EventTopic.CONSENSUS_RESULT, CONSENSUS_KEYS | {"error"},
        {**FAILED, "stream": INBOUND, "error": "unlock 100 exceeds bank balance 50"}, 0, 1),
    "relay_strict_gate": (
        case_relay_strict_gate, EventTopic.CONSENSUS_RESULT, CONSENSUS_KEYS | {"error"},
        {**FAILED, "stream": INBOUND,
         "error": f"strict gate: bank {BAL_BANK - 160} + entrance {BAL_RESV} + 60 "
                  f"!= supply {TOTAL}"}, 1, 2),
    "relay_duplicate": (
        case_relay_duplicate, EventTopic.CONSENSUS_RESULT, CONSENSUS_KEYS,
        {**ECHO, "stream": INBOUND}, 0, 1),
    "gateway_escrow_underflow": (
        case_gateway_escrow_underflow, EventTopic.CONSENSUS_RESULT, CONSENSUS_KEYS | {"error"},
        {**FAILED, "stream": OUTBOUND, "error": "escrow underflow"}, 0, 1),
    # The registration lane succeeds with a RegistrationResult but echoes a
    # duplicate as a ConsensusResult naming the stream.
    "gateway_registration_duplicate": (
        gateway_duplicate(REGISTRATION), EventTopic.CONSENSUS_RESULT, CONSENSUS_KEYS,
        {**ECHO, "stream": REGISTRATION}, 0, 1),
    "gateway_inbound_duplicate": (
        gateway_duplicate(INBOUND), EventTopic.CONSENSUS_RESULT, CONSENSUS_KEYS,
        {**ECHO, "stream": INBOUND}, 0, 1),
    "gateway_registration_timeout": (
        gateway_timeout(REGISTRATION), EventTopic.REGISTRATION_RESULT,
        REG_RESULT_KEYS | {"error"}, TIMEOUT_KEYS, 0, 1),
    "gateway_inbound_timeout": (
        gateway_timeout(INBOUND), EventTopic.CONSENSUS_RESULT, CONSENSUS_KEYS | {"error"},
        {**FAILED, **TIMEOUT_KEYS, "stream": INBOUND}, 0, 1),
}


@pytest.mark.parametrize("outcome", sorted(LANE_OUTCOMES))
def test_lane_outcome(outcome):
    case, topic, keys, pinned, round_no, next_round = LANE_OUTCOMES[outcome]
    block, addr, checks = case()
    results = [ev for ev in block.events if ev.contract == addr
               and ev.topic in (EventTopic.CONSENSUS_RESULT, EventTopic.REGISTRATION_RESULT)]
    assert len(results) == 1
    assert results[0].topic == topic
    payload = plain_json.plain(results[0].payload)
    assert set(payload) == keys
    assert {k: payload[k] for k in pinned} == pinned
    assert (payload["round"], payload["next_round"]) == (round_no, next_round)
    for got, expected in checks:
        assert got == expected


class TestReserveBankAccessControl:
    def test_direct_user_transaction_rejected(self):
        chain, _, relay, bank = make_side()
        poke = Transaction(sender=WIT_S[0], to=BANK_ADDR, value=0, gasprice=0,
                           payload=UserTransfer(dest=WIT_S[0]))
        _, rejections = chain.apply_block([poke])
        assert "NotAuthorized" in rejections[0].reason

    def test_unauthorized_relay_caller_rejected(self):
        chain, vault, relay, bank = make_side()
        bank.authorized_relay = STRANGER  # not this relay
        entries = [entry(Address.from_label("side-user"), 10)]
        _, rejections = chain.apply_block([relay_tx(WIT_S[i], RELAY_ADDR, INBOUND,
                                                    entries) for i in range(3)])
        # the quorum-completing vote fails closed: no bank movement at all
        assert bank.balance == BAL_BANK
        assert any("NotAuthorized" in r.reason for r in rejections)
        assert chain.balance(Address.from_label("side-user")) == 0

    @pytest.mark.parametrize("make,target,action,gasprice", [
        (lambda: make_side()[0], BANK_ADDR, "add_relay", 0),
        (lambda: make_native()[0], TRADING_ADDR, "authorize_gateway", 1),
    ], ids=["bank", "trading_book"])
    def test_owner_actions_cannot_change_the_authorization(self, make, target, action,
                                                           gasprice):
        # The relay and the gateway are genesis constants: an owner's
        # multisig action is refused like any other direct transaction, and
        # the state is the genesis state.
        chain = make()
        before = chain.state_digest()
        _, rejections = chain.apply_block([_owner(owner, target, action, STRANGER,
                                                  gasprice=gasprice)
                                           for owner in (OWNER1, OWNER2)])
        assert [r.reason.split(":")[0] for r in rejections] == ["NotAuthorized"] * 2
        assert chain.state_digest() == before


class TestConsensusGateway:
    def test_inbound_credits_ledger_at_quorum(self):
        chain, gateway, trading = make_native()
        acct = Address.from_label("native-user")
        entries = [entry(acct, 100)]
        chain.apply_block([relay_tx(WIT_S[i], GATEWAY_ADDR, INBOUND, entries)
                           for i in range(3)])
        assert trading.balances[acct] == 100
        assert trading.ledger_sum() == 100

    def test_an_origin_pays_once_across_lanes(self):
        chain, gateway, trading = make_native()
        acct = Address.from_label("native-user")
        entries = [entry(acct, 100)]
        for direction in (REGISTRATION, INBOUND):
            chain.apply_block([relay_tx(WIT_S[i], GATEWAY_ADDR, direction, entries)
                               for i in range(3)])
            assert gateway.streams[direction].round == 1
        assert trading.balances[acct] == 100
        assert trading.ledger_sum() == 100

    def test_inbound_below_quorum_pending(self):
        chain, gateway, trading = make_native()
        entries = [entry(Address.from_label("native-user"), 100)]
        chain.apply_block([relay_tx(WIT_S[i], GATEWAY_ADDR, INBOUND, entries)
                           for i in range(2)])
        assert trading.ledger_sum() == 0

    def test_withdraw_beyond_ledger_balance_rejected(self):
        chain, gateway, trading = make_native()
        acct = Address.from_label("native-user")
        chain.apply_block([relay_tx(WIT_S[i], GATEWAY_ADDR, INBOUND,
                                    [entry(acct, 100)]) for i in range(3)])
        withdraw = Transaction(
            sender=acct, to=GATEWAY_ADDR, value=0, gasprice=1,
            payload=TradingAction(to=Address.from_label("token-user"), value=150,
                                  cross_chain=True))
        _, rejections = chain.apply_block([withdraw])
        assert "InsufficientLedgerBalance" in rejections[0].reason

    def test_withdraw_escrows_then_quorum_emits_lock(self):
        chain, gateway, trading = make_native()
        acct = Address.from_label("native-user")
        chain.apply_block([relay_tx(WIT_S[i], GATEWAY_ADDR, INBOUND,
                                    [entry(acct, 100)]) for i in range(3)])
        withdraw = Transaction(
            sender=acct, to=GATEWAY_ADDR, value=0, gasprice=1,
            payload=TradingAction(to=Address.from_label("token-user"), value=60,
                                  cross_chain=True))
        block, _ = chain.apply_block([withdraw])
        assert gateway.escrow_total == 60
        assert trading.balances[acct] == 40
        arrived = events_of(block, EventTopic.CROSS_CHAIN_ARRIVED)
        assert arrived[0].payload["value"] == 60
        out_entries = [entry(Address.from_label("token-user"), 60, chain=SIDE_ID,
                             height=block.height, seq=arrived[0].seq)]
        block2, _ = chain.apply_block(
            [relay_tx(WIT_S[i], GATEWAY_ADDR, OUTBOUND, out_entries)
             for i in range(3)])
        assert gateway.escrow_total == 0
        locked = events_of(block2, EventTopic.ASSETS_LOCKED)
        assert locked[0].payload["value"] == 60


class TestTradingBook:
    def book(self):
        _, _, trading = make_native()
        trading.balances = {Address.from_label("a"): 60, Address.from_label("b"): 40}
        return trading

    def test_transfer_conserves_sum(self):
        trading = self.book()
        a, b = Address.from_label("a"), Address.from_label("b")
        trading.transfer(a, b, 10)
        assert trading.balances[a] == 50 and trading.balances[b] == 50
        assert trading.ledger_sum() == 100

    def test_self_transfer_is_identity(self):
        trading = self.book()
        a = Address.from_label("a")
        trading.transfer(a, a, 10)
        assert trading.balances[a] == 60

    def test_overdraft_leaves_ledger_unchanged(self):
        from bridgesim.contracts import InsufficientLedgerBalance

        trading = self.book()
        a, b = Address.from_label("a"), Address.from_label("b")
        with pytest.raises(InsufficientLedgerBalance):
            trading.transfer(a, b, 70)
        assert trading.balances[a] == 60 and trading.balances[b] == 40

    def test_user_transactions_route_through_handle(self):
        chain, gateway, trading = make_native()
        a, b = Address.from_label("a"), Address.from_label("b")
        chain.apply_block([relay_tx(WIT_S[i], GATEWAY_ADDR, INBOUND,
                                    [entry(a, 100)]) for i in range(3)])
        trade = Transaction(sender=a, to=TRADING_ADDR, value=0, gasprice=1,
                            payload=TradingAction(to=b, value=30))
        chain.apply_block([trade])
        assert trading.balances[b] == 30

    def test_gateway_caller_check(self):
        trading = self.book()
        with pytest.raises(NotAuthorized):
            trading.credit_from_gateway(Address.from_label("mallory"),
                                        Address.from_label("a"), 1)


class TestMultisigUnit:
    def test_fires_exactly_at_n(self):
        owners = tuple(Address.from_label(f"o{i}") for i in range(3))
        ms = Multisig(owners=owners, required=2)
        key = b"action"
        assert ms.approve(owners[0], key) is False
        assert ms.approve(owners[1], key) is True
        assert ms.approve(owners[2], key) is False  # already completed

    def test_default_two_of_two(self):
        ms = Multisig(owners=(OWNER1, OWNER2), required=2)
        assert ms.approve(OWNER1, b"k") is False
        assert ms.approve(OWNER1, b"k") is False  # duplicate approval
        assert ms.approve(OWNER2, b"k") is True


class TestRoundDisciplineProperty:
    """Adversarial vote schedules never corrupt a tally (seeded property)."""

    def oracle(self, schedule, threshold, current_round):
        voters = set()
        for witness, round_no, subject, verdict in schedule:
            if round_no == current_round and subject == b"S" and verdict:
                voters.add(witness)
        return len(voters) >= threshold

    def test_random_adversarial_schedules_match_oracle(self):
        rng = random.Random(20_260_808)
        for trial in range(300):
            threshold = rng.randint(2, 4)
            n = rng.randint(threshold, 6)
            stream = QuorumStream("inbound", threshold, timeout=50)
            stream.round = rng.randint(0, 3)
            witnesses = [Address.from_label(f"w{i}") for i in range(n)]
            schedule = []
            for _ in range(rng.randint(1, 25)):
                witness = rng.choice(witnesses)
                round_no = stream.round if rng.random() < 0.6 else rng.randint(0, 5)
                subject = b"S" if rng.random() < 0.7 else b"X"
                verdict = rng.random() < 0.8
                schedule.append((witness, round_no, subject, verdict))
            fired = False
            for witness, round_no, subject, verdict in schedule:
                if fired:
                    break
                try:
                    stream.check_round(round_no)
                except Exception:
                    continue  # stale votes are dropped, never tallied
                tally = stream.record(witness, subject, verdict, now=0)
                if subject == b"S" and stream.reached(tally):
                    fired = True
            expected = self.oracle(schedule, threshold, stream.round)
            # the implementation may fire earlier (prefix quorum) but never
            # when the oracle says the full schedule cannot reach quorum
            if fired:
                assert expected, f"trial {trial}: fired without a real quorum"
            else:
                assert not expected, f"trial {trial}: quorum missed"


# ---------------------------------------------------------------------------
# The undo path: rejection rollbacks and reorgs against a full replay
# ---------------------------------------------------------------------------

USERS = [Address.from_label(f"user-{i}") for i in range(3)]
NEWCOMERS = [Address.from_label(f"newcomer-{i}") for i in range(3)] + [OWNER1]
STRANGER = Address.from_label("stranger")
ALICE = Address.from_label("alice")


def _round(lane, stale):
    return lane.round - 1 if stale else lane.round


def _pay(sender, to, value):
    return Transaction(sender=sender, to=to, value=value, gasprice=1, payload=UserTransfer())


def _owner(owner, to, action, *args, gasprice=0):
    return Transaction(sender=owner, to=to, value=0, gasprice=gasprice,
                       payload=MultisigAction(action=action, args=args))


def _side_menu(chain, a, b, stale):
    """Every kind of transaction a gasless side chain sees, good and bad."""
    vault, relay = chain.contracts[VAULT_ADDR], chain.contracts[RELAY_ADDR]
    witness = STRANGER if stale and a == 3 else WIT_S[a]
    return [
        relay_tx(witness, VAULT_ADDR, REGISTRATION,
                 [entry(SIDE_CREATOR, BAL_RESV - (b == 3))], _round(vault.stream, stale)),
        relay_tx(witness, RELAY_ADDR, INBOUND,
                 [entry(USERS[b % 2], 40 * (b % 2 + 1), height=b % 2)],
                 _round(relay.stream, stale)),
        Transaction(sender=USERS[a % 3], to=RELAY_ADDR, value=5 * (b + 1), gasprice=1,
                    payload=UserTransfer(dest=None if stale else USERS[b % 3])),
        _pay(USERS[a % 3], NEWCOMERS[b], 3 + 100 * stale),
        _owner((OWNER1, OWNER2)[a % 2], VAULT_ADDR, "suicide"),
        # The bank takes no owner action: refused after the bank is journaled.
        _owner((OWNER1, OWNER2)[a % 2], BANK_ADDR, "add_relay",
               STRANGER if stale else RELAY_ADDR),
        poke_tx((VAULT_ADDR, RELAY_ADDR)[b % 2]),
    ]


def _token_menu(chain, a, b, stale):
    """Every kind of transaction the token chain sees, good and bad."""
    head = chain.contracts[BRIDGE_ADDR]
    subject = head.pending.subject if head.pending and not stale else b"\x07" * 32
    return [
        request_tx(attach=50 if stale else 1_000),
        confirm_tx(a, subject, verdict=b != 3, round_no=_round(head.reg_stream, stale)),
        Transaction(sender=ALICE, to=BRIDGE_ADDR, value=10 * (b + 1), gasprice=1,
                    payload=UserTransfer(dest=None if stale else USERS[b % 3])),
        relay_tx(WIT_T[a], BRIDGE_ADDR, OUTBOUND,
                 [entry(USERS[b % 2], 10 * (b % 2 + 1), height=b % 2, chain=SIDE_ID)],
                 _round(head.out_stream, stale)),
        _pay(ALICE, NEWCOMERS[b], 3),
        Transaction(sender=(OWNER1, OWNER2)[a % 2], to=REGISTRY_ADDR, value=0, gasprice=1,
                    payload=MultisigAction(action="authorize", args=(BRIDGE_ADDR,))),
        poke_tx(BRIDGE_ADDR),
    ]


def _native_menu(chain, a, b, stale):
    """Every kind of transaction a native-gas side chain sees, good and bad."""
    gateway = chain.contracts[GATEWAY_ADDR]
    lane = (REGISTRATION, INBOUND, OUTBOUND)[b % 3]
    origin = SIDE_ID if lane == OUTBOUND else TOKEN_ID
    return [
        relay_tx(WIT_S[a], GATEWAY_ADDR, INBOUND,
                 [entry(USERS[b % 2], 40 * (b % 2 + 1), height=b % 2)],
                 _round(gateway.streams[INBOUND], stale)),
        Transaction(sender=USERS[a % 3], to=GATEWAY_ADDR, value=0, gasprice=1,
                    payload=TradingAction(to=NEWCOMERS[b], value=5 * (b + 1), cross_chain=True)),
        relay_tx(WIT_S[a], GATEWAY_ADDR, lane,
                 [entry(USERS[b % 2], 5, height=b % 2, chain=origin)],
                 _round(gateway.streams[lane], stale)),
        Transaction(sender=USERS[a % 3], to=TRADING_ADDR, value=0, gasprice=1,
                    payload=TradingAction(to=NEWCOMERS[b], value=3 + 100 * stale)),
        # Nor does the book: refused after it is journaled (an owner pays
        # gas here, for it is no witness).
        _owner((OWNER1, OWNER2)[a % 2], TRADING_ADDR, "authorize_gateway",
               STRANGER if stale else GATEWAY_ADDR, gasprice=1),
        Transaction(sender=STRANGER, to=GATEWAY_ADDR, value=1, gasprice=0,
                    payload=TradingAction(to=USERS[0], value=1, cross_chain=True)),
        poke_tx(GATEWAY_ADDR),
    ]


# Threshold 2 of 4 lets short random schedules reach quorum.  The last
# member names the menu picks that are votes.  Two witnesses' current votes on
# one subject reach quorum, and a stale vote is always rejected: it is a round
# behind its lane, and mostly touches the contract before it fails.
UNDO_CHAINS = {
    "side": (lambda: make_side(threshold=2)[0], _side_menu, (0, 1)),
    "token": (lambda: make_token(threshold=2)[0], _token_menu, (1, 3)),
    "native": (lambda: make_native(threshold=2)[0], _native_menu, (0, 2)),
}

INTENT = st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 3), st.booleans())


def histories(contract) -> list[History]:
    """Every history a contract holds, its lanes' and multisig's included."""
    holders = [contract, *contract.lanes()]
    if isinstance(getattr(contract, "multisig", None), Multisig):
        holders.append(contract.multisig)
    return [v for holder in holders for v in vars(holder).values() if isinstance(v, History)]


def assert_matches_replay(chain, build, seen):
    """``chain`` equals the replay of its blocks on a fresh ``build()``.

    ``seen`` gathers every item any of the chain's histories has held after
    a step.  Each history answers membership for exactly its items among
    them, so a truncation by a rollback or a reorg leaves no stale member.
    """
    oracle = replay(build(), chain)
    # The cached texts are those a fresh encoding gives.
    assert chain.head_text() == codec.canonical_dumps(chain.head.hash)
    assert chain.state_text() == codec.canonical_dumps(oracle.state_digest())
    assert [b.hash for b in chain.blocks] == [b.hash for b in oracle.blocks]
    assert [b.events for b in chain.blocks] == [b.events for b in oracle.blocks]
    assert chain.event_heights == [b.height for b in chain.blocks if b.events]
    by_contract = {}
    for b in chain.blocks:
        for contract in dict.fromkeys(ev.contract for ev in b.events):
            by_contract.setdefault(contract, []).append(b.height)
    assert {c: hs for c, hs in chain.contract_event_heights.items() if hs} == by_contract
    assert list(chain.accounts.items()) == list(oracle.accounts.items())
    assert chain.state_digest() == oracle.state_digest()
    for addr, live in chain.contracts.items():
        twin = oracle.contracts[addr]
        assert [(lane.round, lane.tallies, lane.executed, lane.paid, lane.unsafe)
                for lane in live.lanes()] \
            == [(lane.round, lane.tallies, lane.executed, lane.paid, lane.unsafe)
                for lane in twin.lanes()]
        if isinstance(live, ConsensusGateway):
            # Its lanes share one paid-origin history through every rollback and reorg.
            assert len({id(lane.paid) for lane in live.lanes()}) == 1
        assert vars(live) == vars(twin)
        for history in histories(live):
            seen.update(history)
            assert {item for item in seen if item in history} == set(history)


@pytest.mark.parametrize("kind", sorted(UNDO_CHAINS))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rollbacks_and_reorgs_match_full_replay(kind, data):
    """Votes, deposits, owner actions and rejected transactions, mixed with
    reorgs of any depth up to the height, leave exactly the state, lanes,
    paid origins and block hashes that replaying the surviving blocks builds,
    and an event index that names exactly the blocks holding events.  Some
    blocks reject two or more transactions after their first ones, and some
    rollbacks and reorgs cut back a history that held items before the
    undone blocks."""
    build, menu, vote_picks = UNDO_CHAINS[kind]
    vote = st.tuples(st.sampled_from(vote_picks), st.integers(0, 3), st.integers(0, 3))
    chain = build()
    now = 0
    seen: set = set()

    def draw_txs():
        """A block's transactions, and the stale votes among them."""
        # Two witnesses' current votes on one subject reach the threshold of 2,
        # so lanes execute often, and later undos cut back histories that
        # already held items before the undone blocks.
        txs = [menu(chain, (a + i) % 4, b, False)[pick]
               for pick, a, b in data.draw(st.lists(vote, max_size=2)) for i in (0, 1)]
        txs += [menu(chain, a, b, stale)[pick]
                for pick, a, b, stale in data.draw(st.lists(INTENT, max_size=5))]
        stale_votes = []
        if data.draw(st.booleans()):
            picks = data.draw(st.lists(vote, min_size=2, max_size=3))
            stale_votes = [menu(chain, a, b, True)[pick] for pick, a, b in picks]
            txs += stale_votes + [menu(chain, a, b, stale)[pick]
                                  for pick, a, b, stale in data.draw(st.lists(INTENT, max_size=2))]
        return txs, stale_votes

    for _ in range(data.draw(st.integers(1, 10))):
        now += data.draw(st.integers(0, 30))
        if chain.height and data.draw(st.booleans()):
            depth = data.draw(st.integers(0, chain.height))
            dropped = chain.blocks[chain.height - depth + 1:]
            replacement = []
            for i in range(data.draw(st.integers(0, depth + 1))):
                kept = [*dropped[i].transactions] if i < depth and data.draw(st.booleans()) else []
                replacement.append(kept + draw_txs()[0])
            chain.reorg(depth, replacement, now=now)
        else:
            txs, stale_votes = draw_txs()
            _, rejections = chain.apply_block(txs, now=now)
            assert {r.tx for r in rejections} >= set(stale_votes)
        assert_matches_replay(chain, build, seen)


# Per chain kind: the lane two witnesses' votes execute in, witness w's vote
# on the i-th batch (in round i), and a transaction refused after it journaled
# a contract.
CUT_BACK = {
    "side": (lambda chain: chain.contracts[RELAY_ADDR].stream,
             lambda w, i: relay_tx(WIT_S[w], RELAY_ADDR, INBOUND,
                                   [entry(USERS[i], 40, height=i)], round_no=i),
             _owner(OWNER1, BANK_ADDR, "add_relay", RELAY_ADDR)),
    "token": (lambda chain: chain.contracts[BRIDGE_ADDR].out_stream,
              lambda w, i: relay_tx(WIT_T[w], BRIDGE_ADDR, OUTBOUND,
                                    [entry(USERS[i], 10, height=i, chain=SIDE_ID)], round_no=i),
              request_tx(attach=50)),
    "native": (lambda chain: chain.contracts[GATEWAY_ADDR].streams[INBOUND],
               lambda w, i: relay_tx(WIT_S[w], GATEWAY_ADDR, INBOUND,
                                     [entry(USERS[i], 40, height=i)], round_no=i),
               _owner(OWNER1, TRADING_ADDR, "authorize_gateway", GATEWAY_ADDR, gasprice=1)),
}


@pytest.mark.parametrize("kind", sorted(UNDO_CHAINS))
def test_a_rollback_and_a_reorg_each_cut_a_history_back_to_its_older_item(kind):
    """The cut the drawn examples above may not reach, made on purpose: a
    rejection rollback and a reorg each cut a lane's executed history from
    two items back to one, and the chain matches a full replay after each."""
    build = UNDO_CHAINS[kind][0]
    lane_of, vote, refused = CUT_BACK[kind]
    chain, seen = build(), set()
    chain.apply_block([vote(0, 0), vote(1, 0)], now=1)
    first = list(lane_of(chain).executed)
    assert len(first) == 1
    # The refusal restores the block's start, one executed subject, and the
    # two votes before it execute the second subject again.
    _, rejections = chain.apply_block([vote(0, 1), vote(1, 1), refused], now=2)
    assert [r.tx for r in rejections] == [refused]
    assert list(lane_of(chain).executed)[:1] == first and len(lane_of(chain).executed) == 2
    assert_matches_replay(chain, build, seen)
    chain.reorg(1, [[]], now=3)
    assert list(lane_of(chain).executed) == first
    assert_matches_replay(chain, build, seen)


def test_a_deep_copied_gateway_shares_one_paid_history_of_its_own():
    chain, gateway, _ = make_native(threshold=2)
    entries = [entry(USERS[0], 40)]
    chain.apply_block(votes(WIT_S[:2], GATEWAY_ADDR, INBOUND, entries))
    twin = copy.deepcopy(gateway)
    assert vars(twin) == vars(gateway) and len(twin.streams[INBOUND].paid) == 1
    assert len({id(lane.paid) for lane in twin.lanes()}) == 1
    assert twin.streams[INBOUND].paid is not gateway.streams[INBOUND].paid
    assert twin.streams[INBOUND].executed is not gateway.streams[INBOUND].executed


def test_contracts_keep_identity_across_rollback_and_reorg():
    chain, vault, relay, bank = make_side()
    user = Address.from_label("side-user")
    entries = [entry(user, 10)]
    # The stranger's vote is rejected after the first vote touched the relay.
    chain.apply_block([relay_tx(WIT_S[0], RELAY_ADDR, INBOUND, entries),
                       relay_tx(STRANGER, RELAY_ADDR, INBOUND, entries)])
    assert chain.contracts[RELAY_ADDR] is relay
    assert relay.stream.tallies[entries_subject(INBOUND, entries)].yes == {WIT_S[0]}
    chain.apply_block([relay_tx(WIT_S[i], RELAY_ADDR, INBOUND, entries) for i in (1, 2)])
    assert bank.balance == BAL_BANK - 10 and relay.stream.round == 1
    chain.reorg(1, [[]], now=0)
    assert chain.contracts[RELAY_ADDR] is relay and chain.contracts[BANK_ADDR] is bank
    assert chain.contracts[VAULT_ADDR] is vault
    assert bank.balance == BAL_BANK and relay.stream.round == 0
    assert relay.stream.tallies[entries_subject(INBOUND, entries)].yes == {WIT_S[0]}
    assert user not in chain.accounts
