"""Contract state machines: registration, quorums, multisig, the peg vaults."""

import random

import pytest

from bridgesim.chain import (
    Address,
    Chain,
    ChainKind,
    Confirm,
    EventTopic,
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
    bank = ReserveBank(BANK_ADDR, bal_bank, (OWNER1, OWNER2), 2,
                       authorized_relay=RELAY_ADDR)
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
    trading = TradingBook(TRADING_ADDR, SIDE_ID, (OWNER1, OWNER2), 2,
                          authorized_gateway=GATEWAY_ADDR)
    gateway = ConsensusGateway(GATEWAY_ADDR, TRADING_ADDR, tuple(WIT_S),
                               threshold, TIMEOUT)
    chain.register_contract(TRADING_ADDR, trading)
    chain.register_contract(GATEWAY_ADDR, gateway)
    chain.witness_exempt = set(WIT_S) | {OWNER1, OWNER2}
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


def relay_tx(sender, target, direction, entries, round_no=0, subject=None):
    entries = tuple(entries)
    subject = subject if subject is not None else entries_subject(direction, entries)
    return Transaction(
        sender=sender, to=target, value=0, gasprice=0, round=round_no,
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
                           payload=MultisigAction(action="authorize", args=(str(head),)))

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
            payload=MultisigAction(action="authorize", args=(str(BRIDGE_ADDR),)))
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
        from bridgesim.chain import ApplyContext
        from bridgesim.contracts import ExceedsCirculating

        chain, _, relay, bank = make_side()
        bound = relay.total_supply - bank.balance
        ctx = ApplyContext(chain, height=1, tx_index=0, events=[], now=0)
        with pytest.raises(ExceedsCirculating):
            relay.handle(ctx, self.outbound_tx(Address.from_label("side-user"),
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


def side_lane(make, addr, direction, stream_of):
    def build():
        chain, *contracts = make()
        entries = (entry(SIDE_CREATOR, BAL_RESV),)
        vote = lambda sender, round_no, subject=None: relay_tx(
            sender, addr, direction, entries, round_no, subject)
        return chain, stream_of(*contracts), vote, WIT_S[0], OWNER1
    return build


LANES = {
    "head_confirm": head_confirm_lane,
    "head_outbound": head_outbound_lane,
    "vault": side_lane(make_side, VAULT_ADDR, REGISTRATION, lambda vault, *_: vault.stream),
    "relay": side_lane(make_side, RELAY_ADDR, INBOUND, lambda _, relay, bank: relay.stream),
    "gateway": side_lane(make_native, GATEWAY_ADDR, INBOUND,
                         lambda gateway, _: gateway.streams[INBOUND]),
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
    assert block.events == []
    assert all(not t.voters() for t in stream.tallies.values())
    # the lane still takes a well-formed vote from the same witness
    _, rejections = chain.apply_block([vote(witness, stream.round)])
    assert rejections == []


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
    payload = results[0].payload
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
        bank.authorized_relay = None  # authorization withheld
        entries = [entry(Address.from_label("side-user"), 10)]
        _, rejections = chain.apply_block([relay_tx(WIT_S[i], RELAY_ADDR, INBOUND,
                                                    entries) for i in range(3)])
        # the quorum-completing vote fails closed: no bank movement at all
        assert bank.balance == BAL_BANK
        assert any("NotAuthorized" in r.reason for r in rejections)
        assert chain.balance(Address.from_label("side-user")) == 0

    def test_owner_multisig_installs_relay(self):
        chain, _, relay, bank = make_side()
        bank.authorized_relay = None
        add = lambda owner: Transaction(
            sender=owner, to=BANK_ADDR, value=0, gasprice=0,
            payload=MultisigAction(action="add_relay", args=(str(RELAY_ADDR),)))
        chain.apply_block([add(OWNER1)])
        assert bank.authorized_relay is None
        chain.apply_block([add(OWNER2)])
        assert bank.authorized_relay == RELAY_ADDR


class TestConsensusGateway:
    def test_inbound_credits_ledger_at_quorum(self):
        chain, gateway, trading = make_native()
        acct = Address.from_label("native-user")
        entries = [entry(acct, 100)]
        chain.apply_block([relay_tx(WIT_S[i], GATEWAY_ADDR, INBOUND, entries)
                           for i in range(3)])
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
