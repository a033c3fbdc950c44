"""Witness behavior: registration validation, window scanning, relay votes."""

import itertools

from bridgesim import witness as witness_mod
from bridgesim.chain import Address, Chain, ChainKind, TransferEntry
from bridgesim.contracts import INBOUND, OUTBOUND, entries_subject
from bridgesim.genesis import genesis_hash, parse_genesis
from bridgesim.witness import (
    Behavior,
    RelayCursor,
    WitnessConfig,
    WitnessNode,
    form_batch,
    registration_conditions,
    validate_registration,
    validate_registration_nativegas,
)

TOKEN_ID = Address.from_label("token")
OTHER_ID = Address.from_label("another-chain")


def gasless_genesis(chain_label="side", bal_resv=990, bal_bank=999010, n_wit=4):
    return parse_genesis({
        "Chain_ID": str(Address.from_label(chain_label)),
        "SC_Register": str(Address.from_label(f"{chain_label}-vault")),
        "Bal_Resv": bal_resv,
        "SC_Inter": str(Address.from_label(f"{chain_label}-relay")),
        "SC_Bank": str(Address.from_label(f"{chain_label}-bank")),
        "Bal_Bank": bal_bank,
        "Wit_Addr_List": [str(Address.from_label(f"{chain_label}-w{i}"))
                          for i in range(n_wit)],
    })


class TestRegistrationValidation:
    def inputs(self):
        genesis = gasless_genesis()
        return {
            "genesis": genesis,
            "side_height": 0,
            "claimed_hash": genesis_hash(genesis),
            "claimed_balance": genesis.total_reserved(),
            "claimed_chain_id": genesis.chain_id,
            "registered_ids": set(),
            "token_chain_id": TOKEN_ID,
        }

    def test_all_conditions_met_accepts(self):
        assert validate_registration(**self.inputs()) is True

    def test_nonzero_height_rejects(self):
        kw = self.inputs()
        kw["side_height"] = 3
        assert validate_registration(**kw) is False

    def test_chain_id_equal_to_token_chain_rejects(self):
        genesis = gasless_genesis()
        object.__setattr__(genesis, "chain_id", TOKEN_ID)  # forged file
        assert validate_registration(
            genesis, 0, genesis_hash(genesis), genesis.total_reserved(),
            TOKEN_ID, set(), TOKEN_ID,
        ) is False

    def test_registered_id_rejects(self):
        kw = self.inputs()
        kw["registered_ids"] = {kw["claimed_chain_id"]}
        assert validate_registration(**kw) is False

    def test_hash_mismatch_rejects(self):
        kw = self.inputs()
        kw["claimed_hash"] = b"\x00" * 32
        assert validate_registration(**kw) is False

    def test_balance_mismatch_rejects(self):
        kw = self.inputs()
        kw["claimed_balance"] += 1
        assert validate_registration(**kw) is False

    def build_case(self, mask):
        """Construct inputs where condition i holds iff mask[i] is True.

        Conditions: hash, height, balance, id==file, id!=token, id not taken.
        """
        want_hash, want_height, want_balance, want_match, want_not_token, want_free = mask
        if want_not_token:
            claimed = Address.from_label("side")
        else:
            claimed = TOKEN_ID
        if want_match:
            file_id = claimed
        else:
            file_id = OTHER_ID
        genesis = gasless_genesis()
        object.__setattr__(genesis, "chain_id", file_id)
        claimed_hash = genesis_hash(genesis) if want_hash else b"\xab" * 32
        side_height = 0 if want_height else 2
        claimed_balance = genesis.total_reserved() + (0 if want_balance else 5)
        registered = set() if want_free else {claimed}
        return dict(
            genesis=genesis,
            side_height=side_height,
            claimed_hash=claimed_hash,
            claimed_balance=claimed_balance,
            claimed_chain_id=claimed,
            registered_ids=registered,
            token_chain_id=TOKEN_ID,
        )

    def test_exhaustive_condition_toggle_matches_conjunction(self):
        for mask in itertools.product([True, False], repeat=6):
            kw = self.build_case(mask)
            conditions = registration_conditions(**kw)
            assert conditions == list(mask), f"toggles not independent for {mask}"
            assert validate_registration(**kw) is all(mask)


class TestNativeGasValidation:
    def test_existing_tall_chain_is_fine(self):
        cid = Address.from_label("native")
        assert validate_registration_nativegas(cid, cid, set(), TOKEN_ID) is True

    def test_duplicate_chain_id_rejects(self):
        cid = Address.from_label("native")
        assert validate_registration_nativegas(cid, cid, {cid}, TOKEN_ID) is False

    def test_token_chain_id_rejects(self):
        assert validate_registration_nativegas(TOKEN_ID, TOKEN_ID, set(), TOKEN_ID) is False

    def test_unreachable_chain_rejects(self):
        cid = Address.from_label("native")
        assert validate_registration_nativegas(cid, None, set(), TOKEN_ID) is False

    def test_id_mismatch_rejects(self):
        cid = Address.from_label("native")
        assert validate_registration_nativegas(cid, OTHER_ID, set(), TOKEN_ID) is False


def chain_of_height(height, chain_id=TOKEN_ID):
    chain = Chain(chain_id, ChainKind.TOKEN, {"Chain_ID": chain_id}, 100,
                  {Address.from_label("x"): 100})
    chain.seal_genesis()
    for _ in range(height):
        chain.apply_block([])
    return chain


class TestFormBatch:
    def test_first_window_is_anchored_two_windows_behind_head(self):
        chain = chain_of_height(25)
        cursor = RelayCursor(omega=6)
        _, window = form_batch(cursor, chain, set())
        assert window == (14, 19)

    def test_first_window_waits_for_depth(self):
        chain = chain_of_height(10)
        cursor = RelayCursor(omega=6)
        assert form_batch(cursor, chain, set()) is None

    def test_next_window_gated_on_head_advancing_a_full_window(self):
        chain = chain_of_height(25)
        cursor = RelayCursor(omega=6)
        form_batch(cursor, chain, set())  # consumes [14, 19]
        while chain.height < 30:
            chain.apply_block([])
        assert form_batch(cursor, chain, set()) is None  # 30 < 25 + 6
        chain.apply_block([])  # head 31
        _, window = form_batch(cursor, chain, set())
        assert window == (20, 25)

    def test_windows_are_contiguous_and_disjoint(self):
        chain = chain_of_height(60)
        cursor = RelayCursor(omega=3)
        while form_batch(cursor, chain, set()) is not None:
            pass
        for (s1, e1), (s2, e2) in zip(cursor.history, cursor.history[1:]):
            assert s2 == e1 + 1
        assert cursor.history[0][0] >= 0

    def test_omega_zero_scans_to_head_immediately(self):
        chain = chain_of_height(5)
        cursor = RelayCursor(omega=0)
        _, window = form_batch(cursor, chain, set())
        assert window == (0, 5)
        assert form_batch(cursor, chain, set()) is None
        chain.apply_block([])
        _, window = form_batch(cursor, chain, set())
        assert window == (6, 6)

    def test_events_filtered_to_watched_contracts(self):
        from bridgesim.contracts import ChainIdRegistry

        chain = Chain(TOKEN_ID, ChainKind.TOKEN, {"Chain_ID": TOKEN_ID}, 100,
                      {Address.from_label("x"): 100})
        registry = ChainIdRegistry(Address.from_label("reg"),
                                   (Address.from_label("o1"),), 1)
        registry.authorized.add(Address.from_label("caller"))
        chain.register_contract(Address.from_label("reg"), registry)
        chain.seal_genesis()
        for _ in range(8):
            chain.apply_block([])
        cursor_watching = RelayCursor(omega=2)
        events, _ = form_batch(cursor_watching, chain, {Address.from_label("reg")})
        assert events == []


def witness_config(behavior=Behavior.HONEST, variant="gasless"):
    return WitnessConfig(
        name="w0",
        token_address=Address.from_label("w0-token"),
        side_address=Address.from_label("w0-side"),
        side_chain_id=Address.from_label("side"),
        variant=variant,
        bridge_head=Address.from_label("bridge-head"),
        registry=Address.from_label("registry"),
        vault=Address.from_label("side-vault"),
        relay=Address.from_label("side-relay"),
        bank=Address.from_label("side-bank"),
        gateway=None,
        omega_token=2,
        omega_side=1,
        timeout=50,
        sleep=10,
        behavior=behavior,
    )


def sample_entries():
    return (
        TransferEntry(
            origin_chain=TOKEN_ID, origin_height=5, origin_seq=0,
            to=Address.from_label("dest"), value=70,
        ),
    )


class TestRelayAndVote:
    def test_honest_witness_builds_one_bound_transaction(self):
        node = WitnessNode(witness_config(), TOKEN_ID, seed=1)
        txs = node.relay_and_vote(sample_entries(), node.config.relay, INBOUND, 0)
        assert len(txs) == 1
        tx = txs[0]
        assert tx.round == 0
        assert tx.gasprice == 0
        assert tx.payload.subject == entries_subject(INBOUND, tx.payload.entries)
        assert tx.payload.entries[0].value == 70
        assert tx.sender == node.config.side_address

    def test_token_chain_targets_use_token_address(self):
        node = WitnessNode(witness_config(), TOKEN_ID, seed=1)
        [tx] = node.relay_and_vote(sample_entries(), node.config.bridge_head, OUTBOUND, 0)
        assert tx.sender == node.config.token_address

    def test_crashed_witness_submits_nothing(self):
        node = WitnessNode(witness_config(Behavior.CRASHED), TOKEN_ID, seed=1)
        assert node.relay_and_vote(sample_entries(), node.config.relay, INBOUND, 0) == []

    def test_reject_all_witness_never_relays(self):
        node = WitnessNode(witness_config(Behavior.BYZANTINE_REJECT_ALL), TOKEN_ID, seed=1)
        assert node.relay_and_vote(sample_entries(), node.config.relay, INBOUND, 0) == []

    def test_equivocator_corrupts_content_consistently(self):
        node = WitnessNode(witness_config(Behavior.EQUIVOCATING), TOKEN_ID, seed=1)
        [tx1] = node.relay_and_vote(sample_entries(), node.config.relay, INBOUND, 0)
        [tx2] = node.relay_and_vote(sample_entries(), node.config.relay, INBOUND, 0)
        honest_subject = entries_subject(INBOUND, sample_entries())
        # each submission lies, the lie is internally consistent, and two
        # submissions do not pool with each other or with honest votes
        for tx in (tx1, tx2):
            assert tx.payload.subject == entries_subject(INBOUND, tx.payload.entries)
            assert tx.payload.subject != honest_subject
        assert tx1.payload.subject != tx2.payload.subject

    def test_a_bound_subject_is_reused_unless_an_entry_is_altered(self, monkeypatch):
        bound = entries_subject(INBOUND, sample_entries())
        hashed = []

        def counted(direction, entries):
            hashed.append(entries)
            return entries_subject(direction, entries)

        monkeypatch.setattr(witness_mod, "entries_subject", counted)
        honest = WitnessNode(witness_config(), TOKEN_ID, seed=1)
        [tx] = honest.relay_and_vote(sample_entries(), honest.config.relay, INBOUND, 0, bound)
        assert tx.payload.subject == bound and hashed == []
        liar = WitnessNode(witness_config(Behavior.EQUIVOCATING), TOKEN_ID, seed=1)
        [tx] = liar.relay_and_vote(sample_entries(), liar.config.relay, INBOUND, 0, bound)
        assert hashed == [tx.payload.entries]
        assert tx.payload.subject == entries_subject(INBOUND, tx.payload.entries) != bound


class TestApproveAllVerdict:
    def test_approve_all_confirms_an_invalid_registration(self):
        node = WitnessNode(witness_config(Behavior.BYZANTINE_APPROVE_ALL), TOKEN_ID, seed=1)

        class View:
            def registry_ids(self):
                return set()

        payload = {
            "chain_id": Address.from_label("side"),
            "genesis_hash": b"\x00" * 32,
            "balance": 1,  # nonsense claim
        }
        assert node._decide_registration(View(), payload) is True

    def test_reject_all_refuses_a_valid_registration(self):
        node = WitnessNode(witness_config(Behavior.BYZANTINE_REJECT_ALL), TOKEN_ID, seed=1)

        class View:
            def registry_ids(self):
                return set()

        genesis = gasless_genesis()
        payload = {
            "chain_id": genesis.chain_id,
            "genesis_hash": genesis_hash(genesis),
            "balance": genesis.total_reserved(),
        }
        assert node._decide_registration(View(), payload) is False
