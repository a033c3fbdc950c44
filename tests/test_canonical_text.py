"""The canonical text of every value kind, pinned apart from its derivation.

Each expected text is written out by hand, so a change to how ``codec.Encoded``
derives keys (a lost ``"from"`` alias, a missing ``"type"`` tag) fails here
even where every text would still agree with its own ``canonical()``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plain_json
from bridgesim import codec, trace
from bridgesim.chain import (
    Address, Chain, ChainKind, Confirm, Event, EventTopic, IoTRecord, MultisigAction,
    RegistrationRequest, TradingAction, Transaction, TransferEntry, Transferring, UserTransfer,
)

A = Address(bytes(range(20)))
B = Address(bytes(range(20, 40)))
D = bytes(range(32))
A_TEXT = '"0x000102030405060708090a0b0c0d0e0f10111213"'
B_TEXT = '"0x1415161718191a1b1c1d1e1f2021222324252627"'
D_TEXT = '"0x000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"'
ENTRY = TransferEntry(A, 7, 2, B, 50)
ENTRY_TEXT = (f'{{"origin_chain":{A_TEXT},"origin_height":7,"origin_seq":2,'
              f'"to":{B_TEXT},"value":50}}')


def test_registration_request_text():
    assert RegistrationRequest(A, D, 1000, B).text() == (
        f'{{"balance":1000,"chain_id":{A_TEXT},"genesis_hash":{D_TEXT},'
        f'"side_creator":{B_TEXT},"type":"registration_request"}}')


def test_confirm_text():
    assert Confirm(A, D, True).text() == (
        f'{{"chain_id":{A_TEXT},"subject":{D_TEXT},"type":"confirm","verdict":true}}')


def test_transferring_text():
    assert Transferring("inbound", D, (ENTRY,)).text() == (
        f'{{"direction":"inbound","entries":[{ENTRY_TEXT}],"subject":{D_TEXT},'
        f'"type":"transferring"}}')


def test_user_transfer_text():
    assert UserTransfer(B).text() == f'{{"dest":{B_TEXT},"type":"user_transfer"}}'
    assert UserTransfer().text() == '{"dest":null,"type":"user_transfer"}'


def test_iot_record_text():
    assert IoTRecord('té "1"').text() == '{"data":"t\\u00e9 \\"1\\"","type":"iot_record"}'


def test_multisig_action_text():
    assert MultisigAction("add_relay", (B, 3, None, False)).text() == (
        f'{{"action":"add_relay","args":[{B_TEXT},3,null,false],"type":"multisig_action"}}')


def test_trading_action_text():
    assert TradingAction(B, 9, cross_chain=True).text() == (
        f'{{"cross_chain":true,"to":{B_TEXT},"type":"trading_action","value":9}}')


def test_transfer_entry_text():
    assert ENTRY.text() == ENTRY_TEXT


def test_transaction_text():
    assert Transaction(A, B, 5, 1, UserTransfer(None), round=3).text() == (
        f'{{"from":{A_TEXT},"gasprice":1,"payload":{{"dest":null,"type":"user_transfer"}},'
        f'"round":3,"to":{B_TEXT},"value":5}}')


def test_event_text():
    event = Event(A, EventTopic.ASSETS_LOCKED,
                  {"from": A, "amount": 5, "subject": D, "ok": False, "entries": (ENTRY,)},
                  4, 1, 2)
    assert event.text() == (
        f'{{"contract":{A_TEXT},"height":4,"payload":{{"amount":5,"entries":[{ENTRY_TEXT}],'
        f'"from":{A_TEXT},"ok":false,"subject":{D_TEXT}}},"seq":2,"topic":"AssetsLocked",'
        f'"tx_index":1}}')


def test_an_empty_block_hash_and_record():
    """An empty block is hashed, and its record written, from a template of
    its own; both are the texts of the plain block and record."""
    chain = Chain(A, ChainKind.TOKEN, {"Chain_ID": A}, 0)
    chain.apply_block([])
    block, _ = chain.apply_block([])
    parent = chain.blocks[1]
    assert block.hash == codec.digest(
        {"height": 2, "parent_hash": parent.hash, "transactions": []})
    assert block.hash == block.compute_hash()
    assert trace.block_payload(chain, []) == (
        f'{{"events":[],"hash":"0x{block.hash.hex()}","height":2,"rejected":[],'
        f'"state":"0x{chain.state_digest().hex()}","txs":[]}}')


@pytest.mark.parametrize("undo_depth", [None, 2])
def test_a_sealed_empty_block_is_what_the_general_encoder_writes(undo_depth):
    """``Chain.seal_empty`` and ``TraceWriter.empty_block`` hash and write an
    empty block from templates of their own.  At every height, before and
    after a block with a transaction and a reorg, the hash is the one
    ``Block.compute_hash`` and the plain block give, and the line is the one
    ``record`` writes for ``block_payload``, the ``_BLOCK`` shape with empty
    lists.  A chain with an undo depth keeps no older undo record."""
    chain = Chain(A, ChainKind.TOKEN, {"Chain_ID": A}, 100, {B: 100}, undo_depth=undo_depth)
    chain.seal_genesis()
    fused, general = trace.TraceWriter(), trace.TraceWriter()
    pay = Transaction(B, A, 5, 1, UserTransfer(None))

    def seal(tick):
        texts = chain.seal_empty(tick)
        block = chain.head
        assert block.hash == block.compute_hash() == codec.digest(
            {"height": block.height, "parent_hash": block.parent_hash, "transactions": []})
        assert texts == (block.height, codec.canonical_dumps(block.hash), chain.state_text())
        fused.empty_block(tick, str(A), *texts)
        general.record(tick, "block", str(A), trace.block_payload(chain, []))
        assert fused.lines[-1] == general.lines[-1]
        if undo_depth is not None:
            assert all(chain.height - height < undo_depth for height in chain._undo)

    for tick in range(1, 4):
        seal(tick)
    chain.apply_block([pay], now=4)
    general.record(4, "block", str(A), trace.block_payload(chain, []))
    fused.record(4, "block", str(A), trace.block_payload(chain, []))
    for tick in range(5, 8):
        seal(tick)
    chain.reorg(2, [[pay], []], now=8)
    assert chain.head.transactions == ()
    for tick in range(8, 11):
        seal(tick)
    assert chain.height == 10 and fused.lines == general.lines


# -- an event's text is the text block records were encoded with ---------------

TEXTS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
LEAVES = st.one_of(
    st.integers(), TEXTS, st.booleans(), st.none(), st.binary(max_size=8),
    st.binary(min_size=20, max_size=20).map(Address),
    st.builds(TransferEntry, st.just(A), st.integers(), st.integers(), st.just(B),
              st.integers()),
)
VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(TEXTS, inner, max_size=3),
), max_leaves=8)
EVENTS = st.builds(Event, st.binary(min_size=20, max_size=20).map(Address),
                   st.sampled_from(EventTopic), st.dictionaries(TEXTS, VALUES, max_size=5),
                   st.integers(min_value=0), st.integers(min_value=0),
                   st.integers(min_value=0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(EVENTS)
def test_event_text_is_the_trace_encoders_text(event):
    assert event.text() == plain_json.dumps(event)
