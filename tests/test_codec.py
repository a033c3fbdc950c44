"""Canonical serialization and digests."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plain_json
from bridgesim import codec, trace
from bridgesim.chain import (
    Address, Block, Confirm, EventTopic, IoTRecord, MultisigAction, RegistrationRequest,
    TradingAction, Transaction, TransferEntry, Transferring, UserTransfer,
)
from bridgesim.contracts import INBOUND, OUTBOUND, REGISTRATION, entries_subject


def test_canonical_sorts_keys_and_strips_whitespace():
    out = codec.canonical_dumps({"b": 1, "a": {"z": 2, "y": 3}})
    assert out == '{"a":{"y":3,"z":2},"b":1}'


def test_bytes_render_as_prefixed_lowercase_hex():
    assert codec.canonical_dumps({"k": b"\x00\xff"}) == '{"k":"0x00ff"}'


def test_address_objects_canonicalize():
    addr = Address.from_label("alice")
    assert codec.canonical_dumps(addr) == f'"{addr}"'


def test_floats_rejected():
    with pytest.raises(codec.SerializationError):
        codec.canonical_dumps({"x": 1.5})


def test_non_string_keys_rejected():
    with pytest.raises(codec.SerializationError):
        codec.canonical_dumps({1: "x"})


def test_an_object_with_only_a_canonical_method_is_rejected():
    """Only ``Encoded`` values are encoded as themselves; any other object,
    such as a genesis spec, is passed through its ``canonical()`` first."""

    class Canonical:
        def canonical(self):
            return {"a": 1}

    with pytest.raises(codec.SerializationError):
        codec.canonical_dumps(Canonical())
    with pytest.raises(codec.SerializationError):
        codec.canonical_dumps({"spec": Canonical()})


@pytest.mark.parametrize("value", [[{"x": [2.0]}], (1, 0.5), {"a": {None: 1}}, [{(1,): 2}]])
def test_nested_floats_and_non_string_keys_rejected(value):
    with pytest.raises(codec.SerializationError):
        codec.canonical_dumps(value)


def test_trace_lines_encode_leaves_like_the_canonical_form():
    alice = Address.from_label("alice")
    tx = Transaction(alice, alice, 3, 1, UserTransfer(dest=alice))
    value = {"b": b"\x01", "a": alice, "t": (1, [tx]), "e": EventTopic.ASSETS_LOCKED,
             "n": None, "ok": True}
    assert codec.canonical_dumps(value) == plain_json.dumps(value)
    writer = trace.TraceWriter()
    writer.record(3, "action", "", value)
    assert writer.lines == [
        f'{{"chain":"","kind":"action","payload":{plain_json.dumps(value)},"seq":1,"tick":3}}']
    # Only the header keeps floats; a payload is canonical or is refused.
    assert trace.dumps({"rate": 0.25}) == '{"rate":0.25}'
    for payload in ({"s": {1, 2}}, {"rate": 0.25}):
        with pytest.raises(codec.SerializationError):
            writer.record(3, "action", "", payload)


def test_digest_deterministic_and_sensitive():
    a = codec.digest({"v": 1})
    assert a == codec.digest({"v": 1})
    assert a != codec.digest({"v": 2})
    assert len(a) == 32


def test_parse_hex_roundtrip():
    raw = bytes(range(20))
    assert codec.parse_hex("0x" + raw.hex(), length=20) == raw


@pytest.mark.parametrize("bad", ["00ff", "0xGG", "0xABCD", "0x0f0", 7])
def test_parse_hex_rejects_malformed(bad):
    with pytest.raises(codec.SerializationError):
        codec.parse_hex(bad)


def test_parse_hex_length_check():
    with pytest.raises(codec.SerializationError):
        codec.parse_hex("0x0011", length=3)


# -- cached text: every composed text equals the one encoder's ------------------

ADDRESSES = st.binary(min_size=20, max_size=20).map(Address)
DIGESTS = st.binary(min_size=32, max_size=32)
# Non-ASCII and control characters must come out escaped, as json writes them.
TEXTS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
DIRECTIONS = st.one_of(st.sampled_from([REGISTRATION, INBOUND, OUTBOUND]), TEXTS)
ENTRIES = st.builds(TransferEntry, ADDRESSES, st.integers(), st.integers(), ADDRESSES,
                    st.integers())
ENTRY_TUPLES = st.lists(ENTRIES, max_size=4).map(tuple)
PAYLOADS = st.one_of(
    st.builds(RegistrationRequest, ADDRESSES, DIGESTS, st.integers(), ADDRESSES),
    st.builds(Confirm, ADDRESSES, DIGESTS, st.booleans()),
    st.builds(Transferring, DIRECTIONS, DIGESTS, ENTRY_TUPLES),
    st.builds(UserTransfer, st.none() | ADDRESSES),
    st.builds(IoTRecord, TEXTS),
    st.builds(MultisigAction, TEXTS, st.lists(
        st.one_of(TEXTS, st.integers(), st.booleans(), st.none(), ADDRESSES), max_size=3,
    ).map(tuple)),
    st.builds(TradingAction, ADDRESSES, st.integers(), st.booleans()),
)
TRANSACTIONS = st.builds(Transaction, ADDRESSES, ADDRESSES, st.integers(), st.integers(),
                         PAYLOADS, st.none() | st.integers())
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def assert_text_is_cached_canonical(value):
    """``text()`` is the encoder's text of ``canonical()``; the cache changes
    neither equality nor hashing, and survives a pickle round trip."""
    fresh = pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
    assert value.text() == codec.canonical_dumps(value.canonical())
    assert value.text().isascii()
    assert fresh == value and hash(fresh) == hash(value)
    again = pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
    assert again == value and hash(again) == hash(value)
    assert again.text() == fresh.text() == value.text()


@FUZZ
@given(ENTRIES)
def test_entry_text_is_the_canonical_text(entry):
    assert_text_is_cached_canonical(entry)


@FUZZ
@given(PAYLOADS)
def test_payload_text_is_the_canonical_text(payload):
    assert_text_is_cached_canonical(payload)


@FUZZ
@given(TRANSACTIONS)
def test_transaction_text_and_digest_are_the_canonical_ones(tx):
    assert_text_is_cached_canonical(tx)
    assert tx.digest() == codec.digest(tx.canonical())


@FUZZ
@given(DIRECTIONS, ENTRY_TUPLES)
def test_entries_subject_is_the_digest_of_the_plain_batch(direction, entries):
    plain = {"direction": direction, "entries": [e.canonical() for e in entries]}
    assert entries_subject(direction, entries) == codec.digest(plain)


@FUZZ
@given(st.integers(min_value=0), DIGESTS, st.lists(TRANSACTIONS, max_size=4))
def test_block_hash_is_the_digest_of_the_plain_block(height, parent, txs):
    block = Block(height=height, parent_hash=parent, transactions=txs)
    plain = {"height": height, "parent_hash": parent,
             "transactions": [tx.canonical() for tx in txs]}
    assert block.compute_hash() == codec.digest(plain)


def test_shape_joins_members_in_sorted_key_order():
    shape = codec.Shape("b", "a{", "c")
    assert shape.text("1", "[2]", '"x"') == '{"a{":[2],"b":1,"c":"x"}'


def test_a_fixed_member_keeps_its_text_in_sorted_key_order():
    shape = codec.Shape("b", "d", c="[]", a='{"x":"}"}')
    assert shape.text("1", "2") == '{"a":{"x":"}"},"b":1,"c":[],"d":2}'
