"""Canonical serialization and digests."""

import pytest

from bridgesim import codec, trace
from bridgesim.chain import Address, EventTopic, Transaction, UserTransfer


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


@pytest.mark.parametrize("value", [[{"x": [2.0]}], (1, 0.5), {"a": {None: 1}}, [{(1,): 2}]])
def test_nested_floats_and_non_string_keys_rejected(value):
    with pytest.raises(codec.SerializationError):
        codec.canonical_dumps(value)


def test_trace_lines_encode_leaves_like_the_canonical_form():
    alice = Address.from_label("alice")
    tx = Transaction(alice, alice, 3, 1, UserTransfer(dest=alice))
    value = {"b": b"\x01", "a": alice, "t": (1, [tx]), "e": EventTopic.ASSETS_LOCKED,
             "n": None, "ok": True}
    assert trace.dumps(value) == codec.canonical_dumps(value)
    assert trace.dumps({"rate": 0.25}) == '{"rate":0.25}'
    with pytest.raises(codec.SerializationError):
        trace.dumps({"s": {1, 2}})


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
