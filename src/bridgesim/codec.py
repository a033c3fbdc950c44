"""Canonical byte serialization and content hashing.

The canonical form is UTF-8 JSON with lexicographically sorted keys, no
insignificant whitespace, integers in decimal, and byte fields rendered as
lowercase hex with a ``0x`` prefix.  It is the input to every content digest
in the system (genesis hashes, block hashes, vote subjects) and the on-disk
format of genesis files, so two values are equal exactly when their canonical
bytes are equal.

This module is the only place a value becomes text.  Inside the model values
stay typed (``Address``, ``bytes``, ``int``, tuples): transactions, event
payloads and contract state views alike.  They become text only where they
are encoded: ``canonical_dumps`` writes the text of every digest, genesis
file and trace payload.  ``json`` only reads input and writes the trace
header and the run summary, which hold plain JSON (the header keeps a
scenario's fault-rate floats, which have no canonical form).

A value class declares its fields once (``Encoded``): its canonical form and
its canonical text are both derived from its declared fields.  A value keeps
its text once it is computed, and a composite value's text is joined from its
members' texts (``Shape``, ``array``, ``mapping``), so such a value is
encoded once in its lifetime however often it is hashed again inside a block,
a batch, a vote subject or a trace record.  ``canonical_dumps`` of such a
value is its cached text, and of a list, tuple or dict the join of its
members' texts.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Any, ClassVar

# Digest algorithm used for every content hash; recorded in trace headers so
# runs remain comparable if it is ever changed.
HASH_ALGORITHM = "sha256"
DIGEST_SIZE = 32


class SerializationError(ValueError):
    """Value cannot be put into canonical form (e.g. floats, arbitrary objects)."""


# The escaper ``json`` applies to keys and str values.
_quote = json.encoder.encode_basestring_ascii


def canonical_dumps(value: Any) -> str:
    """The canonical text of a str, int, bool, None, bytes, list, tuple,
    str-keyed dict, ``Encoded`` value or object with ``canonical()``, nested;
    anything else, floats included, raises ``SerializationError``."""
    # The members of composite values come here one by one; an ``Encoded``
    # member is its cached text, not walked again.
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bytes:
        return '"0x' + value.hex() + '"'
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, Encoded):
        return value.text()
    if kind is tuple or kind is list:
        return array([canonical_dumps(item) for item in value])
    if kind is dict:
        try:
            return "{" + ",".join([_quote(key) + ":" + canonical_dumps(value[key])
                                   for key in sorted(value)]) + "}"
        except TypeError:  # a key that is not a str
            raise SerializationError(f"non-string key in {value!r}") from None
    if isinstance(value, str):  # a str enum
        return _quote(value)
    if isinstance(value, float):
        raise SerializationError("floats are not canonical; use integer units")
    if hasattr(value, "canonical"):
        return canonical_dumps(value.canonical())
    raise SerializationError(f"cannot canonicalize {type(value).__name__}")


def canonical_bytes(value: Any) -> bytes:
    return canonical_dumps(value).encode("utf-8")


def digest(value: Any) -> bytes:
    """32-byte content digest of the canonical serialization."""
    return hashlib.sha256(canonical_bytes(value)).digest()


def digest_text(text: str) -> bytes:
    """``digest`` of a value whose canonical text is ``text``."""
    return hashlib.sha256(text.encode("utf-8")).digest()


def array(texts: list[str]) -> str:
    """Canonical text of the list whose items have the canonical ``texts``."""
    return "[" + ",".join(texts) + "]"


def mapping(items: list[tuple[str, str]]) -> str:
    """Canonical text of the object whose (key text, value text) ``items``
    are given in sorted key order."""
    return "{" + ",".join([key + ":" + value for key, value in items]) + "}"


class Shape:
    """Canonical text of one kind of object, joined from its members' texts.

    ``text`` takes the members' canonical texts in the order the keys are
    given here.  The sorted key order the encoder would use is worked out
    once, when the shape is made, so joining a value costs one format call:
    ``text`` is the bound ``str.format`` of the shape's template.
    """

    def __init__(self, *keys: str) -> None:
        order = sorted(range(len(keys)), key=keys.__getitem__)
        members = (
            _quote(keys[i]).replace("{", "{{").replace("}", "}}") + ":{%d}" % i for i in order
        )
        self.text = ("{{" + ",".join(members) + "}}").format


class Encoded:
    """Mixin for frozen records whose canonical form is their declared fields.

    ``canonical()`` maps each field's key to its value: the key is the
    field's name, or the name the class's ``KEYS`` gives it, and a class with
    a ``TAG`` adds it under ``"type"``.  ``text()`` is the canonical text of
    that form, one ``Shape`` join of the members' ``canonical_dumps`` texts,
    computed on first use and cached beside the fields, so the record's
    equality and hashing do not see it.  The cache is sound only while the
    members do not change: a value's members must be immutable all the way
    down, or mutable members that the value's maker hands over and never
    changes again (an emitted event's payload).
    """

    TAG: ClassVar[str | None] = None
    KEYS: ClassVar[dict[str, str]] = {}

    def canonical(self) -> dict:
        names, keys, _ = _layout(type(self))
        plain = {} if self.TAG is None else {"type": self.TAG}
        plain.update(zip(keys, [self.__dict__[name] for name in names]))
        return plain

    def text(self) -> str:
        members = self.__dict__
        cached = members.get("_text")
        if cached is None:
            names, _, join = _layout(type(self))
            cached = members["_text"] = join(*[canonical_dumps(members[name]) for name in names])
        return cached


@functools.cache
def _layout(cls: type) -> tuple[tuple[str, ...], tuple[str, ...], Any]:
    """An ``Encoded`` class's field names, their keys, and the join of its
    members' texts (with the tag's text already in place)."""
    names = cls.__record_fields__
    keys = tuple(cls.KEYS.get(name, name) for name in names)
    if cls.TAG is None:
        return names, keys, Shape(*keys).text
    return names, keys, functools.partial(Shape("type", *keys).text, _quote(cls.TAG))


def parse_hex(text: str, *, length: int | None = None) -> bytes:
    """Parse a ``0x``-prefixed lowercase hex string, enforcing length if given."""
    if not isinstance(text, str) or not text.startswith("0x"):
        raise SerializationError(f"expected 0x-prefixed hex, got {text!r}")
    body = text[2:]
    if body.lower() != body:
        raise SerializationError(f"hex must be lowercase: {text!r}")
    try:
        raw = bytes.fromhex(body)
    except ValueError as exc:
        raise SerializationError(f"bad hex {text!r}") from exc
    if length is not None and len(raw) != length:
        raise SerializationError(f"expected {length} bytes, got {len(raw)} in {text!r}")
    return raw
