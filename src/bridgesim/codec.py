"""Canonical byte serialization and content hashing.

The canonical form is UTF-8 JSON with lexicographically sorted keys, no
insignificant whitespace, integers in decimal, and byte fields rendered as
lowercase hex with a ``0x`` prefix.  It is the input to every content digest
in the system (genesis hashes, block hashes, vote subjects) and the on-disk
format of genesis files, so two values are equal exactly when their canonical
bytes are equal.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

# Digest algorithm used for every content hash; recorded in trace headers so
# runs remain comparable if it is ever changed.
HASH_ALGORITHM = "sha256"
DIGEST_SIZE = 32


class SerializationError(ValueError):
    """Value cannot be put into canonical form (e.g. floats, arbitrary objects)."""


def to_plain(value: Any) -> Any:
    """Reduce a value to plain JSON types, hex-encoding byte strings.

    Accepts dict / list / tuple / str / bool / int / None / bytes and objects
    exposing ``canonical()``.  Floats are rejected: canonical content must be
    exact.
    """
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise SerializationError("floats are not canonical; use integer units")
    if isinstance(value, bytes):
        return "0x" + value.hex()
    if hasattr(value, "canonical"):
        return to_plain(value.canonical())
    if isinstance(value, dict):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise SerializationError(f"non-string key {key!r}")
            out[key] = to_plain(value[key])
        return out
    if isinstance(value, (list, tuple)):
        return [to_plain(item) for item in value]
    raise SerializationError(f"cannot canonicalize {type(value).__name__}")


def canonical_dumps(value: Any) -> str:
    return json.dumps(to_plain(value), sort_keys=True, separators=(",", ":"))


def canonical_bytes(value: Any) -> bytes:
    return canonical_dumps(value).encode("utf-8")


def digest(value: Any) -> bytes:
    """32-byte content digest of the canonical serialization."""
    return hashlib.sha256(canonical_bytes(value)).digest()


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
