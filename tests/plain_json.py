"""A reference encoder for the tests, written apart from ``codec``.

``json`` with a ``default`` hook of its own: byte strings become ``0x`` hex
and objects their ``canonical()`` form, which the encoder then walks in turn.
Tests compare the model's canonical texts with this encoder's, so a fault in
``codec.canonical_dumps`` cannot hide behind itself.
"""

import json


def _leaf(value):
    if isinstance(value, bytes):
        return "0x" + value.hex()
    if hasattr(value, "canonical"):
        return value.canonical()
    raise TypeError(f"no plain form for {type(value).__name__}")


dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_leaf).encode


def plain(value):
    """``value`` as plain JSON types, as the reference encoder writes it."""
    return json.loads(dumps(value))
