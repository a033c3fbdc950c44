"""Run traces: line-delimited canonical JSON, byte-stable across reruns.

Every record is one JSON object with the fields (tick, seq, kind, chain,
payload), keys sorted, no insignificant whitespace, so identical runs produce
identical bytes and any divergence is a meaningful difference.  The first line
is a header embedding the scenario itself, which is what makes a trace
self-replaying.
"""

from __future__ import annotations

import json

from . import codec

TRACE_FORMAT = 1

# One encoder for every trace line; ``codec.plain_leaf`` makes bytes and
# ``canonical()`` objects plain as the encoder reaches them.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=codec.plain_leaf)


def dumps(record: dict) -> str:
    """Canonical-ish JSON for trace lines; floats allowed (fault rates)."""
    return _ENCODER.encode(record)


class TraceWriter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self._seq = 0

    def header(self, scenario, threshold_override: int | None) -> None:
        self.lines.append(dumps({
            "tick": -1,
            "seq": 0,
            "kind": "header",
            "chain": "",
            "payload": {
                "format": TRACE_FORMAT,
                "hash_algorithm": codec.HASH_ALGORITHM,
                "scenario": scenario.raw,
                "threshold_override": threshold_override,
            },
        }))

    def record(self, tick: int, kind: str, chain: str, payload: dict) -> None:
        self._seq += 1
        self.lines.append(dumps({
            "tick": tick,
            "seq": self._seq,
            "kind": kind,
            "chain": chain,
            "payload": payload,
        }))


class TraceError(ValueError):
    pass


def read_trace(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise TraceError("trace file is empty")
    return lines


def header_of(lines: list[str]) -> dict:
    try:
        head = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceError(f"trace header is not JSON: {exc}") from exc
    if head.get("kind") != "header":
        raise TraceError("first trace line is not a header record")
    return head["payload"]


def first_divergence(recorded: list[str], regenerated: list[str]) -> dict | None:
    """None when byte-identical; otherwise the first differing line.

    When both lines are JSON records, the report also names the recorded
    record's ``kind`` and the dotted ``path`` of its first differing field,
    such as ``payload.events.0.payload.amount`` ("" when only the encoding
    differs).
    """
    for i in range(max(len(recorded), len(regenerated))):
        a = recorded[i] if i < len(recorded) else "<absent>"
        b = regenerated[i] if i < len(regenerated) else "<absent>"
        if a != b:
            report = {"line": i + 1, "recorded": a, "regenerated": b}
            try:
                a, b = json.loads(a), json.loads(b)
            except json.JSONDecodeError:
                return report
            if type(a) is dict and type(b) is dict:
                report.update(kind=a.get("kind"), path=".".join(_first_difference(a, b)))
            return report
    return None


def _first_difference(a, b) -> list[str]:
    """Keys and indexes down to the first field, in encoding order, where the
    plain values ``a`` and ``b`` differ."""
    if type(a) is list and type(b) is list:
        a, b = dict(enumerate(a)), dict(enumerate(b))
    if type(a) is not dict or type(b) is not dict:
        return []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b or dumps(a[key]) != dumps(b[key]):
            return [str(key), *_first_difference(a.get(key), b.get(key))]
    return []
