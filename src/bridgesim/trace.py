"""Run traces: line-delimited canonical JSON, byte-stable across reruns.

Every record is one JSON object with the fields (tick, seq, kind, chain,
payload), keys sorted, no insignificant whitespace, so identical runs produce
identical bytes and any divergence is a meaningful difference.  The first line
is a header embedding the scenario itself, which is what makes a trace
self-replaying.

Every payload is canonical text: joined from its members' texts, or
``codec.canonical_dumps`` of a dict.  Only the header goes through ``json``,
since a scenario may carry fault-rate floats.
"""

from __future__ import annotations

import json

from . import codec

TRACE_FORMAT = 1

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(record: dict) -> str:
    """Plain JSON in the canonical layout, floats allowed: the header's text,
    and the form in which parsed records are compared."""
    return _ENCODER.encode(record)


# Every line, and the payload of a block, invariant, submit, deliver or batch
# record, is joined from its members' texts: the bytes ``codec.canonical_dumps``
# gives the same record, without walking it.  A line is the head its (chain,
# kind) pair makes once, the payload, and the seq and tick, which sort after
# it; ``_quote`` is the escaper json applies to str values.
_HEAD = '{{"chain":{},"kind":{},"payload":'.format
_BLOCK = codec.Shape("height", "hash", "txs", "rejected", "events", "state")
_REJECTED = codec.Shape("tx", "reason")
_quote = json.encoder.encode_basestring_ascii


def block_payload(chain, rejections: list) -> str:
    """The text of the record of ``chain``'s head block: its height and hash,
    its transactions' digests, the rejections with their reasons, its events
    and the chain's state digest after it.  ``TraceWriter.empty_block``
    writes the record of a block that was offered no transaction."""
    block = chain.head
    txs, events = block.transactions, block.events
    return _BLOCK.text(
        int.__repr__(block.height), chain.head_text(),
        codec.array([tx.id_text() for tx in txs]) if txs else "[]",
        codec.array([_REJECTED.text(r.tx.id_text(), _quote(r.reason)) for r in rejections])
        if rejections else "[]",
        codec.array([ev.text() for ev in events]) if events else "[]",
        chain.state_text(),
    )


_SUBMIT = codec.Shape("witness", "tx", "payload", "round")
_DELIVER = codec.Shape("tx")
_BATCH = codec.Shape("witness", "window", "events")


def submit_payload(witness: str, tx) -> str:
    """The text of a witness's ``submit`` record: its name, the transaction's
    digest, payload tag and round."""
    return _SUBMIT.text(_quote(witness), tx.id_text(), _quote(tx.payload.TAG),
                        codec.canonical_dumps(tx.round))


def deliver_payload(tx) -> str:
    """The text of a ``deliver`` record: the transaction's digest."""
    return _DELIVER.text(tx.id_text())


def batch_payload(witness: str, window: tuple[int, int], count: int) -> str:
    """The text of a ``batch`` record: the witness, the window it read and
    how many events it held."""
    return _BATCH.text(_quote(witness), f"[{window[0]:d},{window[1]:d}]", int.__repr__(count))


_INVARIANTS = codec.Shape("final", "results")


def invariants_payload(final: bool, results: list) -> str:
    """The text of an ``invariant`` record's payload: whether the check is the
    run's final one, and each result's name, chain, verdict and details."""
    return _INVARIANTS.text("true" if final else "false",
                            codec.array([r.text() for r in results]))


class TraceWriter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self._seq = 0
        self._heads: dict[tuple[str, str], str] = {}
        self._empty_heads: dict[str, str] = {}  # chain -> an empty block line's start

    def _line(self, tick: int, seq: int, kind: str, chain: str, payload: str) -> None:
        head = self._heads.get((chain, kind))
        if head is None:
            head = self._heads[chain, kind] = _HEAD(_quote(chain), _quote(kind))
        self.lines.append(f'{head}{payload},"seq":{seq},"tick":{tick}}}')

    def empty_block(self, tick: int, chain: str, height: int, hash_text: str,
                    state: str) -> None:
        """Append the record of a block that was offered no transaction, from
        what ``Chain.seal_empty`` returns: the line ``record`` writes for
        ``block_payload`` of that block."""
        self._seq += 1
        head = self._empty_heads.get(chain)
        if head is None:
            head = self._empty_heads[chain] = \
                _HEAD(_quote(chain), '"block"') + '{"events":[],"hash":'
        self.lines.append(f'{head}{hash_text},"height":{height},"rejected":[],"state":{state},'
                          f'"txs":[]}},"seq":{self._seq},"tick":{tick}}}')

    def header(self, scenario, threshold_override: int | None) -> None:
        self._line(-1, 0, "header", "", dumps({
            "format": TRACE_FORMAT,
            "hash_algorithm": codec.HASH_ALGORITHM,
            "scenario": scenario.raw,
            "threshold_override": threshold_override,
        }))

    def record(self, tick: int, kind: str, chain: str, payload: dict | str) -> None:
        """Append one record; ``payload`` is a dict to encode, or the text
        ``block_payload`` or another joiner gave."""
        self._seq += 1
        self._line(tick, self._seq, kind, chain,
                   payload if type(payload) is str else codec.canonical_dumps(payload))


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
    if not isinstance(head, dict) or head.get("kind") != "header":
        raise TraceError("first trace line is not a header record")
    if not isinstance(head.get("payload"), dict):
        raise TraceError("trace header payload is not an object")
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
