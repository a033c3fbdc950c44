"""The one reader of input objects: scenario files and genesis files.

An object is read from its table, which maps each field to its reader, or to
``(reader, default)`` when the field is optional.  A reader is a callable
``(collector, raw value, path) -> value`` that reports every fault it finds
as a diagnostic naming the field's path, and returns None when the value is
unusable.  An unknown field is reported but leaves the object usable.
Reading never writes into the input.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from . import codec
from .chain import Address
from .record import record


@record(frozen=True)
class Diagnostic:
    field: str
    message: str
    level: str = "error"  # "error" blocks the run; "warning" does not

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


class Collector:
    """Reads objects field by field and collects what is wrong with them."""

    def __init__(self) -> None:
        self.diags: list[Diagnostic] = []

    def err(self, field_name: str, message: str) -> None:
        self.diags.append(Diagnostic(field_name, message))

    def warn(self, field_name: str, message: str) -> None:
        self.diags.append(Diagnostic(field_name, message, level="warning"))

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diags if d.level == "error"]

    def obj(self, raw: Any, at: str, table: dict | Callable[[dict], dict]) -> dict | None:
        """The fields of the object ``raw`` at path ``at``, each read by its
        reader in ``table`` (or in the table ``table(raw)`` chooses); None if
        a required field is missing or any read failed."""
        if not isinstance(raw, dict):
            self.err(at or "<root>", "expected an object")
            return None
        if callable(table):
            table = table(raw)
        prefix = f"{at}." if at else ""
        out = {}
        ok = True
        for key, spec in table.items():
            read, default = spec if isinstance(spec, tuple) else (spec, _REQUIRED)
            if key in raw:
                out[key] = read(self, raw[key], prefix + key)
                ok = ok and out[key] is not None
            elif default is _REQUIRED:
                self.err(prefix + key, "required field is missing")
                ok = False
            else:
                out[key] = default
        for key in sorted(set(raw) - set(table)):
            self.err(prefix + key, "unknown field")
        return out if ok else None


_REQUIRED = object()

Read = Callable[[Collector, Any, str], Any]


def nested(table: dict | Callable[[dict], dict], build: Callable[..., Any]) -> Read:
    """Reader of an object: its fields, read from ``table``, passed to ``build``."""
    def read(col: Collector, raw: Any, at: str) -> Any:
        fields = col.obj(raw, at, table)
        return None if fields is None else build(**fields)
    return read


def addr(col: Collector, raw: Any, at: str) -> Address | None:
    if not isinstance(raw, str):
        col.err(at, f"expected 0x-hex address string, got {raw!r}")
        return None
    try:
        return Address.from_hex(raw)
    except codec.SerializationError as exc:
        col.err(at, str(exc))
        return None


def uint(minimum: int = 0) -> Read:
    def read(col: Collector, raw: Any, at: str) -> int | None:
        if isinstance(raw, bool) or not isinstance(raw, int):
            col.err(at, f"expected integer, got {raw!r}")
            return None
        if raw < minimum:
            col.err(at, f"must be >= {minimum}")
            return None
        return raw
    return read


def digest(col: Collector, raw: Any, at: str) -> bytes | None:
    try:
        return codec.parse_hex(raw, length=codec.DIGEST_SIZE)
    except codec.SerializationError as exc:
        col.err(at, str(exc))
        return None


def text(col: Collector, raw: Any, at: str) -> str | None:
    if not isinstance(raw, str):
        col.err(at, "expected a string")
        return None
    return raw


def probability(col: Collector, raw: Any, at: str) -> float | None:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not 0 <= raw <= 1:
        col.err(at, "expected a probability in [0, 1]")
        return None
    return float(raw)


def one_of(options: Iterable[str], convert: Callable[[str], Any] = str) -> Read:
    """Reader of one of the strings ``options``, passed through ``convert``."""
    options = tuple(options)

    def read(col: Collector, raw: Any, at: str) -> Any:
        if isinstance(raw, str) and raw in options:
            return convert(raw)
        col.err(at, f"must be one of {', '.join(map(repr, options))}; got {raw!r}")
        return None
    return read


def list_of(item: Read, non_empty: bool = False, unique: str | None = None) -> Read:
    """Reader of a list whose elements ``item`` reads, at ``<path>[i]``;
    ``unique`` names what a repeated element would duplicate."""
    def read(col: Collector, raw: Any, at: str) -> tuple | None:
        if not isinstance(raw, list) or (non_empty and not raw):
            col.err(at, f"expected a {'non-empty ' if non_empty else ''}list, got {raw!r}")
            return None
        out = tuple(item(col, element, f"{at}[{i}]") for i, element in enumerate(raw))
        if None in out:
            return None
        if unique and len(set(out)) != len(out):
            col.err(at, f"duplicate {unique}")
            return None
        return out
    return read


def mapping(key: Read, value: Read) -> Read:
    """Reader of an object with free keys: ``{key: value}``, each at ``<path>.<key>``."""
    def read(col: Collector, raw: Any, at: str) -> dict | None:
        if not isinstance(raw, dict):
            col.err(at, "expected an object")
            return None
        out = {key(col, k, f"{at}.{k}"): value(col, v, f"{at}.{k}") for k, v in raw.items()}
        return None if None in out or None in out.values() else out
    return read


owner_list = list_of(addr, non_empty=True, unique="owner address")
