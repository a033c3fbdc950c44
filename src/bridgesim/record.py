"""Declared-field records: the model's value and state classes, built as
dataclasses (PEP 557) would be for the options used here, without importing
``dataclasses`` (which loads ``inspect`` and compiles each method on its own).
"""

from __future__ import annotations

from typing import Any

_NOTHING = object()  # no default; also the default of a ``default_factory`` parameter


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen value."""


def frozen_guard(self: Any, name: str, value: Any = None) -> None:
    """The ``__setattr__`` and ``__delattr__`` of a frozen value."""
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


class field:
    """A field with a ``default_factory`` per instance, or not in ``__init__``."""

    def __init__(self, *, default_factory: Any = None, init: bool = True) -> None:
        self.default_factory, self.init = default_factory, init


def _values(self: Any) -> tuple:
    return tuple([getattr(self, name) for name in self.__record_fields__])


def _eq(self: Any, other: Any) -> Any:
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _repr(self: Any) -> str:
    return type(self).__qualname__ + "(" + ", ".join(
        [f"{name}={getattr(self, name)!r}" for name in self.__record_fields__]) + ")"


def record(cls: Any = None, /, *, frozen: bool = False, slots: bool = False) -> Any:
    """``@record`` or ``@record(frozen=True)``: the fields are the class's own
    non-``ClassVar`` annotations (``__record_fields__``), its attributes (or a
    ``field``) their defaults; a list, dict or set default is refused.  Unless
    the class defines them, it gets ``__init__`` (compiled with one ``exec``;
    then ``__post_init__``), field ``__eq__``, ``__hash__`` (None unless frozen),
    ``Name(a=1)`` ``__repr__``, and when frozen ``frozen_guard``.  ``slots=True``
    makes the fields the ``__slots__``."""
    if cls is None:  # @record(...)
        return lambda cls: record(cls, frozen=frozen, slots=slots)
    names = tuple(name for name, kind in cls.__annotations__.items()
                  if not str(kind).startswith(("ClassVar", "typing.ClassVar")))
    ns: dict[str, Any] = {"__set": object.__setattr__, "__nothing": _NOTHING}
    params, body = ["self"], []
    for name in names:
        default, value = cls.__dict__.get(name, _NOTHING), name
        if isinstance(default, field):
            delattr(cls, name)
            make = ns["__make_" + name] = default.default_factory
            if default.init:
                params.append(name if make is None else name + "=__nothing")
            if make is not None:
                value = f"__make_{name}()" + (
                    f" if {name} is __nothing else {name}" if default.init else "")
            elif not default.init:
                continue
        elif isinstance(default, (list, dict, set)):
            raise ValueError(f"mutable default for field {name}: use default_factory")
        else:
            ns["__default_" + name] = default
            params.append(name if default is _NOTHING else f"{name}=__default_{name}")
        body.append(f"__set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n " + "\n ".join(body or ["pass"]), ns)
    methods = {"__init__": ns["__init__"], "__eq__": _eq, "__repr__": _repr,
               "__hash__": (lambda self: hash(_values(self))) if frozen else None}
    if frozen:
        methods.update(__setattr__=frozen_guard, __delattr__=frozen_guard)
    for attr, method in methods.items():
        if attr not in cls.__dict__:
            setattr(cls, attr, method)
    cls.__record_fields__ = names
    if slots:
        members = {key: value for key, value in cls.__dict__.items()
                   if key not in (*names, "__dict__", "__weakref__")}
        members.update(__slots__=names, __qualname__=cls.__qualname__)
        cls = type(cls)(cls.__name__, cls.__bases__, members)
    return cls
