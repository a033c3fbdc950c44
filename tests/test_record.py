"""The declared-field records (``bridgesim.record``) and what importing the
package loads."""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import ClassVar

import pytest

from bridgesim.record import FrozenInstanceError, field, frozen_guard, record

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter without ``site``, so only what bridgesim imports
    # counts, not what this process or an installed ``.pth`` file holds.
    code = ("import json, sys; import bridgesim.cli, bridgesim.simnet, bridgesim.scenario; "
            "print(json.dumps(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert json.loads(out) == []


@record(frozen=True)
class Point:
    x: int
    y: int = 0
    ORIGIN: ClassVar[str] = "not a field"


@record
class Box:
    name: str
    items: list = field(default_factory=list)
    label: str = field(init=False)
    size: int = field(init=False, default_factory=lambda: 7)

    def __post_init__(self) -> None:
        self.label = self.name.upper()


class TestFrozen:
    def test_assignment_and_deletion_are_refused(self):
        p = Point(1, 2)
        assert type(p).__setattr__ is frozen_guard
        with pytest.raises(FrozenInstanceError):
            p.x = 3
        with pytest.raises(FrozenInstanceError):
            p.z = 3
        with pytest.raises(FrozenInstanceError):
            del p.y
        assert isinstance(FrozenInstanceError(), AttributeError)
        assert (p.x, p.y) == (1, 2)

    def test_equality_and_hash_are_by_value(self):
        assert Point(1, 2) == Point(x=1, y=2) and Point(1) == Point(1, 0)
        assert Point(1, 2) != Point(2, 1) and Point(1, 2) != (1, 2)
        assert hash(Point(1, 2)) == hash(Point(1, 2)) == hash((1, 2))
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2

    def test_class_variables_are_not_fields(self):
        assert Point.__record_fields__ == ("x", "y")
        assert Point.ORIGIN == "not a field"
        with pytest.raises(TypeError):
            Point(1, 2, "three")


class TestMutable:
    def test_each_instance_gets_a_fresh_default(self):
        first, second = Box("a"), Box("b")
        first.items.append(1)
        assert second.items == [] and first.items is not second.items
        given = [9]
        assert Box("c", given).items is given

    def test_init_false_fields_are_set_after_init(self):
        box = Box("crate")
        assert (box.label, box.size) == ("CRATE", 7)
        with pytest.raises(TypeError):
            Box("crate", [], "LABEL")

    def test_equality_is_by_value_and_there_is_no_hash(self):
        assert Box("a") == Box("a") and Box("a") != Box("b")
        assert Box.__hash__ is None
        with pytest.raises(TypeError):
            hash(Box("a"))

    def test_the_repr_names_every_field(self):
        assert repr(Box("a", [1])) == "Box(name='a', items=[1], label='A', size=7)"
        assert repr(Point(1)) == "Point(x=1, y=0)"


@pytest.mark.parametrize("default", [[], {}, set()])
def test_a_mutable_default_is_refused(default):
    with pytest.raises(ValueError, match="mutable default"):
        @record
        class Shared:
            values: object = default


def test_slots_leave_no_instance_dict():
    @record(slots=True)
    class Slim:
        a: int
        b: tuple = ()

    slim = Slim(1)
    assert Slim.__slots__ == ("a", "b") and not hasattr(slim, "__dict__")
    assert (slim.a, slim.b) == (1, ()) and slim == Slim(1, ())
    slim.b = (2,)
    assert Slim.__qualname__.endswith("<locals>.Slim")
    assert repr(slim) == Slim.__qualname__ + "(a=1, b=(2,))"
