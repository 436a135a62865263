"""trunclab.records against the stdlib dataclasses it replaces.

Twin classes, one built with ``dataclasses.dataclass`` and one with
``records.record`` from the same class body, must agree wherever trunclab's
output can depend on them: equality, hashes (set and dict order over
records), reprs, defaults, ``__post_init__`` and the frozen refusals.
"""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunclab import records
from trunclab.frames import OpenInterval
from trunclab.gba import Primed
from trunclab.rat import NEG_INF, POS_INF
from trunclab.spaces import space


def _body(field):
    class Point:
        x: object
        y: object = 0
        tags: list = field(default_factory=list)

        def __post_init__(self):
            object.__setattr__(self, "seen", (self.x, self.y))

    return Point


def _twins(frozen):
    """(stdlib class, record class) built from one class body, same qualname."""
    return (dataclasses.dataclass(frozen=frozen)(_body(dataclasses.field)),
            records.record(frozen=frozen)(_body(records.field)))


FROZEN, MUTABLE = _twins(True), _twins(False)
VALUES = st.one_of(st.integers(-3, 3), st.sampled_from(["a", "b", ""]),
                   st.fractions(max_denominator=4).filter(lambda q: abs(q) < 3),
                   st.tuples(st.integers(0, 2), st.integers(0, 2)), st.none())


@settings(max_examples=150, deadline=None)
@given(st.tuples(VALUES, VALUES), st.tuples(VALUES, VALUES), st.booleans())
def test_equality_hash_and_repr_agree_with_dataclasses(p, q, frozen):
    std, rec = _twins(frozen)
    a, b, c, d = std(*p), std(*q), rec(*p), rec(*q)
    assert (a == b) == (c == d) and (a != b) == (c != d)
    assert repr(a) == repr(c) and repr(b) == repr(d)
    assert a.seen == c.seen == p  # __post_init__ ran after the fields were set
    assert c.__eq__(p) is NotImplemented and a.__eq__(p) is NotImplemented
    assert c != p and a != p and (a == c) is False and (c == a) is False
    if frozen:
        assert hash(std(*p, (1,))) == hash(rec(*p, (1,))) == hash((*p, (1,)))
    for obj in (a, c):  # mutable: unhashable; frozen: the list field is
        with pytest.raises(TypeError):
            hash(obj)


@pytest.mark.parametrize("std,rec", [FROZEN, MUTABLE], ids=["frozen", "mutable"])
def test_defaults_and_fresh_factories(std, rec):
    for cls in (std, rec):
        one, two = cls(1), cls(1, y=2)
        assert (one.y, two.y, one.tags) == (0, 2, [])
        assert one.tags is not two.tags  # a fresh default_factory() each time
        assert cls(1, tags=[3]).tags == [3]
        assert "tags" not in vars(cls) and cls.y == 0  # as dataclasses leaves them
        with pytest.raises(TypeError):
            cls()
    assert repr(std(1)) == repr(rec(1))
    assert repr(rec(Fraction(1, 2), "s")).endswith("Point(x=Fraction(1, 2), y='s', tags=[])")


def test_frozen_assignment_and_deletion_are_refused():
    std, rec = FROZEN
    for obj, error in ((std(1), dataclasses.FrozenInstanceError),
                       (rec(1), records.FrozenRecordError)):
        with pytest.raises(error):
            obj.x = 2
        with pytest.raises(error):
            obj.other = 2
        with pytest.raises(error):
            del obj.x
        assert obj.x == 1
    assert issubclass(records.FrozenRecordError, AttributeError)
    mutable = MUTABLE[1](1)
    mutable.x = 2
    del mutable.y
    assert mutable.x == 2 and mutable.y == 0  # the class default shows through


def _own_methods(decorate):
    class Tagged:
        name: str

        def __repr__(self):
            return f"<{self.name}>"

        def __eq__(self, other):
            return isinstance(other, Tagged) and other.name.lower() == self.name.lower()

        def __hash__(self):
            return hash(self.name.lower())

    return Tagged, decorate(Tagged)


@pytest.mark.parametrize("decorate", [dataclasses.dataclass(frozen=True),
                                      records.record(frozen=True),
                                      dataclasses.dataclass, records.record],
                         ids=["std-frozen", "record-frozen", "std", "record"])
def test_class_body_methods_survive(decorate):
    plain, cls = _own_methods(decorate)
    assert cls is plain
    a, b = cls("Ab"), cls("aB")
    assert repr(a) == "<Ab>" and a == b and hash(a) == hash(b) == hash("ab")


def test_body_eq_without_hash_matches_dataclasses():
    """A body __eq__ alone leaves __hash__ None: frozen gets the field hash."""
    for frozen in (True, False):
        made = []
        for decorate in (dataclasses.dataclass(frozen=frozen), records.record(frozen=frozen)):
            class Named:
                name: str

                def __eq__(self, other):
                    return self.name == getattr(other, "name", None)

            made.append(decorate(Named))
        std, rec = made
        if frozen:
            assert hash(std("a")) == hash(rec("a")) == hash(("a",))
        else:
            assert std.__hash__ is None and rec.__hash__ is None


def test_hot_records_hash_as_their_field_tuples():
    """Set and dict order over these records follows these hashes."""
    assert hash(Primed("a")) == hash(("a",))
    assert hash(Primed(frozenset({1}))) == hash((frozenset({1}),))
    x = space("1", "2")
    assert hash(x) == hash((frozenset({"1", "2", "*"}), "*"))
    half = Fraction(1, 2)
    for iv, fields in ((OpenInterval(0, half), (0, half)),
                       (OpenInterval(NEG_INF, half), (NEG_INF, half)),
                       (OpenInterval(half, POS_INF), (half, POS_INF))):
        assert hash(iv) == hash(fields)
        assert iv == OpenInterval(*fields) and iv != fields


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every trunclab process imports the CLI; dataclasses would bring in
    inspect, ast, dis and tokenize at start-up."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, trunclab.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
