"""The contract of every frozen result record: a subclass of
``leafspace._record.Record`` behaves as the frozen dataclass it replaced,
except that it is built without the ``dataclasses`` import."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import leafspace
from leafspace._record import Record


def _records():
    found = []
    for info in pkgutil.iter_modules(leafspace.__path__):
        module = importlib.import_module(f"leafspace.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
                  and obj.__module__ == module.__name__]
    return sorted(found, key=lambda cls: cls.__name__)


RECORDS = _records()


def test_the_walk_finds_every_record():
    assert {cls.__name__ for cls in RECORDS} == {
        "FixedPoints", "PeriodGroup", "Exact", "Bracket", "ActionSpec", "Certificate",
        "OrbitGapReport", "CompressionResult", "GapReport", "LedgerRow", "LedgerRun",
        "StallTrace", "ShadowReport",
    }


def _values(cls, tag=""):
    return tuple(f"{name}{tag}" for name in cls.__slots__)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_construction_by_position_and_keyword(self, cls):
        values = _values(cls)
        x = cls(*values)
        assert tuple(getattr(x, name) for name in cls.__slots__) == values
        assert cls(**dict(zip(cls.__slots__, values))) == x
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, "extra")
        with pytest.raises(TypeError):
            cls(*values, extra="extra")

    def test_equality_and_hash_by_type_and_fields(self, cls):
        values = _values(cls)
        x = cls(*values)
        assert x == cls(*values) and hash(x) == hash(cls(*values))
        assert x != cls(*values[:-1], "other")
        twin = type("Twin", (Record,), {"__slots__": cls.__slots__})
        assert x != twin(*values) and twin(*values) != x

    def test_repr_names_type_and_fields(self, cls):
        values = _values(cls)
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, values))
        assert repr(cls(*values)) == f"{cls.__name__}({fields})"

    def test_assignment_and_deletion_raise(self, cls):
        x = cls(*_values(cls))
        name = cls.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(x, name, "new")
        with pytest.raises(AttributeError):
            setattr(x, "extra", "new")
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) == name

    def test_copy_deepcopy_and_pickle_round_trip(self, cls):
        x = cls(*_values(cls))
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is cls and y == x

    def test_is_not_a_tuple(self, cls):
        assert not isinstance(cls(*_values(cls)), tuple)
