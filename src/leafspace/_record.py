"""Frozen result records without the ``dataclasses`` import.

A subclass names its fields in ``__slots__``.  It gets an ``__init__`` that
takes the fields by position or keyword, ``==`` and ``hash`` by type and
fields, the ``Name(field=value, ...)`` repr, pickling and copying through
``__reduce__``, and no assignment or deletion after construction.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = cls.__slots__
        # A straight-line __init__, as dataclasses writes one: each field set
        # through its slot's own descriptor, past the frozen __setattr__.
        setters = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
        body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
        ns = {}
        exec(f"def __init__(self, {', '.join(names)}):{body}", setters, ns)
        init = ns["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # Rebuilt through __init__: the default state of a slotted object is
        # restored by setattr, which a frozen record refuses.
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
