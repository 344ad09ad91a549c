"""Plain record classes, written in place of dataclasses.

The package defines no dataclasses: decorating a class generates and
compiles its methods at import, about 1 ms a class, and `dataclasses`
itself loads `inspect`.  A record names its fields in `_fields` and sets
them in its own `__init__`; equality, hashing and repr read them there.
A frozen record sets its fields with `object.__setattr__`, as assignment
and deletion raise `dataclasses.FrozenInstanceError` (imported only then).
"""

from __future__ import annotations


class Record:
    """Value equality over `_fields` between instances of one class, and a
    dataclass-style repr; unhashable, as the fields may change."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """A record whose fields are set once, in `__init__`; hashed by value."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
