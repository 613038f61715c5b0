"""Slotted value records.

plqstab's result classes (LP and QP outcomes, faces, verdicts, reports,
probe records) are plain classes whose `__slots__` name their fields in
order, each with an explicit `__init__`.  `Record` gives them, from the
slots, what a dataclass would generate: equality between instances of
one class with equal fields, and the repr `Name(field=value, ...)`.  It
generates no code, so importing a record class costs no `exec`, and the
`dataclasses` module, with `inspect` and `ast` behind it, is never
loaded.

`FrozenRecord` also hashes the field tuple, as a frozen dataclass does,
and refuses assignment and deletion; its `__init__`s set their fields
through `set_field`, which is `object.__setattr__`.  A plain `Record` is
mutable and, having `__eq__`, unhashable.
"""

from __future__ import annotations

__all__ = ["FrozenRecord", "Record", "set_field"]

set_field = object.__setattr__


class Record:
    """Equality and repr over `__slots__`."""

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class FrozenRecord(Record):
    """A `Record` that hashes by its fields and cannot be assigned to."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a frozen %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a frozen %s"
                             % (name, type(self).__name__))
