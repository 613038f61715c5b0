"""Slotted value records.

plqstab's result classes (LP and QP outcomes, faces, verdicts, reports,
probe records) are plain classes whose `__slots__` name their fields in
order, once.  `Record` gives them, from the slots, what a dataclass
would generate: a constructor, equality between instances of one class
with equal fields, and the repr `Name(field=value, ...)`.  It generates
no code, so importing a record class costs no `exec`, and the
`dataclasses` module, with `inspect` and `ast` behind it, is never
loaded.

The constructor binds positional arguments to the slots in order and
keyword arguments by name.  A field left out takes its value from the
class's `_defaults` dict (the trailing fields that have defaults); an
unknown, repeated or missing field, or a positional argument too many,
raises TypeError, as a generated `__init__` would.  Fields are set
through `set_field`, which is `object.__setattr__`, so the constructor
also fills a `FrozenRecord`.

`FrozenRecord` also hashes the field tuple, as a frozen dataclass does,
and refuses assignment and deletion.  A plain `Record` is mutable and,
having `__eq__`, unhashable.

`GrownRecords` is the list of records that a lazy scan reaches, grown
from one source under one lock and read by position, so threads can
share it: the active sets of `qp.StrictQpSolver` and the stationary
families of `enlp._CopositivityForm`.
"""

from __future__ import annotations

import threading

__all__ = ["FrozenRecord", "GrownRecords", "Record"]

set_field = object.__setattr__


class Record:
    """Constructor, equality and repr over `__slots__`."""

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        cls = type(self).__name__
        if len(args) > len(names):
            raise TypeError("%s() takes %d positional arguments but %d were "
                            "given" % (cls, len(names), len(args)))
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError("%s() got multiple values for argument %r"
                                % (cls, name))
            set_field(self, name, value)
        defaults = self._defaults
        bound = 0
        for name in names[len(args):]:
            if name in kwargs:
                set_field(self, name, kwargs[name])
                bound += 1
            elif name in defaults:
                set_field(self, name, defaults[name])
            else:
                raise TypeError("%s() missing required argument %r"
                                % (cls, name))
        if bound != len(kwargs):
            raise TypeError("%s() got an unexpected keyword argument %r"
                            % (cls, next(k for k in kwargs if k not in names)))

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


class GrownRecords:
    """Records in source order, each made once, when a scan first reaches it.

    `scan(source)` yields the records reached so far, then appends each
    next item of the source's iterator under the lock as the caller reads
    on; a None item ends the source.  `source` is a factory, called once,
    under the lock, by the first scan that needs an item, and every later
    scan draws from the iterator it made.  A scan reads by position, so
    one paused while another appended reads on through what was appended.
    """

    __slots__ = ("_items", "_unreached", "_lock")

    def __init__(self):
        self._items = []
        self._unreached = None
        self._lock = threading.Lock()

    def scan(self, source):
        items, i = self._items, 0
        while True:
            if i == len(items):
                with self._lock:
                    if i == len(items):
                        if self._unreached is None:
                            self._unreached = source()
                        item = next(self._unreached, None)
                        if item is None:
                            return
                        items.append(item)
            yield items[i]
            i += 1
