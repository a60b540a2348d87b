"""Slots records: value types the kernel builds once per event.

A frozen ``@dataclass`` builds each instance through one
``object.__setattr__`` call per field, and it carries a ``__dict__``.
That is most of what an :class:`~repro.core.event.Event` costs to make.
A ``__slots__`` class with an explicit ``__init__`` stores its fields
directly.  :class:`Record` gives such a class the rest of what the
dataclass gave: ``==``, ``hash``, ``repr`` and pickling, all derived
from ``__slots__`` through one :func:`operator.attrgetter`.  A pickle
holds the class and the field tuple, no per-field names.

Records are immutable by convention only: no field is written after
``__init__`` (a ``__setattr__`` guard would cost what the slots save).
``tests/test_records.py`` scans the package source for such writes.
Ordering, where a record has one, stays its own.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, Tuple


class Record:
    """Base of a slots value type whose fields are its ``__slots__``.

    A subclass declares ``__slots__`` (two or more field names, in
    constructor order) and an ``__init__`` that takes them positionally
    in that order; equality, hashing, ``repr`` and pickling follow.
    """

    __slots__ = ()

    #: Field names, in constructor order (set per subclass).
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__slots__)
        #: ``_values(record)`` is the field tuple, read at C level.
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> Any:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        return type(self), self._values(self)

    def __getstate__(self) -> Dict[str, Any]:
        # Pickling goes through __reduce__; this mapping is what content
        # hashing (repro.vhdl.artifact.canonical) reads, and it is the
        # instance dict the dataclass form had, so digests do not move.
        return dict(zip(self._fields, self._values(self)))
