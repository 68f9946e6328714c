"""The base class of the package's value records.

A record is a ``__slots__`` class whose ``__slots__`` name its fields in
constructor order; its ``__init__`` validates and stores them with
`setfield`.  `Record` gives it what `dataclasses` would: ``==`` between
records of the same class, comparing fields in order; the hash of the
tuple of fields; the repr ``Name(field=value, ...)``; copying and
pickling, which call the constructor again; and immutability, since
assigning or deleting a field raises AttributeError.  A mutable record
sets ``__setattr__`` and ``__delattr__`` back to ``object``'s and
``__hash__`` to None.

Hand-written rather than decorated: importing `dataclasses` pulls in
`inspect`, and decorating execs a generated function per method, both
on every start of a process.
"""

from operator import attrgetter

__all__ = ["Record", "setfield"]

# stores a field past a frozen record's __setattr__; for __init__ only
setfield = object.__setattr__


class Record:
    """Value equality, hashing, repr, copy and pickle over the fields in ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)
        # the fields as one tuple, even for a single field
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields(self)
