"""Immutable value records, the value semantics of a frozen dataclass.

A subclass names its fields in ``__slots__``.  ``Record`` gives it a
positional constructor that sets the fields in that order and then runs its
``__post_init__`` check; equality by fields between instances of the same
class only; the hash of the field tuple; ``Name(field=...)`` as repr; and
``AttributeError`` on assignment.  It keeps ``dataclasses`` off the import
path of the package, which would otherwise load ``inspect`` and ``ast`` at
start-up for five small classes.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    """Base of an immutable record whose fields are its ``__slots__``."""

    __slots__ = ()

    def __init__(self, *values):
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(fields)} fields, got {len(values)}"
            )
        for name, value in zip(fields, values):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a subclass raises here on an invalid value."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
