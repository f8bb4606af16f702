"""Immutable records: the value type behind every report and verdict.

A subclass lists its fields, in order, in ``__slots__`` and the defaults
of a trailing run of them in ``_defaults``.  ``Record`` then gives it
positional or keyword construction, a ``__post_init__`` hook for
validation, field-wise ``==``, ``hash`` and ``repr``, and ``replace``.
Unlike ``dataclasses`` this builds no code per class, so defining a record
costs no more than defining any class, and importing this module loads
nothing.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes at most "
                            f"{len(names)} arguments, got {len(args)}")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{type(self).__name__} got multiple "
                                f"values for {name!r}")
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} missing {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected "
                            f"fields {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validation hook, run after every field is set."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def replace(self, **changes):
        """A copy with the given fields changed (``__post_init__`` runs
        again)."""
        values = [changes.pop(name, getattr(self, name))
                  for name in self.__slots__]
        return type(self)(*values, **changes)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
