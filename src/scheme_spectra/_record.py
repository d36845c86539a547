"""A frozen base for the library's value records.

A record class annotates its fields in order, and that is the only place
they are named: its ``__init__`` validates its arguments and ends in one
``self._set(...)`` call.  ``__eq__``, ``__hash__`` and ``__repr__`` derive
from one tuple of the field values, as for ``dataclass(frozen=True)``, but
no source is generated and compiled for each class at import.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # The fields are the class's own annotations, as for a dataclass;
        # a subclass that annotates none keeps its base's.
        if annotations := cls.__dict__.get("__annotations__"):
            cls._fields = cls.__match_args__ = tuple(annotations)
            cls._get = attrgetter(*cls._fields)

    def _set(self, *values: object) -> None:
        # Store the values in field order; object.__setattr__ keeps CPython's
        # inline attribute values, so later reads stay fast.
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        values = self._get(self)  # a bare value when there is one field
        return (values,) if len(self._fields) == 1 else values

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
