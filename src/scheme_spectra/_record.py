"""A frozen base for the library's value records.

Each record class annotates its fields in order in its own body and writes
a plain ``__init__`` that validates its arguments and stores them with
``object.__setattr__``.  The base derives ``__repr__``, ``__eq__`` and
``__hash__`` from that field list, as ``dataclass(frozen=True)`` would, but
without generating and compiling source for each class at import.
"""

from __future__ import annotations

from operator import attrgetter
from types import FunctionType


def _methods(fields: tuple[str, ...]) -> tuple[FunctionType, FunctionType]:
    # __eq__ and __hash__ for one record class.  With one field they load it
    # directly, as a dataclass's methods do: the code below names it
    # ``_field``, and the copy made for the class renames that to the field.
    # With more fields they read the field tuple with one C-level call.
    # Each class gets its own code objects either way, so that the
    # interpreter's per-code attribute caches see one class only.
    key = attrgetter(*fields)
    if len(fields) == 1:

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return (self._field,) == (other._field,)
            return NotImplemented

        def __hash__(self):
            return hash((self._field,))

    else:

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

    def own(f: FunctionType) -> FunctionType:
        names = tuple(fields[0] if n == "_field" else n for n in f.__code__.co_names)
        code = f.__code__.replace(co_names=names)
        return FunctionType(code, f.__globals__, f.__name__, None, f.__closure__)

    return own(__eq__), own(__hash__)


class Record:
    __slots__ = ()

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # The fields are the class's own annotations, as for a dataclass;
        # a subclass that annotates none keeps its base's methods.
        annotations = cls.__dict__.get("__annotations__")
        if not annotations:
            return
        fields = cls._fields = tuple(annotations)
        cls.__match_args__ = fields
        cls.__eq__, cls.__hash__ = _methods(fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
