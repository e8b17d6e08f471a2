"""The base of the package's immutable value types.

Each value type is a hand-written ``__slots__`` class that behaves as the
frozen dataclass it would otherwise be, without ``dataclasses``, whose
import and per-class code generation cost every process that imports the
package.  ``__match_args__`` names the fields, in constructor order, and
the methods here read those fields, as a frozen dataclass's generated ones
do:

* ``==`` compares the field tuples with an instance of the same class only,
  and returns ``NotImplemented`` for anything else;
* ``hash`` hashes the field tuple, so a field holding a dict makes the
  instance unhashable;
* ``repr`` is ``Class(field=value, ...)``;
* assignment and deletion raise ``AttributeError``, so each ``__init__``
  sets its fields through the slot descriptors that ``setters`` returns;
* ``__reduce__`` rebuilds through ``__init__`` from the fields, so copy,
  deepcopy and pickle work despite that refusal and rerun its checks.

A field outside ``__match_args__`` (a slot the constructor computes) is
outside all of these.
"""

from __future__ import annotations

from typing import Callable


class Value:
    __slots__ = ()
    __match_args__: tuple[str, ...]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({body})"


def setters(cls: type) -> list[Callable[[object, object], None]]:
    """The ``__set__`` of each slot of ``cls``, in ``__slots__`` order."""
    return [cls.__dict__[name].__set__ for name in cls.__slots__]
