"""Exact closed integer intervals and normalized disjoint unions of them.

An ``Interval(lo, hi)`` denotes {k in Z : lo <= k <= hi} and is never
empty.  An ``IntervalSet`` keeps its parts sorted and *separated*
(gap of at least one integer between consecutive parts), so equal sets of
integers always have identical parts regardless of construction order,
and "number of parts" is well defined.  It stores them as one flat tuple
of integer bounds, ``bounds = (lo0, hi0, lo1, hi1, ...)``, which never
decreases (a one-integer part repeats its value); the ``Interval`` parts
are built from it on each read.

Only the constructor sorts and merges, so the union of two sets is the
constructor over both sets' parts, ``IntervalSet((*a, *b))``.  ``clip``
and ``complement_within`` build their bounds in order from an already
separated set and keep them without re-normalizing: clipping shrinks the
end parts, so the gaps between the survivors only widen, and the
complement's parts are the gaps between consecutive parts, so a nonempty
part lies between any two of them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import cycle
from operator import add, attrgetter

from ._value import Value, setters

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator


class Interval(Value):
    """Immutable closed integer interval [lo, hi].

    A value type (see ``_value``) with the behaviour of a frozen dataclass:
    equality and hash compare ``(lo, hi)`` with another ``Interval`` only, so
    ``Interval(1, 2) != (1, 2)``.  Intervals are not ordered: ``<`` raises
    ``TypeError``.
    """

    __slots__ = __match_args__ = ("lo", "hi")

    lo: int
    hi: int

    def __init__(self, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __contains__(self, g: int) -> bool:
        return self.lo <= g <= self.hi

    @property
    def count(self) -> int:
        return self.hi - self.lo + 1

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


_set_lo, _set_hi = setters(Interval)


class IntervalSet(Value):
    """Immutable normalized union of integer intervals.

    The parts are kept as flat integer bounds, ``bounds = (lo0, hi0, lo1,
    hi1, ...)``.  ``parts``, the tuple of ``Interval``s that the constructor
    takes and iteration gives, is built from the bounds on each read.
    A value type (see ``_value``) for assignment, deletion, copy and
    pickle, which rebuilds through the constructor from ``parts``.
    Equality holds with any ``IntervalSet`` of the same bounds, the hash is
    that of the bounds, and the repr lists each part as ``[lo,hi]``.
    """

    __slots__ = ("bounds",)
    __match_args__ = ("parts",)

    bounds: tuple[int, ...]

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        _set_bounds(self, _normalize(intervals))

    @classmethod
    def _separated(cls, bounds: tuple[int, ...]) -> "IntervalSet":
        """The set with flat ``bounds``, which must already be sorted and separated."""
        s = object.__new__(cls)
        _set_bounds(s, bounds)
        return s

    @property
    def parts(self) -> tuple[Interval, ...]:
        b = self.bounds
        return tuple(map(Interval, b[0::2], b[1::2]))

    def complement_within(self, bound: Interval) -> "IntervalSet":
        """Integers of ``bound`` not in this set, as a normalized set.

        The parts are the gap below the first part that meets ``bound``,
        the gaps between consecutive such parts (each nonempty, as the
        parts are separated) and the gap above the last, so they come out
        sorted and separated.  Their bounds are ``bound.lo``, each bound of
        the meeting parts stepped one integer out of its part, and
        ``bound.hi``; the end pair on a side where the meeting part covers
        ``bound``'s end is empty and dropped.
        """
        lo, hi = bound.lo, bound.hi
        inner = self.bounds[_meeting(self.bounds, lo, hi)]
        if not inner:
            return IntervalSet._separated((lo, hi))
        out = (lo, *map(add, inner, cycle((-1, 1))), hi)
        return IntervalSet._separated(
            out[2 if inner[0] <= lo else 0:-2 if inner[-1] >= hi else None]
        )

    def clip(self, bound: Interval) -> "IntervalSet":
        """Restriction of this set to ``bound``.

        The parts that meet ``bound`` are kept, the first and last cut to its
        ends.  Clipping only shrinks parts, so they stay sorted and separated.
        """
        lo, hi = bound.lo, bound.hi
        out = list(self.bounds[_meeting(self.bounds, lo, hi)])
        if out:
            out[0] = max(out[0], lo)
            out[-1] = min(out[-1], hi)
        return IntervalSet._separated(tuple(out))

    def __contains__(self, g: int) -> bool:
        """Membership by binary search over the sorted bounds.

        An odd count of bounds at or below g puts g at or past a part's lo
        and below its hi; after an even count, g is in the set only as the
        hi of the part before.
        """
        b = self.bounds
        i = bisect_right(b, g)
        return i % 2 == 1 or (i > 0 and b[i - 1] == g)

    @property
    def count(self) -> int:
        b = self.bounds
        return sum(b[1::2]) - sum(b[0::2]) + len(b) // 2

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.bounds)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntervalSet):
            return self.bounds == other.bounds
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.bounds)

    def __repr__(self) -> str:
        b = self.bounds
        return "{" + ",".join([f"[{lo},{hi}]" for lo, hi in zip(b[0::2], b[1::2])]) + "}"


(_set_bounds,) = setters(IntervalSet)

# each part's (lo, hi), read at C level, so the parts sort by (lo, hi)
_BOUNDS = attrgetter("lo", "hi")


def _meeting(bounds: tuple[int, ...], lo: int, hi: int) -> slice:
    """The slice of flat ``bounds`` that holds the parts meeting [lo, hi].

    The count of bounds below lo is odd when lo falls inside a part, whose
    own lo is the bound before; the count of bounds at or below hi is odd
    when hi falls inside a part, whose own hi is the bound after.
    """
    start = bisect_left(bounds, lo)
    end = bisect_right(bounds, hi, start)
    return slice(start - start % 2, end + end % 2)


def _normalize(intervals: Iterable[Interval]) -> tuple[int, ...]:
    """Flat bounds of the union of ``intervals``, sorted, with touching parts merged."""
    merged: list[int] = []
    for lo, hi in sorted(map(_BOUNDS, intervals)):
        if merged and lo <= merged[-1] + 1:
            if hi > merged[-1]:
                merged[-1] = hi
        else:
            merged += lo, hi
    return tuple(merged)
