"""Exact closed integer intervals and normalized disjoint unions of them.

An ``Interval(lo, hi)`` denotes {k in Z : lo <= k <= hi} and is never
empty.  An ``IntervalSet`` keeps its parts sorted and *separated*
(gap of at least one integer between consecutive parts), so equal sets of
integers always have identical part tuples regardless of construction
order, and "number of parts" is well defined.

Only the constructor sorts and merges.  ``union``, ``clip`` and
``complement_within`` build their parts in order from already separated
sets and keep them without re-normalizing: the union merges two sorted
part lists, clipping shrinks each part, so the gaps between the survivors
only widen, and the complement's parts are the gaps between consecutive
parts, so a nonempty part lies between any two of them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import total_ordering
from operator import attrgetter
from typing import Iterable, Iterator

from ._value import Value, setters


@total_ordering
class Interval(Value):
    """Immutable closed integer interval [lo, hi], ordered by ``(lo, hi)``.

    A value type (see ``_value``) with the behaviour of a frozen, ordered
    dataclass: equality, hash and order compare ``(lo, hi)`` with another
    ``Interval`` only, so ``Interval(1, 2) != (1, 2)``, and
    ``total_ordering`` derives ``<=``, ``>`` and ``>=`` from ``<`` and ``==``.
    """

    __slots__ = __match_args__ = ("lo", "hi")

    lo: int
    hi: int

    def __init__(self, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.lo, self.hi) < (other.lo, other.hi)
        return NotImplemented

    def __contains__(self, g: int) -> bool:
        return self.lo <= g <= self.hi

    @property
    def count(self) -> int:
        return self.hi - self.lo + 1

    def to_pair(self) -> list[int]:
        return [self.lo, self.hi]

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


_set_lo, _set_hi = setters(Interval)


class IntervalSet(Value):
    """Immutable normalized union of integer intervals.

    A value type (see ``_value``) for assignment, deletion, copy and
    pickle, which rebuilds through the constructor from ``parts``.
    Equality holds with any ``IntervalSet`` of the same parts, and the
    hash and repr are those of the parts.
    """

    __slots__ = __match_args__ = ("parts",)

    parts: tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        _set_parts(self, _normalize(intervals))

    @classmethod
    def _separated(cls, parts: tuple[Interval, ...]) -> "IntervalSet":
        """The set whose parts are ``parts``, which must already be sorted and separated."""
        s = object.__new__(cls)
        _set_parts(s, parts)
        return s

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "IntervalSet":
        return cls(Interval(lo, hi) for lo, hi in pairs)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Union of two normalized sets, merged in one pass without re-sorting.

        Each part of the smaller set finds, by binary search, the parts of
        the larger one it touches; it absorbs them and the run of larger-set
        parts before it is copied whole.  Parts already emitted end more
        than one below the next part placed, so the result is sorted and
        separated, in O(m log n + n) steps for m <= n parts.
        """
        small, big = sorted((self.parts, other.parts), key=len)
        out: list[Interval] = []
        k = 0  # big[:k] is placed
        for part in small:
            lo, hi = part.lo, part.hi
            if out and lo <= out[-1].hi + 1:  # touches the last part placed from small
                last = out.pop()
                lo, hi = last.lo, max(hi, last.hi)
            i = bisect_left(big, lo - 1, k, key=_HI)  # big[k:i] end below lo - 1
            out += big[k:i]
            k = bisect_right(big, hi + 1, i, key=_LO)  # big[i:k] touch [lo, hi]
            if i < k:
                lo, hi = min(lo, big[i].lo), max(hi, big[k - 1].hi)
            out.append(part if lo == part.lo and hi == part.hi else Interval(lo, hi))
        out += big[k:]
        return IntervalSet._separated(tuple(out))

    __or__ = union

    def complement_within(self, bound: Interval) -> "IntervalSet":
        """Integers of ``bound`` not in this set, as a normalized set.

        The parts are the gap below the first part that meets ``bound``,
        the gaps between consecutive such parts (each nonempty, as the
        parts are separated) and the gap above the last, so they come out
        sorted and separated.
        """
        parts = self.parts
        first = bisect_left(parts, bound.lo, key=_HI)
        inner = parts[first:bisect_right(parts, bound.hi, first, key=_LO)]
        if not inner:
            return IntervalSet._separated((bound,))
        out = [Interval(bound.lo, inner[0].lo - 1)] if inner[0].lo > bound.lo else []
        out += [Interval(a.hi + 1, b.lo - 1) for a, b in zip(inner, inner[1:])]
        if inner[-1].hi < bound.hi:
            out.append(Interval(inner[-1].hi + 1, bound.hi))
        return IntervalSet._separated(tuple(out))

    def clip(self, bound: Interval) -> "IntervalSet":
        """Restriction of this set to ``bound``.

        Clipping only shrinks each part, so the parts stay sorted and separated.
        """
        out = []
        for part in self.parts:
            lo, hi = max(part.lo, bound.lo), min(part.hi, bound.hi)
            if lo <= hi:
                out.append(Interval(lo, hi))
        return IntervalSet._separated(tuple(out))

    def contains(self, g: int) -> bool:
        """Membership by binary search over the sorted parts."""
        i = bisect_right(self.parts, g, key=lambda p: p.lo)
        return i > 0 and g <= self.parts[i - 1].hi

    __contains__ = contains

    @property
    def count(self) -> int:
        return sum(p.count for p in self.parts)

    def to_pairs(self) -> list[list[int]]:
        return list(map(list, map(_BOUNDS, self.parts)))

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return "{" + ",".join(map(repr, self.parts)) + "}"


(_set_parts,) = setters(IntervalSet)

# C-level keys: the class order, and each bound, with no Python-level call per comparison
_BOUNDS = attrgetter("lo", "hi")
_LO = attrgetter("lo")
_HI = attrgetter("hi")


def _normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    merged: list[Interval] = []
    for iv in sorted(intervals, key=_BOUNDS):
        if merged and iv.lo <= merged[-1].hi + 1:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return tuple(merged)
