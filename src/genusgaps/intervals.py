"""Exact closed integer intervals and normalized disjoint unions of them.

An ``Interval(lo, hi)`` denotes {k in Z : lo <= k <= hi} and is never
empty.  An ``IntervalSet`` keeps its parts sorted and *separated*
(gap of at least one integer between consecutive parts), so equal sets of
integers always have identical part tuples regardless of construction
order, and "number of parts" is well defined.

Only the constructor (and so ``union``) sorts and merges.  ``clip`` and
``complement_within`` build their parts in order from an already
separated set and keep them without re-normalizing: clipping shrinks each
part, so the gaps between the survivors only widen, and the complement's
parts are the gaps between consecutive parts, so a nonempty part lies
between any two of them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class Interval:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def __contains__(self, g: int) -> bool:
        return self.lo <= g <= self.hi

    @property
    def count(self) -> int:
        return self.hi - self.lo + 1

    def to_pair(self) -> list[int]:
        return [self.lo, self.hi]

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


class IntervalSet:
    """Immutable normalized union of integer intervals."""

    __slots__ = ("parts",)

    parts: tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        object.__setattr__(self, "parts", _normalize(intervals))

    @classmethod
    def _separated(cls, parts: tuple[Interval, ...]) -> "IntervalSet":
        """The set whose parts are ``parts``, which must already be sorted and separated."""
        s = object.__new__(cls)
        object.__setattr__(s, "parts", parts)
        return s

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "IntervalSet":
        return cls(Interval(lo, hi) for lo, hi in pairs)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet((*self.parts, *other.parts))

    __or__ = union

    def complement_within(self, bound: Interval) -> "IntervalSet":
        """Integers of ``bound`` not in this set, as a normalized set.

        Each part is the gap below a part of this set, or above the last
        one, so the parts come out sorted and separated.
        """
        out: list[Interval] = []
        cursor = bound.lo
        for part in self.parts:
            if part.hi < bound.lo:
                continue
            if part.lo > bound.hi:
                break
            if part.lo > cursor:
                out.append(Interval(cursor, part.lo - 1))
            cursor = part.hi + 1  # parts ascend, so this never moves back
        if cursor <= bound.hi:
            out.append(Interval(cursor, bound.hi))
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
        return [p.to_pair() for p in self.parts]

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


# the dataclass order, as a C-level key: no Python-level __lt__ call per comparison
_BOUNDS = attrgetter("lo", "hi")


def _normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    merged: list[Interval] = []
    for iv in sorted(intervals, key=_BOUNDS):
        if merged and iv.lo <= merged[-1].hi + 1:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return tuple(merged)
