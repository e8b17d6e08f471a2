"""Interval-set algebra against a per-integer membership oracle."""

from __future__ import annotations

import copy
import pickle
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genusgaps import cli
from genusgaps._value import Value, setters
from genusgaps.gapmap import decompose
from genusgaps.intervals import Interval, IntervalSet, _normalize


@dataclass(frozen=True, order=True)
class OracleInterval:
    """The frozen, ordered dataclass ``Interval`` was, kept as the oracle of the slots class."""

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


class OracleIntervalSet(Value):
    """Immutable normalized union of integer intervals.

    The ``IntervalSet`` that held a tuple of ``Interval`` parts, kept verbatim
    but for its names as the oracle of the class that holds flat bounds.

    A value type (see ``_value``) for assignment, deletion, copy and
    pickle, which rebuilds through the constructor from ``parts``.
    Equality holds with any ``OracleIntervalSet`` of the same parts, and the
    hash and repr are those of the parts.
    """

    __slots__ = __match_args__ = ("parts",)

    parts: tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        _set_oracle_parts(self, _oracle_normalize(intervals))

    @classmethod
    def _separated(cls, parts: tuple[Interval, ...]) -> "OracleIntervalSet":
        """The set whose parts are ``parts``, which must already be sorted and separated."""
        s = object.__new__(cls)
        _set_oracle_parts(s, parts)
        return s

    @classmethod
    def empty(cls) -> "OracleIntervalSet":
        return cls(())

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "OracleIntervalSet":
        return cls(Interval(lo, hi) for lo, hi in pairs)

    def union(self, other: "OracleIntervalSet") -> "OracleIntervalSet":
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
            i = bisect_left(big, lo - 1, k, key=_ORACLE_HI)  # big[k:i] end below lo - 1
            out += big[k:i]
            k = bisect_right(big, hi + 1, i, key=_ORACLE_LO)  # big[i:k] touch [lo, hi]
            if i < k:
                lo, hi = min(lo, big[i].lo), max(hi, big[k - 1].hi)
            out.append(part if lo == part.lo and hi == part.hi else Interval(lo, hi))
        out += big[k:]
        return OracleIntervalSet._separated(tuple(out))

    __or__ = union

    def complement_within(self, bound: Interval) -> "OracleIntervalSet":
        """Integers of ``bound`` not in this set, as a normalized set.

        The parts are the gap below the first part that meets ``bound``,
        the gaps between consecutive such parts (each nonempty, as the
        parts are separated) and the gap above the last, so they come out
        sorted and separated.
        """
        parts = self.parts
        first = bisect_left(parts, bound.lo, key=_ORACLE_HI)
        inner = parts[first:bisect_right(parts, bound.hi, first, key=_ORACLE_LO)]
        if not inner:
            return OracleIntervalSet._separated((bound,))
        out = [Interval(bound.lo, inner[0].lo - 1)] if inner[0].lo > bound.lo else []
        out += [Interval(a.hi + 1, b.lo - 1) for a, b in zip(inner, inner[1:])]
        if inner[-1].hi < bound.hi:
            out.append(Interval(inner[-1].hi + 1, bound.hi))
        return OracleIntervalSet._separated(tuple(out))

    def clip(self, bound: Interval) -> "OracleIntervalSet":
        """Restriction of this set to ``bound``.

        Clipping only shrinks each part, so the parts stay sorted and separated.
        """
        out = []
        for part in self.parts:
            lo, hi = max(part.lo, bound.lo), min(part.hi, bound.hi)
            if lo <= hi:
                out.append(Interval(lo, hi))
        return OracleIntervalSet._separated(tuple(out))

    def contains(self, g: int) -> bool:
        """Membership by binary search over the sorted parts."""
        i = bisect_right(self.parts, g, key=lambda p: p.lo)
        return i > 0 and g <= self.parts[i - 1].hi

    __contains__ = contains

    @property
    def count(self) -> int:
        return sum(p.count for p in self.parts)

    def to_pairs(self) -> list[list[int]]:
        return list(map(list, map(_ORACLE_BOUNDS, self.parts)))

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OracleIntervalSet) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return "{" + ",".join(map(repr, self.parts)) + "}"


(_set_oracle_parts,) = setters(OracleIntervalSet)

# C-level keys: the class order, and each bound, with no Python-level call per comparison
_ORACLE_BOUNDS = attrgetter("lo", "hi")
_ORACLE_LO = attrgetter("lo")
_ORACLE_HI = attrgetter("hi")


def _oracle_normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    merged: list[Interval] = []
    for iv in sorted(intervals, key=_ORACLE_BOUNDS):
        if merged and iv.lo <= merged[-1].hi + 1:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return tuple(merged)


def of(*pairs: tuple[int, int]) -> IntervalSet:
    return IntervalSet(Interval(lo, hi) for lo, hi in pairs)


def members(s: IntervalSet) -> set[int]:
    return {g for part in s.parts for g in range(part.lo, part.hi + 1)}


def from_members(pts: set[int]) -> IntervalSet:
    """Rebuild the canonical set from raw membership (oracle normalizer)."""
    parts = []
    for g in sorted(pts):
        if parts and g == parts[-1].hi + 1:
            parts[-1] = Interval(parts[-1].lo, g)
        else:
            parts.append(Interval(g, g))
    return IntervalSet(parts)


pairs = st.tuples(st.integers(0, 400), st.integers(0, 400)).map(
    lambda t: Interval(min(t), max(t))
)
interval_sets = st.lists(pairs, max_size=8).map(IntervalSet)


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_membership_and_count(self):
        iv = Interval(-2, 4)
        assert 0 in iv and -2 in iv and 4 in iv and 5 not in iv
        assert iv.count == 7


# small values make equal bounds likely, huge ones check exactness past 64 bits
_bounds = st.integers(-5, 5) | st.integers(-10**30, 10**30)


def _both(lo: int, hi: int):
    """``Interval(lo, hi)`` and its oracle, or the ``ValueError`` message each raised."""
    out = []
    for cls in (Interval, OracleInterval):
        try:
            out.append(cls(lo, hi))
        except ValueError as exc:
            out.append(str(exc))
    return out


class TestIntervalAgainstDataclass:
    """The slots ``Interval`` behaves as the frozen, ordered dataclass it replaced."""

    @given(_bounds, _bounds)
    def test_construction_and_rejection(self, lo, hi):
        got, want = _both(lo, hi)
        if isinstance(want, str):
            assert got == want  # the same ValueError message
        else:
            assert (got.lo, got.hi) == (want.lo, want.hi)

    @given(st.lists(st.tuples(_bounds, _bounds).map(sorted), min_size=2, max_size=6), _bounds)
    def test_equality_hash_order_and_methods(self, pairs, g):
        ivs = [Interval(*p) for p in pairs]
        oracles = [OracleInterval(*p) for p in pairs]
        for x, ox in zip(ivs, oracles):
            assert repr(x) == repr(ox)
            assert hash(x) == hash(ox)
            assert (g in x) == (g in ox)
            assert x.count == ox.count
            assert [x.lo, x.hi] == ox.to_pair()
            assert x != (x.lo, x.hi) and not x == (x.lo, x.hi)
            for y, oy in zip(ivs, oracles):
                assert (x == y) == (ox == oy)
                assert (x != y) == (ox != oy)
                assert (x < y) == (ox < oy)
                assert (x <= y) == (ox <= oy)
                assert (x > y) == (ox > oy)
                assert (x >= y) == (ox >= oy)
        assert list(map(repr, sorted(ivs))) == list(map(repr, sorted(oracles)))
        assert len(set(ivs)) == len(set(oracles))

    @pytest.mark.parametrize("op", ["__lt__", "__le__", "__gt__", "__ge__", "__eq__"])
    def test_other_types_are_not_compared(self, op):
        for other in ((1, 2), [1, 2], 1, None, OracleInterval(1, 2)):
            assert getattr(Interval(1, 2), op)(other) is NotImplemented
        with pytest.raises(TypeError):
            Interval(1, 2) < (1, 2)

    @given(st.tuples(_bounds, _bounds).map(sorted))
    def test_immutable(self, pair):
        x = Interval(*pair)
        for name in ("lo", "hi", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert [x.lo, x.hi] == pair

    @given(st.tuples(_bounds, _bounds).map(sorted))
    def test_copy_and_pickle_round_trip(self, pair):
        x = Interval(*pair)
        copies = [copy.copy(x), copy.deepcopy(x)]
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies += [pickle.loads(pickle.dumps(x, proto)) for proto in protocols]
        for y in copies:
            assert type(y) is Interval
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
        assert copy.deepcopy({x: [x]}) == {x: [x]}


class TestIntervalSetValue:
    """An ``IntervalSet``, alone or inside a ``GapDecomposition``, is immutable and pickles."""

    @given(interval_sets)
    def test_immutable(self, s):
        parts = s.parts
        for name in ("parts", "other"):
            with pytest.raises(AttributeError):
                setattr(s, name, ())
            with pytest.raises(AttributeError):
                delattr(s, name)
        assert s.parts == parts

    @given(interval_sets)
    def test_copy_and_pickle_round_trip(self, s):
        copies = [copy.copy(s), copy.deepcopy(s)]
        copies += [pickle.loads(pickle.dumps(s, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for t in copies:
            assert type(t) is IntervalSet
            assert t == s and t.parts == s.parts and hash(t) == hash(s) and repr(t) == repr(s)

    @pytest.mark.parametrize("d", [4, 5, 9, 200])
    def test_decomposition_is_immutable_and_pickles(self, d):
        dec = decompose(d)
        for part in (dec, dec.proved_gaps, dec.nongap_certified):
            with pytest.raises(AttributeError):
                part.parts = ()
            with pytest.raises(AttributeError):
                del part.d
        for p in range(pickle.HIGHEST_PROTOCOL + 1):
            got = pickle.loads(pickle.dumps(dec, p))
            assert type(got) is type(dec) and got == dec and repr(got) == repr(dec)


# ends near 0 and near +-10^30 make touching, overlapping and one-integer
# parts likely, and check exactness past 64 bits; one-integer parts repeat a
# value in ``bounds``, the edge case of every binary search over them
_set_ends = st.builds(
    int.__add__, st.sampled_from((0, 10**30, -10**30)), st.integers(-6, 6)
) | st.integers(-10**30, 10**30)
_set_pairs = st.tuples(_set_ends, _set_ends).map(sorted) | _set_ends.map(lambda g: [g, g])
_part_lists = st.lists(_set_pairs, max_size=8)


def _both_sets(pairs: list[list[int]]) -> tuple[IntervalSet, OracleIntervalSet]:
    ivs = [Interval(*p) for p in pairs]
    return IntervalSet(ivs), OracleIntervalSet(ivs)


def _same(got: IntervalSet, want: OracleIntervalSet) -> None:
    """``got`` holds the parts of ``want`` and reads them back as it does."""
    assert type(got) is IntervalSet
    assert got.bounds == tuple(b for part in want.parts for b in (part.lo, part.hi))
    assert got.parts == want.parts and list(got) == list(want)
    assert all(type(part) is Interval for part in got)
    assert got.to_pairs() == want.to_pairs()
    assert got.count == want.count
    assert repr(got) == repr(want)
    assert bool(got) is bool(want)


class TestIntervalSetAgainstOracle:
    """The flat-bounds ``IntervalSet`` behaves as the tuple-of-parts class it replaced."""

    @given(_part_lists, _set_ends)
    def test_construction_readers_and_contains(self, pairs, g):
        got, want = _both_sets(pairs)
        _same(got, want)
        probes = {g} | {end + step for part in want for end in (part.lo, part.hi) for step in (-1, 0, 1)}
        for h in probes:
            assert (h in got) is (h in want)

    @given(_part_lists, _part_lists)
    def test_union(self, a, b):
        (x, ox), (y, oy) = _both_sets(a), _both_sets(b)
        _same(x.union(y), ox.union(oy))
        _same(y.union(x), oy.union(ox))

    @given(_part_lists, _set_pairs)
    def test_clip_and_complement(self, pairs, bound):
        got, want = _both_sets(pairs)
        iv = Interval(*bound)
        _same(got.clip(iv), want.clip(iv))
        _same(got.complement_within(iv), want.complement_within(iv))
        _same(got.clip(iv).complement_within(iv), want.clip(iv).complement_within(iv))

    @given(_part_lists, _part_lists)
    def test_equality_and_hash(self, a, b):
        (x, ox), (y, oy) = _both_sets(a), _both_sets(b)
        assert (x == y) is (ox == oy)
        assert (x != y) is (ox != oy)
        if x == y:
            assert hash(x) == hash(y)
        assert x == IntervalSet(x.parts) and hash(x) == hash(IntervalSet(x.parts))
        for other in (ox, x.parts, x.bounds, list(x.parts), None):
            assert x != other and not x == other

    @given(_part_lists)
    def test_copy_and_pickle_round_trip(self, pairs):
        got, want = _both_sets(pairs)
        copies = [copy.copy(got), copy.deepcopy(got)]
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies += [pickle.loads(pickle.dumps(got, p)) for p in protocols]
        for t in copies:
            _same(t, want)
            assert t == got and hash(t) == hash(got)
        assert copy.deepcopy({got: [got]}) == {got: [got]}

    @given(_part_lists)
    def test_immutable_and_matched_by_parts(self, pairs):
        got, want = _both_sets(pairs)
        parts = got.parts
        for name in ("parts", "bounds", "_parts", "other"):
            with pytest.raises(AttributeError):
                setattr(got, name, ())
            with pytest.raises(AttributeError):
                delattr(got, name)
        assert got.parts == parts
        assert IntervalSet.__match_args__ == OracleIntervalSet.__match_args__ == ("parts",)
        match got:
            case IntervalSet(matched):
                assert matched == parts

    @pytest.mark.parametrize("d", [*range(5, 40), 6000, 50000])
    def test_decomposition_matches_oracle_algebra(self, d):
        dec = decompose(d)
        bound = Interval(0, dec.horizon)
        proved = OracleIntervalSet(part for part, _ in dec.proved_sources).clip(bound)
        certified = OracleIntervalSet(dec.nongap_certified.parts)
        _same(dec.proved_gaps, proved)
        _same(dec.nongap_certified, certified)
        _same(dec.unknown_candidates, proved.union(certified).complement_within(bound))

    def test_single_genus_unknown_part(self):
        unknown = decompose(6).unknown_candidates
        assert unknown.bounds == (26, 26) and unknown.parts == (Interval(26, 26),)
        assert 26 in unknown and 25 not in unknown and 27 not in unknown
        assert unknown.count == 1


class TestIntervalWorkCounts:
    """``decompose`` and its three renderings build a few ``Interval``s, none per part."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        real = Interval.__init__

        def counted(self, lo, hi):
            calls.append((lo, hi))
            real(self, lo, hi)

        monkeypatch.setattr(Interval, "__init__", counted)
        return calls

    def test_decompose(self, built):
        dec = decompose(50000)
        parts = [len(s.bounds) // 2 for s in (dec.proved_gaps, dec.unknown_candidates,
                                              dec.nongap_certified)]
        assert parts == [2, 2004, 2005]
        # the window refined_horizon reads, the bound [0, horizon] and the two
        # proved ranges; the window, unknown and proved parts are flat bounds
        assert len(built) == 4

    # every rendering reads the proved parts and their sources as decompose
    # made them, so none builds an Interval of its own
    @pytest.mark.parametrize("fmt, count", [("table", 4), ("json", 4), ("csv", 4)])
    def test_cli_decompose(self, built, capsys, fmt, count):
        assert cli.main(["decompose", "50000", "--format", fmt]) == 0
        assert capsys.readouterr().out
        assert len(built) == count


class TestNormalization:
    def test_adjacent_merge(self):
        assert of((7, 10)).union(of((11, 15))) == of((7, 15))

    def test_union_identity(self):
        assert of((7, 10)).union(IntervalSet()) == of((7, 10))

    def test_overlap_merge(self):
        assert of((0, 5), (3, 9), (11, 12)) == of((0, 9), (11, 12))

    def test_separated_parts_stay_separated(self):
        s = of((0, 1), (3, 4))
        assert s.to_pairs() == [[0, 1], [3, 4]]

    @given(interval_sets)
    def test_parts_are_sorted_and_separated(self, s):
        for a, b in zip(s.parts, s.parts[1:]):
            assert a.hi + 1 < b.lo

    @given(st.lists(pairs, max_size=8), st.randoms())
    def test_canonical_under_reordering_and_splitting(self, ivs, rng):
        base = IntervalSet(ivs)
        # split every interval at a random point and shuffle the pieces
        pieces = []
        for iv in ivs:
            cut = rng.randint(iv.lo, iv.hi)
            pieces.append(Interval(iv.lo, cut))
            if cut + 1 <= iv.hi:
                pieces.append(Interval(cut + 1, iv.hi))
        rng.shuffle(pieces)
        assert IntervalSet(pieces) == base


class TestAgainstOracle:
    def test_documented_union(self):
        # realizable windows at degree 6, cutting degrees 1..4
        j = of((7, 10), (16, 25), (27, 46), (39, 73))
        assert j.to_pairs() == [[7, 10], [16, 25], [27, 73]]

    def test_documented_complement(self):
        s = of((0, 6), (11, 15))
        assert s.complement_within(Interval(0, 20)).to_pairs() == [[7, 10], [16, 20]]
        assert IntervalSet().complement_within(Interval(0, 5)).to_pairs() == [[0, 5]]
        j = of((7, 10), (16, 25), (27, 46), (39, 73))
        assert j.complement_within(Interval(0, 26)).to_pairs() == [[0, 6], [11, 15], [26, 26]]

    def test_documented_contains(self):
        s = of((0, 6), (11, 15))
        assert 10 not in s
        assert 11 in s
        j = of((7, 10), (16, 25), (27, 46), (39, 73))
        assert 26 not in j

    # the one-pass merge against the sort-and-merge it replaced, for sets of
    # like sizes and for a few parts placed among many short ones
    @given(interval_sets | st.lists(pairs, max_size=3).map(IntervalSet),
           interval_sets | st.lists(pairs.map(lambda iv: Interval(iv.lo, iv.lo + iv.hi % 3)),
                                    max_size=60).map(IntervalSet))
    def test_union_matches_normalizing_the_parts(self, a, b):
        got = a.union(b)
        assert got.bounds == _normalize((*a.parts, *b.parts))
        assert IntervalSet(got.parts) == got

    @given(interval_sets, interval_sets)
    def test_union_pointwise(self, a, b):
        assert members(a.union(b)) == members(a) | members(b)

    @given(interval_sets, pairs)
    def test_complement_pointwise(self, s, bound):
        got = members(s.complement_within(bound))
        want = set(range(bound.lo, bound.hi + 1)) - members(s)
        assert got == want

    @given(interval_sets, pairs)
    def test_clip_pointwise(self, s, bound):
        got = members(s.clip(bound))
        assert got == members(s) & set(range(bound.lo, bound.hi + 1))

    @given(interval_sets, st.integers(-5, 405))
    def test_contains_pointwise(self, s, g):
        assert (g in s) == (g in members(s))

    @given(interval_sets, interval_sets, interval_sets)
    def test_union_associative_commutative(self, a, b, c):
        assert a.union(b) == b.union(a)
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(interval_sets, pairs)
    def test_complement_is_involutive(self, s, bound):
        clipped = s.clip(bound)
        assert clipped.complement_within(bound).complement_within(bound) == clipped

    @given(interval_sets, pairs)
    def test_clip_and_complement_are_normalized_by_construction(self, s, bound):
        # both keep their parts as built, without re-normalizing them
        for result in (s.clip(bound), s.complement_within(bound)):
            assert IntervalSet(result.parts) == result

    @given(interval_sets)
    def test_oracle_normalizer_agrees(self, s):
        assert from_members(members(s)) == s


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_randomized_family_matches_bitset(seed):
    # compact version of the bulk randomized check in the acceptance suite
    rng = random.Random(seed)
    sets, oracles = [], []
    for _ in range(2):
        ivs = []
        for _ in range(rng.randint(0, 12)):
            lo = rng.randint(0, 100_000)
            hi = min(100_000, lo + rng.randint(0, 300))
            ivs.append(Interval(lo, hi))
        sets.append(IntervalSet(ivs))
        oracles.append({g for iv in ivs for g in range(iv.lo, iv.hi + 1)})
    u = sets[0].union(sets[1])
    assert members(u) == oracles[0] | oracles[1]
    assert u.bounds == _normalize((*sets[0].parts, *sets[1].parts))
    bound = Interval(0, 100_000)
    comp = u.complement_within(bound)
    assert comp.count == 100_001 - u.count
    for _ in range(50):
        g = rng.randint(0, 100_000)
        assert (g in u) == (g in oracles[0] or g in oracles[1])
        assert (g in comp) != (g in u)
