"""Interval-set algebra against a per-integer membership oracle."""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            assert x.to_pair() == ox.to_pair()
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
        assert s.parts is parts

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


class TestNormalization:
    def test_adjacent_merge(self):
        assert IntervalSet.of((7, 10)).union(IntervalSet.of((11, 15))) == IntervalSet.of((7, 15))

    def test_union_identity(self):
        assert IntervalSet.of((7, 10)).union(IntervalSet.empty()) == IntervalSet.of((7, 10))

    def test_overlap_merge(self):
        assert IntervalSet.of((0, 5), (3, 9), (11, 12)) == IntervalSet.of((0, 9), (11, 12))

    def test_separated_parts_stay_separated(self):
        s = IntervalSet.of((0, 1), (3, 4))
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
        j = IntervalSet.of((7, 10), (16, 25), (27, 46), (39, 73))
        assert j.to_pairs() == [[7, 10], [16, 25], [27, 73]]

    def test_documented_complement(self):
        s = IntervalSet.of((0, 6), (11, 15))
        assert s.complement_within(Interval(0, 20)).to_pairs() == [[7, 10], [16, 20]]
        assert IntervalSet.empty().complement_within(Interval(0, 5)).to_pairs() == [[0, 5]]
        j = IntervalSet.of((7, 10), (16, 25), (27, 46), (39, 73))
        assert j.complement_within(Interval(0, 26)).to_pairs() == [[0, 6], [11, 15], [26, 26]]

    def test_documented_contains(self):
        s = IntervalSet.of((0, 6), (11, 15))
        assert not s.contains(10)
        assert s.contains(11)
        j = IntervalSet.of((7, 10), (16, 25), (27, 46), (39, 73))
        assert not j.contains(26)

    # the one-pass merge against the sort-and-merge it replaced, for sets of
    # like sizes and for a few parts placed among many short ones
    @given(interval_sets | st.lists(pairs, max_size=3).map(IntervalSet),
           interval_sets | st.lists(pairs.map(lambda iv: Interval(iv.lo, iv.lo + iv.hi % 3)),
                                    max_size=60).map(IntervalSet))
    def test_union_matches_normalizing_the_parts(self, a, b):
        got = a.union(b)
        assert got.parts == _normalize((*a.parts, *b.parts))
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
        assert s.contains(g) == (g in members(s))

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
    assert u.parts == _normalize((*sets[0].parts, *sets[1].parts))
    bound = Interval(0, 100_000)
    comp = u.complement_within(bound)
    assert comp.count == 100_001 - u.count
    for _ in range(50):
        g = rng.randint(0, 100_000)
        assert u.contains(g) == (g in oracles[0] or g in oracles[1])
        assert comp.contains(g) != u.contains(g)
