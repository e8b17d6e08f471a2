"""The bounded gap-map searches against the window scans they replaced.

``_scan_certify``, ``_scan_refined_horizon`` and ``_scan_window_union`` are
the earlier ``certify_nongap``, ``refined_horizon`` and
``_window_union_within`` loops, kept verbatim as oracles: they walk every
cutting degree up to d and assume neither monotonicity fact.
``_scan_window_parts`` is the later one-pass ``_window_union_within``,
which evaluates ``_window`` at every n, kept as the oracle of the
forward-difference scan that replaced it.  ``_normalized_unknown`` is the
earlier path to the Unknown parts: the union normalized through
``IntervalSet``'s sort-and-merge, then the cursor walk of the complement.  The
work-count tests pin the cost of the searches by counting the formula
calls ``gapmap`` makes, through its own imported names.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genusgaps import gapmap
from genusgaps.formulas import arithmetic_genus, contiguity_holds, linsys_dim
from genusgaps.gapmap import (
    UNKNOWN,
    Certificate,
    GapStatus,
    _first_n_reaching,
    certify_nongap,
    decompose,
    realizable_interval,
    refined_horizon,
    status,
)
from genusgaps.intervals import Interval, IntervalSet


def _scan_certify(d: int, g: int) -> Certificate | None:
    n = _first_n_reaching(d, g)
    while True:
        lo = arithmetic_genus(d, n) - linsys_dim(d, n)
        if lo <= g:
            return Certificate(n=n, delta=arithmetic_genus(d, n) - g)
        if n >= d and lo > g:
            return None
        n += 1


def _scan_refined_horizon(d: int) -> int:
    n_star = d + 1
    for m in range(d, 0, -1):
        if not contiguity_holds(d, m):
            break
        n_star = m
    n0 = n_star - 1
    return arithmetic_genus(d, n0) - linsys_dim(d, n0) - 1


def _scan_window_union(d: int, horizon: int) -> IntervalSet:
    bound = Interval(0, horizon)
    parts = []
    n = 1
    while True:
        w = realizable_interval(d, n)
        if n >= d and w.lo > horizon:
            break
        if w.lo <= horizon:
            parts.append(Interval(w.lo, min(w.hi, horizon)))
        n += 1
    return IntervalSet(parts).clip(bound)


def _scan_window_parts(d: int, horizon: int) -> IntervalSet:
    parts = []
    n = 1
    while (w := gapmap._window(d, n))[0] <= horizon:
        parts.append(Interval(*w))
        n += 1
    return IntervalSet(parts)


def _normalized_unknown(
    proved: IntervalSet, certified: IntervalSet, bound: Interval
) -> IntervalSet:
    out = []
    cursor = bound.lo
    for part in IntervalSet((*proved.parts, *certified.parts)):
        if part.hi < bound.lo:
            continue
        if part.lo > bound.hi:
            break
        if part.lo > cursor:
            out.append(Interval(cursor, part.lo - 1))
        cursor = part.hi + 1
    if cursor <= bound.hi:
        out.append(Interval(cursor, bound.hi))
    return IntervalSet(out)


def _draw_genus(data, d: int, region: str, dec, oracle_unknown: IntervalSet) -> int:
    """A genus in a proved gap, a window, an oracle Unknown range, or above the horizon."""
    if region == "gap":
        part = data.draw(st.sampled_from(list(dec.proved_gaps)))
    elif region == "window":
        part = realizable_interval(d, data.draw(st.integers(1, d + 2)))
    elif region == "unknown":
        parts = list(oracle_unknown)
        if not parts:
            return data.draw(st.integers(0, dec.horizon))
        part = data.draw(st.sampled_from(parts))
    else:
        part = Interval(dec.horizon + 1, dec.horizon + 10 * d * d)
    return data.draw(st.integers(part.lo, part.hi))


def _decompose_against_scans(d: int):
    """``decompose(d)`` checked against the scans; returns it and the oracle Unknown set."""
    horizon = _scan_refined_horizon(d)
    union = _scan_window_union(d, horizon)
    dec = decompose(d)
    assert refined_horizon(d) == dec.horizon == horizon
    assert dec.nongap_certified == union
    bound = Interval(0, horizon)
    oracle_unknown = _normalized_unknown(dec.proved_gaps, union, bound)
    assert dec.unknown_candidates.parts == oracle_unknown.parts
    # the three sets partition [0, horizon]: they cover it and their counts add up
    sets = (dec.proved_gaps, dec.unknown_candidates, dec.nongap_certified)
    assert IntervalSet(p for s in sets for p in s) == IntervalSet((bound,))
    assert sum(s.count for s in sets) == bound.count
    return dec, oracle_unknown


class TestAgainstScans:
    # each example runs every oracle once per region, Theta(d) formula calls each
    @settings(max_examples=100, deadline=None)
    @given(st.integers(5, 10**4), st.data())
    def test_matches_scans(self, d, data):
        dec, oracle_unknown = _decompose_against_scans(d)
        for region in ("gap", "window", "unknown", "above"):
            g = _draw_genus(data, d, region, dec, oracle_unknown)
            n = _first_n_reaching(d, g)
            assert arithmetic_genus(d, n) >= g
            assert n == 1 or arithmetic_genus(d, n - 1) < g
            assert certify_nongap(d, g) == _scan_certify(d, g), (d, g, region)

    # the largest degrees the benchmark's decompose-sweep reaches, and twice that
    @pytest.mark.parametrize("d", [5 * 10**4, 10**5])
    def test_matches_scans_at_workload_degrees(self, d):
        _decompose_against_scans(d)

    def test_unknown_matches_the_normalized_union(self):
        degrees = [*range(5, 201), *sorted(random.Random(0).sample(range(201, 10**5 + 1), 30))]
        for d in degrees:
            dec = decompose(d)
            want = _normalized_unknown(dec.proved_gaps, dec.nongap_certified,
                                       Interval(0, dec.horizon))
            assert dec.unknown_candidates.parts == want.parts, d
        assert not decompose(4).unknown_candidates  # no horizon, nothing to complement

    def test_window_steps_match_window_per_n(self):
        for d in [*range(5, 301), 5 * 10**4, 10**5]:
            horizon = refined_horizon(d)
            got = gapmap._window_union_within(d, horizon)
            assert got.parts == _scan_window_parts(d, horizon).parts, d

    @pytest.mark.parametrize("d", [10**5, 2 * 10**5])
    def test_refined_horizon_at_large_degree(self, d):
        assert refined_horizon(d) == _scan_refined_horizon(d)


@pytest.fixture
def counted(monkeypatch):
    """Counts of the window and contiguity evaluations made by ``gapmap``."""
    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in ("linsys_dim", "contiguity_holds"):
        monkeypatch.setattr(gapmap, name, counting(name, getattr(gapmap, name)))
    return counts


class TestWorkCounts:
    def test_status_between_windows_is_logarithmic(self, counted):
        assert status(10**6, 10**15) == GapStatus(UNKNOWN)
        assert counted["linsys_dim"] <= 64

    @pytest.mark.parametrize("d", [50, 999, 54321, 10**6])
    def test_refined_horizon_bisects(self, counted, d):
        refined_horizon(d)
        assert counted["contiguity_holds"] <= d.bit_length() + 2

    @pytest.mark.parametrize("d", [50, 999, 54321])
    def test_decompose_is_output_sensitive(self, counted, d):
        # least n with joined windows; by fact (b) the joins from there on never break
        n_star = next(n for n in range(1, d + 1) if contiguity_holds(d, n))
        decompose(d)
        assert counted["linsys_dim"] <= n_star + 2 * d.bit_length()
