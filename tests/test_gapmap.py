"""Certification engine: windows, horizons, verdicts, decompositions."""

from __future__ import annotations

import itertools
import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genusgaps.formulas import arithmetic_genus, contiguity_holds, linsys_dim
from genusgaps.gapmap import (
    CERTIFIED_NONGAP,
    PROVED_GAP,
    PROVED_LAYERS,
    SOURCE_GAPS1,
    SOURCE_LOW_DEGREE,
    SOURCE_SEVERI,
    SOURCE_XU,
    UNKNOWN,
    _window_union_within,
    candidate_gap_interval,
    certify_nongap,
    coarse_horizon,
    decompose,
    initial_gap_interval,
    realizable_interval,
    refined_horizon,
    second_gap_interval,
    status,
)
from genusgaps.intervals import Interval


def brute_certificate(d: int, g: int, n_max: int) -> tuple[int, int] | None:
    """Oracle: scan every window up to n_max for the smallest containing n."""
    for n in range(1, n_max + 1):
        pa, l = arithmetic_genus(d, n), linsys_dim(d, n)
        if pa - l <= g <= pa:
            return n, pa - g
    return None


class TestWindows:
    def test_documented_values(self):
        assert realizable_interval(6, 1) == Interval(7, 10)
        assert realizable_interval(4, 1) == Interval(0, 3)
        g92 = arithmetic_genus(9, 2)
        assert g92 == 64
        assert realizable_interval(9, 2) == Interval(g92 - 9, g92)

    def test_rejects_cut_degree_zero(self):
        with pytest.raises(ValueError, match="cutting degree must be >= 1, got 0"):
            realizable_interval(6, 0)

    def test_width_is_system_dimension(self):
        for d in range(4, 30):
            for n in range(1, 15):
                w = realizable_interval(d, n)
                assert w.hi - w.lo == linsys_dim(d, n)
                assert w.hi == arithmetic_genus(d, n)


class TestCandidateWindows:
    def test_documented_values(self):
        assert candidate_gap_interval(6, 1) == Interval(11, 15)
        assert candidate_gap_interval(8, 1) == Interval(22, 39)
        assert candidate_gap_interval(6, 2) == Interval(26, 26)
        assert candidate_gap_interval(6, 4) is None

    def test_absent_iff_contiguous(self):
        for d in range(4, 40):
            for n in range(1, 2 * d):
                absent = candidate_gap_interval(d, n) is None
                assert absent == contiguity_holds(d, n + 1)

    def test_closed_form_matches(self):
        for d in range(6, 501):
            assert candidate_gap_interval(d, 1) == Interval(
                (d * d - 3 * d + 4) // 2, d * d - 2 * d - 9
            )
            assert second_gap_interval(d) == candidate_gap_interval(d, 1)


class TestHorizons:
    def test_documented_values(self):
        assert coarse_horizon(6) == 6 * 5 * 11 // 6 - 1 == 54
        assert coarse_horizon(5) == 5 * 4 * 6 // 6 - 1 == 19
        assert coarse_horizon(4) == -1
        assert refined_horizon(5) == 2
        assert refined_horizon(6) == 46 - 19 - 1 == 26
        assert refined_horizon(7) == 64 - 19 - 1 == 44

    def test_refined_below_coarse(self):
        for d in range(5, 201):
            assert refined_horizon(d) <= coarse_horizon(d)

    def test_refined_is_a_window_chain_start(self):
        # the chain of joined windows starts right above the refined horizon
        for d in range(5, 40):
            h = refined_horizon(d)
            n = next(
                n for n in range(1, d + 1)
                if arithmetic_genus(d, n) - linsys_dim(d, n) == h + 1
            )
            for m in range(n + 1, 2 * d):
                assert contiguity_holds(d, m)

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            refined_horizon(4)
        with pytest.raises(ValueError):
            coarse_horizon(3)


class TestCertify:
    def test_documented_values(self):
        cert = certify_nongap(6, 8)
        assert (cert.n, cert.delta) == (1, 2)
        cert = certify_nongap(5, 3)
        assert (cert.n, cert.delta) == (1, 3)
        assert certify_nongap(6, 26) is None

    def test_matches_brute_force(self):
        for d in range(4, 10):
            for g in range(0, 200):
                got = certify_nongap(d, g)
                want = brute_certificate(d, g, 3 * d + 10)
                assert (None if got is None else (got.n, got.delta)) == want

    def test_delta_in_range(self):
        for d in range(4, 20):
            for g in range(0, 3 * coarse_horizon(d) // 2 + 2):
                cert = certify_nongap(d, g)
                if cert is not None:
                    assert 0 <= cert.delta <= linsys_dim(d, cert.n)
                    w = realizable_interval(d, cert.n)
                    assert g in w

    def test_degree_four_always_certifies(self):
        for g in range(0, 500):
            cert = certify_nongap(4, g)
            assert cert is not None
            assert arithmetic_genus(4, cert.n) - g == cert.delta

    def test_everything_above_refined_horizon(self):
        rng = random.Random(20260809)
        for d in range(5, 41):
            h = refined_horizon(d)
            for g in range(h + 1, h + 501):
                assert certify_nongap(d, g) is not None, (d, g)
            for _ in range(10):
                g = rng.randint(h + 500, 10**6)
                assert certify_nongap(d, g) is not None, (d, g)


class TestStatus:
    def test_documented_values(self):
        assert status(5, 2).verdict == PROVED_GAP
        assert status(5, 2).source == SOURCE_XU
        assert status(6, 13).verdict == PROVED_GAP
        assert status(6, 13).source == SOURCE_GAPS1
        assert status(6, 26).verdict == UNKNOWN
        assert status(6, 26).source is None

    def test_low_degrees(self):
        for d in (1, 2, 3):
            st = status(d, 17)
            assert st.verdict == CERTIFIED_NONGAP
            assert st.source == SOURCE_LOW_DEGREE
            assert st.certificate is None

    def test_certificate_only_with_severi_source(self):
        for d in range(4, 12):
            for g in range(0, 2 * coarse_horizon(d) + 5):
                st = status(d, g)
                assert (st.certificate is not None) == (st.source == SOURCE_SEVERI)

    def test_degree_five(self):
        for g in range(0, 50):
            st = status(5, g)
            if g <= 2:
                assert st.verdict == PROVED_GAP and st.source == SOURCE_XU
            else:
                assert st.verdict == CERTIFIED_NONGAP and st.certificate is not None

    @given(st.integers(4, 30), st.integers(0, 5000))
    def test_verdict_matches_certificate_search(self, d, g):
        verdict = status(d, g).verdict
        cert = certify_nongap(d, g)
        if cert is not None:
            assert verdict == CERTIFIED_NONGAP
        else:
            assert verdict in (PROVED_GAP, UNKNOWN)


def assert_consistent(d: int, g: int, dec=None) -> None:
    dec = decompose(d) if dec is None else dec
    st = status(d, g)
    if g > dec.horizon:
        assert st.verdict == CERTIFIED_NONGAP, (d, g)
        return
    if st.verdict == PROVED_GAP:
        assert g in dec.proved_gaps, (d, g)
    elif st.verdict == CERTIFIED_NONGAP:
        assert g in dec.nongap_certified, (d, g)
    else:
        assert g in dec.unknown_candidates, (d, g)


class TestDecompose:
    def test_documented_values(self):
        d4 = decompose(4)
        assert not d4.proved_gaps and not d4.unknown_candidates
        assert initial_gap_interval(4) is None  # [0, d(d-3)/2 - 3] is [0, -1]
        d5 = decompose(5)
        assert d5.proved_gaps.to_pairs() == [[0, 2]]
        assert not d5.unknown_candidates
        d6 = decompose(6)
        assert d6.proved_gaps.to_pairs() == [[0, 6], [11, 15]]
        assert d6.unknown_candidates.to_pairs() == [[26, 26]]
        assert d6.horizon == 26
        d7 = decompose(7)
        assert d7.proved_gaps.to_pairs() == [[0, 11], [16, 26]]
        assert d7.unknown_candidates.to_pairs() == [[37, 44]]
        assert d7.horizon == 44

    def test_proved_layers_never_empty(self):
        # _proved_gaps keeps every row's range from its least degree on
        for _, min_d, gap_range in PROVED_LAYERS:
            for d in [*range(min_d, 501), 10**6, 10**12]:
                assert type(gap_range(d)) is Interval, (min_d, d)

    def test_sources(self):
        d6 = decompose(6)
        assert d6.proved_sources == (
            (Interval(0, 6), SOURCE_XU),
            (Interval(11, 15), SOURCE_GAPS1),
        )
        d5 = decompose(5)
        assert d5.proved_sources == ((Interval(0, 2), SOURCE_XU),)

    def test_partition(self):
        for d in [*range(4, 31), 10**4, 5 * 10**4]:
            dec = decompose(d)
            # the renderers read the proved parts off the sources
            assert tuple(i for i, _ in dec.proved_sources) == dec.proved_gaps.parts, d
            total = (
                dec.proved_gaps.count
                + dec.unknown_candidates.count
                + dec.nongap_certified.count
            )
            assert total == dec.horizon + 1
            everything = dec.proved_gaps.union(dec.unknown_candidates).union(
                dec.nongap_certified
            )
            assert everything.count == total  # pairwise disjoint

    def test_status_agrees_with_membership(self):
        for d in range(4, 17):
            dec = decompose(d)
            for g in range(0, 2 * max(coarse_horizon(d), 0) + 5):
                assert_consistent(d, g, dec)

    def test_status_agrees_with_membership_sampled(self):
        rng = random.Random(1)
        for d in (20, 33, 41, 52, 60):
            dec = decompose(d)
            top = 2 * coarse_horizon(d)
            for _ in range(400):
                assert_consistent(d, rng.randint(0, top), dec)

    def test_proved_gaps_never_certifiable(self):
        # theorem-level consistency: no window reaches into a proved gap range
        for d in range(5, 61):
            parts = [initial_gap_interval(d)]
            if d >= 6:
                parts.append(second_gap_interval(d))
            for part in parts:
                assert part is not None
                for g in range(part.lo, part.hi + 1):
                    assert certify_nongap(d, g) is None, (d, g)

    # Each proved range ends next to a window, so by fact (a) (the window
    # bottoms b(n) = p_a(d, n) - l(d, n) never decrease, see
    # ``certify_nongap``) it meets no window and ``decompose`` never charts a
    # genus twice:
    #   Xu-initial top           == b(1) - 1        for d >= 5
    #   MainTheorem-Gaps1 bottom == p_a(d, 1) + 1   for d >= 6
    #   MainTheorem-Gaps1 top    == b(2) - 1        for d >= 6
    # On those degrees both sides are polynomials in d of degree at most 2:
    # p_a(d, n) = d n (d+n-4)/2 + 1 for fixed n, l(d, n) = C(n+3, 3) - 1 for
    # n < d, and the gap bounds are the quadratics of ``gapmap``, whose
    # halvings of d(d-3) and d^2-3d+4 are exact because d and d-3 have
    # opposite parity.  A polynomial of degree at most 2 that vanishes at
    # three points is zero, so the three degrees from the least one prove
    # each identity for every d.
    IDENTITIES = {
        "Xu-initial top": (
            5, lambda d: initial_gap_interval(d).hi - (realizable_interval(d, 1).lo - 1)),
        "MainTheorem-Gaps1 bottom": (
            6, lambda d: second_gap_interval(d).lo - (arithmetic_genus(d, 1) + 1)),
        "MainTheorem-Gaps1 top": (
            6, lambda d: second_gap_interval(d).hi - (realizable_interval(d, 2).lo - 1)),
    }

    @pytest.mark.parametrize("name", sorted(IDENTITIES))
    def test_proved_range_ends_next_to_a_window_for_every_degree(self, name):
        least, difference = self.IDENTITIES[name]
        for d in (least, least + 1, least + 2):
            assert difference(d) == 0, (name, d)
        # far degrees check the degree bound the argument rests on
        for d in (10**6, 10**12 + 1):
            assert difference(d) == 0, (name, d)

    def test_halvings_are_exact(self):
        # the parity of an integer polynomial in d depends only on d mod 2
        for d in (0, 1):
            assert d * (d - 3) % 2 == 0
            assert (d * d - 3 * d + 4) % 2 == 0


class TestWindowSteps:
    """The identities ``_window_union_within`` steps by, proved for every d and n.

    The scan evaluates the window at n = 1 and steps the top by
    p_a(d, n+1) - p_a(d, n) = d(2n+d-3)/2 and the dimension by
    l(n+1) - l(n) = C(n+3, 2), which holds while n+1 < d.
    """

    def test_top_step_for_every_degree(self):
        # p_a(d, n) = d n (d+n-4)/2 + 1 exactly (its halving is proved exact in
        # test_formulas), so each side is a polynomial of degree at most 2 in d
        # and at most 2 in n; two such polynomials that agree on a 3 x 3 grid
        # agree everywhere
        for d, n in itertools.product((5, 6, 7), (1, 2, 3)):
            assert arithmetic_genus(d, n + 1) - arithmetic_genus(d, n) == d * (2 * n + d - 3) // 2

    def test_top_step_halving_is_exact(self):
        # the parity of d(2n+d-3) depends only on (d, n) mod 2
        for d, n in itertools.product((0, 1), repeat=2):
            assert d * (2 * n + d - 3) % 2 == 0, (d, n)

    def test_dimension_step_for_every_degree(self):
        # C(n+4, 3) and C(n+3, 3) are cubics in n with one leading coefficient
        # 1/6, so their difference minus C(n+3, 2) has degree at most 2 and
        # three values of n prove it zero
        for n in (0, 1, 2):
            assert comb(n + 4, 3) - comb(n + 3, 3) == comb(n + 3, 2)
        # below d the system dimension is l(n) = C(n+3, 3) - 1
        for d in (5, 6, 10**6):
            for n in (0, 1, 2, d - 2):
                assert linsys_dim(d, n) == comb(n + 3, 3) - 1
                assert linsys_dim(d, n + 1) - linsys_dim(d, n) == comb(n + 3, 2)

    # the decompose-sweep workload draws degrees from 5 to 5 * 10**4
    @pytest.mark.parametrize("d", [*range(5, 40), 999, 5 * 10**4, 10**5])
    def test_scan_reads_only_degrees_below_d(self, d):
        # the scan keeps the windows at 1..k and stops on reading the one at k+1
        last_read = len(_window_union_within(d, refined_horizon(d)).parts) + 1
        assert last_read <= d - 1


def bottom(d: int, n: int) -> int:
    """b(n) = p_a(d, n) - l(d, n), the bottom of the degree-n window."""
    return arithmetic_genus(d, n) - linsys_dim(d, n)


def join_slack(d: int, n: int) -> int:
    """p_a(d, n-1) + 1 - b(n): how far the window at n starts below the genus above the one at n-1.

    ``contiguity_holds(d, n)`` is exactly ``join_slack(d, n) >= 0``.
    """
    return linsys_dim(d, n) - (arithmetic_genus(d, n) - arithmetic_genus(d, n - 1) - 1)


class TestWindowFacts:
    """Facts (a) and (b) of ``gapmap``, proved for every d.

    Fact (a), which ``certify_nongap`` rests on: for d >= 4 the window
    bottoms b(n) never decrease in n >= 1, as every step s(n) = b(n) - b(n-1)
    is >= 0.  Fact (b), which ``refined_horizon`` rests on: for d >= 5 the n
    in [1, d] at which the windows at n-1 and n join form an upper ray.

    Each fact splits into polynomial identities and sign facts.  An identity
    is read on a region where ``linsys_dim`` is one polynomial: l(d, n) is
    C(n+3, 3) - 1 for n < d, C(d+3, 3) - 2 at n = d, and
    C(n+3, 3) - C(n-d+3, 3) - 1 for n > d, while p_a(d, n) = d n (d+n-4)/2 + 1
    exactly.  A polynomial of degree at most k in d and m in n that vanishes
    on a grid of k+1 degrees by m+1 cutting degrees is zero, so each test
    names the degrees of its identity and reads a grid that large, inside
    the region; the far points only check the region bounds.  Each sign
    fact writes a quantity in a form whose sign can be read off, and proves
    that form as one more identity.
    """

    def test_halving_is_exact(self):
        # the parity of d(2n+d-5) depends only on (d, n) mod 2
        for d, n in itertools.product((0, 1), repeat=2):
            assert d * (2 * n + d - 5) % 2 == 0, (d, n)

    # fact (a)

    def test_step_below_d(self):
        # for 2 <= n <= d-1 both windows are below d, and s(n) is the
        # quadratic d(2n+d-5)/2 - C(n+2, 2); degree 2 in d, 3 in n
        for d, n in [*itertools.product((7, 8, 9), (2, 3, 4, 5)), (10**6, 2), (10**6, 10**6 - 1)]:
            assert bottom(d, n) - bottom(d, n - 1) == d * (2 * n + d - 5) // 2 - comb(n + 2, 2)

    def test_step_is_concave_below_d(self):
        # s(n+1) - s(n) = d - n - 2 falls by one at each n, so s is concave on
        # [2, d-1] and there at least the smaller of s(2) and s(d-1); degree
        # 2 in d and in n
        def s(d, n):
            return d * (2 * n + d - 5) // 2 - comb(n + 2, 2)

        for d, n in itertools.product((5, 6, 7), (2, 3, 4)):
            assert s(d, n + 1) - s(d, n) == d - n - 2

    def test_step_ends_are_nonnegative(self):
        # s(2) = d(d-1)/2 - 6 = (d-4)(d+3)/2 and s(d-1) = d(d-4), each a
        # product of factors >= 0 for d >= 4; degree 2 and 3 in d
        for d in (5, 6, 7, 10**6):
            assert bottom(d, 2) - bottom(d, 1) == d * (d - 1) // 2 - 6 == (d - 4) * (d + 3) // 2
        for d in (5, 6, 7, 8, 10**6):
            assert bottom(d, d - 1) - bottom(d, d - 2) == d * (d - 4)

    def test_step_is_constant_from_d_on(self):
        # s(d) = d(3d-5)/2 - C(d+2, 2) + 1 and, for n > d,
        # s(n) = d(2n+d-5)/2 - C(n+2, 2) + C(n-d+2, 2); both are d(d-4) >= 0.
        # Degree 3 in d, and for n > d also 3 in n
        for d in (5, 6, 7, 8, 10**6):
            assert bottom(d, d) - bottom(d, d - 1) == d * (d - 4)
        for d, n in [*itertools.product((5, 6, 7, 8), (9, 10, 11, 12)), (10**6, 10**6 + 1)]:
            assert bottom(d, n) - bottom(d, n - 1) == d * (d - 4)

    # fact (b)

    def test_join_slack_below_d(self):
        # for 1 <= n < d the windows at n-1 and n join iff
        # f(n) = C(n+3, 3) - d(2n+d-5)/2 >= 0; degree 2 in d, 3 in n
        for d, n in [*itertools.product((7, 8, 9), (1, 2, 3, 4)), (10**6, 10**6 - 1)]:
            f = comb(n + 3, 3) - d * (2 * n + d - 5) // 2
            assert join_slack(d, n) == f
            assert contiguity_holds(d, n) == (f >= 0)

    def test_join_slack_steps_increase(self):
        # f(n+1) - f(n) = C(n+3, 2) - d (degree 2 in d, 3 in n), and each
        # step exceeds the one before by C(n+4, 2) - C(n+3, 2) = n+3 > 0
        # (degree 2 in n): once f has taken a step up it keeps climbing
        def f(d, n):
            return comb(n + 3, 3) - d * (2 * n + d - 5) // 2

        for d, n in itertools.product((5, 6, 7), (1, 2, 3, 4)):
            assert f(d, n + 1) - f(d, n) == comb(n + 3, 2) - d
        for n in (1, 2, 3):
            assert comb(n + 4, 2) - comb(n + 3, 2) == n + 3

    def test_first_join_fails(self):
        # f(1) = 4 - d(d-3)/2 = -1 - (d-5)(d+2)/2 < 0 for d >= 5 (degree 2
        # in d); as f starts below 0, it reaches 0 only after a step up, from
        # which on it climbs, so the joins below d form an upper ray
        for d in (5, 6, 7, 10**6):
            assert join_slack(d, 1) == 4 - d * (d - 3) // 2 == -1 - (d - 5) * (d + 2) // 2

    def test_join_at_d(self):
        # at n = d the slack is C(d+3, 3) - 1 - d(3d-5)/2 = d(d^2-3d+26)/6
        # (degree 3 in d), and 4(d^2-3d+26) = (2d-3)^2 + 95 > 0 (degree 2),
        # so the windows at d-1 and d join
        for d in (5, 6, 7, 8, 10**6):
            assert 6 * join_slack(d, d) == d * (d * d - 3 * d + 26)
        for d in (0, 1, 2):
            assert 4 * (d * d - 3 * d + 26) == (2 * d - 3) ** 2 + 95

    def test_facts_as_the_code_sees_them(self):
        # window bottoms never fall, and the joins in [1, d] are an upper ray
        for d in range(5, 41):
            assert all(bottom(d, n) <= bottom(d, n + 1) for n in range(1, 3 * d)), d
            joins = [contiguity_holds(d, n) for n in range(1, d + 1)]
            assert joins == sorted(joins) and joins[-1], d
