"""Closed-form invariants against independent counting oracles."""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genusgaps.formulas import (
    ambient_dim,
    arithmetic_genus,
    clemens_min_genus,
    contiguity_holds,
    cut_system_dim,
    linsys_dim,
)
from genusgaps.gapmap import (
    certify_nongap,
    coarse_horizon,
    decompose,
    initial_gap_interval,
    realizable_interval,
    second_gap_interval,
    status,
)
from genusgaps.picard import family_dim_bound


def count_monomials_up_to(degree: int) -> int:
    """Monomials of degree <= degree in 3 variables, by brute enumeration."""
    return sum(
        1
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
        for c in range(degree + 1 - a - b)
    )


class TestAmbientDim:
    def test_documented_values(self):
        assert ambient_dim(3) == 19
        assert ambient_dim(0) == 0
        assert ambient_dim(6) == 83

    @pytest.mark.parametrize("d", range(0, 12))
    def test_matches_monomial_enumeration(self, d):
        assert ambient_dim(d) == count_monomials_up_to(d) - 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ambient_dim(-1)


class TestLinsysDim:
    def test_documented_values(self):
        assert linsys_dim(5, 1) == 3
        assert linsys_dim(9, 2) == 9
        # oracle: monomial counts, frozen
        assert count_monomials_up_to(6) - count_monomials_up_to(0) - 1 == 82
        assert linsys_dim(6, 6) == 82

    def test_degree_zero_cut(self):
        assert linsys_dim(7, 0) == 0

    @pytest.mark.parametrize("d", range(1, 15))
    def test_polynomial_form_small_cut(self, d):
        # printed closed form of the n < d branch
        for n in range(0, d):
            assert 6 * linsys_dim(d, n) == n * (n * n + 6 * n + 11)

    @pytest.mark.parametrize("d", range(1, 15))
    def test_polynomial_form_large_cut(self, d):
        # printed closed form of the n >= d branch
        for n in range(d, 3 * d + 1):
            poly = d * (3 * n * n - 3 * n * (d - 4) + (d * d - 6 * d + 11)) - 6
            assert 6 * linsys_dim(d, n) == poly

    def test_quartic_coincidence(self):
        # the degree-4 window always starts at genus 0
        for n in range(1, 201):
            assert linsys_dim(4, n) == arithmetic_genus(4, n)


# every message comes from a check in formulas, whichever module calls it
@pytest.mark.parametrize(
    "fn,args,match",
    [
        (linsys_dim, (0, 1), "surface degree must be >= 1, got 0"),
        (arithmetic_genus, (5, -1), "cutting degree must be >= 0, got -1"),
        (clemens_min_genus, (6, 0), "cutting degree must be >= 1, got 0"),
        (contiguity_holds, (6, 0), "cutting degree must be >= 1, got 0"),
        (linsys_dim, (5, -1), "cutting degree must be >= 0, got -1"),
        (status, (6, -1), "genus must be >= 0, got -1"),
        (family_dim_bound, (-1, 0), "genus must be >= 0, got -1"),
        (clemens_min_genus, (4, 1), "surface degree must be >= 5, got 4"),
    ],
    ids=["linsys_dim", "arithmetic_genus", "clemens_min_genus", "contiguity_holds",
         "linsys_dim_cut", "status", "family_dim_bound", "clemens_min_genus_degree"],
)
def test_rejects_degree_out_of_range(fn, args, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        fn(*args)


# a degree or genus whose type is not exactly int, a bool included, is refused
# with the checker's own message, never computed with or failed on inside math
NOT_AN_INT = [
    (status, (6, 13.5), "genus must be an int, got 13.5"),
    (status, (6, Fraction(27, 2)), "genus must be an int, got Fraction(27, 2)"),
    (status, (6.0, 13), "surface degree must be an int, got 6.0"),
    (second_gap_interval, (7.5,), "surface degree must be an int, got 7.5"),
    (initial_gap_interval, (7.0,), "surface degree must be an int, got 7.0"),
    (arithmetic_genus, (5.5, 2), "surface degree must be an int, got 5.5"),
    (clemens_min_genus, (6, 1.5), "cutting degree must be an int, got 1.5"),
    (coarse_horizon, (7.5,), "surface degree must be an int, got 7.5"),
    (family_dim_bound, (3.5, 2), "genus must be an int, got 3.5"),
    (contiguity_holds, (6.5, 2), "surface degree must be an int, got 6.5"),
    (linsys_dim, (5, 2.0), "cutting degree must be an int, got 2.0"),
    (linsys_dim, (5, True), "cutting degree must be an int, got True"),
    (realizable_interval, (6, 1.5), "cutting degree must be an int, got 1.5"),
    (certify_nongap, (6, 30.5), "genus must be an int, got 30.5"),
    (decompose, (7.0,), "surface degree must be an int, got 7.0"),
]


@pytest.mark.parametrize(
    "fn,args,message", NOT_AN_INT,
    ids=[f"{fn.__name__}-{'-'.join(map(str, args))}" for fn, args, _ in NOT_AN_INT],
)
def test_rejects_a_degree_or_genus_that_is_not_an_int(fn, args, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        fn(*args)


class TestArithmeticGenus:
    def test_documented_values(self):
        assert arithmetic_genus(6, 1) == 10
        assert arithmetic_genus(9, 0) == 1
        assert arithmetic_genus(7, 2) == 36  # cross-checked by adjunction in test_picard

    def test_always_integral(self):
        for d in range(1, 101):
            for n in range(0, 3 * d + 1):
                assert d * n * (d + n - 4) % 2 == 0
                assert 2 * (arithmetic_genus(d, n) - 1) == d * n * (d + n - 4)

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_integral_at_scale(self, d, n):
        assert isinstance(arithmetic_genus(d, n), int)

    def test_halving_is_exact_for_every_degree(self):
        # arithmetic_genus halves d*n*(d+n-4) unchecked; the parity of an
        # integer polynomial depends only on its arguments mod 2, so the four
        # residues of (d, n) prove the numerator even for every d and n
        for d, n in itertools.product((0, 1), repeat=2):
            assert d * n * (d + n - 4) % 2 == 0, (d, n)


class TestCutSystemDim:
    def test_documented_values(self):
        assert cut_system_dim(4, 6) == 73
        assert cut_system_dim(3, 3) == 18
        # both routes must agree: binomial definition and printed closed form
        assert cut_system_dim(3, 6) == 3 * 6 * 7 // 2 == 63

    @pytest.mark.parametrize("d", range(4, 201))
    def test_closed_forms(self, d):
        assert 2 * cut_system_dim(3, d) == 3 * d * (d + 1)
        assert cut_system_dim(4, d) == 2 * d * d + 1

    def test_matches_ambient_dim_difference(self):
        # degree-d surfaces modulo those containing the degree-n surface
        for d in range(1, 81):
            for n in range(1, d + 1):
                assert cut_system_dim(n, d) == ambient_dim(d) - ambient_dim(d - n) - 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cut_system_dim(7, 6)
        with pytest.raises(ValueError):
            cut_system_dim(0, 6)


class TestClemensMinGenus:
    def test_documented_values(self):
        assert clemens_min_genus(7, 3) == 23
        assert clemens_min_genus(5, 1) == 2
        assert clemens_min_genus(6, 4) == 14

    def test_least_strictly_above_bound(self):
        for d in range(5, 40):
            for n in range(1, 12):
                bound2 = n * d * (d - 5) + 2  # twice the strict lower bound
                g = clemens_min_genus(d, n)
                assert 2 * g > bound2
                assert 2 * (g - 1) <= bound2

    def test_halving_is_exact_for_every_degree(self):
        # clemens_min_genus halves n*d*(d-5) unchecked; d and d-5 have
        # opposite parity, so d*(d-5) is even, and as above the four
        # residues of (d, n) mod 2 prove the numerator even for every d and n
        for d, n in itertools.product((0, 1), repeat=2):
            assert n * d * (d - 5) % 2 == 0, (d, n)

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            clemens_min_genus(4, 1)


def window(d: int, n: int) -> tuple[int, int]:
    g, l = arithmetic_genus(d, n), linsys_dim(d, n)
    return g - l, g


class TestContiguity:
    @pytest.mark.parametrize(
        "d,n,expect", [(6, 3, False), (6, 4, True), (10, 10, True)]
    )
    def test_documented_values(self, d, n, expect):
        assert contiguity_holds(d, n) is expect

    @pytest.mark.parametrize("d", range(4, 30))
    def test_matches_interval_union_oracle(self, d):
        # oracle: the two windows join iff their pointwise union has no hole
        for n in range(1, 2 * d + 1):
            lo0, hi0 = window(d, n - 1)
            lo1, hi1 = window(d, n)
            pts = set(range(lo0, hi0 + 1)) | set(range(lo1, hi1 + 1))
            joined = pts == set(range(min(pts), max(pts) + 1))
            assert contiguity_holds(d, n) is joined

    def test_holds_from_degree_on(self):
        for d in range(4, 60):
            for n in range(d, 2 * d + 1):
                assert contiguity_holds(d, n)
