"""Acceptance suite: one test per shipping criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact integer equality; the only tolerances are
the wall-clock budgets stated inline.
"""

from __future__ import annotations

import random
import time

from genusgaps import cli
from genusgaps.cases import load_cases, max_neg_canonical_degree, verify_elimination
from genusgaps.formulas import arithmetic_genus, contiguity_holds
from genusgaps.gapmap import (
    CERTIFIED_NONGAP,
    candidate_gap_interval,
    certify_nongap,
    coarse_horizon,
    decompose,
    refined_horizon,
    status,
)
from genusgaps.intervals import Interval, IntervalSet
from genusgaps.picard import (
    adjunction_genus,
    builtin_lattice,
    canonical_degree,
)


def report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


def cube_root_ceil(value: int) -> int:
    """Least k with k^3 >= value, by integer search."""
    k = 0
    while k**3 < value:
        k += 1
    return k


def test_criterion_1_quintic_gaps():
    t0 = time.monotonic()
    dec = decompose(5)
    assert dec.proved_gaps.to_pairs() == [[0, 2]]
    assert dec.unknown_candidates.to_pairs() == []
    for g in range(3, 10_001):
        assert certify_nongap(5, g) is not None, g
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(1, f"degree-5 gaps are exactly {{0,1,2}}, genera 3..10000 certified ({elapsed:.2f}s)")


def test_criterion_2_low_degrees_have_no_gaps():
    t0 = time.monotonic()
    for d in (1, 2, 3, 4):
        for g in range(0, 10_001):
            assert status(d, g).verdict == CERTIFIED_NONGAP, (d, g)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(2, f"degrees 1..4 certified non-gap for every genus in 0..10000 ({elapsed:.2f}s)")


def test_criterion_3_second_gap_range_closed_form():
    for d in range(6, 501):
        assert candidate_gap_interval(d, 1) == Interval(
            (d * d - 3 * d + 4) // 2, d * d - 2 * d - 9
        ), d
    report(3, "second gap range matches its closed form for degrees 6..500")


def test_criterion_4_contiguity_from_degree_on():
    for d in range(4, 101):
        for n in range(d, 3 * d + 1):
            assert contiguity_holds(d, n), (d, n)
    report(4, "windows join for every n in [d, 3d], degrees 4..100")


def test_criterion_5_horizons():
    assert refined_horizon(5) == 2
    for d in range(5, 201):
        coarse = coarse_horizon(d)
        assert coarse == d * (d - 1) * (5 * d - 19) // 6 - 1
        assert refined_horizon(d) <= coarse
        # sufficiency of the cube-root threshold for window joining below d
        for n in range(cube_root_ceil(12 * d * d), d):
            assert contiguity_holds(d, n), (d, n)
    report(5, "refined horizon 2 at degree 5; refined <= coarse and cube-root "
              "sufficiency hold for degrees 5..200")


def test_criterion_6_kappa_table():
    cone = builtin_lattice("elliptic_cone")
    f3 = builtin_lattice("hirzebruch(3)")
    f1 = builtin_lattice("hirzebruch(1)")
    duval = builtin_lattice("blowup_plane(6)")
    for d in (6, 7, 8):
        assert canonical_degree(duval, d * duval.cls("H")) == -3 * d
        assert canonical_degree(cone, d * cone.cls("H")) == -3 * d
        assert canonical_degree(cone, d * cone.cls("H") - cone.cls("E")) == -3 * d - 3
        assert canonical_degree(f3, d * f3.cls("H")) == -5 * d
        assert canonical_degree(f3, d * f3.cls("H") - f3.cls("E")) == -5 * d - 1
        assert canonical_degree(f1, d * f1.cls("H")) == -5 * d
    quartic_bounds = {
        "quartic-cone": 8,
        "quartic-dp2": 24,
        "quartic-dp1": 24,
        "quartic-elliptic-scroll-a": 24,
        "quartic-elliptic-scroll-b": 24,
        "quartic-segre": 24,
        "quartic-dcover": 11,
        "quartic-elliptic-ruled-a": 16,
        "quartic-elliptic-ruled-b-two": 20,
        "quartic-elliptic-ruled-b-one": 20,
        "quartic-elliptic-ruled-c": 16,
        "quartic-genus2-scroll": 18,
        "quartic-monoid": 20,
        "quartic-rational-b": 22,
        "quartic-rational-c": 36,
    }
    records = {r.id: r for r in load_cases()}
    for case_id, bound in quartic_bounds.items():
        assert max_neg_canonical_degree(records[case_id], 6) == bound, case_id
    # the projected models all reach -kappa = 36 on the 6H class
    for name in ("veronese", "hirzebruch(0)", "hirzebruch(2)"):
        lat = builtin_lattice(name)
        assert canonical_degree(lat, 6 * lat.cls("H")) == -36, name
    report(6, "every cubic and quartic kappa value/bound reproduced from Gram matrices")


def test_criterion_7_proof_verifier(capsys):
    t0 = time.monotonic()
    rc = cli.main(["verify", "cases"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert rc == 0
    assert "all 120 checks passed" in out
    assert "eliminate/quartic-rational-c/d6-n4-g15: family_dim 17 < 23" in out
    assert any("< 73" in line for line in out.splitlines() if "quartic" in line)
    assert elapsed < 1.0
    with capsys.disabled():
        report(7, f"verify cases: 13 triples eliminated by every applicable family, "
                  f"exit 0 ({elapsed:.2f}s)")
    assert verify_elimination().ok


def test_criterion_8_adjunction_oracle():
    cubic_models = ("elliptic_cone", "blowup_plane(6)")
    quartic_models = (
        "quartic_cone", "k3_quartic", "dp2_sep", "dp1_sep", "dcover_f1",
        "monoid_sep", "elliptic_ruled_a", "elliptic_ruled_b", "elliptic_ruled_c",
    )
    for names, deg in ((cubic_models, 3), (quartic_models, 4)):
        for name in names:
            lat = builtin_lattice(name)
            h = lat.cls("H")
            for d in range(1, 31):
                assert adjunction_genus(lat, d * h) == arithmetic_genus(deg, d), (name, d)
    report(8, "lattice adjunction genus matches the closed-form genus, degrees 1..30")


def test_criterion_9_interval_algebra_against_bitset():
    t0 = time.monotonic()
    rng = random.Random(0xC0FFEE)
    top = 100_000
    bound = Interval(0, top)
    for trial in range(1_000):
        families = []
        oracles = []
        for _ in range(2):
            ivs = []
            for _ in range(rng.randint(0, 12)):
                lo = rng.randint(0, top)
                hi = min(top, lo + rng.randint(0, 250))
                ivs.append(Interval(lo, hi))
            families.append(IntervalSet(ivs))
            oracles.append({g for iv in ivs for g in range(iv.lo, iv.hi + 1)})
        union = families[0].union(families[1])
        want = oracles[0] | oracles[1]
        assert {g for p in union for g in range(p.lo, p.hi + 1)} == want
        comp = union.complement_within(bound)
        assert comp.count == top + 1 - len(want)
        probes = [rng.randint(0, top) for _ in range(40)]
        for p in union:
            probes.extend((p.lo, p.hi, p.lo - 1, p.hi + 1))
        for g in probes:
            if 0 <= g <= top:
                assert (g in union) == (g in want)
                assert (g in comp) == (g not in want)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(9, f"1000 randomized families agree with the per-integer oracle ({elapsed:.2f}s)")


def test_criterion_10_sextic_and_septic_decompositions():
    d6 = decompose(6)
    assert d6.proved_gaps.to_pairs() == [[0, 6], [11, 15]]
    assert d6.unknown_candidates.to_pairs() == [[26, 26]]
    assert d6.horizon == 26
    d7 = decompose(7)
    assert d7.proved_gaps.to_pairs() == [[0, 11], [16, 26]]
    assert d7.unknown_candidates.to_pairs() == [[37, 44]]
    assert d7.horizon == 44
    report(10, "degree-6 and degree-7 decompositions match their certified values")
