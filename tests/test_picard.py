"""Lattice engine: built-in Gram data, intersection numbers, adjunction."""

from __future__ import annotations

from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genusgaps.formulas import arithmetic_genus
from genusgaps.picard import (
    BUILTINS,
    DivisorClass,
    PicardLattice,
    adjunction_genus,
    builtin_lattice,
    canonical_degree,
    family_dim_bound,
    intersect,
)

# documented self-intersection of the canonical class: the test-side oracle
# for the K^2 each built-in lattice carries
CANONICAL_SQUARES: dict[str, int] = {
    "hirzebruch(0)": 8,
    "hirzebruch(1)": 8,
    "hirzebruch(2)": 8,
    "hirzebruch(3)": 8,
    "elliptic_cone": 0,
    "quartic_cone": -16,
    "k3_quartic": 0,
    "dp2_sep": -2,
    "dp1_sep": -1,
    "dcover_f1": -1,
    "monoid_sep": -3,
    "elliptic_ruled_a": -2,
    "elliptic_ruled_b": -4,
    "elliptic_ruled_c": -2,
    "genus2_scroll": -8,
    "elliptic_scroll_a": 0,
    "elliptic_scroll_b": 0,
    "veronese": 9,
    "segre": 4,
    "blowup_plane(6)": 3,
    "blowup_plane(9)": 0,
}

# normal models: the hyperplane class is orthogonal to the canonical class
NORMAL_QUARTICS = (
    "quartic_cone",
    "k3_quartic",
    "dp2_sep",
    "dp1_sep",
    "dcover_f1",
    "monoid_sep",
    "elliptic_ruled_a",
    "elliptic_ruled_b",
    "elliptic_ruled_c",
)

RULED = {
    "hirzebruch(0)": "F",
    "hirzebruch(1)": "F",
    "hirzebruch(2)": "F",
    "hirzebruch(3)": "F",
    "elliptic_cone": "F",
    "quartic_cone": "F",
    "genus2_scroll": "F",
    "elliptic_scroll_a": "F",
    "elliptic_scroll_b": "F",
    "elliptic_ruled_a": "F",
    "elliptic_ruled_b": "F",
    "elliptic_ruled_c": "F",
}

# the two family rules, as (section label, genus q of the base curve) of each
# ruled surface and the number r of points blown up in each plane
RULED_SECTIONS = {
    "hirzebruch(0)": ("E", 0),
    "hirzebruch(1)": ("E", 0),
    "hirzebruch(2)": ("E", 0),
    "hirzebruch(3)": ("E", 0),
    "elliptic_cone": ("E", 1),
    "quartic_cone": ("E0", 3),
    "genus2_scroll": ("E", 2),
    "elliptic_scroll_a": ("D1", 1),
    "elliptic_scroll_b": ("D1", 1),
}
BLOWN_UP_PLANES = {"veronese": 0, "segre": 5, "blowup_plane(6)": 6, "blowup_plane(9)": 9}


def diag_intersect(signs: list[int], a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Independent evaluation for diagonal Gram matrices."""
    return sum(s * x * y for s, x, y in zip(signs, a, b))


def nested_intersect(lat: PicardLattice, a: DivisorClass, b: DivisorClass) -> int:
    """Intersection number a . b, evaluated exactly through the Gram matrix."""
    if len(a.coeffs) != lat.rank or len(b.coeffs) != lat.rank:
        raise ValueError(f"{lat.name}: class rank does not match lattice rank {lat.rank}")
    return sum(
        ai * lat.gram[i][j] * bj
        for i, ai in enumerate(a.coeffs)
        if ai
        for j, bj in enumerate(b.coeffs)
        if bj
    )


@st.composite
def lattice_and_classes(draw, rank_shift: int = 0):
    """A built-in lattice and two classes on it, the second ``rank_shift`` longer."""
    lat = draw(st.sampled_from(BUILTINS))
    coeffs = st.integers(-(10**6), 10**6) | st.sampled_from([0, 0, 1, -1])
    a = draw(st.lists(coeffs, min_size=lat.rank, max_size=lat.rank))
    size = lat.rank + rank_shift
    b = draw(st.lists(coeffs, min_size=size, max_size=size))
    return lat, DivisorClass(tuple(a)), DivisorClass(tuple(b))


class TestBuiltins:
    @pytest.mark.parametrize("name", sorted(CANONICAL_SQUARES))
    def test_canonical_square(self, name):
        lat = builtin_lattice(name)
        assert intersect(lat, lat.canonical, lat.canonical) == CANONICAL_SQUARES[name]
        assert lat.k2 == CANONICAL_SQUARES[name]

    def test_registry_is_the_oracle_key_set(self):
        assert sorted(lat.name for lat in BUILTINS) == sorted(CANONICAL_SQUARES)
        assert len(BUILTINS) == 21
        assert all(builtin_lattice(lat.name) is lat for lat in BUILTINS)
        assert all(lat.description for lat in BUILTINS)

    def test_surface_degrees(self):
        # adjunction applies to the normal cubic and quartic models only
        degrees = {lat.name: lat.degree for lat in BUILTINS if lat.degree is not None}
        assert degrees == {
            "elliptic_cone": 3,
            "blowup_plane(6)": 3,
            **{name: 4 for name in NORMAL_QUARTICS},
        }
        for name, deg in degrees.items():
            h = builtin_lattice(name).cls("H")
            assert intersect(builtin_lattice(name), h, h) == deg

    @pytest.mark.parametrize("name", NORMAL_QUARTICS)
    def test_normal_quartic_hyperplane(self, name):
        lat = builtin_lattice(name)
        h = lat.cls("H")
        assert intersect(lat, h, h) == 4
        assert canonical_degree(lat, h) == 0

    @pytest.mark.parametrize("name,fiber", sorted(RULED.items()))
    def test_rational_fiber(self, name, fiber):
        lat = builtin_lattice(name)
        f = lat.cls(fiber)
        assert intersect(lat, f, f) == 0
        assert canonical_degree(lat, f) == -2

    @pytest.mark.parametrize("name", sorted(RULED_SECTIONS))
    def test_ruled_section_has_the_base_genus(self, name):
        # C^2 + K.C = 2q - 2 for the section C over a genus-q curve
        section, q = RULED_SECTIONS[name]
        lat = builtin_lattice(name)
        assert lat.basis == (section, "F")
        c, f = lat.cls(section), lat.cls("F")
        assert adjunction_genus(lat, c) == q
        assert intersect(lat, f, f) == 0
        assert intersect(lat, c, f) == 1

    @pytest.mark.parametrize("name,r", sorted(BLOWN_UP_PLANES.items()))
    def test_blown_up_plane_classes_are_rational(self, name, r):
        lat = builtin_lattice(name)
        exceptional = [f"E{i}" for i in range(1, r + 1)]
        assert lat.basis == ("L", *exceptional)
        assert adjunction_genus(lat, lat.cls("L")) == 0
        for label in exceptional:
            e = lat.cls(label)
            assert adjunction_genus(lat, e) == 0
            assert intersect(lat, e, e) == -1

    def test_cubic_models(self):
        for name in ("elliptic_cone", "hirzebruch(1)", "hirzebruch(3)", "blowup_plane(6)"):
            lat = builtin_lattice(name)
            h = lat.cls("H")
            assert intersect(lat, h, h) == 3

    def test_orthogonality_of_contracted_classes(self):
        checks = {
            "elliptic_ruled_a": ("X1", "X2"),
            "elliptic_ruled_b": ("E1", "E2"),
            "elliptic_ruled_c": ("Xi", "Delta1"),
            "quartic_cone": ("E0",),
            "dcover_f1": ("Ep", "R"),
            "monoid_sep": ("E",),
            "dp1_sep": ("E",),
            "dp2_sep": ("E",),
        }
        for name, labels in checks.items():
            lat = builtin_lattice(name)
            h = lat.cls("H")
            for label in labels:
                assert intersect(lat, h, lat.cls(label)) == 0, (name, label)

    def test_documented_component_data(self):
        # cone over a plane quartic: anticanonical is twice the vertex section
        cone = builtin_lattice("quartic_cone")
        e0, e = cone.cls("E0"), cone.cls("E")
        assert intersect(cone, e0, e0) == -4
        assert e == 2 * e0
        assert -intersect(cone, e, e0) == 8
        # Segre symmetroid: the curve class is anticanonical
        segre = builtin_lattice("segre")
        gamma = 6 * segre.cls("H")
        assert canonical_degree(segre, gamma) == -24
        # elliptic-pencil models: sections meet the fiber once
        ra = builtin_lattice("elliptic_ruled_a")
        assert intersect(ra, ra.cls("H"), ra.cls("F")) == 3
        rb = builtin_lattice("elliptic_ruled_b")
        assert intersect(rb, rb.cls("H"), rb.cls("F")) == 2
        assert intersect(rb, rb.cls("E1"), rb.cls("E2")) == 0
        assert intersect(rb, rb.cls("E2"), rb.cls("E2")) == -2
        assert canonical_degree(rb, rb.cls("F1")) == 0
        assert canonical_degree(rb, rb.cls("F2")) == 0
        # double-cover model: the rational pencil meets the contracted curve twice
        dc = builtin_lattice("dcover_f1")
        assert intersect(dc, dc.cls("L"), dc.cls("E")) == 2
        assert intersect(dc, dc.cls("E"), dc.cls("E")) == -1
        assert intersect(dc, dc.cls("E"), dc.cls("Ep")) == -1

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_lattice("banana")
        with pytest.raises(KeyError):
            builtin_lattice("hirzebruch(4)")
        with pytest.raises(KeyError):
            builtin_lattice("blowup_plane(7)")
        with pytest.raises(KeyError):
            builtin_lattice("blowup_plane(1)")


class TestIntersect:
    def test_hirzebruch_one(self):
        lat = builtin_lattice("hirzebruch(1)")
        assert intersect(lat, lat.canonical, lat.cls("H")) == -5

    def test_blowup_plane_nine_against_diagonal_oracle(self):
        lat = builtin_lattice("blowup_plane(9)")
        signs = [1] + [-1] * 9
        k, h = lat.canonical, lat.cls("H")
        assert diag_intersect(signs, k.coeffs, h.coeffs) == -2
        assert intersect(lat, k, h) == -2
        lam = lat.cls("Lam")
        assert intersect(lat, lam, h) == diag_intersect(signs, lam.coeffs, h.coeffs) == 2
        for label in ("A1", "A2"):
            a = lat.cls(label)
            assert intersect(lat, k, a) == diag_intersect(signs, k.coeffs, a.coeffs) == 1
            assert intersect(lat, lam, a) == 1
            assert intersect(lat, h, a) == 0

    def test_rank_mismatch(self):
        lat = builtin_lattice("segre")
        with pytest.raises(ValueError):
            intersect(lat, DivisorClass((1, 0)), lat.cls("H"))
        with pytest.raises(ValueError, match="rank mismatch: 1 vs 2"):
            DivisorClass((1,)) + DivisorClass((1, 0))

    @given(lattice_and_classes())
    def test_matches_nested_oracle(self, drawn):
        lat, a, b = drawn
        assert intersect(lat, a, b) == nested_intersect(lat, a, b)
        assert intersect(lat, b, a) == intersect(lat, a, b)

    @given(lattice_and_classes(rank_shift=-1) | lattice_and_classes(rank_shift=1))
    def test_rank_mismatch_on_either_side(self, drawn):
        lat, a, b = drawn
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="does not match lattice rank"):
                nested_intersect(lat, x, y)
            with pytest.raises(ValueError, match="does not match lattice rank"):
                intersect(lat, x, y)


class TestGramRows:
    @pytest.mark.parametrize("lat", BUILTINS, ids=lambda lat: lat.name)
    def test_row_products_match_intersect(self, lat):
        labels = sorted({*lat.named, *lat.basis})
        assert sorted(lat.rows) == labels  # K is no label
        lefts = [(a, lat.rows[a], lat.cls(a)) for a in labels]
        lefts.append(("K", lat.canonical_row, lat.canonical))
        for a, row, left in lefts:
            for b in labels:
                right = lat.cls(b)
                assert sum(map(mul, row, right.coeffs)) == intersect(lat, left, right), (a, b)

    def test_rows_are_built_with_the_lattice(self):
        # a doctored Gram matrix moves them, and a named class shadows the
        # basis vector of the same label, as in cls
        k3 = builtin_lattice("k3_quartic")
        doctored = PicardLattice(k3.name, k3.basis, ((5,),), k3.canonical, k3.named)
        assert doctored.rows == {"H": (5,)} and doctored.canonical_row == (0,)
        assert k3.rows == {"H": (4,)}
        shadow = PicardLattice("shadow", ("A", "B"), ((1, 0), (0, -1)), DivisorClass((-1, 1)),
                               {"A": DivisorClass((1, 1))})
        assert shadow.rows == {"A": (1, -1), "B": (0, -1)} and shadow.canonical_row == (-1, -1)


class TestCanonicalDegree:
    def test_documented_values(self):
        cone = builtin_lattice("elliptic_cone")
        assert canonical_degree(cone, 6 * cone.cls("H") - cone.cls("E")) == -21
        f3 = builtin_lattice("hirzebruch(3)")
        assert canonical_degree(f3, 6 * f3.cls("H") - f3.cls("E")) == -31
        scroll = builtin_lattice("genus2_scroll")
        assert canonical_degree(scroll, 6 * scroll.cls("H") - scroll.cls("E")) == -18

    def test_cubic_formula_table(self):
        # the five per-degree values across the cubic families
        cone = builtin_lattice("elliptic_cone")
        f3 = builtin_lattice("hirzebruch(3)")
        f1 = builtin_lattice("hirzebruch(1)")
        duval = builtin_lattice("blowup_plane(6)")
        for d in range(5, 21):
            assert canonical_degree(duval, d * duval.cls("H")) == -3 * d
            assert canonical_degree(cone, d * cone.cls("H")) == -3 * d
            assert canonical_degree(cone, d * cone.cls("H") - cone.cls("E")) == -3 * d - 3
            assert canonical_degree(f3, d * f3.cls("H")) == -5 * d
            assert canonical_degree(f3, d * f3.cls("H") - f3.cls("E")) == -5 * d - 1
            assert canonical_degree(f1, d * f1.cls("H")) == -5 * d

    @given(
        st.sampled_from(["elliptic_cone", "dp1_sep", "segre", "elliptic_ruled_b"]),
        st.integers(-50, 50),
        st.integers(-50, 50),
    )
    def test_linearity(self, name, a, b):
        lat = builtin_lattice(name)
        g1 = lat.cls("H")
        g2 = lat.canonical + 2 * lat.cls(lat.basis[0])
        combo = a * g1 + b * g2
        assert canonical_degree(lat, combo) == a * canonical_degree(
            lat, g1
        ) + b * canonical_degree(lat, g2)


class TestFamilyDimBound:
    def test_documented_values(self):
        assert family_dim_bound(15, 0) == 15
        assert family_dim_bound(14, -24) == 37
        assert family_dim_bound(11, -18) == 28

    @given(st.integers(0, 10**6), st.integers(-(10**6), 10**6))
    def test_max_form(self, g, kappa):
        v = family_dim_bound(g, kappa)
        assert v == max(g, g - 1 - kappa)
        assert v >= g

    def test_rejects_negative_genus(self):
        with pytest.raises(ValueError):
            family_dim_bound(-1, 0)


class TestAdjunction:
    def test_cubic_models(self):
        for name in ("elliptic_cone", "blowup_plane(6)"):
            lat = builtin_lattice(name)
            h = lat.cls("H")
            for d in range(1, 31):
                assert adjunction_genus(lat, d * h) == arithmetic_genus(3, d)

    @pytest.mark.parametrize("name", NORMAL_QUARTICS)
    def test_quartic_models(self, name):
        lat = builtin_lattice(name)
        h = lat.cls("H")
        for d in range(1, 31):
            assert adjunction_genus(lat, d * h) == arithmetic_genus(4, d)
