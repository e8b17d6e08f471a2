"""Integer intersection arithmetic on numerical Picard lattices.

A lattice here is a numerical-equivalence model of a surface: a basis of
divisor-class labels, the symmetric Gram matrix of their pairwise
intersection numbers, the canonical class, and a dictionary of named
classes (hyperplane class, fiber class, exceptional components, ...).

The built-in lattices model the surface families that can carry a
low-genus curve cut out by a small-degree hypersurface: cubic cones and
scrolls, and the irreducible quartics (K3, cone over a plane quartic,
rational and elliptic-ruled models with an irrational singular point,
non-normal scrolls, the Segre symmetroid, projected quartics).  Each one
records only Gram data, never the surface itself, and every downstream
number is recomputed from the Gram matrix.  Thirteen follow from a family
rule: nine ruled surfaces (``_ruled``) and four blown-up planes
(``_plane``).  A rule reads only the family's parameters and returns a
basis, Gram matrix and K; the other eight write those out in full, and
``_lat`` builds every lattice from them.

``BUILTINS`` is the one registry of the 21 built-in lattices, built once at
import; ``builtin_lattice`` looks a name up there and nothing else.  Each
lattice carries its documented K^2 (``k2``) and, for the normal cubic and
quartic models where adjunction gives the closed-form genus, the degree of
the surface (``degree``); the case-table audit reads both from here.
"""

from __future__ import annotations

from operator import mul

from ._value import Value, setters
from .formulas import _check_genus

# the default of ``PicardLattice.named``, replaced by a new dict in each lattice
_FRESH_DICT: dict = {}
# the one type a class's coefficients may have: bool, an int subclass, is refused
_INT = frozenset((int,))
# what a family rule returns: the basis labels, the Gram matrix and K's coefficients
_Rule = tuple[tuple[str, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]


class DivisorClass(Value):
    """Integer coefficient vector in a lattice basis.

    The coefficients must be a tuple of exact ``int``s, so every
    intersection number stays exact and the class is hashable; anything
    else, a ``bool`` included, raises ``TypeError``.  A class scales by an
    ``int`` (``k * c``), and by nothing else.
    """

    __slots__ = __match_args__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if coeffs.__class__ is not tuple or not _INT.issuperset(map(type, coeffs)):
            raise TypeError(f"coefficients must be a tuple of int, got {coeffs!r}")
        _set_coeffs(self, coeffs)

    def __rmul__(self, k: int) -> "DivisorClass":
        # a multiplier that is not exactly an int (a bool included) gets TypeError,
        # so every coefficient stays an exact int, as the constructor requires
        if type(k) is not int:
            return NotImplemented
        return DivisorClass(tuple(k * a for a in self.coeffs))


(_set_coeffs,) = setters(DivisorClass)


class PicardLattice(Value):
    """A basis, its Gram matrix, the canonical class and named classes.

    Unhashable, as ``named`` is a dict; each lattice gets a fresh one by
    default.  The constructor also keeps the Gram row of K
    (``canonical_row``), built by ``_gram_row``, which holds K's products
    K . e_j with the basis vectors, so K . b is one dot product of that row
    with b's coefficients, and ``canonical_degree`` reads it.  It takes no
    part in ``==``, ``hash`` or ``repr``.
    """

    __match_args__ = (
        "name", "basis", "gram", "canonical", "named", "description", "k2", "degree",
    )
    __slots__ = (*__match_args__, "canonical_row")

    name: str
    basis: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    canonical: DivisorClass
    named: dict[str, DivisorClass]
    description: str
    k2: int | None  # documented K.K, audited against the Gram matrix
    degree: int | None  # surface degree in P^3, set where adjunction applies
    canonical_row: tuple[int, ...]

    def __init__(
        self,
        name: str,
        basis: tuple[str, ...],
        gram: tuple[tuple[int, ...], ...],
        canonical: DivisorClass,
        named: dict[str, DivisorClass] = _FRESH_DICT,
        description: str = "",
        k2: int | None = None,
        degree: int | None = None,
    ) -> None:
        _set_name(self, name)
        _set_basis(self, basis)
        _set_gram(self, gram)
        _set_canonical(self, canonical)
        _set_named(self, {} if named is _FRESH_DICT else named)
        _set_description(self, description)
        _set_k2(self, k2)
        _set_degree(self, degree)
        r = len(self.basis)
        if len(self.gram) != r or any(len(row) != r for row in self.gram):
            raise ValueError(f"{self.name}: gram must be {r}x{r}")
        for i in range(r):
            for j in range(r):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError(f"{self.name}: gram not symmetric at ({i},{j})")
        for label, cls in {**self.named, "K": self.canonical}.items():
            if len(cls.coeffs) != r:
                raise ValueError(f"{self.name}: class {label} has wrong rank")
        _set_canonical_row(self, _gram_row(self, self.canonical.coeffs))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def cls(self, label: str) -> DivisorClass:
        """Named class, or a basis unit vector by basis label."""
        if label in self.named:
            return self.named[label]
        if label in self.basis:
            i = self.basis.index(label)
            return DivisorClass((0,) * i + (1,) + (0,) * (self.rank - i - 1))
        raise KeyError(f"{self.name}: no class named {label!r}")


(_set_name, _set_basis, _set_gram, _set_canonical, _set_named, _set_description, _set_k2,
 _set_degree, _set_canonical_row) = setters(PicardLattice)


def _gram_row(lat: PicardLattice, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The products c . e_j of the class with these coefficients and the basis vectors.

    The one place a Gram row is computed.  The Gram matrix is symmetric, so
    entry j is the dot product of Gram row j with the coefficients.
    """
    return tuple([sum(map(mul, g, coeffs)) for g in lat.gram])


def _coeffs(lat: PicardLattice, c: DivisorClass) -> tuple[int, ...]:
    """c's coefficients, once they are checked to have the lattice's rank."""
    if len(c.coeffs) != lat.rank:
        raise ValueError(f"{lat.name}: class rank does not match lattice rank {lat.rank}")
    return c.coeffs


def intersect(lat: PicardLattice, a: DivisorClass, b: DivisorClass) -> int:
    """Intersection number a . b, evaluated exactly through the Gram matrix.

    a's coefficients dotted with b's Gram row (``_gram_row``), all in exact
    integers.  A product with K reads K's kept row instead, through
    ``canonical_degree``.
    """
    return sum(map(mul, _coeffs(lat, a), _gram_row(lat, _coeffs(lat, b))))


def canonical_degree(lat: PicardLattice, gamma: DivisorClass) -> int:
    """Degree of the canonical class on gamma (K . gamma), read off the kept K row.

    One dot product of ``lat.canonical_row`` with gamma's coefficients; a
    class of the wrong rank raises ``ValueError``, as ``intersect`` does.
    """
    return sum(map(mul, lat.canonical_row, _coeffs(lat, gamma)))


def family_dim_bound(g: int, canonical_deg: int) -> int:
    """Upper bound on the dimension of a family of irreducible genus-g curves."""
    _check_genus(g)
    return max(g, g - 1 - canonical_deg)


def adjunction_genus(lat: PicardLattice, c: DivisorClass) -> int:
    """Arithmetic genus of the class c by adjunction: (c^2 + c.K)/2 + 1."""
    total = intersect(lat, c, c) + canonical_degree(lat, c)
    if total % 2:
        raise ArithmeticError(f"{lat.name}: adjunction not integral on {c}")
    return total // 2 + 1


def _lat(
    name: str,
    basis: tuple[str, ...],
    gram: tuple[tuple[int, ...], ...],
    canonical: tuple[int, ...],
    named: dict[str, tuple[int, ...]],
    description: str,
    k2: int,
    degree: int | None = None,
) -> PicardLattice:
    return PicardLattice(
        name=name,
        basis=basis,
        gram=gram,
        canonical=DivisorClass(canonical),
        named={k: DivisorClass(v) for k, v in named.items()},
        description=description,
        k2=k2,
        degree=degree,
    )


def _ruled(q: int, e: int, section: str) -> _Rule:
    # ruled over a genus-q curve: C^2 = -e, C.F = 1, F^2 = 0, K = -2C + (2q - 2 - e)F
    return (section, "F"), ((-e, 1), (1, 0)), (-2, 2 * q - 2 - e)


def _hirzebruch(e: int, named: dict[str, tuple[int, ...]]) -> PicardLattice:
    return _lat(
        f"hirzebruch({e})", *_ruled(0, e, "E"), named,
        f"ruled surface over P^1 with a section of self-intersection -{e}; "
        "H is the hyperplane class of the projective model used by the case table", k2=8,
    )


def _plane(r: int) -> _Rule:
    # P^2 blown up at r points: Gram diag(1, -1, ..., -1), K = -3L + E1 + ... + Er
    diag = (1,) + (-1,) * r
    gram = tuple(tuple(v * (i == j) for j in range(r + 1)) for i, v in enumerate(diag))
    return ("L",) + tuple(f"E{i}" for i in range(1, r + 1)), gram, (-3,) + (1,) * r


def _blowup_plane(
    r: int, named: dict[str, tuple[int, ...]], k2: int, degree: int | None = None
) -> PicardLattice:
    description = f"plane blown up at {r} points (total-transform exceptional basis)"
    return _lat(f"blowup_plane({r})", *_plane(r), named, description, k2, degree)


# Every built-in lattice, in declaration order.  The adjunction audit walks
# the models that carry a surface degree in (degree, declaration order).
BUILTINS: tuple[PicardLattice, ...] = (
    _hirzebruch(0, {"H": (1, 2)}),
    _hirzebruch(1, {"H": (1, 2)}),
    _hirzebruch(2, {"H": (1, 3), "D": (1, 2)}),
    _hirzebruch(3, {"H": (1, 3)}),
    _lat(
        "elliptic_cone", *_ruled(1, 3, "E"), {"H": (1, 3)},
        "minimal desingularization of the cone over a smooth plane cubic: "
        "ruled over an elliptic curve, E the (-3)-section over the vertex, H = E + 3F",
        k2=0, degree=3,
    ),
    _lat(
        "quartic_cone", *_ruled(3, 4, "E0"), {"H": (1, 4), "E": (2, 0)},
        "cone over a smooth plane quartic: E0 the (-4)-section over the vertex, "
        "anticanonical E = 2E0, H = E0 + 4F",
        k2=-16, degree=4,
    ),
    _lat(
        "k3_quartic",
        ("H",),
        ((4,),),
        (0,),
        {"H": (1,)},
        "quartic with at worst rational double points: trivial canonical class",
        k2=0, degree=4,
    ),
    _lat(
        "dp2_sep",
        ("G", "Delta"),
        ((2, 0), (0, -4)),
        (-1, 1),
        {"H": (2, -1), "E": (1, -1), "P": (1, 0)},
        "rational quartic with one irrational double point, built from a degree-2 "
        "weak del Pezzo surface; P is the pulled-back anticanonical net, Delta the "
        "four separation blowups, H = 2P - Delta, E = P - Delta",
        k2=-2, degree=4,
    ),
    _lat(
        "dp1_sep",
        ("H", "Lam", "Xi", "Delta"),
        (
            (4, 4, 3, 1),
            (4, 1, 0, 0),
            (3, 0, -1, 0),
            (1, 0, 0, -1),
        ),
        (0, -1, 1, 1),
        {"H": (1, 0, 0, 0), "E": (0, 1, -1, -1), "Lam": (0, 1, 0, 0)},
        "rational quartic with one irrational double point, built from a degree-1 "
        "weak del Pezzo surface; Lam is the nef anticanonical pencil, E = Lam - Xi - Delta",
        k2=-1, degree=4,
    ),
    _lat(
        "dcover_f1",
        ("L", "Ep", "R"),
        (
            (0, 2, 0),
            (2, -3, 2),
            (0, 2, -2),
        ),
        (0, -1, -1),
        {"H": (1, 2, 2), "E": (0, 1, 1), "L": (1, 0, 0), "Ep": (0, 1, 0)},
        "rational quartic with one irrational point, from a double cover of a "
        "ruled rational surface; L the rational pencil with L.E = 2, E = Ep + R "
        "with Ep the component meeting L, H = L + 2E",
        k2=-1, degree=4,
    ),
    _lat(
        "monoid_sep",
        ("P", "D1", "D2", "D3"),
        (
            (1, 0, 0, 0),
            (0, -4, 0, 0),
            (0, 0, -4, 0),
            (0, 0, 0, -4),
        ),
        (-3, 1, 1, 1),
        {
            "H": (4, -1, -1, -1),
            "E": (3, -1, -1, -1),
            "Lam": (1, 0, 0, 0),
            "C0": (1, -1, 0, 0),
        },
        "quartic with a triple point: plane separation of a quartic and a cubic; "
        "Lam the projection net, E the anticanonical cubic, C0 a line-type "
        "component of E in the split configuration",
        k2=-3, degree=4,
    ),
    _lat(
        "elliptic_ruled_a",
        ("H", "X1", "X2", "F"),
        (
            (4, 0, 0, 3),
            (0, -1, 0, 1),
            (0, 0, -1, 1),
            (3, 1, 1, 0),
        ),
        (0, -1, -1, 0),
        {"H": (1, 0, 0, 0), "E": (0, 1, 1, 0), "F": (0, 0, 0, 1)},
        "quartic swept by an elliptic pencil of twisted cubics (H.F = 3), with two "
        "simple elliptic singularities over the disjoint (-1)-sections X1, X2",
        k2=-2, degree=4,
    ),
    _lat(
        "elliptic_ruled_b",
        ("H", "E1", "F1", "F2", "F"),
        (
            (4, 0, 0, 0, 2),
            (0, -2, 1, 1, 1),
            (0, 1, -2, 0, 0),
            (0, 1, 0, -2, 0),
            (2, 1, 0, 0, 0),
        ),
        (0, -2, -1, -1, 0),
        {
            "H": (1, 0, 0, 0, 0),
            "E1": (0, 1, 0, 0, 0),
            "E2": (0, 1, 1, 1, 0),
            "F1": (0, 0, 1, 0, 0),
            "F2": (0, 0, 0, 1, 0),
            "F": (0, 0, 0, 0, 1),
        },
        "quartic swept by an elliptic pencil of conics (H.F = 2); the anticanonical "
        "divisor is E1 + E2 with E2 = E1 (two elliptic points) or E2 = E1 + F1 + F2 "
        "(one point, two fiber components)",
        k2=-4, degree=4,
    ),
    _lat(
        "elliptic_ruled_c",
        ("H", "Xi", "Delta1", "F"),
        (
            (4, 0, 0, 3),
            (0, -1, 1, 1),
            (0, 1, -2, 0),
            (3, 1, 0, 0),
        ),
        (0, -2, -1, 0),
        {"H": (1, 0, 0, 0), "E": (0, 2, 1, 0), "Xi": (0, 1, 0, 0), "F": (0, 0, 0, 1)},
        "quartic swept by an elliptic pencil of twisted cubics with one irrational "
        "point of genus 2; anticanonical E = 2*Xi + Delta1",
        k2=-2, degree=4,
    ),
    _lat(
        "genus2_scroll", *_ruled(2, 4, "E"), {"H": (1, 4), "E": (1, 0)},
        "non-normal quartic scroll over a genus-2 curve (cone over a singular "
        "plane quartic): H = E + 4F", k2=-8,
    ),
    _lat(
        "elliptic_scroll_a", *_ruled(1, 0, "D1"), {"H": (1, 2), "D1": (1, 0)},
        "non-normal elliptic scroll with two skew double lines (split bundle)", k2=0,
    ),
    _lat(
        "elliptic_scroll_b", *_ruled(1, 0, "D1"), {"H": (1, 2), "D1": (1, 0)},
        "non-normal elliptic scroll with a single double line (non-split bundle); "
        "numerically identical to the split model", k2=0,
    ),
    _lat(
        "veronese", *_plane(0), {"H": (2,)},
        "Veronese plane projected to P^3 (Steiner's Roman surface): H = 2L", k2=9,
    ),
    _lat(
        "segre", *_plane(5), {"H": (3, -1, -1, -1, -1, -1)},
        "Segre quartic symmetroid: projection of a degree-4 weak del Pezzo "
        "surface, H = -K", k2=4,
    ),
    # anticanonical model: a cubic surface with at worst rational double points
    _blowup_plane(6, {"H": (3,) + (-1,) * 6}, k2=3, degree=3),
    # quartic with a double line: H = 4L - 2E1 - E2 - ... - E9, conic pencil
    # Lam = L - E1, and the two possible triple-point cycle components meeting
    # the pencil once
    _blowup_plane(9, {
        "H": (4, -2, -1, -1, -1, -1, -1, -1, -1, -1),
        "Lam": (1, -1, 0, 0, 0, 0, 0, 0, 0, 0),
        "A1": (0, 1, -1, -1, 0, 0, 0, 0, 0, 0),
        "A2": (0, 1, 0, 0, -1, -1, 0, 0, 0, 0),
    }, k2=0),
)

_REGISTRY: dict[str, PicardLattice] = {lat.name: lat for lat in BUILTINS}


def builtin_lattice(name: str) -> PicardLattice:
    """Built-in lattice by name, e.g. 'hirzebruch(3)' or 'blowup_plane(9)'."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown lattice {name!r}") from None
