"""Closed-form integer invariants of complete-intersection curves in P^3.

Every function here is a total, exact formula on arbitrary-precision
integers.  No floating point is used anywhere: the downstream gap
certification is only as trustworthy as these numbers, so they are kept
free of rounding by construction.

Conventions: ``d`` is the degree of the ambient surface, ``n`` the degree
of the cutting surface.  ``linsys_dim(d, 0) == 0`` and
``arithmetic_genus(d, 0) == 1`` so that the degree-0 cut is a usable base
case for interval recursions; callers interested in actual curves pass
``n >= 1``.
"""

from __future__ import annotations

from math import comb


def _check_degree(d: int) -> None:
    if d < 1:
        raise ValueError(f"surface degree must be >= 1, got {d}")


def _check_cut(n: int) -> None:
    if n < 0:
        raise ValueError(f"cutting degree must be >= 0, got {n}")


def ambient_dim(d: int) -> int:
    """Dimension of the projective space of degree-d surfaces in P^3."""
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    return comb(d + 3, 3) - 1


def linsys_dim(d: int, n: int) -> int:
    """Dimension of the linear system cut on a degree-d surface by degree-n surfaces."""
    _check_degree(d)
    _check_cut(n)
    if n < d:
        return ambient_dim(n)
    return ambient_dim(n) - ambient_dim(n - d) - 1


def arithmetic_genus(d: int, n: int) -> int:
    """Arithmetic genus of a complete intersection of degrees (d, n)."""
    _check_degree(d)
    _check_cut(n)
    # d*n*(d+n-4) is even for every d and n, proved in tests/test_formulas.py
    return d * n * (d + n - 4) // 2 + 1


def cut_system_dim(n: int, d: int) -> int:
    """Dimension of the system of degree-d cuts on a fixed degree-n surface.

    Defined for 1 <= n <= d; this is the target that family-dimension
    counts must stay strictly below for an elimination argument to close.
    """
    if not 1 <= n <= d:
        raise ValueError(f"need 1 <= n <= d, got n={n}, d={d}")
    return linsys_dim(n, d)


def clemens_min_genus(d: int, n: int) -> int:
    """Least genus an irreducible degree-n cut on a general degree-d surface can have.

    The classical lower bound is strict and integral, so the least
    admissible genus is the bound plus one.
    """
    if d < 5:
        raise ValueError(f"genus bound requires d >= 5, got {d}")
    if n < 1:
        raise ValueError(f"cutting degree must be >= 1, got {n}")
    # n*d*(d-5) is even for every d and n, proved in tests/test_formulas.py
    return n * d * (d - 5) // 2 + 2


def contiguity_holds(d: int, n: int) -> bool:
    """Whether the realizable-genus windows at cutting degrees n-1 and n join up.

    True iff the degree-n window reaches down to the top of the degree-(n-1)
    window, i.e. their union is a single integer interval.
    """
    _check_degree(d)
    if n < 1:
        raise ValueError(f"cutting degree must be >= 1, got {n}")
    return linsys_dim(d, n) >= arithmetic_genus(d, n) - arithmetic_genus(d, n - 1) - 1
