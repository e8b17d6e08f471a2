"""Closed-form integer invariants of complete-intersection curves in P^3.

Every function here is a total, exact formula on arbitrary-precision
integers.  No floating point is used anywhere: the downstream gap
certification is only as trustworthy as these numbers, so they are kept
free of rounding by construction.

Conventions: ``d`` is the degree of the ambient surface, ``n`` the degree
of the cutting surface.  ``linsys_dim(d, 0) == 0`` and
``arithmetic_genus(d, 0) == 1`` are defined for the degree-0 cut, whose
only reader is ``contiguity_holds(d, 1)`` through ``arithmetic_genus(d, 0)``;
callers interested in actual curves pass ``n >= 1``.

``_check_d``, ``_check_cut`` and ``_check_genus`` are the one home of the
shared argument rules: a surface degree, cutting degree or genus whose type
is not exactly ``int`` (a ``bool`` included) raises ``TypeError``, and one
below its least value raises ``ValueError``, each with the one message
written in ``_refusal``, whichever of ``formulas``, ``gapmap``, ``picard`` or
``cli`` checks it.
"""

from __future__ import annotations

from math import comb


def _refusal(what: str, x: object, minimum: int) -> TypeError | ValueError:
    if type(x) is not int:
        return TypeError(f"{what} must be an int, got {x!r}")
    return ValueError(f"{what} must be >= {minimum}, got {x}")


def _check_d(d: int, minimum: int) -> None:
    if type(d) is not int or d < minimum:
        raise _refusal("surface degree", d, minimum)


def _check_cut(n: int, minimum: int) -> None:
    if type(n) is not int or n < minimum:
        raise _refusal("cutting degree", n, minimum)


def _check_genus(g: int) -> None:
    if type(g) is not int or g < 0:
        raise _refusal("genus", g, 0)


def ambient_dim(d: int) -> int:
    """Dimension of the projective space of degree-d surfaces in P^3."""
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    return comb(d + 3, 3) - 1


def linsys_dim(d: int, n: int) -> int:
    """Dimension of the linear system cut on a degree-d surface by degree-n surfaces."""
    _check_d(d, 1)
    _check_cut(n, 0)
    if n < d:
        return ambient_dim(n)
    return ambient_dim(n) - ambient_dim(n - d) - 1


def arithmetic_genus(d: int, n: int) -> int:
    """Arithmetic genus of a complete intersection of degrees (d, n)."""
    _check_d(d, 1)
    _check_cut(n, 0)
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
    _check_d(d, 5)
    _check_cut(n, 1)
    # n*d*(d-5) is even for every d and n, proved in tests/test_formulas.py
    return n * d * (d - 5) // 2 + 2


def contiguity_holds(d: int, n: int) -> bool:
    """Whether the realizable-genus windows at cutting degrees n-1 and n join up.

    True iff the degree-n window reaches down to the top of the degree-(n-1)
    window, i.e. their union is a single integer interval.
    """
    _check_d(d, 1)
    _check_cut(n, 1)
    return linsys_dim(d, n) >= arithmetic_genus(d, n) - arithmetic_genus(d, n - 1) - 1
