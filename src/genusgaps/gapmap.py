"""Certification of genus gaps and non-gaps on very general surfaces in P^3.

For a very general degree-d surface (d >= 4), every curve is cut out by
another hypersurface, and the degree-n cuts realize exactly the genus
window ``realizable_interval(d, n)`` = [p_a - l, p_a] where p_a is the
arithmetic genus and l the dimension of the cut system: each genus there
is reached by a nodal curve in a reduced family.  The certification
machinery below combines these windows with two proved gap ranges:

* the initial range [0, d(d-3)/2 - 3] (no curve of such genus exists at
  all for d >= 5), tagged ``Xu-initial``;
* the next separated range [(d^2-3d+4)/2, d^2-2d-9] for d >= 6, tagged
  ``MainTheorem-Gaps1``.

Everything above a computable horizon is certified non-gap because
consecutive windows overlap from there on.  Whatever is neither inside a
window nor inside a proved range below the horizon is reported Unknown:
candidate ranges between non-touching windows are *not* asserted to be
gaps (for larger cutting degrees they are known to sometimes contain
non-gaps this tool cannot certify).
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub

from ._value import Value, setters
from .formulas import arithmetic_genus, contiguity_holds, linsys_dim
from .intervals import Interval, IntervalSet

PROVED_GAP = "ProvedGap"
CERTIFIED_NONGAP = "CertifiedNonGap"
UNKNOWN = "Unknown"

SOURCE_XU = "Xu-initial"
SOURCE_GAPS1 = "MainTheorem-Gaps1"
SOURCE_LOW_DEGREE = "LowDegree"
SOURCE_SEVERI = "SeveriInterval"


class Certificate(Value):
    """Witness for a non-gap: a nodal degree-n cut with delta nodes."""

    __slots__ = __match_args__ = ("n", "delta")

    n: int
    delta: int

    def __init__(self, n: int, delta: int) -> None:
        _set_cert_n(self, n)
        _set_cert_delta(self, delta)


_set_cert_n, _set_cert_delta = setters(Certificate)


class GapStatus(Value):
    __slots__ = __match_args__ = ("verdict", "source", "certificate")

    verdict: str
    source: str | None
    certificate: Certificate | None

    def __init__(
        self, verdict: str, source: str | None = None, certificate: Certificate | None = None
    ) -> None:
        _set_verdict(self, verdict)
        _set_source(self, source)
        _set_certificate(self, certificate)


_set_verdict, _set_source, _set_certificate = setters(GapStatus)


class GapDecomposition(Value):
    """Partition of [0, horizon] into proved gaps, unknowns, and certified non-gaps.

    Every genus above ``horizon`` is a certified non-gap.  ``proved_sources``
    tags each proved part with the theorem layer that proves it.
    """

    __slots__ = __match_args__ = (
        "d", "horizon", "proved_gaps", "unknown_candidates", "nongap_certified",
        "proved_sources",
    )

    d: int
    horizon: int
    proved_gaps: IntervalSet
    unknown_candidates: IntervalSet
    nongap_certified: IntervalSet
    proved_sources: tuple[tuple[Interval, str], ...]

    def __init__(
        self,
        d: int,
        horizon: int,
        proved_gaps: IntervalSet,
        unknown_candidates: IntervalSet,
        nongap_certified: IntervalSet,
        proved_sources: tuple[tuple[Interval, str], ...],
    ) -> None:
        _set_d(self, d)
        _set_horizon(self, horizon)
        _set_proved_gaps(self, proved_gaps)
        _set_unknown_candidates(self, unknown_candidates)
        _set_nongap_certified(self, nongap_certified)
        _set_proved_sources(self, proved_sources)


(_set_d, _set_horizon, _set_proved_gaps, _set_unknown_candidates, _set_nongap_certified,
 _set_proved_sources) = setters(GapDecomposition)


def _check_d(d: int, minimum: int) -> None:
    if d < minimum:
        raise ValueError(f"surface degree must be >= {minimum}, got {d}")


def realizable_interval(d: int, n: int) -> Interval:
    """Genus window certified realizable by degree-n cuts of a degree-d surface."""
    _check_d(d, 4)
    if n < 1:
        raise ValueError(f"cutting degree must be >= 1, got {n}")
    return Interval(*_window(d, n))


def _window(d: int, n: int) -> tuple[int, int]:
    """Bottom and top of the degree-n window, for checked d >= 4 and n >= 1."""
    g = arithmetic_genus(d, n)
    return g - linsys_dim(d, n), g


def candidate_gap_interval(d: int, n: int) -> Interval | None:
    """Genus range strictly between the windows at n and n+1, if they do not join."""
    lo = realizable_interval(d, n).hi + 1  # checks d and n
    hi = _window(d, n + 1)[0] - 1
    return Interval(lo, hi) if lo <= hi else None


def initial_gap_interval(d: int) -> Interval | None:
    """Proved gap range [0, d(d-3)/2 - 3]; empty below degree 5."""
    _check_d(d, 4)
    hi = d * (d - 3) // 2 - 3
    if hi < 0:
        return None
    return Interval(0, hi)


def second_gap_interval(d: int) -> Interval:
    """Proved gap range [(d^2-3d+4)/2, d^2-2d-9], valid for d >= 6."""
    _check_d(d, 6)
    return Interval((d * d - 3 * d + 4) // 2, d * d - 2 * d - 9)


# The proved gap layers, one row each: (source tag, least degree, gap range).
# ``status`` and ``decompose`` both read this table and nothing else.
PROVED_LAYERS = (
    (SOURCE_XU, 5, initial_gap_interval),
    (SOURCE_GAPS1, 6, second_gap_interval),
)


def _proved_gaps(d: int) -> tuple[tuple[Interval, str], ...]:
    """Each proved gap range at degree d with its source, in table order.

    None is empty from its row's least degree on: the initial range's top
    d(d-3)/2 - 3 is >= 2 for d >= 5, and the second range never is.
    """
    return tuple((rng(d), source) for source, min_d, rng in PROVED_LAYERS if d >= min_d)


def coarse_horizon(d: int) -> int:
    """Horizon d(d-1)(5d-19)/6 - 1 valid for every d >= 5; -1 at d = 4 (no gaps)."""
    _check_d(d, 4)
    if d == 4:
        return -1
    return d * (d - 1) * (5 * d - 19) // 6 - 1


def _least(holds, lo: int, hi: int) -> int:
    """Least n in [lo, hi] with holds(n), for a predicate that is an upper ray true at hi."""
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid + 1, hi)
    return lo


def refined_horizon(d: int) -> int:
    """Tightest window-chaining horizon: gaps can only live in [0, this value].

    Bisects [1, d] for the least n* such that consecutive windows join at
    every n >= n* (beyond d they always do), and returns the last genus
    below the window at n* - 1.

    Fact (b): the n in [1, d] where the windows at n-1 and n join form an
    upper ray.  For n < d they join iff f(n) = C(n+3,3) - d(2n+d-5)/2 >= 0.
    As f(1) = 4 - d(d-3)/2 < 0 for d >= 5, f turns nonnegative only on a
    positive step, and the steps f(n+1) - f(n) = C(n+3,2) - d increase.  At
    n = d, where l changes form, they join iff C(d+3,3) - 1 >= d(3d-5)/2,
    that is d(d^2 - 3d + 26) >= 0, which always holds.
    """
    _check_d(d, 5)
    n_star = _least(lambda n: contiguity_holds(d, n), 1, d)
    return realizable_interval(d, n_star - 1).lo - 1


def _first_n_reaching(d: int, g: int) -> int:
    """Least n >= 1 with arithmetic_genus(d, n) >= g (genus is increasing for d >= 4)."""
    lo, hi = 1, 1
    while arithmetic_genus(d, hi) < g:
        lo, hi = hi + 1, hi * 2
    return _least(lambda n: arithmetic_genus(d, n) >= g, lo, hi)


def certify_nongap(d: int, g: int) -> Certificate | None:
    """Smallest-n witness with g inside the degree-n window, or None.

    Windows below n = _first_n_reaching(d, g) end below g, so n is the only
    candidate: by fact (a), if its window starts above g so do all later ones.

    Fact (a): for d >= 4 the window bottoms b(n) = p_a - l never decrease
    in n >= 1.  The step s(n) = b(n) - b(n-1) is, for 2 <= n < d, the concave
    quadratic d(2n+d-5)/2 - C(n+2,2), with s(2) = d(d-1)/2 - 6 >= 0 and
    s(d-1) = d(d-4) >= 0.  At n = d, where l changes form, it is
    d(3d-5)/2 - C(d+2,2) + 1 = d(d-4).  For n > d it is
    d(2n+d-5)/2 - C(n+2,2) + C(n-d+2,2) = d(d-4).
    """
    _check_d(d, 4)
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")
    n = _first_n_reaching(d, g)
    w = realizable_interval(d, n)
    return Certificate(n=n, delta=w.hi - g) if w.lo <= g else None


def status(d: int, g: int) -> GapStatus:
    """Three-valued verdict for genus g on a very general degree-d surface."""
    _check_d(d, 1)
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")
    if d <= 3:
        return GapStatus(CERTIFIED_NONGAP, SOURCE_LOW_DEGREE)
    for gaps, source in _proved_gaps(d):
        if g in gaps:
            return GapStatus(PROVED_GAP, source)
    cert = certify_nongap(d, g)
    if cert is not None:
        return GapStatus(CERTIFIED_NONGAP, SOURCE_SEVERI, cert)
    return GapStatus(UNKNOWN)


def _window_union_within(d: int, horizon: int) -> IntervalSet:
    """Union of the realizable windows within [0, horizon], for horizon = refined_horizon(d).

    Each window is a part of its own, so the union is built with no merging
    and no clipping.  The horizon is b(n*-1) - 1, where n* is the least
    cutting degree from which consecutive windows join (fact (b), see
    ``refined_horizon``), and window bottoms never decrease (fact (a), see
    ``certify_nongap``).  So the windows that start at or below the horizon
    are those at n <= n*-2.  These are also the k windows whose top is at
    most the horizon, which ``_first_n_reaching`` finds: the windows at
    n*-2 and n*-1 do not join, so p_a(d, n*-2) < b(n*-1) - 1, while
    p_a(d, n*-1) >= b(n*-1), and p_a increases in n.  No two consecutive
    windows below n* join, and the last ends below b(n*-1) - 1, so the parts
    come out sorted and separated, all at or below the horizon and, as
    bottoms are at least b(1) = d(d-3)/2 - 2 > 0 for d >= 5, above 0.

    Only the window at n = 1 is evaluated; the later tops and dimensions
    are running sums of arithmetic progressions of exact integers, taken by
    ``accumulate``, so no Python step runs per window.  Every window read
    has n <= n*-2 < d, and for n < d the dimension is l(n) = C(n+3,3) - 1.
    So the steps are the identities

        p_a(d, n+1) - p_a(d, n) = d(2n+d-3)/2 = d*n + d(d-3)/2,
        l(n+1) - l(n) = C(n+4,3) - C(n+3,3) = C(n+3,2)   (n+1 < d),

    which ``tests/test_gapmap.py`` proves for every d and n; d(d-3) is even
    as d and d-3 have opposite parity.  The top steps rise by d, and the
    dimension steps C(n+3,2) rise by n+3 from C(4,2) = 6.
    """
    k = _first_n_reaching(d, horizon + 1) - 1
    if k == 0:
        return IntervalSet()
    lo, top = _window(d, 1)
    h = d * (d - 3) // 2
    tops = list(accumulate(range(d + h, d * k + h, d), initial=top))
    dims = accumulate(accumulate(range(4, k + 2), initial=6), initial=top - lo)
    bounds = [0] * (2 * k)
    bounds[0::2] = map(sub, tops, dims)
    bounds[1::2] = tops
    return IntervalSet._separated(tuple(bounds))


def decompose(d: int) -> GapDecomposition:
    """Full certified decomposition of [0, horizon] for degree d.

    Proved gaps and windows never overlap, so no genus is charted twice:
    by fact (a) and the identities that ``tests/test_gapmap.py``
    proves for every d, the ``Xu-initial`` range ends at b(1) - 1, below
    every window, and the ``MainTheorem-Gaps1`` range runs from
    p_a(d, 1) + 1, above the degree-1 window, to b(2) - 1, below every
    later window.  Four genera lie between the two, and the horizon
    b(n*-1) - 1 is at least b(2) - 1 for d >= 6, as the windows at n = 1
    and 2 never join there, so n* >= 3.  So clipping cuts neither range,
    and ``proved_sources`` pairs exactly the parts of ``proved_gaps`` with
    their sources.
    """
    _check_d(d, 4)
    if d == 4:
        # every window starts at genus 0, so there is nothing left to chart
        return GapDecomposition(
            d=4,
            horizon=-1,
            proved_gaps=IntervalSet(),
            unknown_candidates=IntervalSet(),
            nongap_certified=IntervalSet(),
            proved_sources=(),
        )
    horizon = refined_horizon(d)
    bound = Interval(0, horizon)
    sources = _proved_gaps(d)
    proved = IntervalSet(gaps for gaps, _ in sources).clip(bound)
    certified = _window_union_within(d, horizon)
    return GapDecomposition(
        d=d,
        horizon=horizon,
        proved_gaps=proved,
        unknown_candidates=proved.union(certified).complement_within(bound),
        nongap_certified=certified,
        proved_sources=sources,
    )
