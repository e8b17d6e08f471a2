"""Independent closed forms for placing inputs and checking answers.

The benchmark neither places its genera nor checks the program's answers
with the library under test: a later change to ``genusgaps`` must not move
the inputs, and a wrong answer must not pass because checker and program
share a bug.  Everything here is re-derived from the paper's formulas.

For a degree-d surface (d >= 5) the degree-n cut has arithmetic genus
``p_a = d n (d+n-4)/2 + 1`` and a linear system of dimension ``l``; its
realizable window is ``[p_a - l, p_a]``.  Two facts make answers cheap to
check:

* window tops ``p_a`` increase strictly in n (step ``d(d+2n-3)/2 > 0``);
* window bottoms ``p_a - l`` never decrease in n.  For ``n + 1 < d`` the
  step is ``d(d+2n-3)/2 - C(n+3,2)``, a concave quadratic in n that is
  positive at ``n = 1`` and at ``n = d-2``; from ``n = d-1`` on it is the
  constant ``d(d-4)``.  ``selfcheck.py`` re-tests this numerically.

So the windows that contain a genus g form one run of consecutive n that
starts at the least n whose top reaches g, or there are none.
"""

from __future__ import annotations

XU = "Xu-initial"
GAPS1 = "MainTheorem-Gaps1"


def ambient(n: int) -> int:
    return (n + 1) * (n + 2) * (n + 3) // 6 - 1


def genus(d: int, n: int) -> int:
    return d * n * (d + n - 4) // 2 + 1


def system_dim(d: int, n: int) -> int:
    if n < d:
        return ambient(n)
    return ambient(n) - ambient(n - d) - 1


def window(d: int, n: int) -> tuple[int, int]:
    top = genus(d, n)
    return top - system_dim(d, n), top


def joins(d: int, n: int) -> bool:
    """Whether the degree-n window reaches down to the top of the degree-(n-1) one."""
    return window(d, n)[0] <= genus(d, n - 1) + 1


def initial_gap(d: int) -> tuple[int, int] | None:
    hi = d * (d - 3) // 2 - 3
    return (0, hi) if hi >= 0 else None


def second_gap(d: int) -> tuple[int, int] | None:
    if d < 6:
        return None
    return (d * d - 3 * d + 4) // 2, d * d - 2 * d - 9


def horizon_scan(d: int) -> tuple[int, int]:
    """``(H, n0)``: every genus above H is in the chained windows n >= n0.

    ``n0`` is the largest n <= d whose window does not join the one below;
    beyond d windows always join.  H is the last genus below window n0.
    """
    n0 = 0
    for m in range(d, 0, -1):
        if not joins(d, m):
            n0 = m
            break
    return window(d, n0)[0] - 1, n0


def horizon(d: int) -> tuple[int, int]:
    """``horizon_scan(d)`` by bisection, for d >= 5.

    For ``1 <= n < d``, ``joins(d, n)`` says ``C(n+3,3) - d(d+2n-5)/2 >= 0``;
    the left side is convex in n and negative at n = 1, so the n where it
    holds form an upper ray of ``[1, d-1]``.  ``selfcheck.py`` compares the
    two versions.
    """
    if not joins(d, d):
        return window(d, d)[0] - 1, d
    lo, hi = 1, d  # least n in [1, d) with joins(d, n); d if there is none
    while lo < hi:
        mid = (lo + hi) // 2
        if joins(d, mid):
            hi = mid
        else:
            lo = mid + 1
    return window(d, lo - 1)[0] - 1, lo - 1


def first_reaching(d: int, g: int) -> int:
    """Least n >= 1 whose window top reaches g."""
    hi = 1
    while genus(d, hi) < g:
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if genus(d, mid) >= g:
            hi = mid
        else:
            lo = mid + 1
    return lo


def certificate(d: int, g: int) -> tuple[int, int] | None:
    """Smallest ``(n, delta)`` with g in the degree-n window, or None."""
    n = first_reaching(d, g)
    bottom, top = window(d, n)
    return (n, top - g) if bottom <= g else None


def status(d: int, g: int) -> tuple[str, str | None, tuple[int, int] | None]:
    """``(verdict, source, certificate)`` for 5 <= d."""
    for rng, source in ((initial_gap(d), XU), (second_gap(d), GAPS1)):
        if rng is not None and rng[0] <= g <= rng[1]:
            return "ProvedGap", source, None
    cert = certificate(d, g)
    if cert is not None:
        return "CertifiedNonGap", "SeveriInterval", cert
    return "Unknown", None, None


def merge(parts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted union of closed integer intervals, touching ones joined."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(parts):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def decomposition(d: int) -> dict:
    """Expected decomposition of ``[0, H]`` for 5 <= d.

    ``proved`` holds ``(lo, hi, source)`` with the source blank where the
    horizon clips the range, as the program prints it.
    """
    top, _ = horizon(d)
    ranges = [(rng, src) for rng, src in ((initial_gap(d), XU), (second_gap(d), GAPS1))
              if rng is not None]
    proved = []
    for (lo, hi), src in ranges:
        if lo <= top:
            clipped = (lo, min(hi, top))
            proved.append((*clipped, src if clipped == (lo, hi) else ""))
    windows = []
    n = 1
    while True:
        lo, hi = window(d, n)
        if lo > top:
            break
        windows.append((lo, min(hi, top)))
        n += 1
    certified = merge(windows)
    covered = merge([(lo, hi) for lo, hi, _ in proved] + certified)
    unknown = []
    cursor = 0
    for lo, hi in covered:
        if lo > cursor:
            unknown.append((cursor, lo - 1))
        cursor = hi + 1
    if cursor <= top:
        unknown.append((cursor, top))
    return {
        "d": d,
        "horizon": top,
        "proved": sorted(proved),
        "unknown": unknown,
        "certified": certified,
        "sources": [(lo, hi, src) for (lo, hi), src in ranges],
    }
