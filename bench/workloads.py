"""Seeded query generation.

A run is a sequence of episodes; each episode is one fresh child process
that answers a fixed-size batch of argv lists.  Episode ``i`` of a run
depends only on ``(workload, seed, i)``, so the same seed gives the same
inputs and any prefix of episodes is reproducible.  Every episode has the
same stratified make-up (commands, formats, genus regions, degree strata),
so runs of different seeds do the same amount of work to within the
jitter inside each stratum.
"""

from __future__ import annotations

import math
import random

import oracle

FORMATS = ("table", "json", "csv")

WHY = {
    "point-queries": "status and certify over all formats; half the degrees repeat so the "
    "formulas memo hits; p90 is the certify_nongap scan on genera with no window",
    "decompose-sweep": "decompose and short table ranges on distinct degrees up to 5e4; "
    "stresses horizon search, window union, IntervalSet and emitters; memo only grows",
    "verify-checks": "verify cases, kappa and all over all formats; exercises cases and "
    "picard, re-parsing cases.json each call, with small fixed memory",
}

POINT_DEGREES = (6, 10**5)  # degree 5 has no Unknown genus to place
POINT_REPEAT = 2  # queries per (command, region, format) and degree kind
POINT_HOT = len(FORMATS) * POINT_REPEAT  # each pair uses every hot degree once
REGIONS = ("gap", "window", "unknown", "above")
SWEEP_DEGREES = (5, 5 * 10**4)
SWEEP_DECOMPOSE = 24
SWEEP_TABLES = 8
TABLE_START = (5, 2000)
VERIFY_REPEAT = 2


def episode(workload: str, seed: int, index: int) -> list[list[str]]:
    """The argv lists of one episode, in the order the child runs them."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _MAKERS[workload](rng)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def log_strata(rng: random.Random, lo: int, hi: int, k: int, used: set[int]) -> list[int]:
    """k integers not in ``used``, one log-uniform draw from each of k equal log-strata.

    A draw that repeats a value in ``used`` (narrow low strata round to the
    same integers) is redrawn in its stratum, and over the whole range only
    when the stratum has no unused integer left.
    """
    step = (math.log(hi) - math.log(lo)) / k
    out = []
    for i in range(k):
        s_lo, s_hi = lo * math.exp(i * step), lo * math.exp((i + 1) * step)
        d = _log_uniform(rng, s_lo, s_hi)
        if d in used and used.issuperset(range(round(s_lo), round(s_hi) + 1)):
            s_lo, s_hi = lo, hi
        while d in used:
            d = _log_uniform(rng, s_lo, s_hi)
        used.add(d)
        out.append(d)
    return out


def place_genus(rng: random.Random, d: int, region: str) -> int:
    """A genus in the named region for degree d >= 6."""
    top, n0 = oracle.horizon(d)
    if region == "gap":
        lo, hi = rng.choice([oracle.initial_gap(d), oracle.second_gap(d)])
    elif region == "window":
        lo, hi = oracle.window(d, rng.randint(1, max(1, n0 - 1)))
    elif region == "unknown":
        # windows n and n+1 do not join for every n < n0; n = 1 is skipped
        # because its candidate range is mostly the proved second gap
        n = rng.randint(2, max(2, n0 - 1))
        lo, hi = oracle.genus(d, n) + 1, oracle.window(d, n + 1)[0] - 1
        if lo > hi or hi > top:
            raise ValueError(f"no Unknown range between windows {n} and {n + 1} at d={d}")
    else:
        lo, hi = top + 1, 2 * top + 1
    return rng.randint(lo, hi)


def _point_queries(rng: random.Random) -> list[list[str]]:
    # every (command, region) pair gets one full log-ladder of fresh degrees
    # and the whole hot set, so the Theta(d) scans that set p90 and the
    # loop time follow the same stratified degree profile every episode
    used: set[int] = set()
    hot = log_strata(rng, *POINT_DEGREES, POINT_HOT, used)
    queries = []
    for cmd in ("status", "certify"):
        for region in REGIONS:
            fmts = list(FORMATS) * POINT_REPEAT
            for degrees in (rng.sample(hot, len(hot)),
                            log_strata(rng, *POINT_DEGREES, len(fmts), used)):
                rng.shuffle(fmts)
                for d, fmt in zip(degrees, fmts):
                    g = place_genus(rng, d, region)
                    queries.append([cmd, str(d), str(g), "--format", fmt])
    rng.shuffle(queries)
    return queries


def _decompose_sweep(rng: random.Random) -> list[list[str]]:
    used: set[int] = set()
    degrees = log_strata(rng, *SWEEP_DEGREES, SWEEP_DECOMPOSE, used)
    queries = [["decompose", str(d)] for d in degrees]
    while len(queries) < SWEEP_DECOMPOSE + SWEEP_TABLES:
        a = _log_uniform(rng, *TABLE_START)
        span = range(a, a + rng.randint(2, 4))
        if used.isdisjoint(span):
            used.update(span)
            queries.append(["table", str(span[0]), str(span[-1])])
    fmts = list(FORMATS) * math.ceil(len(queries) / len(FORMATS))
    rng.shuffle(fmts)
    queries = [q + ["--format", fmt] for q, fmt in zip(queries, fmts)]
    rng.shuffle(queries)
    return queries


def _verify_checks(rng: random.Random) -> list[list[str]]:
    queries = [["verify", scope, "--format", fmt]
               for scope in ("cases", "kappa", "all") for fmt in FORMATS] * VERIFY_REPEAT
    rng.shuffle(queries)
    return queries


_MAKERS = {
    "point-queries": _point_queries,
    "decompose-sweep": _decompose_sweep,
    "verify-checks": _verify_checks,
}
