"""Benchmark of the genusgaps CLI.

Usage (from the repository root)::

    python3 bench/run.py --workload point-queries --seed 1 --seconds 20 --trace 0

One closed-loop client sends one query at a time to ``genusgaps.cli.main``
in a fresh child interpreter (``child.py``), never more than one child at
a time and no threads.  A run is a sequence of episodes: each spawns a
child and runs one fixed-size batch of queries from ``workloads.py``.
Every answer is checked against the independent ``oracle.py``; with the
default seed the stdout of the first episodes must also match the digests
recorded in ``baseline.json``.

``--trace 0`` runs episodes until the children have spent ``--seconds`` of
CPU time in their query loops, or ``WALL_FACTOR`` times that in wall time
has passed, and reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``: median over the run's children of the CPU time from start
  until ``genusgaps.cli`` is imported;
* ``throughput_qps``: queries per CPU second of the children's query loops;
* ``latency_p50_ms``, ``latency_p90_ms``: CPU time of one ``cli.main`` call;
* ``peak_rss_mb``: mean over the children of their peak resident set;
* ``success_ratio``: share of queries that exit 0, write no stderr and
  pass the checks.

``--trace 1`` runs the first ``TRACE_EPISODES`` episodes three times each:
plain, with span wrappers installed from ``tracer.py``, and under
``tracemalloc``; it reports the per-layer metrics.  Counts in the traced
run depend only on the seed.  Span times are wall-clock totals over those
episodes and include the wrappers' own cost of nested spans.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"

DEFAULT_SEED = 1
TRACE_EPISODES = 2
GOLDEN_EPISODES = 4  # episodes whose stdout digests baseline.json records
RUN_LIMIT_S = 170  # the whole run, child included, is cut after this
WALL_FACTOR = 1.5  # no new episode starts after this many --seconds of wall time

# spans each workload must reach when the library defines them, and layer
# crossings (caller layer, callee layer) it must show: proof that the
# wrappers sit where the names are looked up
MUST_FIRE = {
    "point-queries": ("cli.main", "gapmap.status", "gapmap.certify_nongap"),
    "decompose-sweep": ("cli.main", "gapmap.decompose", "gapmap.refined_horizon",
                        "gapmap._window_union_within", "intervals._normalize",
                        "intervals.complement_within", "intervals.clip"),
    "verify-checks": ("cli.main", "cases.load_cases", "cases.max_neg_canonical_degree",
                      "cases.check_elimination", "picard.intersect"),
}
MUST_CROSS = {
    "point-queries": (("cli", "gapmap"), ("gapmap", "formulas")),
    "decompose-sweep": (("cli", "gapmap"), ("gapmap", "formulas"), ("gapmap", "intervals")),
    "verify-checks": (("cli", "cases"), ("cases", "picard"), ("cases", "gapmap"),
                      ("cases", "formulas")),
}


class HarnessError(RuntimeError):
    """The benchmark itself could not complete a run."""


def run_episode(batch: list[list[str]], mode: str) -> tuple[float, list[dict], dict]:
    """Run one batch in a fresh child: ``(setup_s, per-query results, totals)``."""
    with subprocess.Popen(
        [sys.executable, "-I", str(HERE / "child.py"), str(SRC), mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
    ) as proc:
        try:
            word, _, setup = proc.stdout.readline().partition(b" ")
            if word != b"ready":
                raise HarnessError("child did not start")
            proc.stdin.write(json.dumps(batch).encode())
            proc.stdin.close()
            results = [json.loads(proc.stdout.readline()) for _ in batch]
            totals = json.loads(proc.stdout.readline())
            if proc.wait() != 0:
                raise HarnessError(f"child exited with {proc.returncode}")
        except (json.JSONDecodeError, BrokenPipeError) as exc:
            raise HarnessError(f"child stopped mid-episode: {exc}") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
    return float(setup), results, totals


def digest(batch: list[list[str]], results: list[dict]) -> dict[str, str]:
    """sha256 of an episode's argv lists and of its stdout."""
    out = hashlib.sha256()
    for r in results:
        out.update(r["out"].encode() + b"\0")
    argv = hashlib.sha256(json.dumps(batch).encode())
    return {"argv": argv.hexdigest(), "stdout": out.hexdigest()}


def golden_digests(workload: str, seed: int) -> dict[int, dict[str, str]]:
    """Recorded digests by episode index; only for the default seed."""
    if seed != DEFAULT_SEED or not BASELINE.exists():
        return {}
    recorded = json.loads(BASELINE.read_text())["workloads"][workload]["golden_sha256"]
    return dict(enumerate(recorded))


def check_episode(batch, results, golden: dict | None, problems: list[str]) -> tuple[int, int]:
    """``(failed queries, decomposition parts printed)``; problems are appended."""
    failed = parts = 0
    for argv, r in zip(batch, results):
        problem, n = check.check(argv, r["code"], r["out"], r["err"])
        parts += n
        if problem is not None:
            failed += 1
            problems.append(f"{' '.join(argv)}: {problem}")
    if golden is not None and digest(batch, results) != golden:
        problems.append("digest differs from the recorded one (stdout, or inputs if the"
                        " generator changed)")
        failed = len(batch)
    return failed, parts


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    golden = golden_digests(workload, seed)
    setups, latencies, rss_mb, problems = [], [], [], []
    loop_s = 0.0
    attempted = failed = 0
    started = time.perf_counter()
    index = 0
    while index == 0 or (loop_s < seconds
                         and time.perf_counter() - started < WALL_FACTOR * seconds):
        batch = workloads.episode(workload, seed, index)
        setup, results, totals = run_episode(batch, "plain")
        setups.append(setup)
        latencies += [r["s"] for r in results]
        rss_mb.append(totals["maxrss_kb"] / 1024)
        loop_s += totals["loop_s"]
        bad, _ = check_episode(batch, results, golden.get(index), problems)
        attempted += len(batch)
        failed += bad
        index += 1
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_qps": attempted / loop_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        # a mean, not a median: the memo dicts grow in doublings, so one
        # episode's peak falls in one of a few steps and a median jumps
        "peak_rss_mb": statistics.mean(rss_mb),
        "success_ratio": (attempted - failed) / attempted,
    }
    return _result(attempted, failed, problems, metrics, "end_to_end")


def trace_run(workload: str, seed: int) -> dict:
    golden = golden_digests(workload, seed)
    problems: list[str] = []
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    child_ns: Counter = Counter()
    memo: Counter = Counter()
    spans: set[str] = set()
    attempted = failed = parts = stdout_bytes = tm_peak = 0
    plain_s = traced_s = 0.0
    for index in range(TRACE_EPISODES):
        batch = workloads.episode(workload, seed, index)
        _, plain, plain_totals = run_episode(batch, "plain")
        _, traced, traced_totals = run_episode(batch, "trace")
        _, measured, tm_totals = run_episode(batch, "tracemalloc")
        bad, n = check_episode(batch, plain, golden.get(index), problems)
        for other, label in ((traced, "traced"), (measured, "tracemalloc")):
            for argv, a, b in zip(batch, plain, other):
                if (a["code"], a["out"], a["err"]) != (b["code"], b["out"], b["err"]):
                    problems.append(f"{' '.join(argv)}: {label} output differs from plain")
                    bad = len(batch)
        attempted += len(batch)
        failed += bad
        parts += n
        stdout_bytes += sum(len(r["out"].encode()) for r in plain)
        plain_s += plain_totals["loop_s"]
        traced_s += traced_totals["loop_s"]
        tm_peak = max(tm_peak, tm_totals["tracemalloc_peak"])
        trace = traced_totals["trace"]
        spans.update(trace["spans"])
        calls.update({(a, b): k for a, b, k in trace["calls"]})
        total_ns.update(trace["total_ns"])
        child_ns.update(trace["child_ns"])
        memo.update(trace["memo"])
    fired = {b for _, b in calls}
    crossed = {(a.split(".")[0], b.split(".")[0]) for a, b in calls}
    for span in MUST_FIRE[workload]:
        if span in spans and span not in fired:
            problems.append(f"wrapper {span} never fired")
    for pair in MUST_CROSS[workload]:
        if pair not in crossed:
            problems.append(f"no traced call from {pair[0]} into {pair[1]}")

    def into(callee: str, caller_layer: str = "") -> int:
        return sum(k for (a, b), k in calls.items()
                   if b == callee and a.startswith(caller_layer))

    def ms(span: str) -> float:
        return total_ns[span] / 1e6

    windows = into("formulas.linsys_dim", "gapmap.")
    sweep = calls["cases.max_neg_canonical_degree", "cases.gamma_class"]
    admissible = calls["cases.max_neg_canonical_degree", "picard.canonical_degree"]
    lookups = memo["hits"] + memo["misses"]
    metrics = {
        "cli.main.self_ms": (total_ns["cli.main"] - child_ns["cli.main"]) / 1e6,
        "cli.stdout_bytes": stdout_bytes,
        "gapmap.status.ms": ms("gapmap.status"),
        "gapmap.certify_nongap.calls": into("gapmap.certify_nongap"),
        "gapmap.certify_nongap.ms": ms("gapmap.certify_nongap"),
        "gapmap.windows_examined": windows,
        "gapmap.windows_per_query": windows / attempted,
        "gapmap.decompose.ms": ms("gapmap.decompose"),
        "gapmap.refined_horizon.ms": ms("gapmap.refined_horizon"),
        "gapmap.contiguity_tests": into("formulas.contiguity_holds", "gapmap."),
        "gapmap._window_union_within.ms": ms("gapmap._window_union_within"),
        "gapmap.parts_emitted": parts,
        "gapmap.windows_per_part": windows / parts if parts else 0.0,
        "formulas.calls": sum(k for (a, b), k in calls.items()
                              if b.startswith("formulas.") and not a.startswith("formulas.")),
        "formulas.memo_hit_ratio": memo["hits"] / lookups if lookups else 0.0,
        "formulas.memo_entries": memo["entries"],
        "intervals.normalize.calls": into("intervals._normalize"),
        "intervals.normalize.ms": ms("intervals._normalize"),
        "intervals.complement_within.ms": ms("intervals.complement_within"),
        "intervals.clip.ms": ms("intervals.clip"),
        "cases.load_cases.calls": into("cases.load_cases"),
        "cases.load_cases.ms": ms("cases.load_cases"),
        "cases.restricted_triples.calls": into("cases.restricted_triples"),
        "cases.max_neg_canonical_degree.calls": into("cases.max_neg_canonical_degree"),
        "cases.max_neg_canonical_degree.ms": ms("cases.max_neg_canonical_degree"),
        "cases.sweep_points": sweep,
        "cases.admissible_ratio": admissible / sweep if sweep else 0.0,
        "cases.check_elimination.ms": ms("cases.check_elimination"),
        # calls into picard's intersect from other layers (2037 per verify all
        # at the baseline), not those picard makes inside its own helpers
        "picard.intersect.calls": into("picard.intersect") - into("picard.intersect", "picard."),
        "picard.intersect.ms": ms("picard.intersect"),
        "mem.tracemalloc_peak_kb": tm_peak / 1024,
        "trace.overhead_ratio": traced_s / plain_s,
    }
    return _result(attempted, failed, problems, metrics, "per_layer")


def _result(attempted: int, failed: int, problems: list[str], metrics: dict, kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    if set(declared) != set(metrics):
        odd = sorted(set(declared) ^ set(metrics))
        problems.append(f"metrics differ from BENCHMARK.json: {odd}")
    for line in problems[:20]:
        print(line, file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared.get(name, "")}
                    for name, value in metrics.items()},
    }


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "genusgaps" / "cli.py").is_file():
        print(f"error: no genusgaps sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        if args.trace:
            result = trace_run(args.workload, args.seed)
        else:
            result = timed_run(args.workload, args.seed, args.seconds)
    except (HarnessError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
