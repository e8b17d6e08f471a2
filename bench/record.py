"""Record the benchmark's baseline in ``bench/baseline.json``.

Usage (from the repository root)::

    python3 bench/record.py

For the default seed it first runs the first episodes of every workload,
checks every answer and stores digests of each episode's inputs and
stdout; later runs with the default seed must reproduce them byte for
byte, so it refuses to overwrite a recorded stdout digest for the same
inputs with a different one.  It then runs
each workload once untraced, for the ``run_seconds`` of ``BENCHMARK.json``,
and once traced, and stores the metrics, with the layer map below, next to
the digests.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import run
import workloads

# which end-to-end metric, on which workload, each layer's metrics should move
LAYER_MAP = [
    {"layer": "cli", "metrics": ["cli.main.self_ms", "cli.stdout_bytes"],
     "moves": ["latency_p50_ms on point-queries", "throughput_qps on decompose-sweep"]},
    {"layer": "gapmap", "metrics": ["gapmap.status.ms", "gapmap.certify_nongap.calls",
                                    "gapmap.certify_nongap.ms", "gapmap.windows_examined",
                                    "gapmap.windows_per_query"],
     "moves": ["latency_p90_ms on point-queries"]},
    {"layer": "gapmap", "metrics": ["gapmap.decompose.ms", "gapmap.refined_horizon.ms",
                                    "gapmap.contiguity_tests", "gapmap._window_union_within.ms",
                                    "gapmap.parts_emitted", "gapmap.windows_per_part"],
     "moves": ["throughput_qps on decompose-sweep"]},
    {"layer": "formulas", "metrics": ["formulas.calls", "formulas.memo_hit_ratio",
                                      "formulas.memo_entries"],
     "moves": ["throughput_qps on point-queries", "peak_rss_mb on decompose-sweep"]},
    {"layer": "intervals", "metrics": ["intervals.normalize.calls", "intervals.normalize.ms",
                                       "intervals.complement_within.ms", "intervals.clip.ms"],
     "moves": ["throughput_qps on decompose-sweep"]},
    {"layer": "cases", "metrics": ["cases.load_cases.calls", "cases.load_cases.ms",
                                   "cases.restricted_triples.calls",
                                   "cases.max_neg_canonical_degree.calls",
                                   "cases.max_neg_canonical_degree.ms", "cases.sweep_points",
                                   "cases.admissible_ratio", "cases.check_elimination.ms"],
     "moves": ["throughput_qps on verify-checks", "latency_p50_ms on verify-checks"]},
    {"layer": "picard", "metrics": ["picard.intersect.calls", "picard.intersect.ms"],
     "moves": ["throughput_qps on verify-checks"]},
    {"layer": "process", "metrics": ["mem.tracemalloc_peak_kb", "trace.overhead_ratio"],
     "moves": ["peak_rss_mb on every workload"]},
]


def record_digests(old: dict) -> dict[str, list[dict[str, str]]]:
    digests = {}
    for workload in workloads.WHY:
        digests[workload] = []
        for index in range(run.GOLDEN_EPISODES):
            batch = workloads.episode(workload, run.DEFAULT_SEED, index)
            _, results, _ = run.run_episode(batch, "plain")
            problems: list[str] = []
            run.check_episode(batch, results, None, problems)
            if problems:
                raise SystemExit(f"{workload} episode {index}: {problems[0]}")
            digests[workload].append(run.digest(batch, results))
        known = old.get("workloads", {}).get(workload, {}).get("golden_sha256", [])
        for was, now in zip(known, digests[workload]):
            if was["argv"] == now["argv"] and was["stdout"] != now["stdout"]:
                raise SystemExit(f"{workload}: stdout differs from the recorded digests")
    return digests


def main() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    old = json.loads(run.BASELINE.read_text()) if run.BASELINE.exists() else {}
    digests = record_digests(old)
    doc = {
        "default_seed": run.DEFAULT_SEED,
        "seconds": seconds,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
        "layer_map": LAYER_MAP,
        "workloads": {w: {"why": workloads.WHY[w], "golden_sha256": digests[w]}
                      for w in workloads.WHY},
    }
    run.BASELINE.write_text(json.dumps(doc, indent=2) + "\n")
    for workload in workloads.WHY:
        for kind, result in (
            ("end_to_end", run.timed_run(workload, run.DEFAULT_SEED, seconds)),
            ("per_layer", run.trace_run(workload, run.DEFAULT_SEED)),
        ):
            if not result["correct"]:
                raise SystemExit(f"{workload}: {kind} run was not correct")
            doc["workloads"][workload][kind] = result["metrics"]
            print(workload, kind, "done", file=sys.stderr)
    run.BASELINE.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
