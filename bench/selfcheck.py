"""Fast self-check of the benchmark harness.

Usage (from the repository root)::

    python3 bench/selfcheck.py

Checks that input generation is a function of the seed, that the oracle's
shortcuts agree with plain scans, that the output checks catch corrupted
answers, that the wrappers replace every bound name and leave stdout
unchanged, that traced counts repeat exactly, and that a tiny run prints a
correct result with every declared metric.  Exits 0 when all pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys

import check
import oracle
import run
import tracer
import workloads

SMALL = 6  # queries per workload in the child-process checks


def _require(condition: bool, detail: object = "") -> None:
    # not ``assert``: the checks must also run under ``python -O``
    if not condition:
        raise AssertionError(detail)


def check_generation() -> None:
    for workload in workloads.WHY:
        first = [workloads.episode(workload, 7, i) for i in range(3)]
        _require(first == [workloads.episode(workload, 7, i) for i in range(3)], workload)
        _require(first[0] != first[1], f"{workload}: episodes repeat")
        _require(first[0] != workloads.episode(workload, 8, 0), f"{workload}: seed ignored")
        _require(all(q[-2] == "--format" for batch in first for q in batch), workload)


def check_oracle() -> None:
    for d in range(5, 400):
        _require(oracle.horizon(d) == oracle.horizon_scan(d), d)
        bottoms = [oracle.window(d, n)[0] for n in range(1, 3 * d)]
        _require(bottoms == sorted(bottoms), f"window bottoms decrease at d={d}")


def _corruptions(argv: list[str], out: str) -> list[str]:
    """Outputs that a correct checker must reject for this query."""
    if argv[0] == "verify":
        flipped = re.sub(r"\bPASS\b|\bpass\b|\btrue\b",
                         lambda m: {"PASS": "FAIL", "pass": "FAIL", "true": "false"}[m[0]],
                         out, count=1)
        lines = out.splitlines(keepends=True)
        return [flipped, "".join(lines[:1] + lines[2:])]
    last = list(re.finditer(r"\d+", out))[-1]
    bumped = out[: last.start()] + str(int(last[0]) + 1) + out[last.end():]
    return [bumped, out[: len(out) // 2]]


def check_checker() -> None:
    for workload in workloads.WHY:
        batch = workloads.episode(workload, 3, 0)[:SMALL]
        _, results, _ = run.run_episode(batch, "plain")
        for argv, r in zip(batch, results):
            problem, _ = check.check(argv, r["code"], r["out"], r["err"])
            _require(problem is None, (argv, problem))
            _require(check.check(argv, 1, r["out"], r["err"])[0] is not None)
            _require(check.check(argv, 0, r["out"], "warning\n")[0] is not None)
            for bad in _corruptions(argv, r["out"]):
                _require(check.check(argv, 0, bad, "")[0] is not None, (argv, bad[-200:]))
        problems: list[str] = []
        changed = [dict(results[0], out=results[0]["out"] + "\n"), *results[1:]]
        failed, _ = run.check_episode(batch, changed, run.digest(batch, results), problems)
        _require(failed == len(batch) and problems, "digest mismatch not caught")


def check_wrappers() -> None:
    sys.path.insert(0, str(run.SRC))
    import genusgaps.cli  # noqa: F401  (loads every module)

    originals = set()
    for layer in tracer.MODULES:
        module = sys.modules[f"genusgaps.{layer}"]
        for attr, obj in vars(module).items():
            if tracer._is_target(module, attr, obj, tracer.PRIVATE.get(layer, ())):
                originals.add(id(obj))
    tracer.Tracer().install()
    for name, module in sys.modules.items():
        if name == "genusgaps" or name.startswith("genusgaps."):
            for attr, obj in vars(module).items():
                _require(id(obj) not in originals, f"{name}.{attr} still unwrapped")


def check_trace_repeats() -> None:
    for workload in workloads.WHY:
        batch = workloads.episode(workload, 5, 0)[:SMALL]
        _, plain, _ = run.run_episode(batch, "plain")
        snapshots = []
        for _ in range(2):
            _, traced, totals = run.run_episode(batch, "trace")
            _require([r["out"] for r in traced] == [r["out"] for r in plain], workload)
            trace = totals["trace"]
            snapshots.append((trace["calls"], trace["memo"]))
        _require(snapshots[0] == snapshots[1], f"{workload}: traced counts differ between runs")


def check_tiny_run() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result = run.timed_run("verify-checks", 2, 0.1)
    _require(result["correct"] and result["failed"] == 0, result)
    _require(set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]})
    saved = run.SRC
    run.SRC = run.ROOT / "no-such-directory"
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            _require(run.main(["--workload", "verify-checks", "--seconds", "1"]) != 0)
    finally:
        run.SRC = saved


def main() -> int:
    for step in (check_generation, check_oracle, check_checker, check_wrappers,
                 check_trace_repeats, check_tiny_run):
        step()
        print(f"ok {step.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
