"""One benchmark episode in a fresh interpreter.

Usage: ``python3 -I child.py SRC_DIR MODE`` with MODE ``plain``, ``trace``
or ``tracemalloc``.  The child imports ``genusgaps.cli`` from SRC_DIR and
writes ``ready`` with the CPU time it has used so far, its set-up time.  It
then reads a JSON list of argv lists from stdin, runs ``cli.main`` on each
in turn with stdout and stderr captured in memory, and writes one JSON line
per query and a final JSON line with the loop's totals.

Times are CPU time of this process (user + system).  On a virtual machine
whose host takes the CPU away at times, wall time swings by a third from
one second to the next while CPU time does not count the stolen time; for
this single-threaded, CPU-bound program the two agree on an idle machine.
"""

import sys
import time

SRC, MODE = sys.argv[1], sys.argv[2]
sys.path.insert(0, SRC)

import genusgaps.cli as cli  # noqa: E402  (the import is what set-up measures)

out = sys.stdout.buffer
out.write(b"ready %r\n" % time.process_time())
out.flush()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def peak_rss_kb() -> int:
    """Peak resident set of this process image.

    ``ru_maxrss`` survives ``execve``, so after a spawn it can report the
    parent's peak instead; ``VmHWM`` belongs to the new image alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(SRC) + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the package under {SRC}")
    batch = json.loads(sys.stdin.read())
    tracer = None
    if MODE == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    elif MODE == "tracemalloc":
        import tracemalloc

        tracemalloc.start()
    loop_start = time.process_time()
    for argv in batch:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.process_time()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed query, not a failed benchmark
                code = -1
                traceback.print_exc()
            elapsed = time.process_time() - start
        line = {"code": code, "out": stdout.getvalue(), "err": stderr.getvalue(), "s": elapsed}
        out.write(json.dumps(line).encode() + b"\n")
        out.flush()
    final = {"loop_s": time.process_time() - loop_start, "maxrss_kb": peak_rss_kb()}
    if tracer is not None:
        final["trace"] = tracer.snapshot()
    if MODE == "tracemalloc":
        final["tracemalloc_peak"] = tracemalloc.get_traced_memory()[1]
    out.write(json.dumps(final).encode() + b"\n")
    out.flush()


main()
