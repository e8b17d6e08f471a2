"""Parse every output format of the CLI and compare it with ``oracle``.

A query passes when it exits 0, writes nothing to stderr and its stdout,
parsed, equals the answer the oracle derives from its argv alone.
"""

from __future__ import annotations

import json
import re

import oracle

# check counts that ``verify`` reports at the commit that defined the benchmark
VERIFY_CHECKS = {"cases": 120, "kappa": 176, "all": 296}

_STATUS_LINE = re.compile(
    r"degree (\d+) genus (\d+): (\w+)(?: \[([^\]]+)\])?"
    r"(?: via a degree-(\d+) cut with (\d+) nodes)?"
)
_CERTIFY_LINE = re.compile(
    r"degree (\d+) genus (\d+): "
    r"(?:no certificate|certified by a degree-(\d+) cut with (\d+) nodes)"
)
_DEC_HEAD = re.compile(r"degree (\d+): gaps confined to \[0,(-?\d+)\]")
_DEC_PART = re.compile(r"  (proved gap|unknown|certified non-gap) +\[(\d+),(\d+)\](?:  \[(.*)\])?")
_DEC_FOOT = re.compile(r"every genus above (-?\d+) is a certified non-gap")
_KINDS = {"proved gap": "proved", "unknown": "unknown", "certified non-gap": "certified"}


class OutputError(ValueError):
    """The output does not have the shape its format promises."""


def check(argv: list[str], code: int, out: str, err: str) -> tuple[str | None, int]:
    """``(problem or None, decomposition parts printed)`` for one query."""
    if code != 0:
        return f"exit code {code}", 0
    if err:
        return f"stderr: {err[:200]!r}", 0
    # argv is always ``[command, *positionals, "--format", fmt]``
    cmd, pos, fmt = argv[0], argv[1:-2], argv[-1]
    try:
        if cmd in ("status", "certify"):
            d, g = int(pos[0]), int(pos[1])
            got = _parse_point(cmd, fmt, out)
            want = _expected_point(cmd, d, g)
            return (None if got == want else f"got {got}, want {want}"), 0
        if cmd in ("decompose", "table"):
            lo, hi = int(pos[0]), int(pos[-1])
            got = _parse_decompositions(cmd, fmt, out)
            parts = sum(len(r["proved"]) + len(r["unknown"]) + len(r["certified"]) for r in got)
            want = [oracle.decomposition(d) for d in range(lo, hi + 1)]
            if fmt != "json":
                for rec in want:
                    del rec["sources"]
            return (None if got == want else f"decomposition differs for d in [{lo},{hi}]"), parts
        if cmd == "verify":
            return _check_verify(pos[0], fmt, out), 0
    except (OutputError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}", 0
    return f"unknown command {cmd!r}", 0


def _expected_point(cmd: str, d: int, g: int) -> tuple:
    verdict, source, cert = oracle.status(d, g)
    if cmd == "certify":
        cert = oracle.certificate(d, g)
        return (d, g, *(cert or (None, None)))
    return (d, g, verdict, source, *(cert or (None, None)))


def _int_or_none(text: str | None) -> int | None:
    return None if text in (None, "") else int(text)


def _parse_point(cmd: str, fmt: str, out: str) -> tuple:
    if fmt == "json":
        doc = json.loads(out)
        if doc["schema_version"] != "1" or doc["command"] != cmd:
            raise OutputError("wrong schema_version or command")
        cert = doc["certificate"]
        tail = (None, None) if cert is None else (cert["n"], cert["delta"])
        if cmd == "certify":
            return (doc["d"], doc["g"], *tail)
        return (doc["d"], doc["g"], doc["verdict"], doc["source"], *tail)
    lines = out.splitlines()
    if fmt == "csv":
        header = "d,g,n,delta" if cmd == "certify" else "d,g,verdict,source,n,delta"
        if len(lines) != 2 or lines[0] != header:
            raise OutputError("bad csv layout")
        row = lines[1].split(",")
        if cmd == "certify":
            return (int(row[0]), int(row[1]), _int_or_none(row[2]), _int_or_none(row[3]))
        return (int(row[0]), int(row[1]), row[2], row[3] or None,
                _int_or_none(row[4]), _int_or_none(row[5]))
    if len(lines) != 1:
        raise OutputError("expected one line")
    pattern = _CERTIFY_LINE if cmd == "certify" else _STATUS_LINE
    m = pattern.fullmatch(lines[0])
    if m is None:
        raise OutputError(f"bad line {lines[0]!r}")
    if cmd == "certify":
        return (int(m[1]), int(m[2]), _int_or_none(m[3]), _int_or_none(m[4]))
    return (int(m[1]), int(m[2]), m[3], m[4], _int_or_none(m[5]), _int_or_none(m[6]))


def _record(d: int, top: int) -> dict:
    return {"d": d, "horizon": top, "proved": [], "unknown": [], "certified": []}


def _parse_decompositions(cmd: str, fmt: str, out: str) -> list[dict]:
    if fmt == "json":
        doc = json.loads(out)
        if doc["schema_version"] != "1" or doc["command"] != cmd:
            raise OutputError("wrong schema_version or command")
        rows = doc["rows"] if cmd == "table" else [doc]
        return [
            {
                "d": r["d"],
                "horizon": r["horizon"],
                "proved": sorted((lo, hi, src) for (lo, hi), src in zip(
                    r["proved"], _tags(r["proved"], r["sources"]))),
                "unknown": [tuple(p) for p in r["unknown"]],
                "certified": [tuple(p) for p in r["certified"]],
                "sources": [(s["lo"], s["hi"], s["source"]) for s in r["sources"]],
            }
            for r in rows
        ]
    lines = out.splitlines()
    records: list[dict] = []
    if fmt == "csv":
        if lines[0] != "d,kind,lo,hi,source":
            raise OutputError("bad csv header")
        rows = [line.split(",") for line in lines[1:]]
        keys = [(int(r[0]), int(r[2])) for r in rows]
        if keys != sorted(keys):
            raise OutputError("csv rows not sorted by (d, lo)")
        for d_text, kind, lo, hi, src in rows:
            d = int(d_text)
            if not records or records[-1]["d"] != d:
                records.append(_record(d, -1))
            rec = records[-1]
            part = (int(lo), int(hi))
            rec["horizon"] = max(rec["horizon"], part[1])
            if kind == "proved":
                rec["proved"].append((*part, src))
            elif kind in ("unknown", "certified") and not src:
                rec[kind].append(part)
            else:
                raise OutputError(f"bad csv row kind {kind!r}")
        return records
    for line in lines:
        if (m := _DEC_HEAD.fullmatch(line)) is not None:
            records.append(_record(int(m[1]), int(m[2])))
        elif (m := _DEC_PART.fullmatch(line)) is not None and records:
            kind = _KINDS[m[1]]
            part = (int(m[2]), int(m[3]))
            if (kind == "proved") != (m[4] is not None):
                raise OutputError(f"bad part line {line!r}")
            records[-1][kind].append((*part, m[4]) if kind == "proved" else part)
        elif (m := _DEC_FOOT.fullmatch(line)) is None or not records \
                or int(m[1]) != records[-1]["horizon"]:
            raise OutputError(f"bad line {line!r}")
    for rec in records:
        rec["proved"].sort()
        rec["unknown"].sort()
        rec["certified"].sort()
    return records


def _tags(proved: list[list[int]], sources: list[dict]) -> list[str]:
    tag = {(s["lo"], s["hi"]): s["source"] for s in sources}
    return [tag.get((lo, hi), "") for lo, hi in proved]


def _check_verify(scope: str, fmt: str, out: str) -> str | None:
    lines = out.splitlines()
    if fmt == "json":
        doc = json.loads(out)
        if doc["schema_version"] != "1" or doc["command"] != "verify" or doc["scope"] != scope:
            raise OutputError("wrong schema_version, command or scope")
        ids = [c["id"] for c in doc["checks"]]
        passed = doc["ok"] is True and all(c["ok"] is True for c in doc["checks"])
    elif fmt == "csv":
        if lines[0] != "check_id,ok,detail":
            raise OutputError("bad csv header")
        rows = [line.split(",", 2) for line in lines[1:]]
        ids = [r[0] for r in rows]
        passed = all(r[1] == "pass" for r in rows)
    else:
        body = [line.split(" ", 1) for line in lines[:-1]]
        ids = [rest.split(": ", 1)[0] for _, rest in body]
        passed = (all(word == "PASS" for word, _ in body)
                  and lines[-1] == f"all {len(body)} checks passed")
    want = VERIFY_CHECKS[scope]
    if not passed:
        return f"verify {scope} did not pass"
    if len(ids) != want or len(set(ids)) != want:
        return f"verify {scope} reported {len(ids)} checks ({len(set(ids))} distinct), want {want}"
    return None
