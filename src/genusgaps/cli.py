"""Command-line front end.

Subcommands: ``status``, ``decompose``, ``bounds``, ``table``, ``certify``,
``verify``; all accept ``--format table|json|csv``.  Output is a pure
function of the arguments (byte-identical across runs), numbers are always
full decimal, and exit codes are 0 (success), 1 (verification failure),
2 (usage error) and nothing else.  A closed stdout is not an error: the
command keeps its own exit code and prints no traceback.

Each command returns one :class:`Record` and never sees ``--format``:
the record says how to build its answer in each shape, and ``main``
builds and renders only the requested one, then writes stdout once.
The module holds one argparse parser, built on the first call and never
mutated by parsing, so concurrent calls to ``main`` stay safe.

JSON is written by the module's own emitter, ``_json``, whose output is
byte-identical to ``json.dumps(payload, sort_keys=True, indent=2)``:
with ``indent`` set, ``json.dumps`` runs its pure-Python encoder, which
cost more than building the record for a large decomposition.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable

from . import cases as case_mod
from ._value import Value, setters
from .gapmap import (
    Certificate,
    GapDecomposition,
    _check_d,
    certify_nongap,
    coarse_horizon,
    decompose,
    refined_horizon,
    status,
)

SCHEMA_VERSION = "1"
DECOMPOSITION_HEADER = ["d", "kind", "lo", "hi", "source"]

_LO = attrgetter("lo")
_BOUNDS = attrgetter("lo", "hi")


class Record(Value):
    """One command's answer: JSON fields, CSV header and rows, table lines, exit code.

    ``fields``, ``rows`` and ``lines`` take no arguments and build their
    shape when called; ``_render`` calls only the one its format needs.
    ``rows`` returns finished CSV lines, most through ``_csv_row``.
    """

    __slots__ = __match_args__ = ("fields", "header", "rows", "lines", "code")

    fields: Callable[[], dict]
    header: list[str]
    rows: Callable[[], list[str]]
    lines: Callable[[], list[str]]
    code: int

    def __init__(
        self,
        fields: Callable[[], dict],
        header: list[str],
        rows: Callable[[], list[str]],
        lines: Callable[[], list[str]],
        code: int = 0,
    ) -> None:
        _set_fields(self, fields)
        _set_header(self, header)
        _set_rows(self, rows)
        _set_lines(self, lines)
        _set_code(self, code)


_set_fields, _set_header, _set_rows, _set_lines, _set_code = setters(Record)


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        record = args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(_render(args, record))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return record.code


def _render(args: argparse.Namespace, record: Record) -> str:
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **record.fields()}
        return _json(payload, "") + "\n"
    if args.format == "csv":
        lines = [",".join(record.header), *record.rows()]
    else:
        lines = record.lines()
    return "\n".join(lines) + "\n"  # every record has at least one line


def _csv_row(cells: list[object]) -> str:
    """One CSV line: each cell through ``str``, with None as an empty cell."""
    return ",".join(["" if v is None else str(v) for v in cells])


def _json(value: object, pad: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it, nested at ``pad``.

    Dict keys are str, as in every record.  Strings go through the C
    escaper ``json.dumps`` itself uses under ``ensure_ascii``, ints (not
    bools) through ``int.__repr__``, and any other scalar through
    ``json.dumps``.  A list of int lists of one length, such as the
    interval pairs of a decomposition, is rendered with one ``%d``
    template; its types and lengths are checked at C speed first, so a
    bool or float inside falls back to the general path.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join(
            encode_basestring_ascii(key) + ": " + _json(value[key], inner) for key in sorted(value)
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if (
            set(map(type, value)) == {list}
            and len(widths := set(map(len, value))) == 1
            and set(map(type, chain.from_iterable(value))) == {int}
        ):
            cell = inner + "  "
            row = "[\n" + cell + (",\n" + cell).join(["%d"] * widths.pop()) + "\n" + inner + "]"
            body = sep.join(map(row.__mod__, map(tuple, value)))
        else:
            body = sep.join(_json(item, inner) for item in value)
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(value)


# built on first use, not at import, so importing the module stays cheap
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genusgaps",
        description="Certified genus gap/non-gap structure of curves on "
        "very general surfaces in P^3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default: table)",
        )
        return p

    p = add("status", "verdict for a single (degree, genus) pair")
    p.add_argument("d", type=int, help="surface degree (>= 1)")
    p.add_argument("g", type=int, help="genus (>= 0)")
    p.set_defaults(run=_cmd_status)

    p = add("decompose", "certified gap decomposition for one degree")
    p.add_argument("d", type=int, help="surface degree (>= 4)")
    p.set_defaults(run=_cmd_decompose)

    p = add("bounds", "coarse and refined certification horizons")
    p.add_argument("d", type=int, help="surface degree (>= 4)")
    p.set_defaults(run=_cmd_bounds)

    p = add("table", "decompositions for a range of degrees")
    p.add_argument("d_min", type=int)
    p.add_argument("d_max", type=int)
    p.set_defaults(run=_cmd_table)

    p = add("certify", "smallest non-gap certificate for a (degree, genus) pair")
    p.add_argument("d", type=int, help="surface degree (>= 4)")
    p.add_argument("g", type=int, help="genus (>= 0)")
    p.set_defaults(run=_cmd_certify)

    p = add("verify", "re-run the mechanical proof checks")
    p.add_argument("scope", choices=("cases", "kappa", "all"))
    p.set_defaults(run=_cmd_verify)

    return parser


def _certificate_json(cert: Certificate | None) -> dict | None:
    return None if cert is None else {"n": cert.n, "delta": cert.delta}


def _certificate_cells(cert: Certificate | None) -> list[object]:
    return [None, None] if cert is None else [cert.n, cert.delta]


def _cmd_status(args: argparse.Namespace) -> Record:
    st = status(args.d, args.g)
    cert = st.certificate

    def lines() -> list[str]:
        line = f"degree {args.d} genus {args.g}: {st.verdict}"
        if st.source:
            line += f" [{st.source}]"
        if cert:
            line += f" via a degree-{cert.n} cut with {cert.delta} nodes"
        return [line]

    return Record(
        fields=lambda: {"d": args.d, "g": args.g, "verdict": st.verdict, "source": st.source,
                        "certificate": _certificate_json(cert)},
        header=["d", "g", "verdict", "source", "n", "delta"],
        rows=lambda: [
            _csv_row([args.d, args.g, st.verdict, st.source or "", *_certificate_cells(cert)])
        ],
        lines=lines,
    )


def _cmd_certify(args: argparse.Namespace) -> Record:
    _check_d(args.d, 1)  # below 1 is no surface degree at all
    if args.d < 4:
        raise ValueError(
            f"certificates exist only for degree >= 4, got {args.d}"
            " (lower degrees carry curves of every genus)"
        )
    cert = certify_nongap(args.d, args.g)

    def lines() -> list[str]:
        line = f"degree {args.d} genus {args.g}: "
        if cert is None:
            line += "no certificate"
        else:
            line += f"certified by a degree-{cert.n} cut with {cert.delta} nodes"
        return [line]

    return Record(
        fields=lambda: {"d": args.d, "g": args.g, "certificate": _certificate_json(cert)},
        header=["d", "g", "n", "delta"],
        rows=lambda: [_csv_row([args.d, args.g, *_certificate_cells(cert)])],
        lines=lines,
    )


def _decomposition(dec: GapDecomposition) -> Record:
    proved, unknown, certified = dec.proved_gaps, dec.unknown_candidates, dec.nongap_certified

    def fields() -> dict:
        return {
            "d": dec.d,
            "horizon": dec.horizon,
            "proved": proved.to_pairs(),
            "unknown": unknown.to_pairs(),
            "certified": certified.to_pairs(),
            "sources": [
                {"lo": part.lo, "hi": part.hi, "source": src}
                for part, src in dec.proved_sources
            ],
        }

    if dec.horizon < 0:
        return Record(
            fields, DECOMPOSITION_HEADER, lambda: [_csv_row([dec.d, "nogaps", None, None, ""])],
            lambda: [f"degree {dec.d}: no gaps, every genus is a certified non-gap"],
        )

    tag = dict(dec.proved_sources)

    # Each part is rendered by one %-template of its kind, the many unknown
    # and certified parts through C-level maps.  The three sets partition
    # [0, horizon], so no two parts share a lo and sorting by lo is total.
    def rows() -> list[str]:
        out = ["%d,proved,%d,%d,%s" % (dec.d, p.lo, p.hi, tag.get(p, "")) for p in proved]
        out += map(f"{dec.d},unknown,%d,%d,".__mod__, map(_BOUNDS, unknown))
        out += map(f"{dec.d},certified,%d,%d,".__mod__, map(_BOUNDS, certified))
        los = [*map(_LO, proved), *map(_LO, unknown), *map(_LO, certified)]
        return list(map(out.__getitem__, sorted(range(len(los)), key=los.__getitem__)))

    def lines() -> list[str]:
        out = [f"degree {dec.d}: gaps confined to [0,{dec.horizon}]"]
        out += [
            "  proved gap         [%d,%d]  [%s]" % (p.lo, p.hi, tag.get(p, "")) for p in proved
        ]
        out += map("  unknown            [%d,%d]".__mod__, map(_BOUNDS, unknown))
        out += map("  certified non-gap  [%d,%d]".__mod__, map(_BOUNDS, certified))
        out.append(f"every genus above {dec.horizon} is a certified non-gap")
        return out

    return Record(fields, DECOMPOSITION_HEADER, rows, lines)


def _check_decomposable(d: int) -> None:
    _check_d(d, 1)  # below 1 is no surface degree at all
    if d < 4:
        raise ValueError(
            f"no gap decomposition for degree {d}: surfaces of degree at most 3"
            " are rational and carry irreducible curves of every genus"
        )


def _cmd_decompose(args: argparse.Namespace) -> Record:
    _check_decomposable(args.d)
    return _decomposition(decompose(args.d))


def _cmd_bounds(args: argparse.Namespace) -> Record:
    _check_decomposable(args.d)
    coarse = coarse_horizon(args.d)
    refined = refined_horizon(args.d) if args.d >= 5 else -1
    return Record(
        fields=lambda: {"d": args.d, "coarse": coarse, "refined": refined},
        header=["d", "coarse", "refined"],
        rows=lambda: [_csv_row([args.d, coarse, refined])],
        lines=lambda: [f"degree {args.d}: coarse horizon {coarse}, refined horizon {refined}"],
    )


def _cmd_table(args: argparse.Namespace) -> Record:
    if not 4 <= args.d_min <= args.d_max:
        raise ValueError(
            f"need 4 <= d_min <= d_max, got d_min={args.d_min}, d_max={args.d_max}"
        )
    # degrees ascend and each block is sorted by lo, so the rows stay sorted by (d, lo)
    blocks = [_decomposition(decompose(d)) for d in range(args.d_min, args.d_max + 1)]
    return Record(
        fields=lambda: {"rows": [b.fields() for b in blocks]},
        header=DECOMPOSITION_HEADER,
        rows=lambda: [row for b in blocks for row in b.rows()],
        lines=lambda: [line for b in blocks for line in b.lines()],
    )


def _cmd_verify(args: argparse.Namespace) -> Record:
    runner = {
        "cases": case_mod.verify_elimination,
        "kappa": case_mod.verify_kappa,
        "all": case_mod.verify_all,
    }[args.scope]
    report = runner()
    checks = report.checks

    def lines() -> list[str]:
        n_fail = sum(1 for c in checks if not c.ok)
        out = [f"{'PASS' if c.ok else 'FAIL'} {c.check_id}: {c.detail}" for c in checks]
        if n_fail:
            out.append(f"{n_fail} of {len(checks)} checks FAILED")
        else:
            out.append(f"all {len(checks)} checks passed")
        return out

    return Record(
        fields=lambda: {
            "scope": args.scope,
            "ok": report.ok,
            "checks": [{"id": c.check_id, "ok": c.ok, "detail": c.detail} for c in checks],
        },
        header=["check_id", "ok", "detail"],
        rows=lambda: [
            _csv_row([c.check_id, "pass" if c.ok else "FAIL", c.detail]) for c in checks
        ],
        lines=lines,
        code=0 if report.ok else 1,
    )
