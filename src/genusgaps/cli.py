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

``COMMANDS`` declares every subcommand once: its help, its runner and
its positionals.  Two readers take argv from that table.  ``_plain_args``
reads the plain shape ``<command> <positional>... [--format F]``: a list
of str whose positionals are nonempty, start with no ``-`` and convert as
argparse would convert them, with ``--format F`` only as the last two
tokens.  That is the shape scripts send, and reading it skips argparse,
whose parse and import cost more than a point query's answer.  Any other
argv (help, errors, ``--format=json``, options before positionals,
abbreviations) goes to an argparse parser built from the same table for
that call.  Both readers give a ``SimpleNamespace``, and for every argv
that ``_plain_args`` reads, argparse gives an equal one.  Nothing in this
module outlives a call.

JSON is written by the module's own emitter, ``_json``, whose output is
byte-identical to ``json.dumps(payload, sort_keys=True, indent=2)``:
with ``indent`` set, ``json.dumps`` runs its pure-Python encoder, which
cost more than building the record for a large decomposition.  Two kinds
of list are written through one %-template for all their items: int
lists of one length, such as the interval pairs of a decomposition, and
dicts that share one non-empty key set and hold only str, int, bool or
None, such as the checks of a verify report.  Any other list is written
item by item.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

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

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = "1"
DECOMPOSITION_HEADER = ["d", "kind", "lo", "hi", "source"]
FORMATS = ("table", "json", "csv")


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
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv, SimpleNamespace())
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 2
    try:
        record = args.run(args)
        # rendering raises ValueError too: an int beyond sys.get_int_max_str_digits()
        out = _render(args, record)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return record.code


def _render(args: SimpleNamespace, record: Record) -> str:
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
    ``json.dumps``.  A list of flat rows of one shape is rendered through
    one %-template (``_templated``); any other list goes item by item.
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
        body = _templated(value, inner)
        if body is None:
            body = sep.join(_json(item, inner) for item in value)
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(value)


_FLAT = {str, int, bool, type(None)}  # the exact types a templated dict row may hold


def _templated(items: list | tuple, inner: str) -> str | None:
    """The items of a non-empty list at ``inner``, written by one %-template, or None.

    The two shapes are those the module docstring names: a pair cell goes
    through ``%d``, a dict value through ``_json``.  Types are checked
    exactly first, so a bool or float in a pair list, a float or nested
    value in a dict, or an item or value of a subclass gets None.
    """
    kinds = set(map(type, items))
    cell = inner + "  "
    if kinds == {list}:
        widths = set(map(len, items))
        cells = list(chain.from_iterable(items))
        if len(widths) != 1 or set(map(type, cells)) != {int}:
            return None
        row = "[\n" + cell + (",\n" + cell).join(["%d"] * widths.pop()) + "\n" + inner + "]"
    elif kinds == {dict} and len(key_sets := set(map(frozenset, items))) == 1:
        keys = sorted(key_sets.pop())
        cells = [item[key] for item in items for key in keys]
        if not keys or not set(map(type, cells)) <= _FLAT:
            return None
        cells = [_json(v, "") for v in cells]
        # a key is written into the template, so its % signs are doubled
        row = "{\n" + cell + (",\n" + cell).join(
            [encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys]
        ) + "\n" + inner + "}"
    else:
        return None
    return (",\n" + inner).join([row] * len(items)) % tuple(cells)


def _certificate_json(cert: Certificate | None) -> dict | None:
    return None if cert is None else {"n": cert.n, "delta": cert.delta}


def _certificate_cells(cert: Certificate | None) -> list[object]:
    return [None, None] if cert is None else [cert.n, cert.delta]


def _cmd_status(args: SimpleNamespace) -> Record:
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


def _cmd_certify(args: SimpleNamespace) -> Record:
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

    # Each part is rendered by one %-template of its kind, the many unknown
    # and certified parts through C-level maps over their flat bounds, the
    # proved ones with their sources as ``decompose`` paired them (its ranges
    # are the proved parts).  The three sets partition [0, horizon], so no
    # two parts share a lo and sorting by lo is total.
    u, c = unknown.bounds, certified.bounds

    def rows() -> list[str]:
        out = ["%d,proved,%d,%d,%s" % (dec.d, p.lo, p.hi, src) for p, src in dec.proved_sources]
        out += map(f"{dec.d},unknown,%d,%d,".__mod__, zip(u[0::2], u[1::2]))
        out += map(f"{dec.d},certified,%d,%d,".__mod__, zip(c[0::2], c[1::2]))
        los = [*proved.bounds[0::2], *u[0::2], *c[0::2]]
        return list(map(out.__getitem__, sorted(range(len(los)), key=los.__getitem__)))

    def lines() -> list[str]:
        out = [f"degree {dec.d}: gaps confined to [0,{dec.horizon}]"]
        out += [
            "  proved gap         [%d,%d]  [%s]" % (p.lo, p.hi, src)
            for p, src in dec.proved_sources
        ]
        out += map("  unknown            [%d,%d]".__mod__, zip(u[0::2], u[1::2]))
        out += map("  certified non-gap  [%d,%d]".__mod__, zip(c[0::2], c[1::2]))
        out.append(f"every genus above {dec.horizon} is a certified non-gap")
        return out

    return Record(fields, DECOMPOSITION_HEADER, rows, lines)


def _check_decomposable(d: int) -> str:
    """The coarse horizon of d as text, after checking that d has a decomposition.

    Every horizon and part that ``bounds``, ``decompose`` and ``table`` write
    is at most the coarse horizon, so one too long for str(int) raises here,
    before a search that would step through about d^(2/3) windows.
    """
    _check_d(d, 1)  # below 1 is no surface degree at all
    if d < 4:
        raise ValueError(
            f"no gap decomposition for degree {d}: surfaces of degree at most 3"
            " are rational and carry irreducible curves of every genus"
        )
    return str(coarse_horizon(d))


def _cmd_decompose(args: SimpleNamespace) -> Record:
    _check_decomposable(args.d)
    return _decomposition(decompose(args.d))


def _cmd_bounds(args: SimpleNamespace) -> Record:
    coarse = _check_decomposable(args.d)
    refined = refined_horizon(args.d) if args.d >= 5 else -1
    return Record(
        fields=lambda: {"d": args.d, "coarse": int(coarse), "refined": refined},
        header=["d", "coarse", "refined"],
        rows=lambda: [_csv_row([args.d, coarse, refined])],
        lines=lambda: [f"degree {args.d}: coarse horizon {coarse}, refined horizon {refined}"],
    )


def _cmd_table(args: SimpleNamespace) -> Record:
    if not 4 <= args.d_min <= args.d_max:
        raise ValueError(
            f"need 4 <= d_min <= d_max, got d_min={args.d_min}, d_max={args.d_max}"
        )
    _check_decomposable(args.d_max)
    # degrees ascend and each block is sorted by lo, so the rows stay sorted by (d, lo)
    blocks = [_decomposition(decompose(d)) for d in range(args.d_min, args.d_max + 1)]
    return Record(
        fields=lambda: {"rows": [b.fields() for b in blocks]},
        header=DECOMPOSITION_HEADER,
        rows=lambda: [row for b in blocks for row in b.rows()],
        lines=lambda: [line for b in blocks for line in b.lines()],
    )


# verify scope -> the runner's name in cases, looked up on each call
_VERIFY_SCOPES = {"cases": "verify_elimination", "kappa": "verify_kappa", "all": "verify_all"}


def _cmd_verify(args: SimpleNamespace) -> Record:
    report = getattr(case_mod, _VERIFY_SCOPES[args.scope])()
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


# name -> (help, runner, positionals); each positional is (dest, kind, help),
# and its kind is int or a tuple of the values it takes
COMMANDS: dict[str, tuple[str, Callable[[SimpleNamespace], Record], tuple]] = {
    "status": ("verdict for a single (degree, genus) pair", _cmd_status,
               (("d", int, "surface degree (>= 1)"), ("g", int, "genus (>= 0)"))),
    "decompose": ("certified gap decomposition for one degree", _cmd_decompose,
                  (("d", int, "surface degree (>= 4)"),)),
    "bounds": ("coarse and refined certification horizons", _cmd_bounds,
               (("d", int, "surface degree (>= 4)"),)),
    "table": ("decompositions for a range of degrees", _cmd_table,
              (("d_min", int, None), ("d_max", int, None))),
    "certify": ("smallest non-gap certificate for a (degree, genus) pair", _cmd_certify,
                (("d", int, "surface degree (>= 4)"), ("g", int, "genus (>= 0)"))),
    "verify": ("re-run the mechanical proof checks", _cmd_verify,
               (("scope", tuple(_VERIFY_SCOPES), None),)),
}


def _plain_args(argv: object) -> SimpleNamespace | None:
    """The namespace argparse would give for plain argv, else None.

    Plain argv is a list of str: a command of ``COMMANDS``, then exactly
    its positionals, then optionally ``--format F`` with F in ``FORMATS``.
    Each positional is nonempty and starts with no ``-``, so argparse too
    reads it as a positional; an int one goes through ``int`` as
    argparse's ``type=int`` does, and a choice must match exactly.
    """
    if type(argv) is not list or set(map(type, argv)) != {str}:
        return None
    command, *tokens = argv
    spec = COMMANDS.get(command)
    if spec is None:
        return None
    fmt = "table"
    if len(tokens) >= 2 and tokens[-2] == "--format":
        tokens, fmt = tokens[:-2], tokens[-1]
        if fmt not in FORMATS:
            return None
    _, run, positionals = spec
    if len(tokens) != len(positionals):
        return None
    values = {}
    for token, (dest, kind, _) in zip(tokens, positionals):
        if not token or token[0] == "-":
            return None
        if kind is int:
            try:
                values[dest] = int(token)
            except ValueError:
                return None
        elif token in kind:
            values[dest] = token
        else:
            return None
    return SimpleNamespace(command=command, format=fmt, run=run, **values)


# built per call, not at import, so plain argv never imports argparse
def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="genusgaps",
        description="Certified genus gap/non-gap structure of curves on "
        "very general surfaces in P^3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, positionals) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format",
            choices=FORMATS,
            default="table",
            help="output format (default: table)",
        )
        for dest, kind, about in positionals:
            if kind is int:
                p.add_argument(dest, type=int, help=about)
            else:
                p.add_argument(dest, choices=kind, help=about)
        p.set_defaults(run=run)
    return parser
