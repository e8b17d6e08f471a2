"""Command-line interface: formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
from collections import Counter
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_golden import GOLDEN
from test_values import rebuild

from genusgaps import cases as case_mod
from genusgaps import cli
from genusgaps.cases import CheckResult, VerificationReport
from genusgaps.gapmap import decompose


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_proc(
    *argv: str, env: dict | None = None, timeout: float | None = None
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "genusgaps", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestStatus:
    def test_proved_gap(self, capsys):
        rc, out, _ = run(capsys, "status", "5", "1")
        assert rc == 0
        assert "ProvedGap" in out and "Xu-initial" in out

    def test_certified(self, capsys):
        rc, out, _ = run(capsys, "status", "6", "100")
        assert rc == 0
        assert "CertifiedNonGap" in out and "nodes" in out

    def test_unknown(self, capsys):
        rc, out, _ = run(capsys, "status", "6", "26")
        assert rc == 0
        assert "Unknown" in out

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "status", "6", "13", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload == {
            "schema_version": "1",
            "command": "status",
            "d": 6,
            "g": 13,
            "verdict": "ProvedGap",
            "source": "MainTheorem-Gaps1",
            "certificate": None,
        }

    def test_csv(self, capsys):
        rc, out, _ = run(capsys, "status", "6", "8", "--format", "csv")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,g,verdict,source,n,delta"
        assert lines[1] == "6,8,CertifiedNonGap,SeveriInterval,1,2"

    def test_bad_arguments(self, capsys):
        assert run(capsys, "status", "0", "5")[0] == 2
        assert run(capsys, "status", "6", "-1")[0] == 2
        assert run(capsys, "status", "six", "1")[0] == 2


class TestCertify:
    def test_found(self, capsys):
        rc, out, _ = run(capsys, "certify", "6", "8", "--format", "csv")
        assert rc == 0
        assert out.strip().splitlines()[1] == "6,8,1,2"

    def test_absent(self, capsys):
        rc, out, _ = run(capsys, "certify", "6", "26", "--format", "json")
        assert rc == 0
        assert json.loads(out)["certificate"] is None

    def test_low_degree_rejected(self, capsys):
        rc, _, err = run(capsys, "certify", "3", "0")
        assert rc == 2
        assert "degree" in err


class TestDecompose:
    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "decompose", "6", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["proved"] == [[0, 6], [11, 15]]
        assert payload["unknown"] == [[26, 26]]
        assert payload["certified"] == [[7, 10], [16, 25]]
        assert payload["horizon"] == 26
        assert payload["sources"] == [
            {"lo": 0, "hi": 6, "source": "Xu-initial"},
            {"lo": 11, "hi": 15, "source": "MainTheorem-Gaps1"},
        ]

    def test_degree_four_empty(self, capsys):
        rc, out, _ = run(capsys, "decompose", "4", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["proved"] == [] and payload["unknown"] == []

    def test_degree_nine_second_range(self, capsys):
        rc, out, _ = run(capsys, "decompose", "9", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert [29, 54] in payload["proved"]

    def test_low_degree_exits_two(self, capsys):
        rc, out, err = run(capsys, "decompose", "3")
        assert rc == 2
        assert out == ""
        assert "every genus" in err

    def test_json_round_trip(self, capsys):
        for args in (["decompose", "6"], ["status", "6", "26"], ["bounds", "7"],
                     ["table", "4", "6"], ["certify", "5", "9"], ["verify", "all"]):
            rc, out, _ = run(capsys, *args, "--format", "json")
            assert rc == 0
            payload = json.loads(out)
            assert json.dumps(payload, sort_keys=True, indent=2) == out.strip()


def _generic_decomposition(dec) -> tuple[dict, list[list[object]], list[str]]:
    """JSON fields, CSV cells and table lines of one decomposition, built generically.

    This is the renderer the per-kind templates replaced, kept as their
    oracle: one cell list per part sorted by ``lo``, and one f-string per
    table line through ``Interval.__repr__``.
    """
    kinds = (
        ("proved", "proved gap", dec.proved_gaps),
        ("unknown", "unknown", dec.unknown_candidates),
        ("certified", "certified non-gap", dec.nongap_certified),
    )
    fields = {
        "d": dec.d,
        "horizon": dec.horizon,
        **{kind: parts.to_pairs() for kind, _, parts in kinds},
        "sources": [{"lo": p.lo, "hi": p.hi, "source": src} for p, src in dec.proved_sources],
    }
    if dec.horizon < 0:
        return fields, [[dec.d, "nogaps", None, None, ""]], [
            f"degree {dec.d}: no gaps, every genus is a certified non-gap"
        ]
    tag = dict(dec.proved_sources)
    rows = [
        [dec.d, kind, part.lo, part.hi, tag.get(part, "") if kind == "proved" else ""]
        for kind, _, parts in kinds
        for part in parts
    ]
    rows.sort(key=lambda r: r[2])
    lines = [f"degree {dec.d}: gaps confined to [0,{dec.horizon}]"]
    for kind, label, parts in kinds:
        for part in parts:
            src = f"  [{tag.get(part, '')}]" if kind == "proved" else ""
            lines.append(f"  {label:<19}{part}{src}")
    lines.append(f"every genus above {dec.horizon} is a certified non-gap")
    return fields, rows, lines


def _generic_output(command: str, degrees: range, fmt: str) -> str:
    """What ``decompose`` (one degree) or ``table`` printed through the generic renderer."""
    blocks = [_generic_decomposition(decompose(d)) for d in degrees]
    if fmt == "json":
        body = blocks[0][0] if command == "decompose" else {"rows": [b[0] for b in blocks]}
        payload = {"schema_version": "1", "command": command, **body}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(cli.DECOMPOSITION_HEADER)] + [
            ",".join(["" if v is None else str(v) for v in row]) for b in blocks for row in b[1]
        ]
    else:
        lines = [line for b in blocks for line in b[2]]
    return "".join(line + "\n" for line in lines)


class TestTemplatedRows:
    """The per-kind %-templates print what the generic renderer printed, byte for byte."""

    FORMATS = ("table", "json", "csv")

    def check(self, capsys, argv: list[str], degrees: range) -> None:
        for fmt in self.FORMATS:
            rc, out, err = run(capsys, *argv, "--format", fmt)
            assert (rc, err) == (0, "")
            assert out == _generic_output(argv[0], degrees, fmt), (argv, fmt)

    def test_small_degrees(self, capsys):
        for d in range(4, 81):
            self.check(capsys, ["decompose", str(d)], range(d, d + 1))

    def test_sampled_degrees(self, capsys):
        # and 5 * 10**4, the largest degree of the decompose-sweep workload
        for d in [*sorted(random.Random(0).sample(range(81, 10**5 + 1), 30)), 5 * 10**4]:
            self.check(capsys, ["decompose", str(d)], range(d, d + 1))

    @pytest.mark.parametrize("lo, hi", [(4, 9), (4, 60), (2000, 2003)])
    def test_tables(self, capsys, lo, hi):
        # table 4 9 mixes the d = 4 nogaps row with templated ones, and
        # table 4 60 streams 57 degrees through one writer
        self.check(capsys, ["table", str(lo), str(hi)], range(lo, hi + 1))


class TestBounds:
    def test_documented_values(self, capsys):
        rc, out, _ = run(capsys, "bounds", "5", "--format", "csv")
        assert rc == 0
        assert out.strip().splitlines()[1] == "5,19,2"

    def test_degree_four_degenerate(self, capsys):
        rc, out, _ = run(capsys, "bounds", "4", "--format", "csv")
        assert rc == 0
        assert out.strip().splitlines()[1] == "4,-1,-1"

    def test_answer_over_the_int_digit_limit_is_a_usage_error(self, capsys):
        # the degree parses, but its horizons have more digits than str(int) may write
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # from 3.10.7 and 3.11
        if not limit:
            pytest.skip("int to str conversion has no digit limit in this interpreter")
        d = "7" * -(-limit // 2)
        for fmt in cli.FORMATS:
            rc, out, err = run(capsys, "bounds", d, "--format", fmt)
            assert (rc, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1, err
        proc = run_proc("bounds", d, timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    @pytest.mark.parametrize("command", [["decompose"], ["table", "4"]])
    def test_decompose_and_table_refuse_an_unprintable_answer_up_front(self, command, fmt):
        # the coarse horizon bounds every part these commands write, so a degree
        # whose coarse horizon str(int) cannot write is refused before the window
        # search, which would step through about d^(2/3) windows
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int to str conversion has no digit limit in this interpreter")
        d = "7" * -(-limit // 2)
        proc = run_proc(*command, d, "--format", fmt, timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        bounds = run_proc("bounds", d, "--format", fmt, timeout=10)
        assert proc.stderr == bounds.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestTable:
    def test_csv_sorted(self, capsys):
        rc, out, _ = run(capsys, "table", "4", "8", "--format", "csv")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,kind,lo,hi,source"
        rows = [line.split(",") for line in lines[1:]]
        keys = [(int(r[0]), int(r[2]) if r[2] else -1) for r in rows]
        assert keys == sorted(keys)
        assert {r[0] for r in rows} == {"4", "5", "6", "7", "8"}

    def test_bad_range(self, capsys):
        assert run(capsys, "table", "9", "4")[0] == 2
        assert run(capsys, "table", "3", "8")[0] == 2

    def test_streams_every_degree(self, capsys):
        rc, out, _ = run(capsys, "table", "4", "8", "--format", "json")
        payload = json.loads(out)
        assert [row["d"] for row in payload["rows"]] == [4, 5, 6, 7, 8]


class TestVerify:
    def test_cases_pass(self, capsys):
        rc, out, _ = run(capsys, "verify", "cases")
        assert rc == 0
        assert "all 120 checks passed" in out

    def test_json_shape(self, capsys):
        rc, out, _ = run(capsys, "verify", "cases", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["scope"] == "cases"
        assert len(payload["checks"]) == 120

    def test_all_scope(self, capsys):
        # verify all shares the sweeps of its two parts, and still writes every
        # check of verify cases, then every check of verify kappa, all ok
        checks = {}
        for scope in ("cases", "kappa", "all"):
            rc, out, _ = run(capsys, "verify", scope, "--format", "json")
            payload = json.loads(out)
            assert rc == 0 and payload["ok"] is True
            assert all(check["ok"] is True for check in payload["checks"])
            checks[scope] = payload["checks"]
        assert {scope: len(c) for scope, c in checks.items()} == {"cases": 120, "kappa": 176,
                                                                  "all": 296}
        assert checks["all"] == checks["cases"] + checks["kappa"]

    @pytest.mark.parametrize("scope", ["cases", "kappa", "all"])
    def test_csv_detail_is_the_rest_of_the_line(self, capsys, scope):
        # details such as "max -kappa 15, documented 15" hold ", " and no cell
        # is quoted, so the third column is everything after the second comma
        _, out, _ = run(capsys, "verify", scope, "--format", "json")
        checks = json.loads(out)["checks"]
        want = [[c["id"], "pass" if c["ok"] else "FAIL", c["detail"]] for c in checks]
        _, out, _ = run(capsys, "verify", scope, "--format", "csv")
        header, *rows = out.splitlines()
        assert header == "check_id,ok,detail"
        assert [row.split(",", 2) for row in rows] == want
        assert any(", " in detail for _, _, detail in want) == (scope != "cases")

    def test_failure_exits_one(self, capsys, monkeypatch):
        def broken():
            return VerificationReport(
                checks=(CheckResult(check_id="eliminate/x/y", ok=False, detail="boom"),),
            )

        monkeypatch.setattr(case_mod, "verify_elimination", broken)
        rc, out, _ = run(capsys, "verify", "cases")
        assert rc == 1
        assert "FAIL" in out


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_bad_format(self, capsys):
        assert cli.main(["status", "5", "1", "--format", "yaml"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_console_script_entry(self, capsys, monkeypatch):
        """The installed ``genusgaps`` command exits with the code ``main`` returns."""
        for argv, code in [(["status", "6", "13"], 0), (["--help"], 0),
                           (["status", "six", "1"], 2)]:
            monkeypatch.setattr(sys, "argv", ["genusgaps", *argv])
            with pytest.raises(SystemExit) as exc:
                cli.entry()
            out, err = capsys.readouterr()
            assert exc.value.code == code, argv
            assert (code, out, err) == _captured(cli.main, argv), argv
        # read as text, as tomllib is new in 3.11
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = pyproject.read_text(encoding="utf-8").split("\n[project.scripts]\n", 1)[1]
        assert 'genusgaps = "genusgaps.cli:entry"' in scripts.split("\n[", 1)[0].splitlines()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "12", "--format", "json"],
            ["table", "4", "9", "--format", "csv"],
            ["verify", "cases", "--format", "csv"],
        ],
    )
    def test_byte_identical_runs(self, argv):
        first = run_proc(*argv)
        second = run_proc(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_no_color_is_a_no_op(self):
        import os

        env = dict(os.environ)
        base = run_proc("decompose", "6", env=env)
        env["NO_COLOR"] = "1"
        colored = run_proc("decompose", "6", env=env)
        assert base.stdout == colored.stdout


class TestClosedStdout:
    """A reader that goes away is not an error: no traceback, the command's own exit code."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["status", "6", "13"],
            ["decompose", "7", "--format", "csv"],
            ["bounds", "9", "--format", "json"],
            ["table", "4", "60"],
            ["certify", "7", "30"],
            ["verify", "all", "--format", "csv"],
        ],
    )
    def test_exits_quietly(self, capsys, argv):
        want = cli.main(argv)
        capsys.readouterr()
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "genusgaps", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert want in (0, 1)
        assert proc.returncode == want
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ""


class TestParserReuse:
    """Each call prints the same, whatever ran before it in the process."""

    ARGV = [argv.split() for argv in sorted(GOLDEN)] + [
        ["--help"],
        ["status", "--help"],
        ["status", "x", "3"],
        ["status", "7"],
        ["frobnicate"],
        ["status", "5", "1", "--format", "yaml"],
        ["status", "7", "30", "--bogus"],
    ]

    def test_reused_parser_matches_a_fresh_one(self, capsys):
        fresh = {}
        for argv in self.ARGV:
            fresh[tuple(argv)] = run(capsys, *argv)
        interleaved = self.ARGV * 3
        random.Random(0).shuffle(interleaved)
        for order in (self.ARGV, self.ARGV[::-1], interleaved):
            for argv in order:
                assert run(capsys, *argv) == fresh[tuple(argv)], argv

    def test_each_declined_argv_builds_one_parser_tree(self, capsys, monkeypatch):
        """Plain argv builds no parser; each declined argv builds one tree of 7 parsers."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        plain = [["status", "6", str(i)] for i in range(20)] + [  # and golden argv with no negative
            argv.split() for argv in GOLDEN if " -" not in argv.replace(" --format", "")
        ]
        for argv in plain:
            cli.main(argv)
        assert built == []
        for i in range(50):
            before = len(built)
            cli.main([["status", "6", str(i)], ["bounds", "--format=json", "7"], ["frobnicate"]][i % 3])
            # the root and six subparsers for a declined argv, none for a plain one
            assert len(built) - before == (0 if i % 3 == 0 else 7)


class TestOnlyRequestedShape:
    """``main`` builds only the shape its format prints.

    Every ``Record`` the commands make, the per-degree blocks of ``table``
    included, has its ``fields``, ``rows`` and ``lines`` builders wrapped
    and counted; only the one the format reads may run.
    """

    BUILDERS = ("fields", "rows", "lines")
    WANT = {"table": {"lines"}, "json": {"fields"}, "csv": {"rows"}}

    @pytest.mark.parametrize("fmt", sorted(WANT))
    @pytest.mark.parametrize("argv", [["decompose", "50"], ["table", "20", "23"]])
    def test_other_shapes_are_not_built(self, capsys, monkeypatch, argv, fmt):
        calls: Counter = Counter()
        make = cli.Record

        def counted(name, build):
            def wrapper():
                calls[name] += 1
                return build()
            return wrapper

        def counting_record(*args, **kwargs):
            record = make(*args, **kwargs)
            return rebuild(
                record, **{name: counted(name, getattr(record, name)) for name in self.BUILDERS}
            )

        monkeypatch.setattr(cli, "Record", counting_record)
        assert cli.main([*argv, "--format", fmt]) == 0
        assert capsys.readouterr().out
        assert {name for name, n in calls.items() if n} == self.WANT[fmt]


@st.composite
def _spoiled_pairs(draw):
    """Equal-length int lists with one bool or float slipped in."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(), min_size=width, max_size=width),
                         min_size=1, max_size=4))
    row = draw(st.sampled_from(rows))
    row[draw(st.integers(0, width - 1))] = draw(st.booleans() | st.floats())
    return rows


# what a templated dict row may hold, with keys and strings that need escaping
# or carry a % sign into the template
_FLAT_KEYS = st.text() | st.sampled_from(["%s", "%", "%%d", "\u00e9", '"\\', "\n"])
_FLAT_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
                 | st.text() | st.sampled_from(["%s", "%d", "\u00e9\u2028", '"\\\n', "\x00"]))


@st.composite
def _flat_records(draw):
    """Dicts sharing one key set, each in its own key order, some with one value or key spoiled."""
    keys = draw(st.lists(_FLAT_KEYS, max_size=3, unique=True))
    rows = [{key: draw(_FLAT_SCALARS) for key in draw(st.permutations(keys))}
            for _ in range(draw(st.integers(1, 4)))]
    row = draw(st.sampled_from(rows))
    spoil = draw(st.sampled_from(["none", "value", "key"]))
    if spoil == "value" and keys:
        row[draw(st.sampled_from(keys))] = draw(
            st.floats() | st.lists(st.integers(), max_size=2) | st.just({}))
    elif spoil == "key":
        row[draw(_FLAT_KEYS)] = draw(_FLAT_SCALARS)
    return rows


_PAIRS = st.integers(0, 3).flatmap(
    lambda width: st.lists(st.lists(st.integers(), min_size=width, max_size=width), max_size=4)
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40) | st.floats()
    | st.text() | _PAIRS | _spoiled_pairs() | _flat_records(),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestJsonEmitter:
    """``cli._json`` writes what ``json.dumps(..., sort_keys=True, indent=2)`` writes."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli._json(value, "") == json.dumps(value, sort_keys=True, indent=2)

    def test_pair_lists_with_a_stray_scalar_fall_back(self):
        for stray in (True, False, 1.5, None, "7"):
            value = {"proved": [[0, 6], [11, stray]], "empty": [[], []]}
            assert cli._json(value, "") == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        [{}], [{}, {}], [{"a": 1}, {"b": 1}], [{"a": 1}, {"a": 1, "b": 2}], [{"a": 1.5}],
        [{"a": [1]}], [{"a": 1}, {"a": True}], [{"%s": "%d", "\u00e9": None}], ({"a": "x"},),
    ])
    def test_flat_records(self, value):
        assert cli._json(value, "") == json.dumps(value, sort_keys=True, indent=2)

    def test_no_render_reaches_the_pure_python_encoder(self, capsys, monkeypatch):
        calls = []
        make = json.encoder._make_iterencode

        def counting(*args, **kwargs):
            calls.append(args)
            return make(*args, **kwargs)

        monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
        argvs = [argv.split() for argv in sorted(GOLDEN) if argv.endswith("--format json")]
        outs = [run(capsys, *argv)[1] for argv in [*argvs, ["decompose", "50000", "--format", "json"]]]
        assert calls == []
        for out in outs:
            if out:
                assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def _oracle_parser() -> argparse.ArgumentParser:
    """The parser written out by hand: the reference for the one ``COMMANDS`` builds."""
    parser = argparse.ArgumentParser(
        prog="genusgaps",
        description="Certified genus gap/non-gap structure of curves on "
        "very general surfaces in P^3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("table", "json", "csv"), default="table",
                       help="output format (default: table)")
        return p

    p = add("status", "verdict for a single (degree, genus) pair")
    p.add_argument("d", type=int, help="surface degree (>= 1)")
    p.add_argument("g", type=int, help="genus (>= 0)")
    p = add("decompose", "certified gap decomposition for one degree")
    p.add_argument("d", type=int, help="surface degree (>= 4)")
    p = add("bounds", "coarse and refined certification horizons")
    p.add_argument("d", type=int, help="surface degree (>= 4)")
    p = add("table", "decompositions for a range of degrees")
    p.add_argument("d_min", type=int)
    p.add_argument("d_max", type=int)
    p = add("certify", "smallest non-gap certificate for a (degree, genus) pair")
    p.add_argument("d", type=int, help="surface degree (>= 4)")
    p.add_argument("g", type=int, help="genus (>= 0)")
    p = add("verify", "re-run the mechanical proof checks")
    p.add_argument("scope", choices=("cases", "kappa", "all"))
    return parser


def _captured(fn, *args) -> tuple[object, str, str]:
    """``fn(*args)`` with stdout and stderr captured: (result, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = fn(*args)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_NEAR_MISSES = ["stat", "Status", "status ", "statuss", "verif", "bound", "certif", "frobnicate",
                "", "-h", "--help", "--", "--format", "--format=json"]
_BIG_INTS = st.integers(-10**6, 10**6) | st.integers(-10**40, 10**40)
# int() reads most of these; argparse takes "-1_000" for an option, as its
# negative-number test is a regex that "-\uff17" (full-width 7) passes and "-1_000" fails
_ODD_INTS = st.sampled_from(["1_000", "-1_000", " 7", "7 ", "\uff17", "-\uff17", "\u0663", "+5",
                             "00", "-0", "0x10", "1e3", "7.0", "6_", "_6", " -5", "\t8\n"])
_TOKENS = st.sampled_from(["", "-h", "--help", "--", "-", "-5", "--format=json", "--form", "--format",
                           "json", "csv", "table", "yaml", "cases", "kappa", "all", "Cases", "x",
                           "status", "--bogus", "6 13"])
_FORMAT_PIECES = st.sampled_from([["--format", "json"], ["--format", "csv"], ["--format", "table"],
                                  ["--format", "yaml"], ["--format"], ["--format=json"],
                                  ["--form", "json"], ["--format", "--format"], ["--", "json"]])


@st.composite
def _argvs(draw) -> list[str]:
    """A command or near miss with its positionals, a few spoiled, and --format pieces.

    Degrees of ``decompose`` and ``table`` stay small, so each run is quick.
    """
    name = draw(st.sampled_from([*cli.COMMANDS] * 3 + _NEAR_MISSES))
    ints = st.integers(-5, 40).map(str) if name in ("decompose", "table") else _BIG_INTS.map(str)
    if name == "verify":
        ints = st.sampled_from(["cases", "kappa", "all", "al", "CASES", "all "])
    token = st.integers(0, 9).flatmap(lambda k: ints if k < 7 else _ODD_INTS if k < 8 else _TOKENS)
    arity = len(cli.COMMANDS[name][2]) if name in cli.COMMANDS else 1
    tokens = draw(st.lists(token, min_size=arity, max_size=arity))
    extra = draw(st.sampled_from([0, 0, 0, 1, -1]))
    if extra > 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(token))
    elif extra < 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    for piece in draw(st.lists(_FORMAT_PIECES, max_size=2)):
        at = len(tokens) if draw(st.booleans()) else draw(st.integers(0, len(tokens)))
        tokens[at:at] = piece
    return [name, *tokens]


class TestPlainRoute:
    """``_plain_args`` reads plain argv as argparse would, and declines the rest."""

    @pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in cli.COMMANDS)])
    def test_help_unchanged(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        want = _captured(_oracle_parser().parse_args, argv)
        assert _captured(cli.main, argv) == want and want[0] == 0 and want[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["status", "6", "13"],
            ["status", "6", "13", "--format", "json"],
            ["certify", " 7", "1_000", "--format", "csv"],
            ["decompose", "\uff17"],
            ["bounds", "+9"],
            ["table", "4", "9", "--format", "table"],
            ["verify", "all"],
        ],
    )
    def test_reads_plain_argv(self, argv):
        got = cli._plain_args(argv)
        assert got is not None
        assert got == cli._build_parser().parse_args(argv, SimpleNamespace())

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["status"], ["status", "6"], ["status", "6", "13", "14"], ["status", "-1", "13"],
            ["status", "6", ""], ["status", "6", "x"], ["status", "--format", "json", "6", "13"],
            ["status", "6", "--format", "json", "13"], ["status", "6", "13", "--format=json"],
            ["status", "6", "13", "--form", "json"], ["status", "6", "13", "--format", "yaml"],
            ["status", "6", "13", "--format", "json", "--format", "csv"], ["status", "6", "13", "-h"],
            ["status", "--", "6", "13"], ["stat", "6", "13"], ["verify", "al"],
            ["verify", "cases", "--format"], ("status", "6", "13"), ["status", 6, 13], "status 6 13",
        ],
    )
    def test_declines_everything_else(self, argv):
        assert cli._plain_args(argv) is None

    @pytest.mark.parametrize(
        "argv,plain",
        [
            ("status --format=json 6 13", "status 6 13 --format json"),
            ("status --format csv 6 13", "status 6 13 --format csv"),
            ("bounds --format json 9", "bounds 9 --format json"),
            ("status 6 13 --form csv", "status 6 13 --format csv"),
            ("verify --form json kappa", "verify kappa --format json"),
            ("table --format=table 4 9", "table 4 9"),
        ],
    )
    def test_argparse_route_gives_the_plain_namespace(self, monkeypatch, argv, plain):
        # main reads each declined argv through argparse into the namespace
        # that _plain_args gives for the same query written plainly
        seen = []
        monkeypatch.setattr(cli, "_render", lambda args, record: seen.append(args) or "")
        assert cli._plain_args(argv.split()) is None
        assert cli.main(argv.split()) == cli.main(plain.split()) == 0
        assert type(seen[0]) is SimpleNamespace
        assert seen[0] == seen[1] == cli._plain_args(plain.split())

    def test_both_routes_print_the_same(self):
        # the same query, read plain and, spelled with --format=json, by argparse
        plain = ["status", "6", "13", "--format", "json"]
        parsed = ["status", "--format=json", "6", "13"]
        assert cli._plain_args(plain) is not None and cli._plain_args(parsed) is None
        got = _captured(cli.main, plain)
        assert got == _captured(cli.main, parsed) and got[0] == 0 and got[1]

    @settings(max_examples=400, deadline=None)
    @given(_argvs())
    def test_same_as_argparse(self, argv):
        plain = cli._plain_args(argv)
        if plain is not None:
            assert plain == cli._build_parser().parse_args(argv, SimpleNamespace())
        got = _captured(cli.main, argv)
        with mock.patch.object(cli, "_plain_args", lambda argv: None):
            assert _captured(cli.main, argv) == got
        code, _, err = got
        assert code in (0, 1, 2) and "Traceback" not in err


def test_plain_argv_imports_no_argparse():
    """A plain query loads neither argparse nor gettext beyond what a bare interpreter loads."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    show = "import sys; print(*sys.modules, sep='\\n', file=sys.stderr)"

    def loaded(code: str) -> set[str]:
        proc = subprocess.run([sys.executable, "-I", "-c", code],
                              capture_output=True, text=True, check=True)
        return set(proc.stderr.split())

    query = f"import sys; sys.path.insert(0, {src!r}); from genusgaps import cli; "
    query += "cli.main(['status', '6', '13']); "
    added = loaded(query + show) - loaded(show)
    assert "genusgaps.cli" in added and not {"argparse", "gettext"} & added, added
