"""The package's slots value types against the frozen dataclasses they replaced.

Each oracle below is the ``@dataclass(frozen=True)`` definition of the
type of the same name, with its fields, defaults and constructor checks;
the methods the conversion left alone (``DivisorClass`` arithmetic,
``PicardLattice.cls``) are left out.  The oracles share their class names
with the value types, so the two ``repr``s are comparable byte for byte.
``to_oracle`` rebuilds a value, and every value nested in it, as the
oracle.  The checks run over every shipped case record and built-in
lattice with their parts, every check of ``verify all``, sampled ``status``,
``certify_nongap`` and ``decompose`` results, and the records of sampled
CLI commands.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import inspect
import pickle
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NoReturn

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genusgaps import cases, cli, gapmap, picard
from genusgaps.cases import CaseDataError, load_cases
from genusgaps.intervals import Interval, IntervalSet
from genusgaps.picard import BUILTINS, builtin_lattice, intersect


def rebuild(obj, **changes):
    """``obj`` built again through its constructor, with ``changes`` to its arguments."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj.__match_args__}, **changes})


@dataclass(frozen=True)
class Certificate:
    """Witness for a non-gap: a nodal degree-n cut with delta nodes."""

    n: int
    delta: int


@dataclass(frozen=True)
class GapStatus:
    verdict: str
    source: str | None = None
    certificate: Certificate | None = None


@dataclass(frozen=True)
class GapDecomposition:
    d: int
    horizon: int
    proved_gaps: IntervalSet
    unknown_candidates: IntervalSet
    nongap_certified: IntervalSet
    proved_sources: tuple[tuple[Interval, str], ...]


@dataclass(frozen=True)
class Record:
    fields: Callable[[], dict]
    header: list[str]
    rows: Callable[[], list[str]]
    lines: Callable[[], list[str]]
    code: int = 0


@dataclass(frozen=True)
class DivisorClass:
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class PicardLattice:
    name: str
    basis: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    canonical: DivisorClass
    named: dict[str, DivisorClass] = field(default_factory=dict)
    description: str = ""
    k2: int | None = None
    degree: int | None = None

    def __post_init__(self) -> None:
        r = len(self.basis)
        if len(self.gram) != r or any(len(row) != r for row in self.gram):
            raise ValueError(f"{self.name}: gram must be {r}x{r}")
        for i in range(r):
            for j in range(r):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError(f"{self.name}: gram not symmetric at ({i},{j})")
        for label, cls in {**self.named, "K": self.canonical}.items():
            if len(cls.coeffs) != r:
                raise ValueError(f"{self.name}: class {label} has wrong rank")


@dataclass(frozen=True)
class SweepParam:
    label: str
    cls: str
    lo: int = 0
    hi: int | None = None


@dataclass(frozen=True)
class SweepConstraint:
    cls: str
    min_value: int


def linear_forms_by_intersect(record, lat):
    """The Gram readings of a record, one ``intersect`` per product.

    ``cases._linear_forms`` as it stood before the lattices kept their Gram
    rows, kept verbatim (bar its name) as the differential oracle of the
    row-based reading: K . base, K . sub_i, base . P_j, and sub_i . P_j as
    one row per parameter; an unknown class label raises ``KeyError``.
    """
    base = lat.cls(record.base)
    subs = [lat.cls(p.cls) for p in record.params]
    pencils = [lat.cls(c.cls) for c in record.constraints]
    return (
        intersect(lat, lat.canonical, base),
        tuple(intersect(lat, lat.canonical, sub) for sub in subs),
        tuple(intersect(lat, base, pencil) for pencil in pencils),
        tuple(tuple(intersect(lat, sub, pencil) for pencil in pencils) for sub in subs),
    )


@dataclass(frozen=True)
class CaseRecord:
    id: str
    n: int
    lattice: str
    base: str
    params: tuple[SweepParam, ...]
    constraints: tuple[SweepConstraint, ...]
    family_dim: int
    mode: str
    threshold: int | None = None
    hilbert_component_dims: tuple[int, ...] = ()
    expected_neg_kappa: tuple[int, int] = (0, 0)  # (per_d, const)
    description: str = ""
    delegated: bool = False
    forms: tuple[int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        def fail(why: str) -> NoReturn:
            raise CaseDataError(f"{self.id}: {why}")

        if self.family_dim < 0:
            fail("family_dim must be >= 0")
        if self.n not in (3, 4):
            fail("cutting degree must be 3 or 4")
        if self.mode not in ("dim-count", "direct-dim"):
            fail(f"unknown mode {self.mode!r}")
        if (self.mode == "direct-dim") != (self.threshold is not None):
            fail("threshold must accompany direct-dim mode")
        try:
            forms = linear_forms_by_intersect(self, builtin_lattice(self.lattice))
        except KeyError as exc:
            raise CaseDataError(f"{self.id}: {exc}") from exc
        object.__setattr__(self, "forms", forms)
        _, k_subs, _, sub_pencils = forms
        for c in self.constraints:
            if c.min_value < 0:
                fail(f"negative constraint bound on {c.cls}")
        for p, k_sub, coefs in zip(self.params, k_subs, sub_pencils):
            if p.lo < 0 or (p.hi is not None and p.hi < p.lo):
                fail(f"bad domain for parameter {p.label}")
            for c, coef in zip(self.constraints, coefs):
                if coef < 0:
                    fail(f"{p.cls} meets pencil {c.cls} negatively")
            if p.hi is None and not any(coefs) and k_sub > 0:
                fail(f"parameter {p.label} unbounded with negative kappa")
        if self.hilbert_component_dims:
            derived = max(self.hilbert_component_dims) - 12
            if derived != self.family_dim:
                fail(f"family_dim {self.family_dim} does not match"
                     f" Hilbert data {self.hilbert_component_dims}")


@dataclass(frozen=True)
class EliminationCheck:
    case_id: str
    d: int
    n: int
    g: int
    mode: str
    family_dim: int
    max_neg_kappa: int
    v_bound: int
    lhs: int
    rhs: int
    ok: bool
    delegated: bool

    def detail(self) -> str:
        if self.mode == "direct-dim":
            body = f"family_dim {self.lhs} < {self.rhs}"
        else:
            body = (
                f"family_dim {self.family_dim} + v {self.v_bound} = {self.lhs}"
                f" < {self.rhs}"
            )
        tag = " (delegated)" if self.delegated else ""
        return f"{body} | -kappa <= {self.max_neg_kappa}{tag}"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


# each value type and its oracle
PAIRS = {
    cls: globals()[cls.__name__]
    for cls in (
        gapmap.Certificate, gapmap.GapStatus, gapmap.GapDecomposition, cli.Record,
        picard.DivisorClass, picard.PicardLattice, cases.SweepParam, cases.SweepConstraint,
        cases.CaseRecord, cases.EliminationCheck, cases.CheckResult, cases.VerificationReport,
    )
}
IDS = [cls.__name__ for cls in PAIRS]


def init_names(oracle: type) -> list[str]:
    return [f.name for f in dataclasses.fields(oracle) if f.init]


def to_oracle(value):
    """``value`` with every value type in it, at any depth, rebuilt as its oracle."""
    if isinstance(value, tuple):
        return tuple(map(to_oracle, value))
    if isinstance(value, dict):
        return {k: to_oracle(v) for k, v in value.items()}
    oracle = PAIRS.get(type(value))
    if oracle is None:
        return value
    return oracle(**{name: to_oracle(getattr(value, name)) for name in init_names(oracle)})


@dataclass(frozen=True)
class Raised:
    kind: str
    message: str


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001  (the exception is the outcome compared)
        return Raised(type(exc).__name__, str(exc))


def _records() -> list:
    """The record of each of a few CLI commands, and two whose callables pickle."""
    parser = cli._build_parser()
    argvs = [["status", "6", "13"], ["certify", "7", "30"], ["decompose", "7"],
             ["decompose", "4"], ["bounds", "9"], ["table", "4", "6"], ["verify", "cases"]]
    out = [args.run(args) for args in map(parser.parse_args, argvs)]
    return out + [cli.Record(dict, ["h"], list, list, 1), cli.Record(dict, [], list, list)]


@functools.cache
def samples() -> dict[type, list]:
    """Instances of every value type, keyed by type."""
    records = load_cases()
    statuses = [gapmap.status(d, g) for d in (1, 3, 4, 5, 6, 7, 10, 50)
                for g in (0, 1, 2, 5, 13, 14, 30, 100, 10**4)]
    certificates = [gapmap.certify_nongap(d, g) for d in (4, 5, 6, 9, 50)
                    for g in range(0, 400, 7)]
    report = cases.verify_all()
    found = [
        *records,
        *(p for r in records for p in r.params),
        *(c for r in records for c in r.constraints),
        *BUILTINS,
        *(lat.canonical for lat in BUILTINS),
        *(c for lat in BUILTINS for c in lat.named.values()),
        report, *report.checks, cases.verify_kappa(), *cases._eliminations(records, {}),
        *statuses, *filter(None, certificates),
        *map(gapmap.decompose, (4, 5, 6, 7, 20, 100)),
        *_records(),
    ]
    by_type: dict[type, list] = {cls: [] for cls in PAIRS}
    for value in found:
        by_type[type(value)].append(value)
    return by_type


def test_every_type_is_sampled():
    counts = {cls.__name__: len(found) for cls, found in samples().items()}
    assert all(counts.values()), counts
    assert counts["CaseRecord"] == 24 and counts["PicardLattice"] == len(BUILTINS) == 21
    assert counts["CheckResult"] == 296 and counts["EliminationCheck"] == 120


@pytest.mark.parametrize("cls", PAIRS, ids=IDS)
class TestAgainstDataclass:
    def test_signature_and_match_args(self, cls):
        oracle = PAIRS[cls]
        assert cls.__match_args__ == oracle.__match_args__ == tuple(init_names(oracle))
        kinds = [(p.name, p.kind) for p in inspect.signature(cls).parameters.values()]
        assert kinds == [(p.name, p.kind) for p in inspect.signature(oracle).parameters.values()]

    def test_defaults(self, cls):
        # built from the required arguments alone, both take the same defaults
        oracle = PAIRS[cls]
        required = [p.name for p in inspect.signature(oracle).parameters.values()
                    if p.default is p.empty]
        for value in samples()[cls]:
            args = [getattr(value, name) for name in required]
            got = outcome(cls, *args)
            want = outcome(oracle, *map(to_oracle, args))
            if isinstance(want, Raised):  # a direct-dim record needs its threshold
                assert got == want
            else:
                assert repr(got) == repr(want) and to_oracle(got) == want

    def test_repr_hash_and_forms(self, cls):
        for value in samples()[cls]:
            want = to_oracle(value)
            assert repr(value) == repr(want)
            assert outcome(hash, value) == outcome(hash, want)
            if cls is cases.CaseRecord:
                assert value.forms == want.forms, value.id

    def test_equality(self, cls):
        found = samples()[cls][:40]
        oracles = list(map(to_oracle, found))
        # a subclass instance with the same fields is no equal either
        sub, oracle_sub = (type(c.__name__, (c,), {"__slots__": ()}) for c in (cls, PAIRS[cls]))
        for x, ox in zip(found, oracles):
            fields = tuple(getattr(x, name) for name in cls.__match_args__)
            assert x.__eq__(ox) is NotImplemented and x != ox
            assert x.__eq__(fields) is NotImplemented and x != fields
            assert x.__eq__(sub(*fields)) is NotImplemented
            assert ox.__eq__(oracle_sub(*map(to_oracle, fields))) is NotImplemented
            for y, oy in zip(found, oracles):
                assert (x == y) == (ox == oy)
                assert (x != y) == (ox != oy)
            assert x == rebuild(x)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy]
        + [lambda v, p=p: pickle.loads(pickle.dumps(v, p))
           for p in range(pickle.HIGHEST_PROTOCOL + 1)],
        ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    )
    def test_copy_and_pickle(self, cls, clone):
        for value in samples()[cls]:
            got, want = outcome(clone, value), outcome(clone, to_oracle(value))
            if isinstance(want, Raised):  # a record's local functions do not pickle
                assert got == want
                continue
            assert type(got) is cls and got == value and repr(got) == repr(want)
            assert outcome(hash, got) == outcome(hash, value)
            if cls is cases.CaseRecord:
                assert got.forms == value.forms

    def test_immutable(self, cls):
        for value in samples()[cls]:
            before = repr(value)
            for name in (*cls.__slots__, "other"):
                for target in (value, to_oracle(value)):
                    with pytest.raises(AttributeError):
                        setattr(target, name, None)
                    with pytest.raises(AttributeError):
                        delattr(target, name)
            assert repr(value) == before


def test_lattices_stay_unhashable():
    for lat in BUILTINS:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(lat)


def test_each_lattice_gets_a_fresh_named_dict():
    k3 = builtin_lattice("k3_quartic")
    a, b = (picard.PicardLattice(k3.name, k3.basis, k3.gram, k3.canonical) for _ in range(2))
    assert a.named == {} and a.named is not b.named
    assert copy.deepcopy(k3).named is not k3.named


def test_elimination_details_match():
    for check in samples()[cases.EliminationCheck]:
        assert check.detail() == to_oracle(check).detail()


def test_report_ok_matches():
    for report in samples()[cases.VerificationReport]:
        assert report.ok == to_oracle(report).ok
    checks = samples()[cases.CheckResult][:3]
    failing = (*checks, cases.CheckResult("x", False, "y"))
    assert not cases.VerificationReport(failing).ok
    assert not VerificationReport(tuple(map(to_oracle, failing))).ok


BAD_VALUES = (None, True, 0, -1, 1.5, "", "H", "no-such", (), (0,), (1, 2, 3), [], {},
              (("P", 0),), ({"label": "m"},))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_record_checks_run_in_the_same_order(data):
    # up to three fields of a shipped record replaced, each by the value of
    # another record, a part of one, or a bad value: both constructors
    # accept the result, or both raise the same CaseDataError message
    found = samples()
    record = data.draw(st.sampled_from(found[cases.CaseRecord]), label="record")
    names = data.draw(st.lists(st.sampled_from(cases.CaseRecord.__match_args__),
                               min_size=1, max_size=3, unique=True), label="fields")
    parts = [tuple(found[cases.SweepParam][:2]), tuple(found[cases.SweepConstraint][:2]),
             (cases.SweepParam("m", "E0", 2, 1),), (cases.SweepConstraint("P", -1),),
             (cases.SweepParam("m", "nope"),), (cases.SweepParam("m", "E0", True),)]
    changes = {
        name: data.draw(st.sampled_from(
            [*(getattr(r, name) for r in found[cases.CaseRecord]), *parts, *BAD_VALUES]
        ), label=name)
        for name in names
    }
    oracle_args = {n: to_oracle(getattr(record, n)) for n in init_names(CaseRecord)}
    got = outcome(lambda: rebuild(record, **changes))
    want = outcome(lambda: CaseRecord(**{**oracle_args, **to_oracle(changes)}))
    if isinstance(want, CaseRecord):
        assert isinstance(got, cases.CaseRecord)
        assert repr(got) == repr(want) and got.forms == want.forms
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lattice_checks_run_in_the_same_order(data):
    lat = data.draw(st.sampled_from(BUILTINS), label="lattice")
    name = data.draw(st.sampled_from(picard.PicardLattice.__match_args__), label="field")
    others = [getattr(other, name) for other in BUILTINS]
    bad = [((1, 2), (3, 4)), ((1,), (1, 2)), {"X": picard.DivisorClass((1, 2, 3))}]
    value = data.draw(st.sampled_from([*others, *bad]), label="value")
    got = outcome(lambda: rebuild(lat, **{name: value}))
    want = outcome(lambda: PicardLattice(**{**{n: to_oracle(getattr(lat, n))
                                               for n in init_names(PicardLattice)},
                                            name: to_oracle(value)}))
    if isinstance(want, PicardLattice):
        assert repr(got) == repr(want)
    else:
        assert got == want


def test_cli_import_loads_no_code_generation():
    """Importing the CLI loads neither ``dataclasses`` nor what it pulls in."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    show = "import sys; print(*sys.modules, sep='\\n')"

    def loaded(code: str) -> set[str]:
        proc = subprocess.run([sys.executable, "-I", "-c", code],
                              capture_output=True, text=True, check=True)
        return set(proc.stdout.split())

    bare = loaded(show)
    added = loaded(f"import sys; sys.path.insert(0, {src!r}); import genusgaps.cli; " + show)
    added -= bare
    assert "genusgaps.cli" in added and "genusgaps.cases" in added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"}), added
