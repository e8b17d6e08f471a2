"""Declarative case table and mechanical re-verification of the elimination argument.

The proved second gap range rests on showing that no irreducible curve of
the borderline genera can lie on any irreducible cubic or quartic
hypersurface cutting a very general surface of degree 6, 7 or 8.  The
finitely many (d, n, g) triples that survive the general bounds are
recomputed here (``restricted_triples``), and each one is eliminated
against every classified surface family by an exact dimension count:

* ``dim-count`` mode: family_dim + max{g, g-1-kappa} < cut_system_dim(n, d),
  where kappa is minimized (``-kappa`` maximized) over the family's curve
  classes exactly: integer points of every parameter but the last are
  enumerated, and the last is taken in closed form, as -kappa is linear in
  it and its admissible values form an interval.  -kappa and every
  constraint are linear forms whose coefficients are read from the Gram
  matrix once, when the record is built, and kept on it;
* ``direct-dim`` mode: family_dim < threshold, for the one family whose
  kappa is too negative for the generic count.

Each family is a :class:`CaseRecord`: a lattice name, a curve-class
template ``d*H - sum(param_i * class_i)`` with non-negative integer
parameters, linear sweep constraints ``gamma . pencil >= min_value``, a
family-dimension bound, and the check mode.  The table ships as JSON
(``data/cases.json``, schema below) and is embedded in the package, so the
verifier runs with zero configuration; ``load_cases`` accepts an external
file with the same schema.  The JSON reader checks the exact type of every
value, and the record checks what the values mean.

JSON schema (one object)::

    schema_version: str            # "genusgaps-cases/1"
    cases: [ {
        id: str                    # unique case label
        n: int                     # cutting degree the family lives in (3 or 4)
        lattice: str               # built-in lattice name
        gamma: { base: str,        # class scaled by the triple's d (always "H")
                 subtract: [ { cls: str, param: str, lo: int, hi: int|null } ] }
                                   # param only names the parameter in messages;
                                   # sweep values are taken in list order
        constraints: [ { cls: str, min: int } ]   # gamma . cls >= min; each
                                   # subtract cls must meet each constraint cls >= 0
        family_dim: int
        mode: "dim-count" | "direct-dim"
        threshold: int             # required iff mode == "direct-dim"
        hilbert_component_dims: [int]   # optional provenance for family_dim
        expected_neg_kappa: { per_d: int, const: int }   # audited bound on -kappa
        description: str
        delegated: bool            # encoded by analogy with a sibling family
    } ]
"""

from __future__ import annotations

import itertools
import json
from importlib import resources
from operator import mul
from pathlib import Path
from typing import NoReturn

from ._value import Value, setters
from .formulas import arithmetic_genus, clemens_min_genus, cut_system_dim
from .gapmap import candidate_gap_interval
from .picard import (
    BUILTINS,
    PicardLattice,
    adjunction_genus,
    builtin_lattice,
    family_dim_bound,
    intersect,
)

SCHEMA_VERSION = "genusgaps-cases/1"
# surface degrees whose second gap range rests on the case table
RESTRICTED_DEGREES = (6, 7, 8)


class CaseDataError(Exception):
    """The case table or a case record is malformed or inconsistent (a data-entry bug)."""


class SweepParam(Value):
    __slots__ = __match_args__ = ("label", "cls", "lo", "hi")

    label: str
    cls: str
    lo: int
    hi: int | None

    def __init__(self, label: str, cls: str, lo: int = 0, hi: int | None = None) -> None:
        _set_label(self, label)
        _set_param_cls(self, cls)
        _set_lo(self, lo)
        _set_hi(self, hi)


_set_label, _set_param_cls, _set_lo, _set_hi = setters(SweepParam)


class SweepConstraint(Value):
    __slots__ = __match_args__ = ("cls", "min_value")

    cls: str
    min_value: int

    def __init__(self, cls: str, min_value: int) -> None:
        _set_constraint_cls(self, cls)
        _set_min_value(self, min_value)


_set_constraint_cls, _set_min_value = setters(SweepConstraint)


class CaseRecord(Value):
    """One surface family of the case table; see the module docstring.

    ``forms`` is computed by the constructor, which takes no argument for it,
    and it stays out of ``==``, ``hash`` and ``repr``.
    """

    __match_args__ = (
        "id", "n", "lattice", "base", "params", "constraints", "family_dim", "mode",
        "threshold", "hilbert_component_dims", "expected_neg_kappa", "description", "delegated",
    )
    __slots__ = (*__match_args__, "forms")

    id: str
    n: int
    lattice: str
    base: str
    params: tuple[SweepParam, ...]
    constraints: tuple[SweepConstraint, ...]
    family_dim: int
    mode: str
    threshold: int | None
    hilbert_component_dims: tuple[int, ...]
    expected_neg_kappa: tuple[int, int]  # (per_d, const)
    description: str
    delegated: bool
    # the Gram readings of _linear_forms, set once by the constructor
    forms: tuple[int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]

    def __init__(
        self,
        id: str,
        n: int,
        lattice: str,
        base: str,
        params: tuple[SweepParam, ...],
        constraints: tuple[SweepConstraint, ...],
        family_dim: int,
        mode: str,
        threshold: int | None = None,
        hilbert_component_dims: tuple[int, ...] = (),
        expected_neg_kappa: tuple[int, int] = (0, 0),
        description: str = "",
        delegated: bool = False,
    ) -> None:
        """Check every d-independent invariant of meaning; the JSON reader checks types."""
        _set_id(self, id)
        _set_n(self, n)
        _set_lattice(self, lattice)
        _set_base(self, base)
        _set_params(self, params)
        _set_constraints(self, constraints)
        _set_family_dim(self, family_dim)
        _set_mode(self, mode)
        _set_threshold(self, threshold)
        _set_hilbert_component_dims(self, hilbert_component_dims)
        _set_expected_neg_kappa(self, expected_neg_kappa)
        _set_description(self, description)
        _set_delegated(self, delegated)

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
            forms = _linear_forms(self, builtin_lattice(self.lattice))
        except KeyError as exc:
            raise CaseDataError(f"{self.id}: {exc}") from exc
        _set_forms(self, forms)
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
            # every coef is >= 0 here, so no pencil caps p iff all are 0
            if p.hi is None and not any(coefs) and k_sub > 0:
                fail(f"parameter {p.label} unbounded with negative kappa")
        if self.hilbert_component_dims:
            # family_dim derives from the largest Hilbert component minus the
            # 12-dimensional freedom of the projection data
            derived = max(self.hilbert_component_dims) - 12
            if derived != self.family_dim:
                fail(f"family_dim {self.family_dim} does not match"
                     f" Hilbert data {self.hilbert_component_dims}")


(_set_id, _set_n, _set_lattice, _set_base, _set_params, _set_constraints, _set_family_dim,
 _set_mode, _set_threshold, _set_hilbert_component_dims, _set_expected_neg_kappa,
 _set_description, _set_delegated, _set_forms) = setters(CaseRecord)


class EliminationCheck(Value):
    __slots__ = __match_args__ = (
        "case_id", "d", "n", "g", "mode", "family_dim", "max_neg_kappa", "v_bound", "lhs",
        "rhs", "ok", "delegated",
    )

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

    def __init__(
        self,
        case_id: str,
        d: int,
        n: int,
        g: int,
        mode: str,
        family_dim: int,
        max_neg_kappa: int,
        v_bound: int,
        lhs: int,
        rhs: int,
        ok: bool,
        delegated: bool,
    ) -> None:
        _set_check_case_id(self, case_id)
        _set_check_d(self, d)
        _set_check_n(self, n)
        _set_check_g(self, g)
        _set_check_mode(self, mode)
        _set_check_family_dim(self, family_dim)
        _set_check_max_neg_kappa(self, max_neg_kappa)
        _set_check_v_bound(self, v_bound)
        _set_check_lhs(self, lhs)
        _set_check_rhs(self, rhs)
        _set_check_ok(self, ok)
        _set_check_delegated(self, delegated)

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


(_set_check_case_id, _set_check_d, _set_check_n, _set_check_g, _set_check_mode,
 _set_check_family_dim, _set_check_max_neg_kappa, _set_check_v_bound, _set_check_lhs,
 _set_check_rhs, _set_check_ok, _set_check_delegated) = setters(EliminationCheck)


class CheckResult(Value):
    __slots__ = __match_args__ = ("check_id", "ok", "detail")

    check_id: str
    ok: bool
    detail: str

    def __init__(self, check_id: str, ok: bool, detail: str) -> None:
        _set_result_check_id(self, check_id)
        _set_result_ok(self, ok)
        _set_result_detail(self, detail)


_set_result_check_id, _set_result_ok, _set_result_detail = setters(CheckResult)


class VerificationReport(Value):
    __slots__ = __match_args__ = ("checks",)

    checks: tuple[CheckResult, ...]

    def __init__(self, checks: tuple[CheckResult, ...]) -> None:
        _set_checks(self, checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


(_set_checks,) = setters(VerificationReport)


def load_cases(path: str | Path | None = None) -> tuple[CaseRecord, ...]:
    """Case records from an external JSON file, or the embedded table.

    The file is read as UTF-8.  Bytes that are not UTF-8, and text that is
    not JSON or nests too deep for the parser, raise ``CaseDataError``.
    """
    if path is None:
        data = resources.files("genusgaps").joinpath("data/cases.json").read_bytes()
    else:
        data = Path(path).read_bytes()
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CaseDataError(f"case table is not valid JSON: {exc}") from None
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise CaseDataError(f"unsupported case schema {version!r}, expected {SCHEMA_VERSION!r}")
    if not isinstance(doc.get("cases"), list):
        raise CaseDataError("case table has no 'cases' list")
    records = tuple([_parse_record(raw, pos) for pos, raw in enumerate(doc["cases"])])
    _by_id(records)
    return records


_REQUIRED = object()

# (key, exact types, default) of each kind of JSON object in a record, in
# the order the reader checks them; _REQUIRED marks a key that must be
# present.  Exact types, so that an int field takes no bool.
_RECORD_KEYS = (
    ("gamma", (dict,), _REQUIRED),
    ("expected_neg_kappa", (dict,), _REQUIRED),
    ("hilbert_component_dims", (list,), ()),
    ("id", (str,), _REQUIRED),
    ("n", (int,), _REQUIRED),
    ("lattice", (str,), _REQUIRED),
    ("constraints", (list,), ()),
    ("family_dim", (int,), _REQUIRED),
    ("mode", (str,), _REQUIRED),
    ("threshold", (int, type(None)), None),
    ("description", (str,), ""),
    ("delegated", (bool,), False),
)
_GAMMA_KEYS = (("base", (str,), "H"), ("subtract", (list,), ()))
_SUBTRACT_KEYS = (  # in SweepParam's argument order
    ("param", (str,), _REQUIRED),
    ("cls", (str,), _REQUIRED),
    ("lo", (int,), 0),
    ("hi", (int, type(None)), None),
)
_CONSTRAINT_KEYS = (("cls", (str,), _REQUIRED), ("min", (int,), _REQUIRED))
_NEG_KAPPA_KEYS = (("per_d", (int,), _REQUIRED), ("const", (int,), _REQUIRED))


def _fields(
    obj: object, keys: tuple[tuple[str, tuple[type, ...], object], ...], name: str
) -> list:
    """The value of each key of ``keys`` in the JSON object ``obj``, or its default."""
    if not isinstance(obj, dict):
        raise CaseDataError(f"{name}: expected an object, got {type(obj).__name__}")
    out = []
    for key, kinds, default in keys:
        if key in obj:
            value = obj[key]
            if type(value) not in kinds:
                raise CaseDataError(f"{name}: bad value {value!r} for {key!r}")
        elif default is _REQUIRED:
            raise CaseDataError(f"{name}: missing key {key!r}")
        else:
            value = default
        out.append(value)
    return out


def _parse_record(raw: object, pos: int) -> CaseRecord:
    """The record encoded by one JSON object of the ``cases`` list.

    The one type check of a record: each JSON object in it is read in one
    pass over its key table, and the first missing key or value of the
    wrong JSON type raises ``CaseDataError`` naming the record by its
    ``id``, or by its position if that is no string.
    """
    name = raw.get("id") if isinstance(raw, dict) else None
    name = name if isinstance(name, str) else f"cases[{pos}]"
    (gamma, neg_kappa, dims, case_id, n, lattice, constraints, family_dim, mode, threshold,
     description, delegated) = _fields(raw, _RECORD_KEYS, name)
    if any(type(v) is not int for v in dims):
        raise CaseDataError(f"{name}: hilbert_component_dims must hold integers")
    base, subtract = _fields(gamma, _GAMMA_KEYS, name)
    params = tuple([SweepParam(*_fields(s, _SUBTRACT_KEYS, name)) for s in subtract])
    constraints = tuple([SweepConstraint(*_fields(c, _CONSTRAINT_KEYS, name))
                         for c in constraints])
    per_d, const = _fields(neg_kappa, _NEG_KAPPA_KEYS, name)
    return CaseRecord(case_id, n, lattice, base, params, constraints, family_dim, mode,
                      threshold, tuple(dims), (per_d, const), description, delegated)


def _by_id(records: tuple[CaseRecord, ...]) -> list[CaseRecord]:
    """The records sorted by id; a repeated id raises ``CaseDataError``."""
    out = sorted(records, key=lambda r: r.id)
    for a, b in zip(out, out[1:]):
        if a.id == b.id:
            raise CaseDataError(f"duplicate case id {a.id!r}")
    return out


def expected_neg_kappa(record: CaseRecord, d: int) -> int:
    per_d, const = record.expected_neg_kappa
    return per_d * d + const


def restricted_triples() -> tuple[tuple[int, int, int], ...]:
    """All (d, n, g) that must be eliminated to prove the second gap range, in order.

    A triple is restricted when g lies in the candidate range between the
    windows at n = 1 and n = 2, and n >= 3 has ``clemens_min_genus(d, n) <= g``.
    For d >= 6 that bound, n d (d-5)/2 + 2, strictly increases in n, as
    d(d-5) > 0: n runs from 3 until the bound leaves the range, and g from
    the bound (or the range's bottom) to its top.  The range has
    (d^2 - d - 20)/2 >= 5 members for d >= 6, so it is never empty.
    """
    out = []
    for d in RESTRICTED_DEGREES:
        window = candidate_gap_interval(d, 1)
        n = 3
        while (bound := clemens_min_genus(d, n)) <= window.hi:
            out.extend((d, n, g) for g in range(max(bound, window.lo), window.hi + 1))
            n += 1
    return tuple(out)


_RESTRICTED = frozenset(restricted_triples())  # built once, for check_elimination


def _linear_forms(
    record: CaseRecord, lat: PicardLattice
) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """K . base, K . sub_i, base . P_j, and sub_i . P_j as one row per parameter.

    Read once per record, by the ``CaseRecord`` constructor, which keeps
    them as ``forms``.  Every label resolves through ``lat.cls``, base
    first, then the parameters and the pencils, so an unknown one raises
    its ``KeyError``; each product is then one dot product of the left
    factor's Gram row, kept on the lattice, with the right factor's
    coefficients.
    """
    base = lat.cls(record.base).coeffs
    subs = [lat.cls(p.cls).coeffs for p in record.params]
    pencils = [lat.cls(c.cls).coeffs for c in record.constraints]
    k, rows = lat.canonical_row, lat.rows
    base_row = rows[record.base]
    return (
        sum(map(mul, k, base)),
        tuple([sum(map(mul, k, sub)) for sub in subs]),
        tuple([sum(map(mul, base_row, pencil)) for pencil in pencils]),
        tuple([tuple([sum(map(mul, rows[p.cls], pencil)) for pencil in pencils])
               for p in record.params]),
    )


def _room(record: CaseRecord, d: int) -> tuple[int, ...]:
    """room_j = d*(base . P_j) - min_j for each constraint pencil P_j.

    gamma . P_j >= min_j iff sum_i v_i * (sub_i . P_j) <= room_j, so the box
    and the admissible set of a sweep depend on d only through the room.
    """
    return tuple([d * bp - c.min_value for bp, c in zip(record.forms[2], record.constraints)])


def max_neg_canonical_degree(record: CaseRecord, d: int) -> int:
    """Exact maximum of -kappa over the family's admissible curve classes.

    For gamma = d*base - sum(v_i * sub_i), both -kappa = -K . gamma and each
    gamma . P_j are linear in the parameters v.  Their coefficients are read
    from the Gram matrix once, when the record is built, and kept on it as
    ``record.forms``.  The sweep enumerates a box of integer points for every
    parameter but the last, and takes the last in closed form.

    The box holds every admissible point.  Parameters are >= 0 and each
    parameter class meets each constraint pencil non-negatively (the
    ``CaseRecord`` constructor checks it), so gamma . pencil never rises as
    a parameter grows.  An admissible class thus has v * coef <=
    d*(base . pencil) - min for each pencil with coef = sub . pencil > 0,
    whatever the other parameters are.  A parameter no pencil caps and no
    ``hi`` bounds never affects admissibility, and the constructor has
    checked K . sub <= 0, so raising it cannot raise -kappa: it is pinned
    at ``lo``.

    The closed form rests on the same signs.  With the other parameters
    fixed, their use used_j of each room_j is fixed, and the admissible
    values of the last parameter form one interval [lo, top]: top is the
    box cap, lowered to (room_j - used_j) // c_j for each pencil with
    c_j = sub_last . P_j > 0, and the interval is empty if a pencil with
    c_j = 0 already has used_j > room_j.  -kappa is linear in the last
    parameter with slope K . sub_last, so its maximum over the interval is
    at top if that slope is > 0 and at lo otherwise.  A record with no
    parameters has the one class d*base, admissible iff every room_j >= 0.
    """
    k_base, k_subs, _, sub_pencils = record.forms
    room = _room(record, d)
    ranges = []
    for p, coefs in zip(record.params, sub_pencils):
        caps = [r // coef for r, coef in zip(room, coefs) if coef > 0]
        if p.hi is not None:
            caps.append(p.hi)
        ranges.append(range(p.lo, min(caps, default=p.lo) + 1))
    best = None
    if not ranges:
        if all(r >= 0 for r in room):
            best = 0
    else:
        *outer, last = ranges
        *outer_k, k_last = k_subs
        columns = [[row[j] for row in sub_pencils[:-1]] for j in range(len(room))]
        for point in itertools.product(*outer):
            top = last.stop - 1
            for col, r, coef in zip(columns, room, sub_pencils[-1]):
                free = r - sum(map(mul, point, col))
                if coef:
                    top = min(top, free // coef)
                elif free < 0:
                    top = last.start - 1
            if top >= last.start:
                value = sum(map(mul, point, outer_k)) + k_last * (
                    top if k_last > 0 else last.start)
                if best is None or value > best:
                    best = value
    if best is None:
        raise CaseDataError(f"{record.id}: no admissible curve class at d={d}")
    return best - d * k_base


def _swept(record: CaseRecord, d: int, swept: dict[tuple[str, tuple[int, ...]], int]) -> int:
    """``max_neg_canonical_degree(record, d)``, swept once per (record id, room).

    -kappa = max - d*(K . base), where max, over the admissible points of
    sum_i v_i * (K . sub_i), depends on d only through the room, so
    ``swept`` keeps that max.
    """
    k_base = record.forms[0]
    key = record.id, _room(record, d)
    if key not in swept:
        swept[key] = max_neg_canonical_degree(record, d) + d * k_base
    return swept[key] - d * k_base


def check_elimination(
    record: CaseRecord, d: int, genera: tuple[int, ...]
) -> tuple[EliminationCheck, ...]:
    """Exact dimension-count checks that no genus in ``genera`` occurs in this family.

    Each ``(d, record.n, g)`` must be a restricted triple, else ``ValueError``.
    -kappa does not depend on g, so one sweep serves every genus; the checks
    come back one per genus, in the order given.
    """
    n = record.n
    for g in genera:
        if (d, n, g) not in _RESTRICTED:
            raise ValueError(f"({d}, {n}, {g}) is not a restricted triple")
    return _elimination_checks(record, d, genera, max_neg_canonical_degree(record, d))


def _elimination_checks(
    record: CaseRecord, d: int, genera: tuple[int, ...], neg_kappa: int
) -> tuple[EliminationCheck, ...]:
    """The checks of ``check_elimination``, given the -kappa of (record, d)."""
    case_id, n, mode, family_dim, delegated = (
        record.id, record.n, record.mode, record.family_dim, record.delegated)
    direct = mode == "direct-dim"
    rhs = record.threshold if direct else cut_system_dim(n, d)
    checks = []
    for g in genera:
        v_bound = family_dim_bound(g, -neg_kappa)
        lhs = family_dim if direct else family_dim + v_bound
        checks.append(EliminationCheck(case_id, d, n, g, mode, family_dim, neg_kappa, v_bound,
                                       lhs, rhs, lhs < rhs, delegated))
    return tuple(checks)


def _eliminations(
    records: tuple[CaseRecord, ...], swept: dict[tuple[str, tuple[int, ...]], int]
) -> list[EliminationCheck]:
    """Every family against every restricted triple, in report order.

    ``swept`` is the calling ``verify_*``'s memo of ``_swept``.  A (record, d)
    run whose room is not in it goes through ``check_elimination``, and its
    sweep enters the memo; any other run takes -kappa from the memo.
    """
    triples = restricted_triples()
    checks = []
    for record in _by_id(records):
        k_base = record.forms[0]
        # triples are sorted by d, so each degree's genera come in one run
        ours = (t for t in triples if t[1] == record.n)
        for d, run in itertools.groupby(ours, key=lambda t: t[0]):
            genera = tuple(g for _, _, g in run)
            key = record.id, _room(record, d)
            if key in swept:
                checks.extend(_elimination_checks(record, d, genera, swept[key] - d * k_base))
            else:
                found = check_elimination(record, d, genera)
                swept[key] = found[0].max_neg_kappa + d * k_base
                checks.extend(found)
    return checks


def _elimination_result(res: EliminationCheck) -> CheckResult:
    check_id = f"eliminate/{res.case_id}/d{res.d}-n{res.n}-g{res.g}"
    return CheckResult(check_id, res.ok, res.detail())


def verify_elimination(cases: tuple[CaseRecord, ...] | None = None) -> VerificationReport:
    """Run every applicable family against every restricted triple."""
    records = load_cases() if cases is None else cases
    return VerificationReport(checks=tuple(map(_elimination_result, _eliminations(records, {}))))


def _kappa_checks(
    records: tuple[CaseRecord, ...], swept: dict[tuple[str, tuple[int, ...]], int]
) -> list[CheckResult]:
    """Swept -kappa against the documented bound at the audit degrees.

    ``swept`` is the calling ``verify_*``'s memo of ``_swept``.
    """
    checks = []
    for record in _by_id(records):
        case_id = record.id
        for d in range(5, 21) if record.n == 3 else (6,):
            got, want = _swept(record, d, swept), expected_neg_kappa(record, d)
            checks.append(CheckResult(f"kappa/{case_id}/d{d}", got == want,
                                      f"max -kappa {got}, documented {want}"))
    return checks


def _lattice_checks() -> list[CheckResult]:
    checks = []
    for lat in sorted(BUILTINS, key=lambda lat: lat.name):
        k2 = intersect(lat, lat.canonical, lat.canonical)
        checks.append(CheckResult(f"lattice/{lat.name}/K2", k2 == lat.k2,
                                  f"K.K = {k2}, documented {lat.k2}"))
    # adjunction ties the lattice models back to the closed-form genus.  As
    # intersect is bilinear, p_a(d*H) and the genus formula are polynomials of
    # degree <= 2 in d, both 1 at d = 0: agreeing at d = 1 and 2, they agree
    # at every d in 1..30.  2 p_a(d*H) - 2 = d^2 H.H + d K.H = d (H.H + K.H)
    # mod 2 is odd, if ever, at d = 1, where adjunction_genus raises.
    for lat in sorted((lat for lat in BUILTINS if lat.degree), key=lambda lat: lat.degree):
        h = lat.cls("H")
        ok = all(adjunction_genus(lat, d * h) == arithmetic_genus(lat.degree, d) for d in (1, 2))
        checks.append(CheckResult(
            f"adjunction/{lat.name}", ok,
            f"p_a(d*H) matches the degree-{lat.degree} genus formula for d in 1..30"))
    return checks


def verify_kappa(cases: tuple[CaseRecord, ...] | None = None) -> VerificationReport:
    """Audit the lattice engine: documented kappa bounds, K^2 values, adjunction."""
    records = load_cases() if cases is None else cases
    return VerificationReport(checks=tuple(_kappa_checks(records, {}) + _lattice_checks()))


def verify_all(cases: tuple[CaseRecord, ...] | None = None) -> VerificationReport:
    """The elimination checks, then the audit; each (record, room) is swept once.

    The elimination and the audit share one memo of ``_swept``, keyed by
    (record id, room).  A constraint-free family has the empty room at every
    d, so it is swept once for all its degrees, and the audit finds every
    elimination sweep in the memo.
    """
    records = load_cases() if cases is None else cases
    swept: dict[tuple[str, tuple[int, ...]], int] = {}
    eliminations = _eliminations(records, swept)
    return VerificationReport(
        checks=tuple(map(_elimination_result, eliminations))
        + tuple(_kappa_checks(records, swept) + _lattice_checks())
    )
