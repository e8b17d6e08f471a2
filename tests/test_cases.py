"""Case table, sweep maximization, and the mechanical elimination run."""

from __future__ import annotations

import copy
import functools
import itertools
import json
import pickle
import subprocess
import sys
from importlib import resources
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_values import linear_forms_by_intersect, rebuild

import genusgaps.cases as case_mod
from genusgaps.cases import (
    CaseDataError,
    CaseRecord,
    CheckResult,
    SweepConstraint,
    SweepParam,
    _linear_forms,
    check_elimination,
    expected_neg_kappa,
    load_cases,
    max_neg_canonical_degree,
    restricted_triples,
    verify_all,
    verify_elimination,
    verify_kappa,
)
from genusgaps.formulas import arithmetic_genus, clemens_min_genus, cut_system_dim
from genusgaps.gapmap import candidate_gap_interval
from genusgaps.picard import (
    BUILTINS,
    DivisorClass,
    PicardLattice,
    adjunction_genus,
    builtin_lattice,
    canonical_degree,
    family_dim_bound,
    intersect,
)

THIRTEEN = (
    (6, 3, 11), (6, 3, 12), (6, 3, 13), (6, 3, 14), (6, 3, 15),
    (6, 4, 14), (6, 4, 15),
    (7, 3, 23), (7, 3, 24), (7, 3, 25), (7, 3, 26),
    (8, 3, 38), (8, 3, 39),
)

NEG_KAPPA_TABLE = {
    "cubic-i": (3, 0),
    "cubic-ii.a-dag": (3, 0),
    "cubic-ii.a-ddag": (3, 3),
    "cubic-ii.b-dag": (5, 0),
    "cubic-ii.b-ddag": (5, 1),
    "cubic-ii.c-dag": (5, 0),
    "cubic-ii.c-ddag": (5, 1),
    "cubic-iii": (5, 0),
    "quartic-K3": (0, 0),
    "quartic-cone": (0, 8),
    "quartic-dp2": (0, 24),
    "quartic-dp1": (0, 24),
    "quartic-dcover": (0, 11),
    "quartic-monoid": (0, 20),
    "quartic-elliptic-ruled-a": (0, 16),
    "quartic-elliptic-ruled-b-two": (0, 20),
    "quartic-elliptic-ruled-b-one": (0, 20),
    "quartic-elliptic-ruled-c": (0, 16),
    "quartic-genus2-scroll": (0, 18),
    "quartic-elliptic-scroll-a": (0, 24),
    "quartic-elliptic-scroll-b": (0, 24),
    "quartic-segre": (0, 24),
    "quartic-rational-b": (0, 22),
    "quartic-rational-c": (0, 36),
}

# the ids the parametrized sweeps take, named here so that collection reads no table
QUARTIC_IDS = (
    "quartic-K3", "quartic-cone", "quartic-dp2", "quartic-dp1", "quartic-dcover",
    "quartic-monoid", "quartic-elliptic-ruled-a", "quartic-elliptic-ruled-b-two",
    "quartic-elliptic-ruled-b-one", "quartic-elliptic-ruled-c", "quartic-genus2-scroll",
    "quartic-elliptic-scroll-a", "quartic-elliptic-scroll-b", "quartic-segre",
    "quartic-rational-b", "quartic-rational-c",
)
MULTI_PARAM_IDS = (
    "quartic-dcover", "quartic-elliptic-ruled-a", "quartic-elliptic-ruled-b-one",
    "quartic-elliptic-ruled-b-two", "quartic-elliptic-ruled-c", "quartic-rational-b",
)


@functools.cache
def shipped() -> dict:
    """The raw shipped case table, read as UTF-8 on first use; callers copy before mutating."""
    table = resources.files("genusgaps").joinpath("data/cases.json")
    return json.loads(table.read_text(encoding="utf-8"))


DELETE = object()  # fuzz mutation: drop the key


def by_id(case_id: str) -> CaseRecord:
    return next(r for r in load_cases() if r.id == case_id)


def mutation_sites(raw: dict):
    """The JSON objects of one shipped record whose keys the fuzz test mutates."""
    yield raw
    yield raw["gamma"]
    yield from raw["gamma"].get("subtract", ())
    yield from raw.get("constraints", ())
    yield raw["expected_neg_kappa"]


# The case-record reader as it stood before the one-pass key tables, kept
# verbatim (bar the name of the entry point) as the differential oracle: it
# reads every key through the nested ``get`` helper.

_REQUIRED = object()


def oracle_parse_record(raw: object, pos: int) -> CaseRecord:
    """The record encoded by one JSON object of the ``cases`` list.

    The one type check of a record: a missing key or a value of the wrong JSON
    type raises ``CaseDataError`` naming the record by its ``id``, or by its
    position if that is no string.
    """
    name = raw.get("id") if isinstance(raw, dict) else None
    name = name if isinstance(name, str) else f"cases[{pos}]"

    def get(obj: object, key: str, *kinds: type, default: object = _REQUIRED):
        # exact types, so that an int field takes no bool
        if not isinstance(obj, dict):
            raise CaseDataError(f"{name}: expected an object, got {type(obj).__name__}")
        if key not in obj:
            if default is _REQUIRED:
                raise CaseDataError(f"{name}: missing key {key!r}")
            return default
        if type(obj[key]) not in kinds:
            raise CaseDataError(f"{name}: bad value {obj[key]!r} for {key!r}")
        return obj[key]

    gamma = get(raw, "gamma", dict)
    nk = get(raw, "expected_neg_kappa", dict)
    dims = get(raw, "hilbert_component_dims", list, default=[])
    if any(type(v) is not int for v in dims):
        raise CaseDataError(f"{name}: hilbert_component_dims must hold integers")
    return CaseRecord(
        id=get(raw, "id", str),
        n=get(raw, "n", int),
        lattice=get(raw, "lattice", str),
        base=get(gamma, "base", str, default="H"),
        params=tuple(
            SweepParam(
                label=get(s, "param", str),
                cls=get(s, "cls", str),
                lo=get(s, "lo", int, default=0),
                hi=get(s, "hi", int, type(None), default=None),
            )
            for s in get(gamma, "subtract", list, default=[])
        ),
        constraints=tuple(
            SweepConstraint(cls=get(c, "cls", str), min_value=get(c, "min", int))
            for c in get(raw, "constraints", list, default=[])
        ),
        family_dim=get(raw, "family_dim", int),
        mode=get(raw, "mode", str),
        threshold=get(raw, "threshold", int, type(None), default=None),
        hilbert_component_dims=tuple(dims),
        expected_neg_kappa=(get(nk, "per_d", int), get(nk, "const", int)),
        description=get(raw, "description", str, default=""),
        delegated=get(raw, "delegated", bool, default=False),
    )


def load_outcome(path) -> tuple[CaseRecord, ...] | str:
    """``load_cases(path)``, or the message of the ``CaseDataError`` it raises."""
    try:
        return load_cases(path)
    except CaseDataError as exc:
        return f"CaseDataError: {exc}"


def allowed_cutting_degrees(d: int, g: int) -> set[int]:
    """Cutting degrees n >= 3 not excluded by the genus lower bound.

    Degrees 1 and 2 are always excluded for g in the candidate range: their
    realizable windows are disjoint from it.
    """
    if d < 6:
        raise ValueError(f"needs d >= 6, got {d}")
    window = candidate_gap_interval(d, 1)
    if window is None or g not in window:
        raise ValueError(f"g={g} is not in the candidate gap range for d={d}")
    out = set()
    n = 3
    while clemens_min_genus(d, n) <= g:
        out.add(n)
        n += 1
    return out


class TestRestrictedTriples:
    def test_exactly_the_thirteen(self):
        assert restricted_triples() == THIRTEEN

    def test_matches_the_set_building_oracle(self):
        # the earlier enumeration: the allowed set per (d, g), then sorted
        built = []
        for d in case_mod.RESTRICTED_DEGREES:
            window = candidate_gap_interval(d, 1)
            for g in range(window.lo, window.hi + 1):
                built.extend((d, n, g) for n in allowed_cutting_degrees(d, g))
        assert restricted_triples() == tuple(sorted(built))

    def test_guard_matches_the_enumeration(self):
        triples = set(restricted_triples())
        assert case_mod._RESTRICTED == triples
        # check_elimination's guard, for each cutting degree a record has
        records = {3: by_id("cubic-i"), 4: by_id("quartic-K3")}
        for d in range(4, 13):
            for n, record in records.items():
                for g in range(-2, 81):
                    try:
                        check_elimination(record, d, (g,))
                    except ValueError:
                        assert (d, n, g) not in triples, (d, n, g)
                    else:
                        assert (d, n, g) in triples, (d, n, g)

    def test_documented_members(self):
        triples = restricted_triples()
        assert (6, 3, 11) in triples
        assert (6, 3, 15) in triples
        assert (6, 4, 14) in triples
        assert len(triples) == 13


class TestAllowedCuttingDegrees:
    def test_documented_values(self):
        assert allowed_cutting_degrees(6, 14) == {3, 4}
        assert allowed_cutting_degrees(6, 12) == {3}
        assert allowed_cutting_degrees(9, 54) == set()

    def test_high_degree_excludes_everything(self):
        # from degree 9 on, the candidate range sits below every n >= 3 bound
        for d in range(9, 30):
            for g in (
                (d * d - 3 * d + 4) // 2,
                d * d - 2 * d - 9,
            ):
                assert allowed_cutting_degrees(d, g) == set()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            allowed_cutting_degrees(5, 3)
        with pytest.raises(ValueError):
            allowed_cutting_degrees(6, 10)


class TestRecordForms:
    def test_forms_are_the_gram_readings(self):
        for record in load_cases():
            want = linear_forms_by_intersect(record, builtin_lattice(record.lattice))
            k_base, k_subs, base_pencils, sub_pencils = record.forms
            assert record.forms == want, record.id
            assert type(record.forms) is tuple and type(k_base) is int, record.id
            assert all(type(t) is tuple for t in (k_subs, base_pencils, *sub_pencils)), record.id

    def test_replace_recomputes_forms(self):
        for record in load_cases():
            if not record.params:
                continue
            shorter = rebuild(record, params=record.params[:-1])
            lat = builtin_lattice(shorter.lattice)
            assert shorter.forms == linear_forms_by_intersect(shorter, lat)
            assert shorter.forms[1] == record.forms[1][:-1], record.id
            assert shorter.forms[3] == record.forms[3][:-1], record.id
        record = by_id("quartic-K3")
        with pytest.raises(TypeError, match="forms"):
            rebuild(record, forms=record.forms)

    def test_forms_outside_repr_eq_and_hash(self):
        record = by_id("cubic-ii.b-ddag")
        assert "forms" not in repr(record)
        twin = copy.copy(record)
        object.__setattr__(twin, "forms", None)
        assert twin == record and hash(twin) == hash(record)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy]
        + [lambda r, p=p: pickle.loads(pickle.dumps(r, p))
           for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    )
    def test_copy_and_pickle_keep_forms(self, clone):
        for record in load_cases():
            twin = clone(record)
            assert twin == record and repr(twin) == repr(record), record.id
            assert twin.forms == record.forms, record.id

    def test_forms_cannot_be_assigned(self):
        record = by_id("quartic-K3")
        with pytest.raises(AttributeError):
            record.forms = record.forms


class TestCaseTable:
    def test_record_count(self):
        assert len(load_cases()) == 24

    def test_id_constants_match_the_table(self):
        records = load_cases()
        assert sorted(NEG_KAPPA_TABLE) == sorted(r.id for r in records)
        assert QUARTIC_IDS == tuple(r.id for r in records if r.n == 4)
        assert MULTI_PARAM_IDS == tuple(sorted(r.id for r in records if len(r.params) > 1))

    def test_delegated_flags(self):
        delegated = {r.id for r in load_cases() if r.delegated}
        assert delegated == {"cubic-ii.c-dag", "cubic-ii.c-ddag"}

    def test_external_file_round_trip(self, tmp_path):
        text = resources.files("genusgaps").joinpath("data/cases.json").read_text(encoding="utf-8")
        path = tmp_path / "cases.json"
        path.write_text(text, encoding="utf-8")
        assert load_cases(path) == load_cases()

    def test_bad_schema_version(self, tmp_path):
        path = tmp_path / "cases.json"
        path.write_text(json.dumps({"schema_version": "bogus", "cases": []}))
        with pytest.raises(CaseDataError):
            load_cases(path)

    def _patched(self, tmp_path, mutate) -> str:
        doc = copy.deepcopy(shipped())
        mutate(doc)
        path = tmp_path / "cases.json"
        path.write_text(json.dumps(doc))
        return path

    def test_unknown_lattice_rejected(self, tmp_path):
        def mutate(doc):
            doc["cases"][0]["lattice"] = "nonexistent"

        with pytest.raises(CaseDataError):
            load_cases(self._patched(tmp_path, mutate))

    def test_unknown_class_rejected(self, tmp_path):
        def mutate(doc):
            doc["cases"][0]["constraints"] = [{"cls": "Zeta", "min": 0}]

        with pytest.raises(CaseDataError):
            load_cases(self._patched(tmp_path, mutate))

    def test_hilbert_consistency_enforced(self, tmp_path):
        def mutate(doc):
            rec = next(c for c in doc["cases"] if c["id"] == "quartic-rational-c")
            rec["family_dim"] = 18

        with pytest.raises(CaseDataError):
            load_cases(self._patched(tmp_path, mutate))

    def test_duplicate_ids_rejected(self, tmp_path):
        def mutate(doc):
            doc["cases"].append(doc["cases"][0])

        with pytest.raises(CaseDataError):
            load_cases(self._patched(tmp_path, mutate))

    def test_direct_dim_needs_threshold(self, tmp_path):
        def mutate(doc):
            rec = next(c for c in doc["cases"] if c["id"] == "quartic-rational-c")
            del rec["threshold"]

        with pytest.raises(CaseDataError):
            load_cases(self._patched(tmp_path, mutate))

    def test_parameter_meeting_a_pencil_negatively_rejected(self, tmp_path):
        # E2 . F1 = -1, so raising a raises gamma . F1 and makes room for b:
        # b = a = 4 has gamma . F1 = 0 and -kappa = 16, outside the per-pencil
        # box b in [0, 0], which sweeps to 8
        raw = {
            "id": "ruled-b-negative-pair",
            "n": 4,
            "lattice": "elliptic_ruled_b",
            "gamma": {
                "base": "H",
                "subtract": [
                    {"cls": "E1", "param": "b"},
                    {"cls": "E2", "param": "a", "lo": 0, "hi": 4},
                ],
            },
            "constraints": [{"cls": "F1", "min": 0}],
            "family_dim": 34,
            "mode": "dim-count",
            "expected_neg_kappa": {"per_d": 0, "const": 8},
        }
        path = tmp_path / "cases.json"
        path.write_text(json.dumps({"schema_version": "genusgaps-cases/1", "cases": [raw]}))
        with pytest.raises(CaseDataError, match="ruled-b-negative-pair"):
            load_cases(path)
        # the oracle reads only these fields, and no CaseRecord can hold them
        family = SimpleNamespace(
            lattice="elliptic_ruled_b",
            base="H",
            params=(SweepParam(label="b", cls="E1"), SweepParam(label="a", cls="E2", hi=4)),
            constraints=(SweepConstraint(cls="F1", min_value=0),),
        )
        assert oracle_max_neg_kappa(family, 6, 40) == 16

    def test_negative_pair_rejected_when_built_in_code(self):
        with pytest.raises(CaseDataError, match="ruled-b-negative-pair"):
            CaseRecord(
                id="ruled-b-negative-pair",
                n=4,
                lattice="elliptic_ruled_b",
                base="H",
                params=(SweepParam(label="b", cls="E1"), SweepParam(label="a", cls="E2", hi=4)),
                constraints=(SweepConstraint(cls="F1", min_value=0),),
                family_dim=34,
                mode="dim-count",
                expected_neg_kappa=(0, 8),
            )

    def test_shared_label_keeps_parameters_apart(self, tmp_path):
        # labels only name parameters; the sweep must not collapse two that share one
        def mutate(doc):
            rec = next(c for c in doc["cases"] if c["id"] == "quartic-dcover")
            for sub in rec["gamma"]["subtract"]:
                sub["param"] = "a"

        record = next(
            r for r in load_cases(self._patched(tmp_path, mutate)) if r.id == "quartic-dcover"
        )
        assert [p.label for p in record.params] == ["a", "a"]
        assert max_neg_canonical_degree(record, 6) == 11

    @pytest.mark.parametrize(
        "key,value,match",
        [
            ("family_dim", DELETE, "cubic-i: missing key 'family_dim'"),
            ("family_dim", "34", "cubic-i: bad value '34' for 'family_dim'"),
            ("family_dim", 1.5, "cubic-i: bad value 1.5 for 'family_dim'"),
            ("n", True, "cubic-i: bad value True for 'n'"),
            ("n", None, "cubic-i: bad value None for 'n'"),
            ("n", [3], "cubic-i: bad value"),
            ("gamma", [], "cubic-i: bad value"),
            ("delegated", 0, "cubic-i: bad value 0 for 'delegated'"),
            ("hilbert_component_dims", [1.5], "cubic-i: hilbert_component_dims"),
            ("expected_neg_kappa", {"per_d": 3}, "cubic-i: missing key 'const'"),
            ("id", DELETE, r"cases\[0\]: missing key 'id'"),
            ("id", 7, r"cases\[0\]: bad value 7 for 'id'"),
            ("family_dim", True, "cubic-i: bad value True for 'family_dim'"),
            ("n", 4.0, "cubic-i: bad value 4.0 for 'n'"),
            ("threshold", 23.0, "cubic-i: bad value 23.0 for 'threshold'"),
            ("threshold", True, "cubic-i: bad value True for 'threshold'"),
            ("gamma", {"subtract": [{"cls": "E", "param": "m", "lo": False}]},
             "cubic-i: bad value False for 'lo'"),
            ("gamma", {"subtract": [{"cls": "E", "param": "m", "hi": 1.0}]},
             "cubic-i: bad value 1.0 for 'hi'"),
            ("constraints", [{"cls": "P", "min": 0.0}], "cubic-i: bad value 0.0 for 'min'"),
            ("expected_neg_kappa", {"per_d": 3.0, "const": 0},
             "cubic-i: bad value 3.0 for 'per_d'"),
            ("expected_neg_kappa", {"per_d": 3, "const": False},
             "cubic-i: bad value False for 'const'"),
            ("delegated", "no", "cubic-i: bad value 'no' for 'delegated'"),
            ("gamma", {"base": None}, "cubic-i: bad value None for 'base'"),
            ("mode", None, "cubic-i: bad value None for 'mode'"),
            ("description", None, "cubic-i: bad value None for 'description'"),
            ("gamma", {"subtract": [{"cls": None, "param": "m"}]},
             "cubic-i: bad value None for 'cls'"),
            ("constraints", [{"cls": None, "min": 0}], "cubic-i: bad value None for 'cls'"),
            ("lattice", ["x"], r"cubic-i: bad value \['x'\] for 'lattice'"),
            ("gamma", {"subtract": [{"cls": "E", "param": 7}]},
             "cubic-i: bad value 7 for 'param'"),
            ("hilbert_component_dims", [27, 29.0],
             "cubic-i: hilbert_component_dims must hold integers"),
            ("constraints", [["P", 0]], "cubic-i: expected an object, got list"),
            ("gamma", {"subtract": [{"cls": "E1", "param": "m", "lo": -1}]},
             "cubic-i: bad domain for parameter m"),
            ("gamma", {"subtract": [{"cls": "E1", "param": "m", "lo": 2, "hi": 1}]},
             "cubic-i: bad domain for parameter m"),
        ],
    )
    def test_malformed_record_names_itself(self, tmp_path, key, value, match):
        def mutate(doc):
            rec = doc["cases"][0]
            assert rec["id"] == "cubic-i"
            if value is DELETE:
                del rec[key]
            else:
                rec[key] = value

        with pytest.raises(CaseDataError, match=match):
            load_cases(self._patched(tmp_path, mutate))

    def test_malformed_nested_values(self, tmp_path):
        def mutate_subtract(doc):
            rec = next(c for c in doc["cases"] if c["id"] == "quartic-dcover")
            rec["gamma"]["subtract"][1] = "R"

        with pytest.raises(CaseDataError, match="quartic-dcover: expected an object"):
            load_cases(self._patched(tmp_path, mutate_subtract))

        def mutate_record(doc):
            doc["cases"][3] = 5

        with pytest.raises(CaseDataError, match=r"cases\[3\]: expected an object"):
            load_cases(self._patched(tmp_path, mutate_record))

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "[]",
            '{"schema_version": "genusgaps-cases/1"}',
            '{"schema_version": "genusgaps-cases/1", "cases": {}}',
            '{"schema_version": "genusgaps-cases/1", "cases": null}',
        ],
    )
    def test_malformed_table(self, tmp_path, text):
        path = tmp_path / "cases.json"
        path.write_text(text)
        with pytest.raises(CaseDataError):
            load_cases(path)

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def test_mutated_table_loads_or_raises_case_data_error(self, tmp_path, data):
        # the reader and the Gram-row forms load equal records or raise the
        # same message as their oracles; "K", a basis label of the record's
        # lattice and a class name only another lattice has must all resolve
        # through lat.cls
        doc = copy.deepcopy(shipped())
        raw = data.draw(st.sampled_from(doc["cases"]), label="record")
        site = data.draw(st.sampled_from(list(mutation_sites(raw))), label="object")
        key = data.draw(st.sampled_from(sorted(site)), label="key")
        lat = builtin_lattice(raw["lattice"])
        foreign = sorted({label for other in BUILTINS for label in other.named}
                         - {*lat.named, *lat.basis})
        value = data.draw(st.sampled_from([
            DELETE, None, "x", 1.5, True, [], {}, -1, "K",
            data.draw(st.sampled_from(lat.basis), label="basis label"),
            data.draw(st.sampled_from(foreign), label="foreign class"),
        ]))
        if value is DELETE:
            del site[key]
        else:
            site[key] = value
        path = tmp_path / "cases.json"
        path.write_text(json.dumps(doc))
        got = load_outcome(path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(case_mod, "_parse_record", oracle_parse_record)
            patch.setattr(case_mod, "_linear_forms", linear_forms_by_intersect)
            want = load_outcome(path)
        assert got == want
        if not isinstance(got, str):
            assert len(got) == 24
            assert [r.forms for r in got] == [r.forms for r in want]

    @pytest.mark.parametrize("data", [b"\xff\xfe\x00", b"[" * 100_000],
                             ids=["not-utf8", "too-deep"])
    def test_unreadable_bytes_raise_case_data_error(self, tmp_path, data):
        path = tmp_path / "cases.json"
        path.write_bytes(data)
        with pytest.raises(CaseDataError, match="^case table is not valid JSON: [^\n]*$"):
            load_cases(path)

    def test_reads_utf8_not_the_locale_encoding(self, tmp_path):
        # neither branch of load_cases may read with the locale's encoding
        path = tmp_path / "cases.json"
        path.write_bytes(resources.files("genusgaps").joinpath("data/cases.json").read_bytes())
        src = str(Path(case_mod.__file__).resolve().parent.parent)
        code = (f"import sys; sys.path.insert(0, {src!r}); from genusgaps.cases import load_cases;"
                " assert load_cases() == load_cases(sys.argv[1])")
        proc = subprocess.run(
            [sys.executable, "-I", "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", code, str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


def oracle_max_neg_kappa(record: CaseRecord, d: int, box: int) -> int:
    """Independent brute-force sweep with its own Gram evaluation."""
    lat = builtin_lattice(record.lattice)
    gram = lat.gram

    def dot(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))

    base = lat.cls(record.base).coeffs
    subs = [lat.cls(p.cls).coeffs for p in record.params]
    cons = [(lat.cls(c.cls).coeffs, c.min_value) for c in record.constraints]
    k = lat.canonical.coeffs
    best = None
    ranges = [
        range(p.lo, (p.hi if p.hi is not None else box) + 1) for p in record.params
    ]
    for point in product(*ranges):
        gamma = [d * b for b in base]
        for mult, sub in zip(point, subs):
            gamma = [g - mult * s for g, s in zip(gamma, sub)]
        if any(dot(gamma, pc) < mv for pc, mv in cons):
            continue
        val = -dot(k, gamma)
        if best is None or val > best:
            best = val
    assert best is not None
    return best


# The sweep as it stood before the linear-form rewrite, kept verbatim (bar the
# name of the entry point) as the differential oracle: it builds one
# DivisorClass per box point and intersects it through the Gram matrix.


def gamma_class(
    record: CaseRecord, lat: PicardLattice, d: int, values: tuple[int, ...]
) -> DivisorClass:
    """Instantiated curve class d*base - sum(values[i] * record.params[i].cls)."""
    cls = d * lat.cls(record.base)
    for p, value in zip(record.params, values, strict=True):
        cls = cls - value * lat.cls(p.cls)
    return cls


def _sweep_space(record: CaseRecord, lat: PicardLattice, d: int) -> list[range]:
    """Finite enumeration ranges for the parameters.

    Parameters are >= 0 and each parameter class meets each constraint pencil
    non-negatively (the ``CaseRecord`` constructor checks it), so
    gamma . pencil never rises as a parameter grows.  An admissible class
    thus has v * coef <= d*(base . pencil) - min for each pencil with
    coef = sub . pencil > 0, whatever the other parameters are.  A parameter
    no pencil caps and no ``hi`` bounds never affects admissibility, and the
    constructor has checked K . sub <= 0, so raising it cannot raise -kappa:
    it is pinned at ``lo``.
    """
    base = lat.cls(record.base)
    ranges: list[range] = []
    for p in record.params:
        sub = lat.cls(p.cls)
        hi = p.hi
        for c in record.constraints:
            pencil = lat.cls(c.cls)
            coef = intersect(lat, sub, pencil)
            if coef > 0:
                cap = (d * intersect(lat, base, pencil) - c.min_value) // coef
                hi = cap if hi is None else min(hi, cap)
        ranges.append(range(p.lo, (p.lo if hi is None else hi) + 1))
    return ranges


def class_sweep_max_neg_kappa(record: CaseRecord, d: int) -> int:
    """Exact maximum of -kappa over the family's admissible curve classes.

    Enumerates the (small) feasible box of integer parameters and evaluates
    kappa through the Gram matrix each time; no cached or hand-copied value
    enters the verification path.  The box is sound for any record: the
    ``CaseRecord`` constructor checks what ``_sweep_space`` relies on.
    """
    lat = builtin_lattice(record.lattice)
    pencils = [(lat.cls(c.cls), c.min_value) for c in record.constraints]
    best: int | None = None
    for point in itertools.product(*_sweep_space(record, lat, d)):
        gamma = gamma_class(record, lat, d, point)
        if any(intersect(lat, gamma, pencil) < min_value for pencil, min_value in pencils):
            continue
        neg_kappa = -canonical_degree(lat, gamma)
        if best is None or neg_kappa > best:
            best = neg_kappa
    if best is None:
        raise CaseDataError(f"{record.id}: no admissible curve class at d={d}")
    return best


class TestMaxNegKappa:
    @pytest.mark.parametrize("case_id,coeffs", sorted(NEG_KAPPA_TABLE.items()))
    def test_documented_bounds(self, case_id, coeffs):
        record = by_id(case_id)
        assert record.expected_neg_kappa == coeffs
        degrees = (6, 7, 8) if record.n == 3 else (6,)
        for d in degrees:
            want = coeffs[0] * d + coeffs[1]
            assert max_neg_canonical_degree(record, d) == want
            assert expected_neg_kappa(record, d) == want

    def test_spot_values(self):
        assert max_neg_canonical_degree(by_id("quartic-elliptic-ruled-a"), 6) == 16
        assert max_neg_canonical_degree(by_id("quartic-monoid"), 6) == 20
        assert max_neg_canonical_degree(by_id("quartic-rational-b"), 6) == 22

    def test_ruled_b_both_configurations(self):
        assert max_neg_canonical_degree(by_id("quartic-elliptic-ruled-b-two"), 6) == 20
        assert max_neg_canonical_degree(by_id("quartic-elliptic-ruled-b-one"), 6) == 20

    @pytest.mark.parametrize("case_id", QUARTIC_IDS)
    def test_against_independent_sweep(self, case_id):
        record = by_id(case_id)
        assert max_neg_canonical_degree(record, 6) == oracle_max_neg_kappa(record, 6, 40)

    def test_cubic_against_independent_sweep(self):
        for d in (6, 7, 8):
            record = by_id("cubic-ii.a-ddag")
            assert max_neg_canonical_degree(record, d) == oracle_max_neg_kappa(record, d, 5)

    def test_infeasible_constraints_abort(self):
        record = by_id("quartic-elliptic-ruled-a")
        broken = CaseRecord(
            id="broken",
            n=4,
            lattice=record.lattice,
            base=record.base,
            params=record.params,
            constraints=(SweepConstraint(cls="F", min_value=100),),
            family_dim=34,
            mode="dim-count",
        )
        with pytest.raises(CaseDataError):
            max_neg_canonical_degree(broken, 6)

    def test_unbounded_parameter_aborts(self):
        record = by_id("quartic-elliptic-ruled-a")
        with pytest.raises(CaseDataError):
            CaseRecord(
                id="unbounded",
                n=4,
                lattice=record.lattice,
                base=record.base,
                params=(SweepParam(label="a", cls="X1"),),
                constraints=(),
                family_dim=34,
                mode="dim-count",
            )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_linear_forms_match_class_arithmetic(self, data):
        # -kappa and each gamma . pencil, read off the linear forms, must equal
        # the lattice numbers of the instantiated class at any point of the box
        record = data.draw(st.sampled_from(load_cases()), label="record")
        d = data.draw(st.integers(5, 40), label="d")
        lat = builtin_lattice(record.lattice)
        point = tuple(
            data.draw(st.integers(r.start, r.stop - 1), label=p.label)
            for p, r in zip(record.params, _sweep_space(record, lat, d))
        )
        k_base, k_subs, base_pencils, sub_pencils = _linear_forms(record, lat)
        gamma = gamma_class(record, lat, d, point)
        neg_kappa = sum(v * k for v, k in zip(point, k_subs)) - d * k_base
        assert neg_kappa == -canonical_degree(lat, gamma)
        for j, c in enumerate(record.constraints):
            meet = d * base_pencils[j] - sum(v * row[j] for v, row in zip(point, sub_pencils))
            assert meet == intersect(lat, gamma, lat.cls(c.cls))


def outcome(sweep, record: CaseRecord, d: int):
    """The value of one sweep, or the message of the ``CaseDataError`` it raises."""
    try:
        return sweep(record, d)
    except CaseDataError as exc:
        return f"CaseDataError: {exc}"


class TestSweepAgainstClassSweep:
    @pytest.mark.parametrize("case_id", sorted(NEG_KAPPA_TABLE))
    def test_audit_and_restricted_degrees(self, case_id):
        # the audit's degrees (5..20 for cubic families, 6 for quartic ones)
        # and every restricted degree: 144 + 72 pairs over the whole table
        record = by_id(case_id)
        audit = range(5, 21) if record.n == 3 else (6,)
        for d in sorted({*audit, 6, 7, 8}):
            assert max_neg_canonical_degree(record, d) == class_sweep_max_neg_kappa(record, d)

    @pytest.mark.parametrize("case_id", MULTI_PARAM_IDS)
    def test_every_parameter_in_the_closed_form_slot(self, case_id):
        # the sweep takes its last parameter in closed form: rotate each
        # parameter into that slot, one with K . sub > 0 and one with
        # K . sub = 0 among them
        record = by_id(case_id)
        params = record.params
        for shift in range(len(params)):
            rotated = rebuild(record, params=params[shift:] + params[:shift])
            for d in range(2, 11):
                assert max_neg_canonical_degree(rotated, d) == class_sweep_max_neg_kappa(
                    rotated, d
                )

    def test_closed_form_slot_sees_both_slopes(self):
        # the rotations above put a parameter of each slope sign last
        k_subs = {k for r in load_cases() if len(r.params) > 1 for k in r.forms[1]}
        assert 0 in k_subs and any(k > 0 for k in k_subs)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_redrawn_bounds(self, data):
        record = data.draw(st.sampled_from(load_cases()), label="record")
        d = data.draw(st.integers(2, 30), label="d")
        params = record.params
        if params:
            # rotated, so that each parameter takes the closed-form slot, and
            # sometimes led by a copy of one, so that two parameters before the
            # last can overrun a room that each fits alone
            shift = data.draw(st.integers(0, len(params) - 1), label="rotation")
            copied = data.draw(st.lists(st.sampled_from(params), max_size=1), label="copied")
            params = (*copied, *params[shift:], *params[:shift])
        if data.draw(st.integers(0, 4), label="keep params") == 0:
            params = ()
        params = tuple(
            rebuild(p, hi=data.draw(st.none() | st.integers(p.lo, p.lo + 12), label=p.label))
            for p in params
        )
        # each min from 0 to 8 past d*(base . pencil): some rooms are negative,
        # some leave no admissible class at all
        constraints = tuple(
            rebuild(c, min_value=data.draw(st.integers(0, max(d * bp, 0) + 8), label=c.cls))
            for c, bp in zip(record.constraints, record.forms[2])
        )
        try:
            record = rebuild(record, params=params, constraints=constraints)
        except CaseDataError:
            assume(False)
        assert outcome(max_neg_canonical_degree, record, d) == outcome(
            class_sweep_max_neg_kappa, record, d
        )


class TestCheckElimination:
    def test_documented_examples(self):
        (res,) = check_elimination(by_id("cubic-i"), 6, (15,))
        assert (res.n, res.family_dim, res.v_bound, res.lhs, res.rhs) == (3, 19, 32, 51, 63)
        assert res.ok
        (res,) = check_elimination(by_id("quartic-K3"), 6, (15,))
        assert (res.n, res.lhs, res.rhs, res.ok) == (4, 34 + 15, 73, True)
        (res,) = check_elimination(by_id("quartic-rational-c"), 6, (15,))
        assert (res.mode, res.lhs, res.rhs, res.ok) == ("direct-dim", 17, 23, True)

    def test_rejects_unrestricted_triple(self):
        with pytest.raises(ValueError):
            check_elimination(by_id("cubic-i"), 6, (10,))
        with pytest.raises(ValueError):
            check_elimination(by_id("quartic-K3"), 6, (13,))  # restricted for n = 3, not 4
        with pytest.raises(ValueError):
            check_elimination(by_id("cubic-i"), 9, (50,))
        with pytest.raises(ValueError):
            check_elimination(by_id("cubic-i"), 6, (15, 10))  # one bad genus spoils the call

    def test_guard_agrees_with_the_triple_table(self):
        record = by_id("cubic-i")
        for d in range(5, 10):
            for g in range(0, 45):
                for n in (3, 4):
                    restricted = (d, n, g) in THIRTEEN
                    try:
                        check_elimination(record if n == 3 else by_id("quartic-K3"), d, (g,))
                    except ValueError:
                        assert not restricted, (d, n, g)
                    else:
                        assert restricted, (d, n, g)

    def test_guard_matches_the_set_building_predicate(self):
        # the earlier guard, kept as the oracle: it builds the allowed set per genus
        def set_building(d, n, g):
            if d not in case_mod.RESTRICTED_DEGREES:
                return False
            window = candidate_gap_interval(d, 1)
            return window is not None and g in window and n in allowed_cutting_degrees(d, g)

        for d in case_mod.RESTRICTED_DEGREES:
            window = candidate_gap_interval(d, 1)
            for g in range(window.lo - 3, window.hi + 4):
                for n in range(13):
                    got = (d, n, g) in case_mod._RESTRICTED
                    assert got == set_building(d, n, g), (d, n, g)

    def test_multi_genus_call_matches_single_calls(self):
        for record in load_cases():
            for d in (6, 7, 8):
                genera = tuple(g for dd, n, g in THIRTEEN if dd == d and n == record.n)
                if not genera:
                    continue
                singles = tuple(c for g in genera for c in check_elimination(record, d, (g,)))
                assert check_elimination(record, d, genera) == singles
                assert check_elimination(record, d, genera[::-1]) == singles[::-1]

    def test_cubic_simplified_inequalities(self):
        # per-family reduced forms, equivalent to the dimension count
        reduced = {
            "cubic-i": lambda d, g: 3 * d * d - 3 * d - 36 > 2 * g,
            "cubic-ii.b-dag": lambda d, g: 3 * d * d - 7 * d - 22 > 2 * g,
            "cubic-ii.c-dag": lambda d, g: 3 * d * d - 7 * d - 22 > 2 * g,
            "cubic-iii": lambda d, g: 3 * d * d - 7 * d - 24 > 2 * g,
        }
        for case_id, form in reduced.items():
            record = by_id(case_id)
            for d in (6, 7, 8):
                neg = max_neg_canonical_degree(record, d)
                for g in range(0, 120):
                    lhs = record.family_dim + family_dim_bound(g, -neg)
                    assert (lhs < cut_system_dim(3, d)) == form(d, g), (case_id, d, g)

    def test_spot_reduced_values(self):
        assert 3 * 7 * 7 - 7 * 7 - 22 == 76 > 2 * 26
        assert 3 * 8 * 8 - 7 * 8 - 24 == 112 > 2 * 39
        assert 3 * 6 * 6 - 3 * 6 - 36 == 54 > 2 * 15

    def test_quartic_sufficiency_chain(self):
        # every quartic family except the projected one keeps -kappa within 25,
        # equivalently the family bound within 39, and the count closes at 34
        for record in load_cases():
            if record.n != 4 or record.id == "quartic-rational-c":
                continue
            neg = max_neg_canonical_degree(record, 6)
            assert neg <= 25, record.id
            assert family_dim_bound(15, -neg) <= 39, record.id
            for res in check_elimination(record, 6, (14, 15)):
                assert res.family_dim == 34 and res.ok, record.id
        # sharpness of the equivalence at genus 15
        assert family_dim_bound(15, -25) == 39
        assert family_dim_bound(15, -26) == 40

    def test_projected_case_fails_generic_count(self):
        # the projected family needs the direct dimension bound: its kappa is
        # too negative for the generic inequality at family dimension 34
        record = by_id("quartic-rational-c")
        neg = max_neg_canonical_degree(record, 6)
        assert neg == 36
        assert 34 + family_dim_bound(15, -neg) >= cut_system_dim(4, 6)
        assert record.family_dim == 17 == max(record.hilbert_component_dims) - 12


class TestVerify:
    def test_elimination_passes(self):
        report = verify_elimination()
        assert report.ok
        assert len(report.checks) == 120  # 8 cubic families x 11 + 16 quartic x 2
        assert all(c.check_id.startswith("eliminate/") for c in report.checks)

    def test_covers_every_triple(self):
        report = verify_elimination()
        seen = set()
        for c in report.checks:
            _, _, tail = c.check_id.split("/")
            d, n, g = (int(x[1:]) for x in tail.split("-"))
            seen.add((d, n, g))
        assert seen == set(THIRTEEN)

    def test_one_sweep_per_family_and_room(self, monkeypatch):
        swept = []
        real = case_mod.max_neg_canonical_degree

        def sweep(record, d):
            forms = record.forms[2]
            swept.append((record.id, tuple(d * bp - c.min_value
                                           for bp, c in zip(forms, record.constraints))))
            return real(record, d)

        monkeypatch.setattr(case_mod, "max_neg_canonical_degree", sweep)
        verify_elimination()
        # the 8 cubic families have no constraint, so one room at d = 6, 7, 8;
        # the 16 quartic families are swept at d = 6 only
        assert len(swept) == len(set(swept)) == 8 + 16

    def test_verify_all_work_counts(self, monkeypatch):
        counts = {"max_neg_canonical_degree": 0, "check_elimination": 0, "intersect": 0,
                  "adjunction_genus": 0}

        def counted(name):
            real = getattr(case_mod, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(case_mod, name, counted(name))
        verify_all()
        # one sweep per (family, room): the 8 cubic families have no
        # constraint, so one room at all 16 audit degrees, and the 16 quartic
        # families are audited at d = 6 only.  The elimination makes all 24,
        # each through check_elimination, and the audit finds them swept
        assert counts["max_neg_canonical_degree"] == 8 + 16
        assert counts["check_elimination"] == 8 + 16
        # intersect only audits the lattices' K.K: the 24 records read their
        # forms from the Gram rows the lattices keep, and the 144 sweeps read
        # the forms kept on the records; the 11 lattices with a surface degree
        # are audited by adjunction at d = 1 and d = 2
        assert counts["intersect"] == 21
        assert counts["adjunction_genus"] == 2 * 11
        points = 0

        def product(*ranges):
            nonlocal points
            for point in itertools.product(*ranges):
                points += 1
                yield point

        monkeypatch.setattr(case_mod, "itertools", SimpleNamespace(product=product))
        for record in load_cases():
            for d in range(5, 21) if record.n == 3 else (6,):
                max_neg_canonical_degree(record, d)
        # outer points at the audit degrees: the box over every parameter
        # but the last, which is taken in closed form
        assert points == 132

    @pytest.mark.parametrize("verify", [verify_elimination, verify_kappa, verify_all])
    def test_verify_rejects_duplicate_ids(self, verify):
        record = by_id("quartic-K3")
        with pytest.raises(CaseDataError, match="duplicate case id 'quartic-K3'"):
            verify((record, record))

    def test_order_is_deterministic(self):
        a = [c.check_id for c in verify_elimination().checks]
        b = [c.check_id for c in verify_elimination().checks]
        assert a == b == sorted(a, key=lambda s: (s.split("/")[1], s.split("/")[2]))

    def test_kappa_suite_passes(self):
        report = verify_kappa()
        assert report.ok
        kinds = {c.check_id.split("/")[0] for c in report.checks}
        assert kinds == {"kappa", "lattice", "adjunction"}

    def test_combined(self):
        report = verify_all()
        assert report.ok
        assert len(report.checks) == len(verify_elimination().checks) + len(
            verify_kappa().checks
        )

    def test_failure_propagates(self):
        record = by_id("quartic-K3")
        doctored = CaseRecord(
            id="quartic-K3",
            n=4,
            lattice=record.lattice,
            base=record.base,
            params=record.params,
            constraints=record.constraints,
            family_dim=80,  # absurd bound: the count must fail
            mode="dim-count",
        )
        report = verify_elimination((doctored,))
        assert not report.ok
        assert all(not c.ok for c in report.checks)


# The lattice audit as it stood before the bilinear rewrite, kept verbatim as
# the differential oracle: it builds d*H for every d and runs adjunction_genus.


def _lattice_checks() -> list[CheckResult]:
    checks = []
    for lat in sorted(BUILTINS, key=lambda lat: lat.name):
        k2 = intersect(lat, lat.canonical, lat.canonical)
        checks.append(
            CheckResult(
                check_id=f"lattice/{lat.name}/K2",
                ok=k2 == lat.k2,
                detail=f"K.K = {k2}, documented {lat.k2}",
            )
        )
    # adjunction ties the lattice models back to the closed-form genus
    for lat in sorted((lat for lat in BUILTINS if lat.degree), key=lambda lat: lat.degree):
        h = lat.cls("H")
        ok = all(
            adjunction_genus(lat, d * h) == arithmetic_genus(lat.degree, d)
            for d in range(1, 31)
        )
        checks.append(
            CheckResult(
                check_id=f"adjunction/{lat.name}",
                ok=ok,
                detail=f"p_a(d*H) matches the degree-{lat.degree} genus formula"
                " for d in 1..30",
            )
        )
    return checks


def audit_outcome(audit):
    """The checks of one lattice audit, or the type of the error it raises."""
    try:
        return audit()
    except ArithmeticError as exc:
        return type(exc)


def doctor(name: str, **changes) -> tuple[PicardLattice, ...]:
    """BUILTINS with the named lattice rebuilt under ``changes``."""
    return tuple(
        rebuild(lat, **changes) if lat.name == name else lat for lat in BUILTINS
    )


class TestLatticeAudit:
    def test_builtins_match_oracle(self):
        assert case_mod._lattice_checks() == _lattice_checks()
        assert all(c.ok for c in _lattice_checks())

    @pytest.mark.parametrize(
        "doctored,raises",
        [
            pytest.param(doctor("k3_quartic", degree=3), False, id="wrong-degree-k3"),
            pytest.param(doctor("blowup_plane(6)", degree=4), False, id="wrong-degree-cubic"),
            pytest.param(doctor("dp1_sep", k2=0), False, id="wrong-k2-with-degree"),
            pytest.param(doctor("veronese", k2=8), False, id="wrong-k2-no-degree"),
            pytest.param(
                doctor("k3_quartic", named={"H": DivisorClass((2,))}), False, id="wrong-h"
            ),
            # Gram changes that make H.H + K.H odd
            pytest.param(doctor("k3_quartic", gram=((5,),)), True, id="odd-gram-k3"),
            pytest.param(
                doctor("elliptic_cone", gram=((-2, 1), (1, 0))), True, id="odd-gram-cone"
            ),
        ],
    )
    def test_doctored_lattices_match_oracle(self, monkeypatch, doctored, raises):
        # the oracle reads this module's BUILTINS, the audit that of cases
        monkeypatch.setitem(globals(), "BUILTINS", doctored)
        monkeypatch.setattr(case_mod, "BUILTINS", doctored)
        want = audit_outcome(_lattice_checks)
        assert audit_outcome(case_mod._lattice_checks) == want
        if raises:
            assert want is ArithmeticError
        else:
            assert sum(not c.ok for c in want) == 1

    def test_audit_calls_adjunction_genus(self, monkeypatch):
        # an adjunction_genus one off fails every adjunction check and no other
        monkeypatch.setattr(
            case_mod, "adjunction_genus", lambda lat, c: adjunction_genus(lat, c) + 1
        )
        report = verify_kappa()
        failed = [c.check_id for c in report.checks if not c.ok]
        assert len(failed) == 11
        assert all(check_id.startswith("adjunction/") for check_id in failed)

    @pytest.mark.parametrize("lat", [lat for lat in BUILTINS if "H" in lat.named],
                             ids=lambda lat: lat.name)
    def test_quadratic_is_adjunction_genus(self, lat):
        # both sides are polynomials of degree <= 2 in d, since intersect is
        # bilinear, so agreement at three degrees is agreement at every d
        h = lat.cls("H")
        hh, kh = intersect(lat, h, h), intersect(lat, lat.canonical, h)
        for d in (1, 2, 3):
            total = d * d * hh + d * kh
            assert total == intersect(lat, d * h, d * h) + canonical_degree(lat, d * h)
            if total % 2:
                with pytest.raises(ArithmeticError):
                    adjunction_genus(lat, d * h)
            else:
                assert total // 2 + 1 == adjunction_genus(lat, d * h)


class TestSharedSweeps:
    def test_shipped_table(self):
        assert verify_all().checks == verify_elimination().checks + verify_kappa().checks

    @pytest.mark.parametrize("verify", [verify_kappa, verify_all])
    def test_room_sharing_keeps_each_degree(self, verify):
        # a sweep is shared by every degree with the same room: each audit
        # degree must still get its own -kappa, as a direct sweep gives it
        details = {c.check_id: c.detail for c in verify().checks}
        for record in load_cases():
            for d in range(5, 21) if record.n == 3 else (6,):
                got = details[f"kappa/{record.id}/d{d}"].split(",")[0]
                assert got == f"max -kappa {max_neg_canonical_degree(record, d)}"

    def test_doctored_kappa_fails_in_both(self):
        cubic = by_id("cubic-ii.b-ddag")
        per_d, const = cubic.expected_neg_kappa
        doctored = tuple(
            rebuild(r, expected_neg_kappa=(per_d, const + 1))
            if r.id == cubic.id else r
            for r in load_cases()
        )
        # the pair (cubic, 7) is swept by the elimination and reused by the audit
        assert any(c.d == 7 for c in case_mod._eliminations((cubic,), {}))
        combined = verify_all(doctored)
        assert combined.checks == (
            verify_elimination(doctored).checks + verify_kappa(doctored).checks
        )
        by_check = {c.check_id: c for c in combined.checks}
        at_seven = by_check[f"kappa/{cubic.id}/d7"]
        assert not at_seven.ok
        assert at_seven.detail == f"max -kappa {per_d * 7 + const}, documented {per_d * 7 + const + 1}"
        assert not combined.ok
