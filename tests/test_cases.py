"""Case table, sweep maximization, and the mechanical elimination run."""

from __future__ import annotations

import copy
import functools
import itertools
import json
import pickle
import subprocess
import sys
import zipfile
from importlib import resources
from itertools import product
from operator import mul
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


def draw_mutated_table(data: st.DataObject) -> dict:
    """A copy of the shipped table with one key of one record's JSON objects mutated.

    The key is deleted, or set to a value of a wrong JSON type, to ``-1``,
    to ``"K"``, to a basis label of the record's lattice or to a class name
    only another lattice has.
    """
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
    return doc


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


def check_triple(check: CheckResult) -> tuple[int, int, int]:
    """The (d, n, g) read off an ``eliminate/{id}/d{d}-n{n}-g{g}`` check id."""
    d, n, g = check.check_id.rsplit("/", 1)[1].split("-")
    return int(d[1:]), int(n[1:]), int(g[1:])


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
        # the enumeration is the elimination's only guard: a record of each
        # cutting degree is checked at exactly the restricted triples of its n
        triples = set(restricted_triples())
        for record in (by_id("cubic-i"), by_id("quartic-K3")):
            checked = set(map(check_triple, verify_elimination((record,)).checks))
            assert checked == {t for t in triples if t[1] == record.n}, record.id

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

    def test_named_class_shadows_the_basis_label(self, monkeypatch):
        # the pencil A is a named class that shadows the basis label A with
        # other coefficients: the forms read the named class, as cls does
        shadow = PicardLattice("shadow", ("A", "B"), ((1, 0), (0, -1)), DivisorClass((-1, 1)),
                               {"A": DivisorClass((1, 1))})
        monkeypatch.setattr(case_mod, "builtin_lattice", lambda name: shadow)
        record = CaseRecord("shadowed", 4, "shadow", "B", (SweepParam("a", "A"),),
                            (SweepConstraint("A", 0),), 0, "dim-count")
        assert record.forms == linear_forms_by_intersect(record, shadow)
        assert record.forms == (-1, (-2,), (-1,), ((0,),))

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

    # the lookup's own message follows the record id once, with no quotes of
    # a KeyError's repr around it
    def test_unknown_lattice_rejected(self, tmp_path):
        def mutate(doc):
            doc["cases"][0]["lattice"] = "nonexistent"

        with pytest.raises(CaseDataError, match="^cubic-i: unknown lattice 'nonexistent'$"):
            load_cases(self._patched(tmp_path, mutate))

    def test_unknown_class_rejected(self, tmp_path):
        def mutate(doc):
            doc["cases"][0]["constraints"] = [{"cls": "Zeta", "min": 0}]

        with pytest.raises(CaseDataError,
                           match=r"^cubic-i: blowup_plane\(6\): no class named 'Zeta'$"):
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

    def test_negative_constraint_bound_rejected(self):
        with pytest.raises(CaseDataError, match=r"^quartic-dp2: negative constraint bound on P$"):
            rebuild(by_id("quartic-dp2"), constraints=(SweepConstraint("P", -1),))

    @pytest.mark.parametrize(
        "field, value, why",
        [
            ("family_dim", -1, "family_dim must be >= 0"),
            ("n", 5, "cutting degree must be 3 or 4"),
            ("mode", "x", "unknown mode 'x'"),
        ],
        ids=["family_dim", "n", "mode"],
    )
    def test_out_of_range_field_rejected(self, field, value, why):
        with pytest.raises(CaseDataError, match=f"^quartic-dp2: {why}$"):
            rebuild(by_id("quartic-dp2"), **{field: value})

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
        path = tmp_path / "cases.json"
        path.write_text(json.dumps(draw_mutated_table(data)))
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

    def test_reads_the_table_from_a_zip(self, tmp_path):
        # the package imported from a zip on sys.path reads its table through
        # zipimport's loader, and verify all passes from there
        package = Path(case_mod.__file__).resolve().parent
        archive = tmp_path / "genusgaps.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for file in sorted(package.rglob("*")):
                if file.is_file() and "__pycache__" not in file.parts:
                    zf.write(file, Path("genusgaps", file.relative_to(package)))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import genusgaps;"
                " from genusgaps import cli; from genusgaps.cases import load_cases;"
                " assert genusgaps.__file__.startswith(sys.argv[1]), genusgaps.__file__;"
                " assert len(load_cases()) == 24; sys.exit(cli.main(['verify', 'all']))")
        proc = subprocess.run([sys.executable, "-I", "-c", code, str(archive)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert proc.stdout.endswith("all 296 checks passed\n")

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
# name of the entry point, and the class subtraction, written out here as the
# library no longer adds classes) as the differential oracle: it builds one
# DivisorClass per box point and intersects it through the Gram matrix.


def gamma_class(
    record: CaseRecord, lat: PicardLattice, d: int, values: tuple[int, ...]
) -> DivisorClass:
    """Instantiated curve class d*base - sum(values[i] * record.params[i].cls)."""
    cls = d * lat.cls(record.base)
    for p, value in zip(record.params, values, strict=True):
        sub = value * lat.cls(p.cls)
        cls = DivisorClass(tuple(x - y for x, y in zip(cls.coeffs, sub.coeffs, strict=True)))
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

    def test_spot_values(self):
        assert max_neg_canonical_degree(by_id("quartic-elliptic-ruled-a"), 6) == 16
        assert max_neg_canonical_degree(by_id("quartic-monoid"), 6) == 20
        assert max_neg_canonical_degree(by_id("quartic-rational-b"), 6) == 22

    def test_ruled_b_both_configurations(self):
        assert max_neg_canonical_degree(by_id("quartic-elliptic-ruled-b-two"), 6) == 20
        assert max_neg_canonical_degree(by_id("quartic-elliptic-ruled-b-one"), 6) == 20

    def test_rejects_a_degree_below_one(self):
        # no surface has such a degree, so there is no -kappa to sweep
        for d in (-5, 0):
            with pytest.raises(ValueError, match=f"^surface degree must be >= 1, got {d}$"):
                max_neg_canonical_degree(by_id("cubic-i"), d)
        assert max_neg_canonical_degree(by_id("cubic-i"), 1) == 3

    @pytest.mark.parametrize("case_id", QUARTIC_IDS)
    def test_against_independent_sweep(self, case_id):
        record = by_id(case_id)
        assert max_neg_canonical_degree(record, 6) == oracle_max_neg_kappa(record, 6, 40)

    def test_cubic_against_independent_sweep(self):
        for d in (6, 7, 8):
            record = by_id("cubic-ii.a-ddag")
            assert max_neg_canonical_degree(record, d) == oracle_max_neg_kappa(record, d, 5)

    def test_no_parameters_with_a_pencil(self):
        # the one class d*base, swept as a one-point box: admissible iff its
        # room d*(base . Lam) - min is >= 0, where -kappa = -d*(K . base)
        record = rebuild(by_id("quartic-rational-b"), params=())
        k_base, _, (base_lam,), _ = record.forms
        for d in (5, 6, 7):
            fits = rebuild(record, constraints=(SweepConstraint("Lam", d * base_lam),))
            assert max_neg_canonical_degree(fits, d) == -d * k_base == 2 * d
            over = rebuild(record, constraints=(SweepConstraint("Lam", d * base_lam + 1),))
            with pytest.raises(CaseDataError, match=rf"no admissible curve class at d={d}$"):
                max_neg_canonical_degree(over, d)
            for r in (fits, over):
                assert outcome(max_neg_canonical_degree, r, d) == outcome(
                    class_sweep_max_neg_kappa, r, d)

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


def outcome(fn, *args):
    """``fn(*args)``, such as one sweep, or the message of the ``CaseDataError`` it raises."""
    try:
        return fn(*args)
    except CaseDataError as exc:
        return f"CaseDataError: {exc}"


def redraw(data: st.DataObject) -> tuple[CaseRecord, int]:
    """A shipped record rebuilt with drawn parameters, caps and bounds, and a drawn d.

    Draws that the ``CaseRecord`` constructor refuses are rejected.
    """
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
    return record, d


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
        record, d = redraw(data)
        assert outcome(max_neg_canonical_degree, record, d) == outcome(
            class_sweep_max_neg_kappa, record, d
        )


# The sign facts behind the sweep's box and closed form, each a function of
# (record, d) that ``TestBoxFacts`` runs over shipped and drawn records.


def rooms(record: CaseRecord, d: int) -> list[int]:
    """room_j = d*(base . P_j) - min_j, read off ``record.forms``."""
    return [d * bp - c.min_value for bp, c in zip(record.forms[2], record.constraints)]


def admissible(record: CaseRecord, d: int, point: tuple[int, ...]) -> bool:
    """Whether gamma . P_j >= min_j for all j at ``point``, a point of the parameters' domain.

    gamma . P_j = d*(base . P_j) - sum_i v_i * (sub_i . P_j), so that
    constraint reads sum_i v_i * (sub_i . P_j) <= room_j.
    """
    columns = zip(*record.forms[3])  # sub_i . P_j over i, one column per pencil
    return all(sum(map(mul, point, col)) <= r
               for col, r in zip(columns, rooms(record, d)))


def neg_kappa_at(record: CaseRecord, d: int, point: tuple[int, ...]) -> int:
    """-K . gamma = sum_i v_i * (K . sub_i) - d*(K . base)."""
    k_base, k_subs, _, _ = record.forms
    return sum(map(mul, point, k_subs)) - d * k_base


def box_caps(record: CaseRecord, d: int) -> list[int | None]:
    """Each parameter's cap: ``hi``, lowered to room_j // (sub . P_j) for every pencil
    the parameter meets positively, or None where neither caps it."""
    caps = []
    for p, coefs in zip(record.params, record.forms[3]):
        bounds = [r // c for r, c in zip(rooms(record, d), coefs) if c > 0]
        if p.hi is not None:
            bounds.append(p.hi)
        caps.append(min(bounds, default=None))
    return caps


def enlarged_box(record: CaseRecord, d: int) -> list[range]:
    """Each parameter's values from lo to 3 past its cap (past lo where nothing caps
    it), and none past its ``hi``, beyond which no point is in the domain."""
    box = []
    for p, cap in zip(record.params, box_caps(record, d)):
        top = max(p.lo if cap is None else cap, p.lo) + 3
        box.append(range(p.lo, (top if p.hi is None else min(top, p.hi)) + 1))
    return box


def gamma_pencil_never_rises(record: CaseRecord, d: int) -> None:
    # (a) gamma . P_j changes by -(sub_i . P_j) as v_i grows by one
    for p, coefs in zip(record.params, record.forms[3]):
        assert p.lo >= 0 and all(c >= 0 for c in coefs), (record.id, p.label)


def caps_hold_every_admissible_point(record: CaseRecord, d: int) -> None:
    # (b) v_i * c_ij <= room_j at an admissible point, as every other term is >= 0
    caps = box_caps(record, d)
    for point in product(*enlarged_box(record, d)):
        if admissible(record, d, point):
            assert all(cap is None or v <= cap for v, cap in zip(point, caps)), (
                record.id, d, point)


def uncapped_parameter_stays_at_lo(record: CaseRecord, d: int) -> None:
    # (c) an uncapped parameter meets no pencil and has K . sub <= 0
    _, k_subs, _, sub_pencils = record.forms
    free = {i for i, cap in enumerate(box_caps(record, d)) if cap is None}
    for i in free:
        assert not any(sub_pencils[i]) and k_subs[i] <= 0, (record.id, i)
    for point in product(*enlarged_box(record, d)):
        if admissible(record, d, point):
            pinned = tuple(record.params[i].lo if i in free else v for i, v in enumerate(point))
            assert admissible(record, d, pinned), (record.id, d, point)
            assert neg_kappa_at(record, d, pinned) >= neg_kappa_at(record, d, point)


def last_parameter_is_an_interval(record: CaseRecord, d: int) -> None:
    # (d) [lo, top] with top as the sweep takes it, and -kappa's maximum at an end
    if not record.params:
        return
    *outer, last = enlarged_box(record, d)
    cap, lo, k_last = box_caps(record, d)[-1], record.params[-1].lo, record.forms[1][-1]
    if cap is None:
        last = range(lo, lo + 1)  # by (c), the box pins it at lo
    for point in product(*outer):
        top = lo if cap is None else cap
        for r, *col in zip(rooms(record, d), *record.forms[3]):
            *outer_col, c = col
            free = r - sum(map(mul, point, outer_col))
            if c:
                top = min(top, free // c)
            elif free < 0:
                top = lo - 1
        values = [v for v in last if admissible(record, d, (*point, v))]
        assert values == list(range(lo, top + 1)), (record.id, d, point)
        if values:
            best = max(neg_kappa_at(record, d, (*point, v)) for v in values)
            at = top if k_last > 0 else lo
            assert neg_kappa_at(record, d, (*point, at)) == best, (record.id, d, point)


BOX_FACTS = (gamma_pencil_never_rises, caps_hold_every_admissible_point,
             uncapped_parameter_stays_at_lo, last_parameter_is_an_interval)
BOX_DEGREES = (2, 5, 6, 7, 8, 20, 30)


class TestBoxFacts:
    """The box and the closed form of ``max_neg_canonical_degree``, as sign facts.

    With c_ij = sub_i . P_j, gamma = d*base - sum_i v_i * sub_i meets P_j in
    d*(base . P_j) - sum_i v_i * c_ij, so gamma . P_j >= min_j reads
    sum_i v_i * c_ij <= room_j, and -kappa = sum_i v_i * (K . sub_i) -
    d*(K . base).  The sweep rests on four facts:

    (a) every c_ij >= 0 and every lo >= 0, so gamma . P_j never rises as a
        parameter grows;
    (b) so every term v_k * c_kj of an admissible point is >= 0, hence
        v_i * c_ij <= room_j, and v_i <= room_j // c_ij when c_ij > 0: each
        cap holds every admissible point;
    (c) a parameter that no pencil caps and no ``hi`` bounds has every
        c_ij = 0, by (a), and K . sub_i <= 0, which the constructor checks;
        lowering it to lo keeps a point admissible and never lowers -kappa,
        so the box pins it at lo;
    (d) with the outer parameters fixed, their use u_j of each room is
        fixed, so by (a) the admissible last values are [lo, top]: top is
        the box cap, lowered to (room_j - u_j) // c_j for each c_j > 0, and
        the interval is empty if some c_j = 0 has u_j > room_j.  -kappa is
        linear in the last value with slope K . sub_last, so its maximum
        there is at top if the slope is > 0, and at lo otherwise.

    Each fact reads ``record.forms``, which ``TestRecordForms`` ties to the
    Gram matrix, and is checked by brute force over a box enlarged by 3
    past each cap: for every shipped record at ``BOX_DEGREES``, and for the
    records ``redraw`` draws.
    """

    @pytest.mark.parametrize("fact", BOX_FACTS, ids=lambda fact: fact.__name__)
    def test_shipped_records(self, fact):
        for record in load_cases():
            for d in BOX_DEGREES:
                fact(record, d)

    @pytest.mark.parametrize("fact", BOX_FACTS, ids=lambda fact: fact.__name__)
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_redrawn_records(self, fact, data):
        fact(*redraw(data))


# The elimination computed check by check, kept as the differential oracle
# of the one path through the sweep memo: every (record, d, g) gets its own
# sweep, with no memo, and the detail format of the deleted EliminationCheck.


def oracle_elimination(record: CaseRecord, d: int, g: int) -> CheckResult:
    n, family_dim = record.n, record.family_dim
    neg_kappa = max_neg_canonical_degree(record, d)
    v_bound = family_dim_bound(g, -neg_kappa)
    if record.mode == "direct-dim":
        lhs, rhs = family_dim, record.threshold
        body = f"family_dim {lhs} < {rhs}"
    else:
        lhs, rhs = family_dim + v_bound, cut_system_dim(n, d)
        body = f"family_dim {family_dim} + v {v_bound} = {lhs} < {rhs}"
    tag = " (delegated)" if record.delegated else ""
    return CheckResult(f"eliminate/{record.id}/d{d}-n{n}-g{g}", lhs < rhs,
                       f"{body} | -kappa <= {neg_kappa}{tag}")


def oracle_eliminations(records: tuple[CaseRecord, ...]) -> tuple[CheckResult, ...]:
    """Each record, by id, against each of the thirteen triples of its n, in order."""
    return tuple(oracle_elimination(record, d, g)
                 for record in sorted(records, key=lambda r: r.id)
                 for d, n, g in THIRTEEN if n == record.n)


class TestEliminationAgainstOracle:
    @pytest.mark.parametrize("case_id, changes", [
        pytest.param("quartic-rational-c", {}, id="direct-dim"),
        pytest.param("cubic-ii.c-ddag", {}, id="delegated"),
        pytest.param("cubic-i", {}, id="constraint-free"),
        pytest.param("cubic-ii.a-ddag", {"mode": "direct-dim", "threshold": 13,
                                          "delegated": True}, id="cubic-direct-delegated"),
        pytest.param("quartic-dp2", {"n": 3}, id="constrained-cubic"),
        pytest.param("quartic-K3", {"family_dim": 80}, id="failing"),
        # a1 and a2 each fit the room of F alone but not together, and b
        # meets F in 0: the closed form must empty b's interval there
        pytest.param("quartic-elliptic-ruled-b-two",
                     {"params": (SweepParam("a1", "E1"), SweepParam("a2", "E2"),
                                 SweepParam("b", "F1"))}, id="overdrawn-outer-point"),
    ])
    def test_named_records(self, case_id, changes):
        record = rebuild(by_id(case_id), **changes)
        rooms = {case_mod._room(record, d) for d in (6, 7, 8)}
        # a constraint-free family has one room, the empty one, at every d
        assert (rooms == {()}) == (not record.constraints)
        for d in (6, 7, 8):
            assert outcome(max_neg_canonical_degree, record, d) == outcome(
                class_sweep_max_neg_kappa, record, d)
        want = oracle_eliminations((record,))
        assert verify_elimination((record,)).checks == want
        assert verify_all((record,)).checks[:len(want)] == want
        assert len(want) == (11 if record.n == 3 else 2)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_doctored_records(self, data):
        # a few shipped records, each rebuilt with a drawn cutting degree,
        # family bound, mode, delegation and constraint bounds: some rooms
        # differ per d, some leave no admissible class, some counts fail
        chosen = data.draw(st.lists(st.sampled_from(load_cases()), min_size=1, max_size=4,
                                    unique_by=lambda r: r.id), label="records")
        records = []
        for record in chosen:
            direct = data.draw(st.booleans(), label=f"{record.id} direct-dim")
            constraints = tuple(
                rebuild(c, min_value=data.draw(st.integers(0, max(8 * bp, 0) + 4), label=c.cls))
                for c, bp in zip(record.constraints, record.forms[2])
            )
            records.append(rebuild(
                record,
                n=data.draw(st.sampled_from((3, 4)), label="n"),
                family_dim=data.draw(st.integers(0, 60), label="family_dim"),
                hilbert_component_dims=(),
                mode="direct-dim" if direct else "dim-count",
                threshold=data.draw(st.integers(0, 60), label="threshold") if direct else None,
                delegated=data.draw(st.booleans(), label="delegated"),
                constraints=constraints,
            ))
        records = tuple(records)
        want = outcome(oracle_eliminations, records)
        assert outcome(lambda r: verify_elimination(r).checks, records) == want
        combined = outcome(lambda r: verify_all(r).checks, records)
        if not isinstance(want, str) and not isinstance(combined, str):
            assert combined[:len(want)] == want


class TestCheckElimination:
    def test_documented_examples(self):
        details = {c.check_id: c.detail for c in verify_elimination().checks}
        assert details["eliminate/cubic-i/d6-n3-g15"] == (
            "family_dim 19 + v 32 = 51 < 63 | -kappa <= 18")
        assert details["eliminate/quartic-K3/d6-n4-g15"] == (
            "family_dim 34 + v 15 = 49 < 73 | -kappa <= 0")
        assert details["eliminate/quartic-rational-c/d6-n4-g15"] == (
            "family_dim 17 < 23 | -kappa <= 36")
        assert details["eliminate/cubic-ii.c-dag/d7-n3-g26"].endswith(" (delegated)")

    def test_rejects_unrestricted_triple(self):
        # no family is checked at a triple the enumeration leaves out
        checked = set(map(check_triple, verify_elimination().checks))
        assert (6, 3, 10) not in checked
        assert (6, 4, 13) not in checked  # restricted for n = 3, not 4
        assert (6, 3, 13) in checked
        assert (9, 3, 50) not in checked

    def test_guard_agrees_with_the_triple_table(self):
        for record in (by_id("cubic-i"), by_id("quartic-K3")):
            checked = set(map(check_triple, verify_elimination((record,)).checks))
            for d in range(5, 10):
                for g in range(0, 45):
                    for n in (3, 4):
                        restricted = (d, n, g) in THIRTEEN and n == record.n
                        assert ((d, n, g) in checked) == restricted, (record.id, d, n, g)

    def test_guard_matches_the_set_building_predicate(self):
        # the earlier guard, kept as the oracle: it builds the allowed set per genus
        def set_building(d, n, g):
            if d not in case_mod.RESTRICTED_DEGREES:
                return False
            window = candidate_gap_interval(d, 1)
            return window is not None and g in window and n in allowed_cutting_degrees(d, g)

        triples = set(restricted_triples())
        for d in case_mod.RESTRICTED_DEGREES:
            window = candidate_gap_interval(d, 1)
            for g in range(window.lo - 3, window.hi + 4):
                for n in range(13):
                    got = (d, n, g) in triples
                    assert got == set_building(d, n, g), (d, n, g)

    def test_multi_genus_call_matches_single_calls(self):
        # one sweep per (record, room) serves every genus of a run: each check
        # equals the one computed alone for its (record, d, g)
        records = load_cases()
        assert verify_elimination(records).checks == oracle_eliminations(records)

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
        by_check = {c.check_id: c for c in verify_elimination().checks}
        for record in load_cases():
            if record.n != 4 or record.id == "quartic-rational-c":
                continue
            neg = max_neg_canonical_degree(record, 6)
            assert neg <= 25, record.id
            assert family_dim_bound(15, -neg) <= 39, record.id
            for g in (14, 15):
                res = by_check[f"eliminate/{record.id}/d6-n4-g{g}"]
                assert res.ok and res.detail.startswith("family_dim 34 + v "), record.id
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
        counts = {"max_neg_canonical_degree": 0, "canonical_degree": 0, "adjunction_genus": 0,
                  "cut_system_dim": 0}

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
        # and the audit finds them swept
        assert counts["max_neg_canonical_degree"] == 8 + 16
        # every K product cases asks for goes through canonical_degree: K . base
        # for each of the 24 records, K . sub for each of their 21 parameters,
        # and the audit's K.K for each of the 21 lattices; the sweeps read the
        # forms kept on the records.  The 11 lattices with a surface degree
        # are audited by adjunction at d = 1 and d = 2
        assert counts["canonical_degree"] == 24 + 21 + 21
        assert counts["adjunction_genus"] == 2 * 11
        # the 13 restricted triples fall into 4 (d, n) runs, each read once per report
        assert counts["cut_system_dim"] == 4
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
        # but the last, which is taken in closed form; a record with no
        # parameters is the one-point box, at 16 degrees for each of its 5
        # cubic records and at 1 for each of its 5 quartic ones
        assert points == 132 + 5 * 16 + 5 * 1

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
        assert any(check_triple(c)[0] == 7 for c in case_mod._eliminations((cubic,), {}))
        combined = verify_all(doctored)
        assert combined.checks == (
            verify_elimination(doctored).checks + verify_kappa(doctored).checks
        )
        by_check = {c.check_id: c for c in combined.checks}
        at_seven = by_check[f"kappa/{cubic.id}/d7"]
        assert not at_seven.ok
        assert at_seven.detail == f"max -kappa {per_d * 7 + const}, documented {per_d * 7 + const + 1}"
        assert not combined.ok
