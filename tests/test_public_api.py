"""The public API that the README's "Public API" section lists, and nothing more."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import genusgaps
from genusgaps import picard
from genusgaps.intervals import Interval, IntervalSet
from genusgaps.picard import DivisorClass

README = Path(__file__).resolve().parent.parent / "README.md"

# public names outside the package's __all__, by module
MODULE_NAMES = {
    "genusgaps.cases": {
        "load_cases", "CaseDataError", "restricted_triples", "check_elimination",
        "max_neg_canonical_degree", "verify_elimination", "verify_kappa", "verify_all",
    },
    "genusgaps.picard": {"BUILTINS"},
    "genusgaps.cli": {"main"},
}

# second spellings and test conveniences that the package no longer has; the
# classes are probed through instances, as ``type`` itself defines ``__or__``
DELETED = [
    (IntervalSet(), "of"), (IntervalSet(), "empty"), (IntervalSet(), "contains"),
    (IntervalSet(), "__or__"), (Interval(0, 0), "to_pair"),
    (DivisorClass((0,)), "__neg__"), (DivisorClass((0,)), "zero"),
    (picard, "builtin_names"), (picard, "export_lattices"), (genusgaps, "export_lattices"),
]


def _readme_api() -> dict[str, set[str]]:
    """Module -> names, read from the table of the README's "Public API" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)`\s*\|(.*)\|$", section, re.M)
    return {module: set(re.findall(r"`(\w+)`", names)) for module, names in rows}


def test_public_surface_is_the_readme_table_and_nothing_else():
    api = _readme_api()
    assert api == {"genusgaps": set(genusgaps.__all__), **MODULE_NAMES}
    for module, names in api.items():
        mod = importlib.import_module(module)
        assert [name for name in names if not hasattr(mod, name)] == [], module
    namespace: dict = {}
    exec("from genusgaps import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(genusgaps.__all__)
    assert len(set(genusgaps.__all__)) == len(genusgaps.__all__)
    for owner, name in DELETED:
        assert not hasattr(owner, name), (owner, name)
