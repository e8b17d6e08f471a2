"""The public API that the README's "Public API" section lists, and nothing more.

Each public name has a reader: a golden argv runs it, or the README names
what it computes, or it is part of the value protocol.
"""

from __future__ import annotations

import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

from test_cli_golden import GOLDEN, GOLDEN_STDERR

import genusgaps
from genusgaps import cases, cli, picard
from genusgaps.intervals import Interval, IntervalSet
from genusgaps.picard import DivisorClass

README = Path(__file__).resolve().parent.parent / "README.md"

# public names outside the package's __all__, by module
MODULE_NAMES = {
    "genusgaps.cases": {
        "load_cases", "CaseDataError", "restricted_triples", "max_neg_canonical_degree",
        "verify_elimination", "verify_kappa", "verify_all",
    },
    "genusgaps.picard": {"BUILTINS"},
    "genusgaps.cli": {"main"},
}

# second spellings, test conveniences and names with no reader that the
# package no longer has; the classes are probed through instances, as
# ``type`` itself defines ``__or__``
DELETED = [
    (IntervalSet(), "of"), (IntervalSet(), "empty"), (IntervalSet(), "contains"),
    (IntervalSet(), "__or__"), (IntervalSet(), "to_pairs"), (Interval(0, 0), "to_pair"),
    (DivisorClass((0,)), "__neg__"), (DivisorClass((0,)), "zero"),
    (picard, "builtin_names"), (picard, "export_lattices"), (genusgaps, "export_lattices"),
    (cases, "check_elimination"), (cases, "EliminationCheck"),
    (Interval(0, 0), "__lt__"), (IntervalSet(), "union"),
    (DivisorClass((0,)), "__add__"), (DivisorClass((0,)), "__sub__"), (picard, "_combined"),
    (cli, "entry"),
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
        # a deleted comparison falls back to object's own, which refuses the operand
        inherited = hasattr(object, name) and getattr(type(owner), name) is getattr(object, name)
        assert inherited or not hasattr(owner, name), (owner, name)


# the modules whose every public function, method and property needs a reader
READ_MODULES = ("formulas", "intervals", "gapmap", "picard", "cases", "cli")

# the value protocol of ``_value``: each value type compares, hashes, prints,
# copies and refuses assignment as a frozen dataclass would, read or not
VALUE_PROTOCOL = {"__repr__", "__eq__", "__hash__", "__reduce__", "__setattr__", "__delattr__"}

# public names that no golden argv runs, each kept for its reason
UNREAD = {
    "intervals.IntervalSet.parts": "the value protocol: the constructor's argument, "
    "which repr, pickle and match read back",
    "intervals.IntervalSet.__iter__": "the value protocol: iteration gives the parts",
}

# public names that no golden argv runs and the README's "Public API" section
# names, each with the paper quantity as the README words it
README_NAMED = {
    "intervals.Interval.count": "`s.count` is the number of genera it holds",
    "intervals.IntervalSet.count": "`s.count` is the number of genera it holds",
    "intervals.IntervalSet.__contains__": "`g in s` says whether genus g lies in it",
}

# run in a child: profile every Python call from the import of the CLI on,
# through each argv, and print the (file, first line, name) of each code object
_PROFILED = """
import io, json, sys
ran = set()
sys.setprofile(lambda frame, event, arg: event == "call" and ran.add(frame.f_code))
sys.path.insert(0, {src!r})
from genusgaps import cli
for argv in {argvs!r}:
    sys.stdout = sys.stderr = io.StringIO()
    cli.main(argv.split())
sys.setprofile(None)
sys.stdout = sys.__stdout__
print(json.dumps([[c.co_filename, c.co_firstlineno, c.co_name] for c in ran]))
"""


def _public_code() -> dict[str, object]:
    """``module.name`` or ``module.Class.attr`` -> code, for every public name of READ_MODULES.

    A class contributes each function, property and classmethod that it or
    a package base defines, dunders included, and no ``_private`` helper.
    """
    out = {}
    for short in READ_MODULES:
        mod = importlib.import_module(f"genusgaps.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{short}.{name}"] = obj.__code__
                continue
            for klass in obj.__mro__ if inspect.isclass(obj) else ():
                for attr, member in vars(klass).items():
                    if attr.startswith("_") and not attr.endswith("__"):
                        continue
                    member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        out.setdefault(f"{short}.{name}.{attr}", member.__code__)
    return out


def test_every_public_name_has_a_reader():
    # each public function, method and property runs on the import of the
    # CLI or under some golden argv, or is allowed above with its reason;
    # the README section names the quantity of each README_NAMED entry
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = _PROFILED.format(src=src, argvs=sorted({*GOLDEN, *GOLDEN_STDERR}))
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, check=True)
    ran = set(map(tuple, json.loads(proc.stdout)))
    unread = {name for name, c in _public_code().items()
              if (c.co_filename, c.co_firstlineno, c.co_name) not in ran}
    allowed = {*UNREAD, *README_NAMED}
    unexplained = sorted(name for name in unread - allowed
                         if name.rsplit(".", 1)[1] not in VALUE_PROTOCOL)
    assert not unexplained, f"no reader: {', '.join(unexplained)}"
    # no stale entry: each allowed name exists and still has no reader
    assert allowed <= unread
    section = README.read_text(encoding="utf-8").split("\n## Public API\n", 1)[1]
    section = " ".join(section.split("\n## ", 1)[0].split())
    assert [words for words in README_NAMED.values() if words not in section] == []
