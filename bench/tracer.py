"""Span wrappers installed around the library from outside it.

Every public function of each ``genusgaps`` module (plus the private
helpers named in ``PRIVATE`` and the ``IntervalSet`` methods in
``METHODS``) is replaced by a wrapper, in every module namespace that holds
it: a name imported with ``from .formulas import linsys_dim`` is looked up
in the importer, so wrapping only the defining module would miss it.

A wrapper counts the call under ``(caller, callee)``, where the caller is
the innermost wrapped function still running, and, outside ``formulas``,
adds the call's wall time to the callee's inclusive total and to the
caller's child total.  ``formulas`` holds tiny functions called up to a few
hundred thousand times per query, so its wrappers only count.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

MODULES = ("formulas", "intervals", "gapmap", "picard", "cases", "cli")
PRIVATE = {"gapmap": ("_window_union_within",), "intervals": ("_normalize",)}
METHODS = {"intervals": {"IntervalSet": ("complement_within", "clip")}}
COUNT_ONLY = ("formulas",)
ROOT = "<root>"


class Tracer:
    def __init__(self) -> None:
        self.stack = [ROOT]
        self.calls: Counter = Counter()  # (caller, callee) -> calls
        self.total_ns: Counter = Counter()  # span -> inclusive wall time
        self.child_ns: Counter = Counter()  # span -> wall time of its direct child spans
        self.memos: list = []  # the memoised formulas, unwrapped, for cache_info()
        self.spans: list[str] = []

    def install(self) -> None:
        """Wrap the library in place."""
        replace: dict[int, object] = {}
        for layer in MODULES:
            module = sys.modules[f"genusgaps.{layer}"]
            for attr, obj in list(vars(module).items()):
                if not _is_target(module, attr, obj, PRIVATE.get(layer, ())):
                    continue
                name = f"{layer}.{attr}"
                if layer == "formulas" and hasattr(obj, "cache_info"):
                    self.memos.append(obj)
                replace[id(obj)] = self._wrap(name, obj, layer in COUNT_ONLY)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    setattr(cls, meth, self._wrap(f"{layer}.{meth}", getattr(cls, meth), False))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "genusgaps" or mod_name.startswith("genusgaps."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replace:
                        setattr(module, attr, replace[id(obj)])

    def _wrap(self, name: str, fn, count_only: bool):
        self.spans.append(name)
        stack, calls = self.stack, self.calls
        if count_only:
            def wrapper(*args, **kwargs):
                calls[stack[-1], name] += 1
                stack.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
        else:
            total, child, clock = self.total_ns, self.child_ns, time.perf_counter_ns

            def wrapper(*args, **kwargs):
                parent = stack[-1]
                calls[parent, name] += 1
                stack.append(name)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    total[name] += elapsed
                    child[parent] += elapsed
        return functools.update_wrapper(wrapper, fn)

    def snapshot(self) -> dict:
        """Plain-data record of everything counted so far."""
        memo = {"hits": 0, "misses": 0, "entries": 0}
        for fn in self.memos:
            info = fn.cache_info()
            memo["hits"] += info.hits
            memo["misses"] += info.misses
            memo["entries"] += info.currsize
        return {
            "spans": self.spans,
            "calls": [[a, b, n] for (a, b), n in sorted(self.calls.items())],
            "total_ns": dict(self.total_ns),
            "child_ns": dict(self.child_ns),
            "memo": memo,
        }


def _is_target(module, attr: str, obj, private: tuple[str, ...]) -> bool:
    if attr.startswith("_") and attr not in private:
        return False
    if isinstance(obj, type) or not callable(obj):
        return False
    return getattr(obj, "__module__", None) == module.__name__
