"""Spans around the package's public functions, recorded from outside.

Each wrapped call records a span ``[name, parent, start, end]`` in memory;
``aggregate`` turns the spans into calls and self time per name, where self
time is a span's duration minus the durations of the spans it caused.

Functions are wrapped at the names their callers look up: ``cli``,
``classify`` and ``catalog`` bind ``check_*``, ``assemble`` and the like
through ``from .algebra import ...``, so every ``sl2super`` module global
that holds the original function is replaced.  Modules are fetched with
``importlib.import_module``, because the attribute ``sl2super.classify`` is
the re-exported function, not the module.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

#: (span name, defining module, attribute) of each traced function.
FUNCTIONS = (
    ("cli.main", "sl2super.cli", "main"),
    ("catalog.resolve", "sl2super.catalog", "resolve"),
    ("catalog.assemble", "sl2super.catalog", "assemble"),
    ("algebra.check_bimodule_axioms", "sl2super.algebra",
     "check_bimodule_axioms"),
    ("algebra.check_leibniz", "sl2super.algebra", "check_leibniz"),
    ("algebra.check_leibniz_super", "sl2super.algebra", "check_leibniz_super"),
    ("algebra.right_annihilator", "sl2super.algebra", "right_annihilator"),
    ("classify.annihilator_prefilter", "sl2super.classify",
     "annihilator_prefilter"),
    ("classify.generate_constraints", "sl2super.classify",
     "generate_constraints"),
    ("classify.solve", "sl2super.classify", "solve"),
    ("classify.classify", "sl2super.classify", "classify"),
)

#: (span name, defining module, class, method) of each traced method.
METHODS = (
    ("algebra.SuperAlgebra.from_json", "sl2super.algebra", "SuperAlgebra",
     "from_json"),
    ("algebra.SuperAlgebra.to_json", "sl2super.algebra", "SuperAlgebra",
     "to_json"),
    ("linalg.RowSpace.add", "sl2super.linalg", "RowSpace", "add"),
)


def _count_violations(counts, report):
    counts["algebra.violations"] += len(report)


def _count_system(counts, system):
    counts["classify.unknowns"] += len(system.unknowns)
    counts["classify.rows"] += len(system.rows)


def _count_solution(counts, solution):
    counts["classify.rank"] += solution.rank
    counts["classify.kernel_dim"] += solution.dimension


def _count_filtered(counts, flagged):
    counts["classify.filtered"] += len(flagged)


def _count_accepted(counts, accepted):
    counts["linalg.RowSpace.add.accepted"] += bool(accepted)


#: Counts taken from a traced call's return value.
COUNTERS = {
    "algebra.check_bimodule_axioms": _count_violations,
    "algebra.check_leibniz": _count_violations,
    "algebra.check_leibniz_super": _count_violations,
    "classify.generate_constraints": _count_system,
    "classify.solve": _count_solution,
    "classify.annihilator_prefilter": _count_filtered,
    "linalg.RowSpace.add": _count_accepted,
}


class Tracer:
    """In-memory span recorder; ``install`` wraps the package, ``remove``
    restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for _name, module, *_ in FUNCTIONS + METHODS:
            importlib.import_module(module)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sl2super" or n.startswith("sl2super.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            traced = self.wrap(name, original)
            for mod in modules:
                for global_name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, global_name, traced)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(self.wrap(name, raw.__func__))
            else:
                traced = self.wrap(name, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, traced)

    def remove(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def aggregate(spans) -> dict[str, dict[str, float]]:
    """name -> {"calls", "self_s"}; self time is duration minus the
    durations of the span's direct children."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, _parent, start, end), inner in zip(spans, child_time):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - inner
    return out


def top_level_total(spans) -> float:
    return sum(end - start for _n, parent, start, end in spans if parent < 0)
