"""Spans around the public functions of steinkit, recorded from outside.

A ``Tracer`` replaces every public function of the layer modules with a
wrapper that records a span (name, parent span, start, end, op id). The
replacement is done on every steinkit module that holds a reference to the
function, so names imported directly (``criteria.milnor_invariants``) are
traced too. ``restore`` puts the originals back.

Spans are kept in memory and written out once, at the end. A span's self
time is its duration minus the time covered by its direct children.
Private helpers are not wrapped, so their time counts in the caller's
self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("fronts", "handlebody", "linalg", "brieskorn", "criteria", "cli")

# Marks the bookkeeping a counter hook does inside a parent span; its time
# is subtracted from the parent's self time and reported under no layer.
HOOK = "<hook>"


def _entry_bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix for x in row), default=0)


def _count_diagram(counts, _args, diagram) -> None:
    counts["fronts.events"] += len(diagram.events)
    counts["fronts.crossings"] += sum(1 for ev in diagram.events if ev.kind == "X")


def _count_linking(counts, _args, _result) -> None:
    counts["fronts.linking_calls"] += 1


def _count_linalg(counts, args, _result) -> None:
    counts["linalg.calls"] += 1
    counts["linalg.entry_bits_max"] = max(
        counts["linalg.entry_bits_max"], _entry_bits(args[0])
    )


def _count_lattice(counts, args, _result) -> None:
    t = args[0]
    counts["brieskorn.lattice_points"] += (t.p1 - 1) * (t.p2 - 1) * (t.p3 - 1)


def _count_components(counts, _args, result) -> None:
    counts["fronts.components"] += len(result)
    counts["fronts.components#calls"] += 1


def _count_analyze(counts, args, _result) -> None:
    counts["handlebody.matrix_n"] += len(args[0].two_handles)
    counts["handlebody.matrix_n#calls"] += 1


# Work counters, updated after the wrapped call returns:
# span name -> hook(counts, args, result).
COUNTERS = {
    "fronts.parse_front": _count_diagram,
    "fronts.stabilize_diagram": _count_diagram,
    "fronts.components": _count_components,
    "fronts.linking_number": _count_linking,
    "handlebody.analyze": _count_analyze,
    "linalg.determinant": _count_linalg,
    "linalg.signature": _count_linalg,
    "linalg.solve": _count_linalg,
    "brieskorn.sigma_lattice": _count_lattice,
}


def public_functions(module):
    """Public functions defined in ``module`` itself (not imported)."""
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    }


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [op, name, parent index, start, end]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [self.op, name, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if hook is not None:
                start = clock()
                hook(self.counts, args, result)
                spans.append([self.op, HOOK, parent, start, clock()])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every imported steinkit layer module."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "steinkit" or name.startswith("steinkit."))
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"steinkit.{layer}")
            if mod is None:
                continue
            for attr, fn in public_functions(mod).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, entry[1])

    def restore(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def merge_counts(into, counts) -> None:
    """Add work counters; ``*_max`` counters keep the larger value."""
    for name, value in counts.items():
        if name.endswith("_max"):
            into[name] = max(into.get(name, 0.0), value)
        else:
            into[name] = into.get(name, 0.0) + value


def self_times(spans) -> dict[str, float]:
    """Total self time in seconds per span name; ``spans`` as recorded."""
    child_time = [0.0] * len(spans)
    for _op, _name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: defaultdict[str, float] = defaultdict(float)
    for k, (_op, name, _parent, start, end) in enumerate(spans):
        if name != HOOK:
            totals[name] += (end - start) - child_time[k]
    return dict(totals)
