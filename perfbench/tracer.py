"""In-process tracing of `schern` from outside the package.

`Tracer.install()` replaces the public functions at each module boundary
with wrappers, in every `schern.*` module namespace that holds a reference
to them, and `uninstall()` puts the originals back.  A span wrapper
records (name, start, end, parent) with `time.perf_counter`; a count-only
wrapper is used for `is_monoid_irreducible` and `_decode`, which run once
per basis candidate and once per cache line, so that a span per call does
not dominate the layer it measures.  Spans are kept in memory; the caller
writes them out when the run ends.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

clock = time.perf_counter

# (module, attribute, span name)
SPANS = [
    ("schern.cli", "run", "cli.run"),
    ("schern.cli", "render_table", "cli.render_table"),
    ("schern.weights", "hilbert_basis", "weights.hilbert_basis"),
    ("schern.chern", "c2", "chern.c2"),
    ("schern.chern", "c2_closed_form", "chern.c2_closed_form"),
    ("schern.chern", "c2_enumeration", "chern.c2_enumeration"),
    ("schern.tables", "generator_table", "tables.generator_table"),
    ("schern.tables", "table_against_reference", "tables.table_against_reference"),
    ("schern.tables", "image_index", "tables.image_index"),
    ("schern.tables", "verify_case", "tables.verify_case"),
    ("schern.tables", "explore_conjecture", "tables.explore_conjecture"),
]
# (module, attribute, counter name)
COUNTERS = [
    ("schern.weights", "is_monoid_irreducible", "weights.irreducibility_tests"),
    ("schern.cache", "_decode", "cache.lines_loaded"),
]
# (class, method, span name)
METHODS = [
    ("schern.cache.ResultCache", "__init__", "cache.load"),
    ("schern.cache.ResultCache", "get", "cache.get"),
    ("schern.cache.ResultCache", "put", "cache.put"),
]


def _count_results(counts: Counter, name: str, args: tuple, kwargs: dict, result) -> None:
    """Exact counts taken from arguments and results at the boundary."""
    if name == "chern.c2_enumeration":
        counts["chern.tableaux"] += result.dim
    elif name == "chern.c2":
        method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
        if method == "auto" and not result.cross_checked:
            counts["chern.ceiling_skips"] += 1
    elif name == "weights.hilbert_basis":
        counts["weights.generators"] += len(result)
    elif name in ("tables.generator_table", "tables.table_against_reference"):
        counts["tables.rows"] += len(result.rows)
        counts["tables.cross_checked_rows"] += sum(r.cross_checked for r in result.rows)
    elif name == "cache.get":
        counts["cache.hits"] += result is not None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            _count_results(counts, name, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "schern" or k.startswith("schern.")]
        targets = [(m, a, self._span(n, getattr(sys.modules[m], a))) for m, a, n in SPANS]
        targets += [(m, a, self._counter(n, getattr(sys.modules[m], a))) for m, a, n in COUNTERS]
        for mod_name, attr, wrapped in targets:
            orig = getattr(sys.modules[mod_name], attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for cls_path, attr, span in METHODS:
            mod_name, cls_name = cls_path.rsplit(".", 1)
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[attr]
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self._span(span, orig))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def durations(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_self_time(self, layer: str) -> float:
        return sum(
            s for (name, *_), s in zip(self.spans, self.self_times())
            if name.split(".", 1)[0] == layer
        )

    def check(self) -> list[str]:
        """Span-tree invariants: every span closed, children inside their
        parent, and no negative self time."""
        problems = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {i} {name} ends before it starts")
            if parent >= 0:
                _, pstart, pend, _ = self.spans[parent]
                if start < pstart or end > pend:
                    problems.append(f"span {i} {name} lies outside its parent {parent}")
        for i, s in enumerate(self.self_times()):
            if s < 0:
                problems.append(f"span {i} {self.spans[i][0]} has self time {s}")
        return problems
