"""Span recorder that times etalloc's public functions from outside the package.

``Tracer.install`` replaces each traced function at every module attribute
that binds it (``etalloc.engine.zero_waste_leave`` as well as
``etalloc.zero_waste.zero_waste_leave``), so calls are caught wherever the
caller looks the function up.  ``uninstall`` puts the originals back; between
the two, nothing under ``src/`` is edited.  Spans are kept in memory as
``(name, start, end, parent)`` and summarised once the run ends; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) pairs traced, in layer order.  ``TraceRunner.apply`` is
# reported as ``engine.apply``.  ``numpy.linalg.solve`` is traced so that the
# coded layer's decode time and its solve count are measured where they happen.
TRACED = (
    ("core", "validate_tas"),
    ("core", "transition_waste"),
    ("cyclic", "cyclic_allocation"),
    ("cyclic", "optimal_shift_join"),
    ("cyclic", "optimal_shift_leave"),
    ("zero_waste", "zero_waste_leave"),
    ("zero_waste", "build_transition_graph"),
    ("zero_waste", "find_delta_matching"),
    ("zero_waste", "best_effort_leave"),
    ("zero_waste", "hall_feasible_all_leavers"),
    ("configurations", "projective_plane"),
    ("configurations", "tas_from_configuration"),
    ("configurations", "zero_waste_range"),
    ("engine", "TraceRunner.apply"),
    ("coded", "encode_job"),
    ("coded", "execute_round"),
    ("coded", "compute_subtask"),
    ("numpy.linalg", "solve"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _count_graph(counts: Counter, graph) -> None:
    counts["zero_waste.graph_edges"] += sum(len(v) for v in graph.neighbors.values())


def _count_matching(counts: Counter, matching) -> None:
    counts["zero_waste.matchings_attempted"] += 1
    counts["zero_waste.matchings_found"] += matching is not None


# Counts taken from a traced function's result, outside its span.
RESULT_COUNTERS = {
    "zero_waste.build_transition_graph": _count_graph,
    "zero_waste.find_delta_matching": _count_matching,
}


class Tracer:
    """Records nested spans for the traced functions while installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        """Start a span the benchmark itself owns (an op or a set-up)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = RESULT_COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every module attribute bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        homes = {name: mod for name, mod in sys.modules.items()
                 if name == "etalloc" or name.startswith("etalloc.")}
        for module, attr in TRACED:
            name = span_name(module, attr)
            if module == "numpy.linalg":
                self._patch(np.linalg, attr, self._wrap(name, getattr(np.linalg, attr)))
                continue
            owner = homes[f"etalloc.{module}"]
            if "." in attr:  # a method: patch it on its class
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in homes.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, target, key: str, value) -> None:
        self._patches.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self, root: str) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name, under roots named ``root``.

        Roots are spans the benchmark opened itself; only their descendants,
        and the roots themselves, are summarised.
        """
        children_time: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children_time[parent] += end - start
        under: dict[int, bool] = {}
        stats: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            inside = name == root if parent < 0 else under[parent]
            under[index] = inside
            if not inside:
                continue
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children_time[index]
        return stats
