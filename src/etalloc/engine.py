"""Trace-driven orchestration of elastic transitions under a chosen strategy.

A trace is an initial pool plus an ordered stream of joins and leaves.  The
engine applies each event, keeps the live allocation a valid TAS throughout,
and measures every transition's waste by set arithmetic (closed forms are
assertions elsewhere, never the source of truth here).  A zero-waste runner
keeps a stack of the states it left; a join climbs back to the top one and
may name no machine but the one that left it.
A :class:`TransitionTree` does not serve as that stack: it memoises every
child it visits, so its memory grows with the leaves of a long walk, while the
stack holds at most n_max - n_min states; and degraded fallback states are
not tree nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from . import cyclic as cyc
from .core import (
    ElasticEvent,
    EtallocError,
    InfeasibleTransitionError,
    TaskAllocation,
    TransitionOutcome,
    _field,
    require_valid,
    tas_from_document,
    tas_to_document,
    transition_waste,
)
from .zero_waste import best_effort_leave, zero_waste_join, zero_waste_leave

__all__ = [
    "STRATEGIES",
    "ElasticTrace",
    "EventRecord",
    "SimulationReport",
    "TraceRunner",
    "TreeNode",
    "TransitionTree",
    "run_trace",
    "build_transition_tree",
    "tree_navigate",
    "full_tree_node_count",
    "compare_strategies",
    "trace_to_document",
    "trace_from_document",
    "report_to_document",
    "report_rows",
]

STRATEGIES = ("cyclic", "shifted_cyclic", "zero_waste", "zero_waste_with_fallback")
_ALIASES = {"shifted": "shifted_cyclic"}


@dataclass(frozen=True)
class ElasticTrace:
    """Initial pool parameters plus the ordered elastic events to apply.

    ``n_min``/``n_max`` are optional hard bounds on the active machine count;
    the redundancy is always a lower bound.  ``seed_allocation`` overrides the
    default cyclic starting TAS (for the shifted strategy it is assumed to be
    shifted-cyclic with ``initial_shift``).
    """

    initial_machines: int
    redundancy: int
    n_tasks: int
    strategy: str = "cyclic"
    events: tuple[ElasticEvent, ...] = ()
    n_max: int | None = None
    n_min: int | None = None
    seed_allocation: TaskAllocation | None = None
    initial_shift: int = 0
    label_policy: str = "fresh"

    def __post_init__(self):
        object.__setattr__(self, "strategy",
                           _ALIASES.get(self.strategy, self.strategy))
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}")
        if self.label_policy not in ("fresh", "reuse"):
            raise ValueError("label_policy must be 'fresh' or 'reuse'")
        object.__setattr__(self, "events", tuple(self.events))
        low = self.n_min if self.n_min is not None else self.redundancy
        if low < self.redundancy:
            raise ValueError(f"n_min={low} is below the redundancy {self.redundancy}")
        count = self.initial_machines
        if not low <= count <= (self.n_max if self.n_max is not None else count):
            raise ValueError(
                f"initial machine count {count} outside [{low}, {self.n_max}]")
        for i, event in enumerate(self.events):
            count += 1 if event.kind == "join" else -1
            if count < low:
                raise ValueError(
                    f"event {i} drives the pool below the lower bound {low}")
            if self.n_max is not None and count > self.n_max:
                raise ValueError(
                    f"event {i} drives the pool above the declared bound {self.n_max}")


@dataclass(frozen=True)
class EventRecord:
    """What one applied event did: who moved, what it cost, how it was handled."""

    index: int
    kind: str
    machine: int | None
    waste: int
    load_change: int
    degraded: bool = False
    shift: int | None = None

    @property
    def feasible(self) -> bool:
        """A zero-waste move existed; false exactly when the fallback ran."""
        return not self.degraded


@dataclass(frozen=True)
class SimulationReport:
    strategy: str
    records: tuple[EventRecord, ...]
    machine_stats: dict[int, tuple[int, int]]  # label -> (abandoned, acquired)
    final: TaskAllocation
    aborted: str | None = None

    @property
    def cumulative_waste(self) -> int:
        return sum(r.waste for r in self.records)

    @property
    def infeasible_count(self) -> int:
        return sum(r.degraded for r in self.records)


class TraceRunner:
    """Stepwise engine for one trace; :func:`run_trace` drives it end to end.

    Exposes ``allocation`` and ``apply`` so callers that interleave other work
    between events (e.g. the coded-computation loop) can drive it directly.
    """

    def __init__(self, trace: ElasticTrace):
        self.trace = trace
        self.strategy = trace.strategy
        n0, l, f = trace.initial_machines, trace.redundancy, trace.n_tasks
        if trace.seed_allocation is not None:
            alloc = trace.seed_allocation
            require_valid(alloc, "seed allocation")
            if (alloc.n_machines, alloc.redundancy, alloc.n_tasks) != (n0, l, f):
                raise ValueError("seed allocation disagrees with trace parameters")
        else:
            alloc = cyc.cyclic_allocation(range(1, n0 + 1), l, f, trace.initial_shift)
        self.allocation = alloc
        self.shift = trace.initial_shift
        self._history: list[tuple[TaskAllocation, int]] = []  # (state, departed label)
        self._ever_used = max(alloc.machine_ids)
        self._records: list[EventRecord] = []
        self._stats: dict[int, list[int]] = {m: [0, 0] for m in alloc.machine_ids}

    @property
    def records(self) -> tuple[EventRecord, ...]:
        return tuple(self._records)

    def _lower_bound(self) -> int:
        t = self.trace
        return t.n_min if t.n_min is not None else t.redundancy

    def _assign_label(self) -> int:
        if self.trace.label_policy == "reuse":
            active = set(self.allocation.machine_ids)
            label = 1
            while label in active:
                label += 1
        else:
            label = self._ever_used + 1
        self._ever_used = max(self._ever_used, label)
        return label

    def apply(self, event: ElasticEvent) -> EventRecord:
        index = len(self._records)
        alloc = self.allocation
        n = alloc.n_machines
        if event.kind == "leave":
            if event.machine not in alloc.task_sets:
                raise EtallocError(f"event {index}: machine {event.machine} is not active")
            if n - 1 < self._lower_bound():
                raise EtallocError(
                    f"event {index}: leave would drop below {self._lower_bound()} machines")
        else:
            if self.trace.n_max is not None and n + 1 > self.trace.n_max:
                raise EtallocError(
                    f"event {index}: join would exceed the declared bound {self.trace.n_max}")
            if event.machine in alloc.task_sets:
                raise EtallocError(f"event {index}: machine {event.machine} is already active")
        step = self._step_zero_waste if "zero_waste" in self.strategy else self._step_shifted
        machine, outcome, shift, degraded = step(event)
        new_alloc = outcome.new_alloc
        # A machine's waste plus the load change is |S ^ S'| = abandoned + acquired,
        # and |S'| - |S| = acquired - abandoned.
        delta = outcome.necessary_load_change
        for m, waste in outcome.per_machine_waste.items():
            moved = waste + delta
            grew = len(new_alloc.task_sets[m]) - len(alloc.task_sets[m])
            stats = self._stats.setdefault(m, [0, 0])
            stats[0] += (moved - grew) // 2
            stats[1] += (moved + grew) // 2
        for m in new_alloc.machine_ids:
            self._stats.setdefault(m, [0, 0])
        record = EventRecord(index, event.kind, machine, outcome.total_waste, delta,
                             degraded=degraded, shift=shift)
        self.allocation = new_alloc
        if shift is not None:
            self.shift = shift
        self._records.append(record)
        return record

    # Each step returns (machine, outcome, new shift or None, degraded).

    def _step_shifted(self, event: ElasticEvent,
                      ) -> tuple[int, TransitionOutcome, int | None, bool]:
        """Rebuild the cyclic allocation on the new labels: at the optimal shift
        for the shifted strategy, at shift 0 (recorded as none) for the plain one."""
        alloc, l, f = self.allocation, self.trace.redundancy, self.trace.n_tasks
        n, shifted = alloc.n_machines, self.strategy == "shifted_cyclic"
        shift = self.shift if shifted else 0
        if event.kind == "leave":
            machine = event.machine
            labels = [m for m in alloc.machine_ids if m != machine]
            # At N-1 = L every set is full, so any shift is waste-free.
            if shifted and n > l + 1:
                params, _ = cyc.optimal_shift_leave(n, l, f, shift, alloc.position(machine))
                shift = params.shift
        else:
            machine = event.machine if event.machine is not None else self._assign_label()
            labels = list(alloc.machine_ids) + [machine]
            if shifted and n > l:
                params, _ = cyc.optimal_shift_join(n, l, f, shift)
                shift = params.shift
        new_alloc = cyc.cyclic_allocation(labels, l, f, shift)
        return machine, transition_waste(alloc, new_alloc), shift if shifted else None, False

    def _step_zero_waste(self, event: ElasticEvent) -> tuple[int, TransitionOutcome, None, bool]:
        alloc, index = self.allocation, len(self._records)
        if event.kind == "leave":
            machine = event.machine
            try:
                outcome, degraded = zero_waste_leave(alloc, machine), False
            except InfeasibleTransitionError as exc:
                if self.strategy != "zero_waste_with_fallback":
                    raise InfeasibleTransitionError(
                        f"event {index}: {exc}", witness=exc.witness, event_index=index) from None
                outcome, degraded = best_effort_leave(alloc, machine), True
            self._history.append((alloc, machine))
            return machine, outcome, None, degraded
        if self._history:
            # A join-back reuses the departed label; it must not draw a fresh one.
            parent, departed = self._history[-1]
            if event.machine not in (None, departed):
                raise EtallocError(
                    f"event {index}: join of machine {event.machine} would climb back "
                    f"to departed machine {departed}")
            self._history.pop()
            return departed, transition_waste(alloc, parent), None, False
        machine = event.machine if event.machine is not None else self._assign_label()
        return machine, zero_waste_join(alloc, machine), None, False

    def report(self) -> SimulationReport:
        return SimulationReport(
            strategy=self.strategy,
            records=self.records,
            machine_stats={m: (a, b) for m, (a, b) in sorted(self._stats.items())},
            final=self.allocation)


def run_trace(trace: ElasticTrace, strategy: str | None = None) -> SimulationReport:
    """Apply every event of the trace and return the full accounting.

    The live allocation validates after every event; waste is measured, never
    predicted.  The zero-waste strategy without fallback raises on an
    infeasible leave, naming the event and a Hall witness.
    """
    if strategy is not None:
        trace = replace(trace, strategy=_ALIASES.get(strategy, strategy))
    runner = TraceRunner(trace)
    for event in trace.events:
        runner.apply(event)
    return runner.report()


def compare_strategies(trace: ElasticTrace,
                       strategies: Sequence[str] = ("cyclic", "shifted_cyclic", "zero_waste"),
                       ) -> dict[str, SimulationReport]:
    """Run the same trace under several strategies and collect their reports.

    Never raises for per-strategy trouble: zero-waste infeasibility is absorbed
    by the best-effort fallback and counted, and a strategy whose preconditions
    fail mid-trace is reported as aborted with the failing event noted.
    """
    results: dict[str, SimulationReport] = {}
    for name in strategies:
        resolved = _ALIASES.get(name, name)
        run_as = "zero_waste_with_fallback" if resolved == "zero_waste" else resolved
        runner = TraceRunner(replace(trace, strategy=run_as))
        aborted = None
        for event in trace.events:
            try:
                runner.apply(event)
            except EtallocError as exc:
                aborted = str(exc)
                break
        report = runner.report()
        results[name] = replace(report, strategy=resolved, aborted=aborted)
    return results


@dataclass
class TreeNode:
    """One state of the zero-waste transition tree: who is active and with what tasks."""

    allocation: TaskAllocation
    parent: "TreeNode | None" = None
    leaver_from_parent: int | None = None
    children: dict[int, "TreeNode"] = field(default_factory=dict)

    @property
    def path(self) -> tuple[int, ...]:
        node, out = self, []
        while node.parent is not None:
            out.append(node.leaver_from_parent)
            node = node.parent
        return tuple(reversed(out))


@dataclass
class TransitionTree:
    """Lazily grown tree of zero-waste states between n_min and the root size.

    Children are keyed by the leaving machine's label and memoized per ordered
    removal sequence; the same subset reached in a different order is a
    different node because the intermediate allocations differ.
    """

    root: TreeNode
    n_min: int

    def child(self, node: TreeNode, leaver: int) -> TreeNode:
        """The state after ``leaver`` departs from ``node``, expanding on demand."""
        if node.allocation.n_machines <= self.n_min:
            raise EtallocError(
                f"cannot leave below n_min={self.n_min} (node {node.path})")
        if leaver in node.children:
            return node.children[leaver]
        if leaver not in node.allocation.task_sets:
            raise ValueError(f"machine {leaver} is not active at node {node.path}")
        try:
            outcome = zero_waste_leave(node.allocation, leaver)
        except InfeasibleTransitionError as exc:
            raise InfeasibleTransitionError(
                f"no zero-waste transition at node {node.path} for leaver {leaver}; "
                f"violating machine subset: {list(exc.witness)}", witness=exc.witness) from None
        child = TreeNode(allocation=outcome.new_alloc, parent=node,
                         leaver_from_parent=leaver)
        node.children[leaver] = child
        return child

    def expand_fully(self) -> int:
        """Build every node down to n_min; returns the total node count."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if node.allocation.n_machines > self.n_min:
                for leaver in sorted(node.allocation.machine_ids):
                    stack.append(self.child(node, leaver))
        return count


def build_transition_tree(root_alloc: TaskAllocation, n_min: int) -> TransitionTree:
    """Root a transition tree at a validated allocation; children grow on demand."""
    require_valid(root_alloc, "root allocation")
    if not root_alloc.redundancy <= n_min <= root_alloc.n_machines:
        raise ValueError(
            f"n_min={n_min} outside [{root_alloc.redundancy}, {root_alloc.n_machines}]")
    return TransitionTree(root=TreeNode(allocation=root_alloc), n_min=n_min)


def tree_navigate(tree: TransitionTree, node: TreeNode, event: ElasticEvent) -> TreeNode:
    """Follow one elastic event through the tree: leave descends, join ascends."""
    if event.kind == "leave":
        return tree.child(node, event.machine)
    if node.parent is None:
        raise EtallocError("cannot join at the root of the transition tree")
    return node.parent


def full_tree_node_count(n_max: int, n_min: int) -> int:
    """Closed-form node count of a fully expanded tree: one root plus all ordered
    removal sequences of length up to n_max - n_min."""
    total, product = 1, 1
    for height in range(1, n_max - n_min + 1):
        product *= n_max - (height - 1)
        total += product
    return total


def trace_to_document(trace: ElasticTrace) -> dict:
    doc = {
        "initial": {
            "n0": trace.initial_machines,
            "l": trace.redundancy,
            "f": trace.n_tasks,
            "strategy": trace.strategy,
            "nmax": trace.n_max,
            "nmin": trace.n_min,
        },
        "events": [
            {"kind": e.kind, **({"machine": e.machine} if e.machine is not None else {})}
            for e in trace.events
        ],
    }
    if trace.seed_allocation is not None:
        doc["initial"]["seed_tas"] = tas_to_document(trace.seed_allocation)
    if trace.initial_shift:
        doc["initial"]["shift"] = trace.initial_shift
    if trace.label_policy != "fresh":
        doc["initial"]["label_policy"] = trace.label_policy
    return doc


def trace_from_document(doc: Mapping) -> ElasticTrace:
    initial = _field(doc, "initial", "trace", dict)
    events = []
    for i, e in enumerate(_field(doc, "events", "trace", list)):
        where = f"trace event {i}"
        events.append(ElasticEvent(_field(e, "kind", where),
                                   _field(e, "machine", where, int, None)))
    seed = _field(initial, "seed_tas", "trace initial", dict, None)
    return ElasticTrace(
        initial_machines=_field(initial, "n0", "trace initial", int),
        redundancy=_field(initial, "l", "trace initial", int),
        n_tasks=_field(initial, "f", "trace initial", int),
        strategy=_field(initial, "strategy", "trace initial", str, "cyclic"),
        events=tuple(events),
        n_max=_field(initial, "nmax", "trace initial", int, None),
        n_min=_field(initial, "nmin", "trace initial", int, None),
        seed_allocation=tas_from_document(seed) if seed else None,
        initial_shift=_field(initial, "shift", "trace initial", int, 0),
        label_policy=_field(initial, "label_policy", "trace initial", str, "fresh"))


def report_to_document(report: SimulationReport) -> dict:
    return {
        "strategy": report.strategy,
        "cumulative_waste": report.cumulative_waste,
        "infeasible_count": report.infeasible_count,
        "aborted": report.aborted,
        "events": [
            {"index": r.index, "kind": r.kind, "machine": r.machine, "waste": r.waste,
             "delta": r.load_change, "feasible": r.feasible, "degraded": r.degraded,
             **({"shift": r.shift} if r.shift is not None else {})}
            for r in report.records
        ],
        "machines": {str(m): {"abandoned": a, "acquired": b}
                     for m, (a, b) in report.machine_stats.items()},
        "final": tas_to_document(report.final),
    }


def report_rows(report: SimulationReport) -> list[str]:
    """Flat tabular export: event_index kind machine waste delta feasible."""
    rows = ["index\tkind\tmachine\twaste\tdelta\tfeasible"]
    for r in report.records:
        rows.append(f"{r.index}\t{r.kind}\t{r.machine}\t{r.waste}\t{r.load_change}"
                    f"\t{str(r.feasible).lower()}")
    return rows


def report_to_json(report: SimulationReport) -> str:
    return json.dumps(report_to_document(report), indent=2) + "\n"
