"""Core types for elastic task allocation: allocations, events, and the waste metric.

An (N, L, F) task allocation scheme (TAS) assigns each of F tasks to exactly L
of N machines while keeping every machine at exactly L*F/N tasks.  When one
machine joins or leaves, the set sizes must change by the necessary load change
|L*F/N - L*F/N'|; anything a surviving machine abandons or takes on beyond that
is transition waste.  Everything in this module is a pure function over
immutable values.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "EtallocError",
    "AllocationError",
    "DivisibilityError",
    "InfeasibleTransitionError",
    "TaskAllocation",
    "ElasticEvent",
    "TransitionOutcome",
    "ValidationReport",
    "mod_interval",
    "validate_tas",
    "holder_classes",
    "necessary_load_change",
    "transition_waste",
    "tas_to_document",
    "tas_from_document",
    "tas_to_json",
    "tas_from_json",
]


class EtallocError(Exception):
    """Base class for errors raised by this package."""


class AllocationError(EtallocError):
    """An allocation failed validation where a valid TAS was required."""

    def __init__(self, message: str, violations: Sequence[str] = ()):
        super().__init__(message)
        self.violations = tuple(violations)


class DivisibilityError(EtallocError, ValueError):
    """An integrality precondition (e.g. N | LF) does not hold."""


class InfeasibleTransitionError(EtallocError):
    """No zero-waste leave exists; zero_waste_leave raises it.

    ``witness`` holds machine labels, ascending, violating the Hall-style
    counting condition; every infeasible leave has one.
    """

    def __init__(self, message: str, witness: tuple[int, ...] | None = None,
                 event_index: int | None = None):
        super().__init__(message)
        self.witness = witness
        self.event_index = event_index


def mod_interval(start: int, end: int, modulus: int) -> frozenset[int]:
    """The set {start, start+1, ..., end} with every element reduced mod ``modulus``.

    ``end`` is inclusive and may exceed ``modulus``; the result is capped at the
    full residue set.  This is the single source of modular interval arithmetic
    for the cyclic constructions, so closed-form waste formulas (pure integer
    arithmetic) never share a code path with the set-based oracle.
    """
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if end < start - 1:
        raise ValueError(f"empty-or-negative interval [{start}, {end}]")
    first = start % modulus
    stop = first + min(end - start + 1, modulus)
    if stop <= modulus:
        return frozenset(range(first, stop))
    return frozenset(range(first, modulus)).union(range(stop - modulus))


@dataclass(frozen=True)
class TaskAllocation:
    """An ordered assignment of task indices to labelled machines.

    ``machine_ids`` carries the allocation order: position ``i`` (1-based
    ``i+1``) is what the cyclic constructions index machines by.  Labels are
    global and survive departures; positions are recomputed per allocation.
    Construction normalises every task set to a frozenset of Python ints and
    stores ``task_sets`` as a read-only mapping, so an allocation never
    changes after it is built; the TAS axioms themselves are checked by
    :func:`validate_tas`.
    """

    n_machines: int
    redundancy: int
    n_tasks: int
    machine_ids: tuple[int, ...]
    task_sets: Mapping[int, frozenset[int]] = field(repr=False)

    # Set per instance by require_valid and holder_classes.
    _validated = False
    _holder_classes = None

    def __post_init__(self):
        self._check_shape()
        sets = {}
        for m in self.machine_ids:
            try:
                sets[m] = frozenset(map(operator.index, self.task_sets[m]))
            except TypeError as exc:
                raise ValueError(f"machine {m} holds a non-integer task index: {exc}") from None
        object.__setattr__(self, "task_sets", MappingProxyType(sets))
        for m, tasks in sets.items():
            if tasks and (min(tasks) < 0 or max(tasks) >= self.n_tasks):
                bad = sorted(t for t in tasks if not 0 <= t < self.n_tasks)
                raise ValueError(f"machine {m} holds out-of-range task indices {bad}")

    @classmethod
    def _derived(cls, redundancy: int, n_tasks: int, machine_ids: Sequence[int],
                 task_sets: Mapping[int, frozenset[int]]) -> "TaskAllocation":
        """Build an allocation from sets this package made: frozensets of Python ints.

        Skips the per-element normalisation and the range check of the public
        constructor but keeps its shape checks; :func:`validate_tas` reports any
        out-of-range index.
        """
        alloc = object.__new__(cls)
        ids = tuple(machine_ids)
        alloc.__dict__.update(n_machines=len(ids), redundancy=redundancy, n_tasks=n_tasks,
                              machine_ids=ids, task_sets=task_sets)
        alloc._check_shape()
        object.__setattr__(alloc, "task_sets",
                           MappingProxyType({m: task_sets[m] for m in ids}))
        return alloc

    def _check_shape(self) -> None:
        if self.n_machines != len(self.machine_ids):
            raise ValueError(
                f"n_machines={self.n_machines} but {len(self.machine_ids)} machine ids given")
        if len(set(self.machine_ids)) != len(self.machine_ids):
            raise ValueError("machine ids must be distinct")
        if set(self.task_sets) != set(self.machine_ids):
            raise ValueError("task_sets keys must match machine_ids")
        if self.redundancy <= 0 or self.n_tasks <= 0 or self.n_machines <= 0:
            raise ValueError("n_machines, redundancy and n_tasks must be positive")

    def __reduce__(self):
        # A read-only mapping cannot be pickled; rebuild through the constructor.
        return (type(self), (self.n_machines, self.redundancy, self.n_tasks,
                             self.machine_ids, dict(self.task_sets)))

    @classmethod
    def from_sets(cls, sets: Sequence[Iterable[int]], redundancy: int, n_tasks: int,
                  machine_ids: Sequence[int] | None = None) -> "TaskAllocation":
        """Build an allocation from per-machine task sets, labelling 1..N by default."""
        ids = tuple(machine_ids) if machine_ids is not None else tuple(range(1, len(sets) + 1))
        return cls(
            n_machines=len(ids),
            redundancy=redundancy,
            n_tasks=n_tasks,
            machine_ids=ids,
            task_sets=dict(zip(ids, sets)),
        )

    def position(self, machine: int) -> int:
        """1-based position of ``machine`` in the allocation order."""
        return self.machine_ids.index(machine) + 1


@dataclass(frozen=True)
class ElasticEvent:
    """A single join or leave.  Leaves name an active machine; join labels are assigned."""

    kind: str
    machine: int | None = None

    def __post_init__(self):
        if self.kind not in ("join", "leave"):
            raise ValueError(f"event kind must be 'join' or 'leave', got {self.kind!r}")
        if self.kind == "leave" and self.machine is None:
            raise ValueError("leave events must name the leaving machine")

    @classmethod
    def join(cls, machine: int | None = None) -> "ElasticEvent":
        return cls("join", machine)

    @classmethod
    def leave(cls, machine: int) -> "ElasticEvent":
        return cls("leave", machine)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking the TAS axioms; violations are data, not exceptions."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class TransitionOutcome:
    """Waste accounting for one elastic transition.

    ``per_machine_waste`` covers exactly the machines present in both
    allocations; ``necessary_load_change`` is the unavoidable per-machine
    size change.
    """

    old_alloc: TaskAllocation
    new_alloc: TaskAllocation
    per_machine_waste: dict[int, int]
    necessary_load_change: int

    @property
    def total_waste(self) -> int:
        return sum(self.per_machine_waste.values())


def validate_tas(alloc: TaskAllocation) -> ValidationReport:
    """Check the two TAS axioms plus the parameter constraints they presume.

    Axioms: every task index appears in exactly ``redundancy`` task sets, and
    every machine holds exactly ``redundancy * n_tasks / n_machines`` tasks.
    Also reports L <= N <= L*F and N | L*F violations, which the axioms
    implicitly require, and task indices outside [0, F), which allocations
    built by this package's producers are not checked for elsewhere.
    """
    n, l, f = alloc.n_machines, alloc.redundancy, alloc.n_tasks
    violations: list[str] = []
    if not l <= n:
        violations.append(f"parameters: redundancy {l} exceeds machine count {n}")
    if not n <= l * f:
        violations.append(f"parameters: machine count {n} exceeds redundancy*tasks {l * f}")
    if (l * f) % n != 0:
        violations.append(
            f"parameters: machine count {n} does not divide redundancy*tasks {l * f}")
    else:
        load = l * f // n
        for m in alloc.machine_ids:
            size = len(alloc.task_sets[m])
            if size != load:
                violations.append(
                    f"load balancing: machine {m} holds {size} tasks, expected {load}")
    sets = [alloc.task_sets[m] for m in alloc.machine_ids]
    incidences = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.intp,
                             count=sum(map(len, sets)))
    out_of_range = (incidences < 0) | (incidences >= f)
    if out_of_range.any():
        for m, tasks in zip(alloc.machine_ids, sets):
            bad = sorted(t for t in tasks if not 0 <= t < f)
            if bad:
                violations.append(f"range: machine {m} holds out-of-range task indices {bad}")
        incidences = incidences[~out_of_range]
    coverage = np.bincount(incidences, minlength=f)
    for t in np.flatnonzero(coverage != l).tolist():
        violations.append(
            f"redundancy: task {t} covered by {int(coverage[t])} machines, expected {l}")
    return ValidationReport(tuple(violations))


def require_valid(alloc: TaskAllocation, context: str = "allocation") -> None:
    """Raise :class:`AllocationError` unless ``alloc`` passes :func:`validate_tas`.

    An allocation is immutable, so a passing verdict is remembered on it and
    each allocation is validated at most once.
    """
    if alloc._validated:
        return
    report = validate_tas(alloc)
    if not report.ok:
        raise AllocationError(
            f"{context} is not a valid ({alloc.n_machines},{alloc.redundancy},"
            f"{alloc.n_tasks}) TAS: {report.violations[0]}"
            + (f" (+{len(report.violations) - 1} more)" if len(report.violations) > 1 else ""),
            report.violations)
    object.__setattr__(alloc, "_validated", True)


def holder_classes(alloc: TaskAllocation) -> Mapping[tuple[int, ...], tuple[int, ...]]:
    """Read-only map from each holder set (labels ascending) to its tasks (ascending).

    Classes come in order of their least task.  An allocation is immutable,
    so the map is built once, on first use, and remembered on it.
    """
    if alloc._holder_classes is None:
        require_valid(alloc)
        object.__setattr__(alloc, "_holder_classes", _group_by_holders(alloc))
    return alloc._holder_classes


def _group_by_holders(alloc: TaskAllocation) -> Mapping[tuple[int, ...], tuple[int, ...]]:
    """The classes of :func:`holder_classes`, keyed first by one machine bitmask per task."""
    labels = sorted(alloc.machine_ids)
    keys = [0] * alloc.n_tasks
    for i, m in enumerate(labels):
        bit = 1 << i
        for t in alloc.task_sets[m]:
            keys[t] |= bit
    groups: dict[int, list[int]] = {}
    for t, key in enumerate(keys):
        groups.setdefault(key, []).append(t)
    return MappingProxyType({tuple(m for i, m in enumerate(labels) if key >> i & 1): tuple(tasks)
                             for key, tasks in groups.items()})


def necessary_load_change(n_from: int, n_to: int, redundancy: int, n_tasks: int) -> int:
    """|L*F/n_from - L*F/n_to| for a pool-size change of one machine."""
    if abs(n_from - n_to) != 1:
        raise ValueError(f"pool sizes must differ by one, got {n_from} -> {n_to}")
    lf = redundancy * n_tasks
    for name, value in (("n_from", n_from), ("n_to", n_to)):
        if value <= 0 or lf % value != 0:
            raise DivisibilityError(
                f"{name}={value} does not divide redundancy*tasks={lf}")
    return abs(lf // n_from - lf // n_to)


def transition_waste(old: TaskAllocation, new: TaskAllocation,
                     leaver: int | None = None) -> TransitionOutcome:
    """Measure the waste of a one-machine transition by direct set arithmetic.

    For every machine present in both allocations, waste is the size of the
    symmetric difference of its two task sets, less the necessary load change.
    The machine label sets must differ by exactly one label (the joiner or the
    leaver); pass ``leaver`` to cross-check the inferred direction.
    """
    require_valid(old, "old allocation")
    require_valid(new, "new allocation")
    if (old.redundancy, old.n_tasks) != (new.redundancy, new.n_tasks):
        raise ValueError("allocations disagree on redundancy or task count")
    old_ids, new_ids = set(old.machine_ids), set(new.machine_ids)
    gone, came = old_ids - new_ids, new_ids - old_ids
    if not ((len(gone), len(came)) in ((1, 0), (0, 1))):
        raise ValueError(
            f"machine label sets must differ by exactly one label; "
            f"left={sorted(gone)} joined={sorted(came)}")
    if gone:
        actual_leaver = next(iter(gone))
        if leaver is not None and leaver != actual_leaver:
            raise ValueError(f"leaver {leaver} given but machine {actual_leaver} left")
    elif leaver is not None:
        raise ValueError(f"leaver {leaver} given but the transition is a join")
    delta = necessary_load_change(old.n_machines, new.n_machines,
                                  old.redundancy, old.n_tasks)
    per_machine: dict[int, int] = {}
    for m in old.machine_ids:
        if m not in new_ids:
            continue
        w = len(old.task_sets[m] ^ new.task_sets[m]) - delta
        # |S ^ S'| >= ||S| - |S'|| = delta for balanced allocations.
        assert w >= 0, f"negative waste {w} at machine {m}"
        per_machine[m] = w
    return TransitionOutcome(
        old_alloc=old,
        new_alloc=new,
        per_machine_waste=per_machine,
        necessary_load_change=delta,
    )


def tas_to_document(alloc: TaskAllocation) -> dict:
    """Serializable form: machines in allocation order, task lists ascending."""
    return {
        "n_machines": alloc.n_machines,
        "redundancy": alloc.redundancy,
        "n_tasks": alloc.n_tasks,
        "machines": [
            {"id": m, "tasks": sorted(alloc.task_sets[m])} for m in alloc.machine_ids
        ],
    }


_REQUIRED = object()


def _field(doc, key: str, where: str, kind: type = object, default=_REQUIRED):
    """``doc[key]`` converted by ``operator.index`` (a bool, float or numeric
    string is refused) or checked against ``kind``, else a ValueError naming
    the field; an optional field takes ``default`` when absent or null.
    Documents are input from outside the program.
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    if doc.get(key) is None and default is not _REQUIRED:
        return default
    if key not in doc:
        raise ValueError(f"{where} has no {key!r} field")
    value = doc[key]
    if kind is int:
        if not isinstance(value, bool):
            try:
                return operator.index(value)
            except TypeError:
                pass
    elif isinstance(value, kind):
        return value
    raise ValueError(f"{where}: {key!r} must be {kind.__name__}, got {type(value).__name__}")


def tas_from_document(doc: Mapping) -> TaskAllocation:
    """Inverse of :func:`tas_to_document`; task lists must hold integers, not booleans."""
    ids, task_sets = [], {}
    for i, entry in enumerate(_field(doc, "machines", "allocation", list)):
        m = _field(entry, "id", f"machine entry {i}", int)
        ids.append(m)
        task_sets[m] = _field(entry, "tasks", f"machine {m}", list)
        if any(isinstance(t, bool) for t in task_sets[m]):
            raise ValueError(f"machine {m} holds a non-integer task index: a boolean")
    return TaskAllocation(
        n_machines=_field(doc, "n_machines", "allocation", int),
        redundancy=_field(doc, "redundancy", "allocation", int),
        n_tasks=_field(doc, "n_tasks", "allocation", int),
        machine_ids=tuple(ids),
        task_sets=task_sets,
    )


def tas_to_json(alloc: TaskAllocation) -> str:
    return json.dumps(tas_to_document(alloc), indent=2) + "\n"


def tas_from_json(text: str) -> TaskAllocation:
    return tas_from_document(json.loads(text))
