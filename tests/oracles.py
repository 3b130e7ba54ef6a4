"""Slow reference versions that the package's fast paths are tested against.

Each function here is the direct formulation the package's code refines:
one flow node per task, every machine subset enumerated, a min-cost flow
that routes all L*F units from an empty flow, a per-element coverage tally,
a per-element modular interval, finite-field arithmetic that decodes
digits and reduces a polynomial on every call, each task's holders found
by set membership rather than read from the allocation's class index, and
each configuration family's zero-waste range from its own discriminant
polynomial rather than the general formula.  They
are slow on purpose and live only in the tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from etalloc import (
    CodedJob,
    Configuration,
    DeltaMatching,
    DivisibilityError,
    HallResult,
    RoundResult,
    TaskAllocation,
    TransitionGraph,
    TransitionOutcome,
    ValidationReport,
    transition_waste,
    validate_tas,
)
from etalloc.configurations import (
    ZWR_FAMILIES,
    ZwrResult,
    _find_irreducible,
    _floor_sub_sqrt,
    _poly_mod,
    _poly_mul,
    _prime_power,
    _projective_points,
    is_prime_power,
)
from etalloc.coded import compute_subtask
from etalloc.zero_waste import _ResidualNetwork


def holder_classes_by_membership(alloc: TaskAllocation) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each task's holders, ascending, found by testing it against every set;
    tasks grouped by holders in order of their least task."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for t in range(alloc.n_tasks):
        holders = tuple(m for m in sorted(alloc.machine_ids) if t in alloc.task_sets[m])
        classes.setdefault(holders, []).append(t)
    return {holders: tuple(tasks) for holders, tasks in classes.items()}


def neighbors_by_difference(alloc: TaskAllocation, leaver: int) -> dict[int, frozenset[int]]:
    """The leaver tasks each survivor could absorb: S_leaver minus S_u."""
    return {u: alloc.task_sets[leaver] - alloc.task_sets[u]
            for u in alloc.machine_ids if u != leaver}


def execute_round_per_task(job: CodedJob, alloc: TaskAllocation, stragglers=(),
                           vector=None) -> RoundResult:
    """Decode task by task from per-task lists of the non-straggling machines
    covering it, stopping at the first task with fewer than L-E of them."""
    x = job.vector if vector is None else np.asarray(vector, dtype=float)
    k = job.recovery_threshold
    covering: dict[int, list[int]] = {f: [] for f in range(job.n_tasks)}
    for m in alloc.machine_ids:
        if m not in set(stragglers):
            for f in alloc.task_sets[m]:
                covering[f].append(m)
    blocks = []
    for f in range(job.n_tasks):
        available = sorted(covering[f])[:k]
        if len(available) < k:
            return RoundResult(recovered=False, unrecoverable_task=f)
        results = np.stack([compute_subtask(job, m, f, x) for m in available])
        pieces = np.linalg.solve(job.generator[[m - 1 for m in available]], results)
        blocks.append(pieces.reshape(-1))
    return RoundResult(recovered=True, product=np.concatenate(blocks)[:job.matrix.shape[0]])


def find_delta_matching_per_task(graph: TransitionGraph) -> DeltaMatching | None:
    """Dinic on source -> machine (delta) -> task (1) -> sink (1)."""
    if graph.delta * len(graph.left) != len(graph.right):
        return None
    machine_node = {u: 1 + i for i, u in enumerate(graph.left)}
    task_node = {v: 1 + len(graph.left) + j for j, v in enumerate(graph.right)}
    sink = 1 + len(graph.left) + len(graph.right)
    net = _ResidualNetwork(sink + 1)
    for u in graph.left:
        net.add_edge(0, machine_node[u], graph.delta)
    edge_index: dict[int, tuple[int, int]] = {}
    for u in graph.left:
        for v in sorted(graph.neighbors[u]):
            edge_index[net.add_edge(machine_node[u], task_node[v], 1)] = (u, v)
    for v in graph.right:
        net.add_edge(task_node[v], sink, 1)
    if net.max_flow(0, sink) != len(graph.right):
        return None
    assignment = {v: u for idx, (u, v) in edge_index.items() if net.cap[idx] == 0}
    return DeltaMatching(assignment=assignment, delta=graph.delta)


def hall_feasible_all_leavers_enumerated(alloc: TaskAllocation) -> HallResult:
    """The intersection bound checked on every machine subset of size 2..L."""
    assert validate_tas(alloc).ok
    n, l, f = alloc.n_machines, alloc.redundancy, alloc.n_tasks
    if n <= 1 or (l * f) % (n * (n - 1)) != 0:
        raise DivisibilityError("per-machine intake is not an integer")
    delta = (l * f) // (n * (n - 1))
    machines = sorted(alloc.machine_ids)
    for size in range(2, min(l, n) + 1):
        for subset in itertools.combinations(machines, size):
            common = frozenset.intersection(*(alloc.task_sets[m] for m in subset))
            if len(common) > (n - size) * delta:
                return HallResult(feasible=False, witness=subset)
    return HallResult(feasible=True)


def best_effort_leave_cold(alloc: TaskAllocation, leaver: int) -> TransitionOutcome:
    """Min-cost flow routing all L*F units from an empty flow."""
    n, l, f = alloc.n_machines, alloc.redundancy, alloc.n_tasks
    survivors = tuple(m for m in alloc.machine_ids if m != leaver)
    load = l * f // (n - 1)
    machine_node = {m: 1 + f + i for i, m in enumerate(survivors)}
    sink = 1 + f + len(survivors)
    net = _ResidualNetwork(sink + 1)
    for t in range(f):
        net.add_edge(0, 1 + t, l, 0)
    edge_of: dict[int, tuple[int, int]] = {}
    for t in range(f):
        for m in survivors:
            cost = 0 if t in alloc.task_sets[m] else 1
            edge_of[net.add_edge(1 + t, machine_node[m], 1, cost)] = (t, m)
    for m in survivors:
        net.add_edge(machine_node[m], sink, load, 0)
    net.min_cost_flow(0, sink, l * f)
    new_sets: dict[int, set[int]] = {m: set() for m in survivors}
    for idx, (t, m) in edge_of.items():
        if net.cap[idx] == 0:
            new_sets[m].add(t)
    new_alloc = TaskAllocation(n_machines=n - 1, redundancy=l, n_tasks=f,
                               machine_ids=survivors, task_sets=new_sets)
    return transition_waste(alloc, new_alloc, leaver=leaver)


def mod_interval_per_element(start: int, end: int, modulus: int) -> frozenset[int]:
    """{start, ..., end} reduced mod ``modulus`` one element at a time, capped at F."""
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if end < start - 1:
        raise ValueError(f"empty-or-negative interval [{start}, {end}]")
    count = min(end - start + 1, modulus)
    return frozenset((start + i) % modulus for i in range(count))


def validate_tas_per_element(alloc: TaskAllocation) -> ValidationReport:
    """The TAS axioms with the coverage tallied task by task in a Python list."""
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
    coverage = [0] * f
    for m in alloc.machine_ids:
        for t in alloc.task_sets[m]:
            coverage[t] += 1
    for t, c in enumerate(coverage):
        if c != l:
            violations.append(f"redundancy: task {t} covered by {c} machines, expected {l}")
    return ValidationReport(ok=not violations, violations=tuple(violations))


class FieldPerCall:
    """GF(p**k) on integers 0..q-1 whose every operation decodes base-p digits,
    and whose products reduce modulo the field's irreducible polynomial."""

    def __init__(self, q: int):
        self.q = q
        self.p, self.k = _prime_power(q)
        self.modulus = None if self.k == 1 else _find_irreducible(self.p, self.k)

    def _digits(self, e: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(e % self.p)
            e //= self.p
        return out

    def _encode(self, digits) -> int:
        e = 0
        for d in reversed(list(digits)):
            e = e * self.p + d
        return e

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self._encode((x + y) % self.p
                            for x, y in zip(self._digits(a), self._digits(b)))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        prod = _poly_mul(self._digits(a), self._digits(b), self.p)
        reduced = _poly_mod(prod, self.modulus, self.p)
        return self._encode(reduced + [0] * (self.k - len(reduced)))


def projective_plane_per_call(q: int) -> Configuration:
    """The projective plane with every incidence decided by per-call field arithmetic."""
    field = FieldPerCall(q)
    reps = _projective_points(field)
    point_id = {vec: i + 1 for i, vec in enumerate(reps)}

    def dot(a, b) -> int:
        acc = 0
        for x, y in zip(a, b):
            acc = field.add(acc, field.mul(x, y))
        return acc

    lines = tuple(frozenset(point_id[vec] for vec in reps if not dot(coeffs, vec))
                  for coeffs in reps)
    return Configuration(n_points=len(reps), line_size=q + 1, lines=lines)


def family_zero_waste_range_specialized(family: str, q: int | None = None,
                                        n_max: int | None = None) -> ZwrResult:
    """Zero-waste range for a named configuration family, each family
    evaluating its own specialized discriminant polynomial in n_max or q."""
    family = family.lower()
    if family in ("l3", "l4"):
        if n_max is None:
            raise ValueError(f"family {family!r} needs n_max")
        if family == "l3":
            if n_max < 7:
                raise ValueError("(n,3)-configurations need n_max >= 7")
            l, a, b = 3, 7 * n_max - 5, 10
            disc = 9 * n_max ** 2 + 90 * n_max + 25
        else:
            if n_max < 13:
                raise ValueError("(n,4)-configurations need n_max >= 13")
            l, a, b = 4, 10 * n_max - 7, 14
            disc = 16 * n_max ** 2 + 280 * n_max + 49
    elif family in ("projective", "q2", "q2m1"):
        if q is None:
            raise ValueError(f"family {family!r} needs q")
        if not is_prime_power(q):
            raise ValueError(f"{q} is not a prime power")
        if family == "projective":
            l, n_max = q + 1, q * q + q + 1
            a, b = 3 * q ** 3 + 4 * q ** 2 + 2 * q, 4 * q + 2
            disc = (q ** 6 + 12 * q ** 5 + 24 * q ** 4 + 24 * q ** 3
                    + 16 * q ** 2 + 4 * q)
        elif family == "q2":
            l, n_max = q, q * q
            a, b = 3 * q ** 3 - 2 * q ** 2 - 2 * q + 1, 4 * q - 2
            disc = (q ** 6 + 8 * q ** 5 - 16 * q ** 4 + 6 * q ** 3
                    + 4 * q ** 2 - 4 * q + 1)
        else:
            l, n_max = q, q * q - 1
            a, b = 3 * q ** 3 - 2 * q ** 2 - 5 * q + 3, 4 * q - 2
            disc = (q ** 6 + 8 * q ** 5 - 18 * q ** 4 - 2 * q ** 3
                    + 21 * q ** 2 - 10 * q + 1)
    else:
        raise ValueError(f"unknown family {family!r}; choose one of {ZWR_FAMILIES}")
    removable = max(1 + _floor_sub_sqrt(a, disc, b), 0)
    return ZwrResult(n_max=n_max, n_min=n_max - removable,
                     removable=removable, discriminant=disc)
