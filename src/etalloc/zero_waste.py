"""Zero-waste transitions: greedy donation on joins, matching on leaves.

A leave admits a zero-waste transition exactly when the leaver's tasks can be
spread over the survivors so that each survivor takes exactly the necessary
load change, never a task it already holds.  That is a perfect Delta-matching
of the transition graph, decided here by integral max flow.  When the flow
falls short, its minimum cut names survivors that violate Hall's condition;
the counting conditions, checked by enumeration, are an independent oracle.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .core import (
    DivisibilityError,
    InfeasibleTransitionError,
    TaskAllocation,
    TransitionOutcome,
    holder_classes,
    necessary_load_change,
    require_valid,
    transition_waste,
)

__all__ = [
    "TransitionGraph",
    "DeltaMatching",
    "HallResult",
    "zero_waste_join",
    "build_transition_graph",
    "hall_feasible_for_leaver",
    "hall_feasible_all_leavers",
    "find_delta_matching",
    "zero_waste_leave",
    "best_effort_leave",
    "random_tas",
]

_MAX_ENUMERATION_MACHINES = 20


@dataclass(frozen=True)
class TransitionGraph:
    """Bipartite graph between surviving machines and the leaver's tasks.

    ``classes`` maps the survivors that hold each class of the leaver's tasks
    to its tasks; a survivor can absorb the classes it is not in.  ``delta`` is
    the required per-machine intake L*F/(N(N-1)).
    """

    leaver: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    classes: dict[tuple[int, ...], tuple[int, ...]]
    delta: int

    @cached_property
    def neighbors(self) -> dict[int, frozenset[int]]:
        """The leaver tasks each survivor does not own, derived from ``classes`` on first read."""
        return {u: frozenset().union(*(tasks for holders, tasks in self.classes.items()
                                       if u not in holders)) for u in self.left}


@dataclass(frozen=True)
class DeltaMatching:
    """Assignment of every right-side task to one machine, each machine used delta times."""

    assignment: dict[int, int]
    delta: int

    def check(self, graph: TransitionGraph) -> None:
        """Raise if this matching does not satisfy the perfect Delta-matching invariants."""
        if set(self.assignment) != set(graph.right):
            raise ValueError("matching does not cover the task side exactly once")
        intake: dict[int, int] = {u: 0 for u in graph.left}
        held_by = {t: holders for holders, tasks in graph.classes.items() for t in tasks}
        for task, machine in self.assignment.items():
            if machine in held_by[task] or machine not in intake:
                raise ValueError(f"pair (machine {machine}, task {task}) is not an edge")
            intake[machine] += 1
        bad = {u: c for u, c in intake.items() if c != self.delta}
        if bad:
            raise ValueError(f"machines with intake != {self.delta}: {bad}")


@dataclass(frozen=True)
class HallResult:
    """Feasibility verdict plus, when infeasible, a violating machine subset."""

    feasible: bool
    witness: tuple[int, ...] | None = None


def zero_waste_join(alloc: TaskAllocation, new_machine: int) -> TransitionOutcome:
    """Donate disjoint task slices from every machine to a newcomer; waste is zero.

    Machines donate in ascending label order, lowest task index first, each
    giving up exactly L*F/(N(N+1)) tasks none of which were donated before.
    Every machine always has enough undonated tasks for this to go through.
    """
    require_valid(alloc)
    n, l, f = alloc.n_machines, alloc.redundancy, alloc.n_tasks
    if new_machine in alloc.task_sets:
        raise ValueError(f"machine {new_machine} is already active")
    share = necessary_load_change(n, n + 1, l, f)
    donated: set[int] = set()
    new_sets = {}
    for m in sorted(alloc.machine_ids):
        gift = sorted(alloc.task_sets[m] - donated)[:share]
        assert len(gift) == share, f"machine {m} ran out of donatable tasks"
        donated.update(gift)
        new_sets[m] = alloc.task_sets[m] - set(gift)
    new_sets[new_machine] = frozenset(donated)
    new_alloc = TaskAllocation._derived(l, f, alloc.machine_ids + (new_machine,), new_sets)
    outcome = transition_waste(alloc, new_alloc)
    assert outcome.total_waste == 0
    return outcome


def build_transition_graph(alloc: TaskAllocation, leaver: int) -> TransitionGraph:
    """Graph whose edges pair each survivor with the leaver tasks it could absorb;
    :class:`DivisibilityError` if no balanced (N-1)-allocation exists at all."""
    require_valid(alloc)
    if leaver not in alloc.task_sets:
        raise ValueError(f"machine {leaver} is not active")
    n = alloc.n_machines
    delta = necessary_load_change(n, n - 1, alloc.redundancy, alloc.n_tasks)
    classes = {tuple(m for m in holders if m != leaver): tasks
               for holders, tasks in holder_classes(alloc).items() if leaver in holders}
    return TransitionGraph(
        leaver=leaver, left=tuple(m for m in alloc.machine_ids if m != leaver),
        right=tuple(sorted(alloc.task_sets[leaver])), classes=classes, delta=delta)


def hall_feasible_for_leaver(alloc: TaskAllocation, leaver: int) -> HallResult:
    """Counting condition for one leaver, by explicit subset enumeration.

    Feasible iff every nonempty survivor subset J can jointly absorb |J| times
    the per-machine intake from the leaver's tasks.  Exponential in N; this is
    the small-N oracle the flow matcher is checked against.
    """
    graph = build_transition_graph(alloc, leaver)
    if alloc.n_machines > _MAX_ENUMERATION_MACHINES:
        raise ValueError("subset enumeration is limited to small machine counts; "
                         "use zero_waste_leave for larger allocations")
    survivors = sorted(graph.left)
    for size in range(1, len(survivors) + 1):
        for subset in itertools.combinations(survivors, size):
            absorbable = frozenset().union(*(graph.neighbors[u] for u in subset))
            if len(absorbable) < size * graph.delta:
                return HallResult(feasible=False, witness=subset)
    return HallResult(feasible=True)


def hall_feasible_all_leavers(alloc: TaskAllocation) -> HallResult:
    """Intersection bound deciding zero-waste leaves for every possible leaver.

    Feasible iff every set I of 2..L machines has |common tasks| at most
    (N - |I|) times the per-machine intake.  Singletons meet the bound with
    equality, and a set whose members share no task meets it trivially, so
    only the subsets of some task's holder set are counted.  Pairs come
    first: I shares no more tasks than any pair inside it, and its bound is
    at least (N - L) times the intake, so if no pair shares more than that
    the allocation passes without counting larger sets.  Otherwise at most
    #holder-sets * 2^L subsets are counted rather than C(N, 2..L), and the
    witness is the first violating I in (size, labels) order, as a full
    enumeration would find it.
    """
    require_valid(alloc)
    n, l = alloc.n_machines, alloc.redundancy
    delta = necessary_load_change(n, n - 1, l, alloc.n_tasks)
    classes = holder_classes(alloc)
    pair_common: Counter[tuple[int, int]] = Counter()
    for holder_set, tasks in classes.items():
        for pair in itertools.combinations(holder_set, 2):
            pair_common[pair] += len(tasks)
    if max(pair_common.values(), default=0) <= (n - l) * delta:
        return HallResult(feasible=True)
    witness = _first_violating_subset(classes, n, delta)
    return HallResult(feasible=witness is None, witness=witness)


def _first_violating_subset(classes: Mapping[tuple[int, ...], tuple[int, ...]], n: int,
                            delta: int) -> tuple[int, ...] | None:
    """The least (size, labels) subset of 2+ co-holders sharing more than
    (N - size) * delta tasks, counted over every subset of every holder set."""
    common: Counter[tuple[int, ...]] = Counter()
    for holder_set, tasks in classes.items():
        for k in range(2, len(holder_set) + 1):
            for subset in itertools.combinations(holder_set, k):
                common[subset] += len(tasks)
    violating = [s for s, c in common.items() if c > (n - len(s)) * delta]
    return min(violating, key=lambda s: (len(s), s)) if violating else None


class _ResidualNetwork:
    """Integral flow network: Dinic max flow and min-cost flow on one residual store.

    ``cap`` holds residual capacities, so the flow on arc ``idx`` is the
    residual capacity of its reverse, ``cap[idx ^ 1]``.  Deterministic for a
    fixed arc order.
    """

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.head: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.level: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int, cost: int = 0, flow: int = 0) -> int:
        """Add an arc already carrying ``flow`` of its ``capacity`` units."""
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(capacity - flow)
        self.cost.append(cost)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(flow)
        self.cost.append(-cost)
        return idx

    def max_flow(self, source: int, sink: int) -> int:
        """Dinic's max flow, ignoring costs.

        On return ``level[v] >= 0`` exactly for the nodes the source still
        reaches in the residual graph: the source side of a minimum cut.
        """
        flow = 0
        while True:
            level = [-1] * self.n
            level[source] = 0
            queue = [source]
            for u in queue:
                for idx in self.head[u]:
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            self.level = level
            if level[sink] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == sink:
                    return pushed
                while it[u] < len(self.head[u]):
                    idx = self.head[u][it[u]]
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[idx]))
                        if got > 0:
                            self.cap[idx] -= got
                            self.cap[idx ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(source, 1 << 60)
                if pushed == 0:
                    break
                flow += pushed

    def min_cost_flow(self, source: int, sink: int, amount: int) -> int:
        """Push ``amount`` more units at minimum cost; raises if that much cannot flow.

        Successive shortest augmenting paths with Dijkstra potentials.  Any
        flow set up by :meth:`add_edge` must leave no negative-cost cycle in
        the residual graph, so that zero potentials start Dijkstra right.
        """
        potential = [0] * self.n
        total_cost = 0
        remaining = amount
        while remaining > 0:
            dist = [None] * self.n
            parent_edge = [-1] * self.n
            dist[source] = 0
            heap = [(0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if dist[u] is not None and d > dist[u]:
                    continue
                for idx in self.head[u]:
                    if self.cap[idx] <= 0:
                        continue
                    v = self.to[idx]
                    nd = d + self.cost[idx] + potential[u] - potential[v]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        parent_edge[v] = idx
                        heapq.heappush(heap, (nd, v))
            if dist[sink] is None:
                raise ValueError(f"network cannot carry {amount} units")
            for v in range(self.n):
                if dist[v] is not None:
                    potential[v] += dist[v]
            push = remaining
            v = sink
            while v != source:
                idx = parent_edge[v]
                push = min(push, self.cap[idx])
                v = self.to[idx ^ 1]
            v = sink
            while v != source:
                idx = parent_edge[v]
                self.cap[idx] -= push
                self.cap[idx ^ 1] += push
                total_cost += push * self.cost[idx]
                v = self.to[idx ^ 1]
            remaining -= push
        return total_cost


def _delta_flow(graph: TransitionGraph) -> DeltaMatching | tuple[int, ...]:
    """The perfect Delta-matching of ``graph``, or a Hall witness that none exists.

    Tasks held by the same survivors can go to the same machines, so the flow
    runs on ``graph.classes``: source -> machine (capacity delta) -> class
    (class size) -> sink (class size).  A saturating flow expands to tasks in a
    fixed order: each class hands its tasks out ascending, to its machines in
    ``graph.left`` order.  Otherwise the witness is the survivors J the source
    still reaches, ascending: the minimum cut around J is below delta*(N-1) and
    at least delta*(N-1-|J|) + |N(J)|, so |N(J)| < delta*|J|.
    """
    classes = list(graph.classes.items())
    first_class = 1 + len(graph.left)
    sink = first_class + len(classes)
    net = _ResidualNetwork(sink + 1)
    for i in range(len(graph.left)):
        net.add_edge(0, 1 + i, graph.delta)
    edge_index: list[tuple[int, int, int]] = []
    for i, u in enumerate(graph.left):
        for j, (holders, tasks) in enumerate(classes):
            if u not in holders:
                edge_index.append((net.add_edge(1 + i, first_class + j, len(tasks)), u, j))
    for j, (_, tasks) in enumerate(classes):
        net.add_edge(first_class + j, sink, len(tasks))
    if net.max_flow(0, sink) != len(graph.right):
        return tuple(sorted(u for i, u in enumerate(graph.left) if net.level[1 + i] >= 0))
    pending = [iter(tasks) for _, tasks in classes]
    assignment = {}
    for idx, u, j in edge_index:
        for _ in range(net.cap[idx ^ 1]):
            assignment[next(pending[j])] = u
    matching = DeltaMatching(assignment=assignment, delta=graph.delta)
    matching.check(graph)
    return matching


def find_delta_matching(graph: TransitionGraph) -> DeltaMatching | None:
    """Perfect Delta-matching of a transition graph via max flow, or None.

    It exists iff the class flow of :func:`_delta_flow` saturates every class,
    which by Hall's condition is exactly when the counting oracle passes.
    """
    if graph.delta * len(graph.left) != len(graph.right):
        return None
    found = _delta_flow(graph)
    return found if isinstance(found, DeltaMatching) else None


def zero_waste_leave(alloc: TaskAllocation, leaver: int) -> TransitionOutcome:
    """Reassign the leaver's tasks so every survivor only grows.

    On success the survivors' new sets are supersets of their old ones and the
    measured waste is exactly zero.  Otherwise raises
    :class:`InfeasibleTransitionError` whose witness, from the minimum cut of
    the one flow that refutes the leave, fails Hall's counting condition.
    """
    graph = build_transition_graph(alloc, leaver)
    found = _delta_flow(graph)
    if not isinstance(found, DeltaMatching):
        raise InfeasibleTransitionError(
            f"no zero-waste transition when machine {leaver} leaves; "
            f"violating machine subset: {list(found)}", witness=found)
    extra: dict[int, set[int]] = {u: set() for u in graph.left}
    for task, machine in found.assignment.items():
        extra[machine].add(task)
    new_alloc = TaskAllocation._derived(
        alloc.redundancy, alloc.n_tasks, graph.left,
        {u: alloc.task_sets[u] | extra[u] for u in graph.left})
    outcome = transition_waste(alloc, new_alloc, leaver=leaver)
    assert outcome.total_waste == 0
    return outcome


def best_effort_leave(alloc: TaskAllocation, leaver: int) -> TransitionOutcome:
    """Minimum-waste (not necessarily zero) reallocation after a leave.

    Solves the transportation problem that keeps as many existing
    (machine, task) pairs as possible subject to the TAS axioms at N-1
    machines, via min-cost flow.  This is a fallback outside any zero-waste
    guarantee; callers should flag its use.
    """
    require_valid(alloc)
    if leaver not in alloc.task_sets:
        raise ValueError(f"machine {leaver} is not active")
    n, l, f = alloc.n_machines, alloc.redundancy, alloc.n_tasks
    if n - 1 < l:
        raise ValueError(f"cannot keep redundancy {l} with {n - 1} machines")
    load, delta = l * f // n, necessary_load_change(n, n - 1, l, f)
    survivors = tuple(m for m in alloc.machine_ids if m != leaver)
    leaving = alloc.task_sets[leaver]
    machine_node = {m: 1 + f + i for i, m in enumerate(survivors)}
    sink = 1 + f + len(survivors)
    net = _ResidualNetwork(sink + 1)
    # Warm start: every incidence a survivor keeps already carries its unit at
    # cost 0, so a task keeps L units less one if the leaver held it, the
    # residual graph has no negative arc and only the leaver's L*F/N units are
    # left to route.
    edge_of: dict[int, tuple[int, int]] = {}
    for t in range(f):
        net.add_edge(0, 1 + t, l, flow=l - (t in leaving))
        for m in survivors:
            keep = int(t in alloc.task_sets[m])
            edge_of[net.add_edge(1 + t, machine_node[m], 1, 1 - keep, flow=keep)] = (t, m)
    for m in survivors:
        net.add_edge(machine_node[m], sink, load + delta, flow=load)
    net.min_cost_flow(0, sink, len(leaving))
    new_sets: dict[int, set[int]] = {m: set() for m in survivors}
    for idx, (t, m) in edge_of.items():
        if net.cap[idx] == 0:
            new_sets[m].add(t)
    new_alloc = TaskAllocation._derived(
        l, f, survivors, {m: frozenset(s) for m, s in new_sets.items()})
    return transition_waste(alloc, new_alloc, leaver=leaver)


def random_tas(n_machines: int, redundancy: int, n_tasks: int,
               rng: random.Random, max_attempts: int = 50) -> TaskAllocation:
    """Random column-regular allocation for property tests.

    Deals a shuffled multiset of L copies of every task into N equal hands,
    then repairs duplicate-holding hands by random pairwise swaps (each
    admissible swap strictly shrinks the duplicate excess, so repair
    terminates).  The caller owns the seeded ``rng`` so runs are reproducible.
    """
    n, l, f = n_machines, redundancy, n_tasks
    if not 0 < l <= n:
        raise ValueError(f"need 0 < redundancy <= machine count, got L={l}, N={n}")
    if (l * f) % n != 0:
        raise DivisibilityError(f"machine count {n} does not divide {l * f}")
    if l == n:
        # full replication is the only valid shape
        return TaskAllocation.from_sets([frozenset(range(f))] * n,
                                        redundancy=l, n_tasks=f)
    load = l * f // n
    pool = [t for t in range(f) for _ in range(l)]
    for _ in range(max_attempts):
        rng.shuffle(pool)
        hands = [pool[i * load:(i + 1) * load] for i in range(n)]
        swap_budget = 50 * n * load
        while swap_budget > 0:
            holder = next((i for i, hand in enumerate(hands)
                           if len(set(hand)) != load), None)
            if holder is None:
                return TaskAllocation.from_sets(
                    [frozenset(hand) for hand in hands], redundancy=l, n_tasks=f)
            seen: set[int] = set()
            slot = next(k for k, t in enumerate(hands[holder])
                        if t in seen or seen.add(t))
            duplicate = hands[holder][slot]
            held = set(hands[holder])
            while swap_budget > 0:
                swap_budget -= 1
                other = rng.randrange(n)
                k = rng.randrange(load)
                candidate = hands[other][k]
                if (other != holder and candidate not in held
                        and duplicate not in hands[other]):
                    hands[other][k], hands[holder][slot] = duplicate, candidate
                    break
    raise RuntimeError(
        f"could not repair a random deal for (N={n}, L={l}, F={f}); "
        f"seed state exhausted after {max_attempts} attempts")
