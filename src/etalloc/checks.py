"""Self-verification suites behind the ``verify`` CLI subcommand.

Each suite pits a closed form against an independent oracle (set arithmetic,
subset enumeration, exhaustive sweeps, direct multiplication) and returns one
result per check.  Randomized suites take an explicit seed and echo it in
their details so failures reproduce.  The allocation generators
(``random_tas``, ``doubled_block_tas``, ``perturbed``) build the seeded
corpora that the suites, the tests and the benchmark draw from.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cyclic as cyc
from .coded import elastic_linear_regression, encode_job, execute_round, \
    plain_regression_trajectory
from .configurations import (
    fano_plane,
    projective_plane,
    tas_from_configuration,
    truncated_plane_q2,
    truncated_plane_q2_minus_1,
    validate_configuration,
    zero_waste_range,
    zwr_task_count,
)
from .core import DivisibilityError, ElasticEvent, InfeasibleTransitionError, \
    TaskAllocation
from .engine import ElasticTrace, TraceRunner, full_tree_node_count
from .zero_waste import (
    build_transition_graph,
    hall_feasible_all_leavers,
    hall_feasible_for_leaver,
    zero_waste_leave,
)

__all__ = ["CheckResult", "verify_formulas", "verify_hall", "verify_zwr",
           "verify_coded", "SUITES", "run_suite", "doubled_block_tas", "perturbed",
           "random_tas", "probe_zero_waste_depth"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _grid(l_max: int, n_max: int, leave: bool):
    for l in range(2, l_max + 1):
        for n in range(l + (2 if leave else 1), n_max + 1):
            yield l, n


def verify_formulas(l_max: int = 5, n_max: int = 8,
                    multiplier: int = 1) -> list[CheckResult]:
    """Closed-form wastes vs set-arithmetic measurement, plus shift optimality sweeps."""
    if l_max < 2 or n_max < 4:
        raise ValueError(f"formula grid needs l_max >= 2 and n_max >= 4 to check a leave, "
                         f"got l_max={l_max}, n_max={n_max}")
    if multiplier < 1:
        raise ValueError(f"formula grid needs multiplier >= 1, got multiplier={multiplier}")
    results = []
    join_bad = []
    for l, n in _grid(l_max, n_max, leave=False):
        f = n * (n + 1) * multiplier
        if cyc.cyclic_join_waste_closed_form(n, l, f) != cyc.measured_join_waste(n, l, f):
            join_bad.append((n, l, f))
    results.append(CheckResult(
        "join waste closed form equals measurement", not join_bad,
        f"grid L<={l_max} N<={n_max}, F=N(N+1)*{multiplier}"
        + (f"; mismatches {join_bad}" if join_bad else "")))
    leave_bad, avg_bad = [], []
    for l, n in _grid(l_max, n_max, leave=True):
        f = n * (n - 1) * multiplier
        per = []
        for pos in range(1, n + 1):
            predicted = cyc.cyclic_leave_waste_closed_form(n, l, f, pos)
            measured = cyc.measured_leave_waste(n, l, f, pos)
            per.append(measured)
            if predicted != measured:
                leave_bad.append((n, l, f, pos))
        if cyc.cyclic_leave_waste_average(n, l, f) != Fraction(sum(per), len(per)):
            avg_bad.append((n, l, f))
    results.append(CheckResult(
        "leave waste closed form equals measurement (all leaver positions)",
        not leave_bad, f"mismatches {leave_bad}" if leave_bad else ""))
    results.append(CheckResult(
        "average leave waste equals the mean over leaver positions",
        not avg_bad, f"mismatches {avg_bad}" if avg_bad else ""))
    shift_bad = []
    for l, n in _grid(l_max, n_max, leave=False):
        f = n * (n + 1) * multiplier
        params, predicted = cyc.optimal_shift_join(n, l, f)
        if cyc.measured_join_waste(n, l, f, 0, params.shift) != predicted:
            shift_bad.append(("join", n, l, f))
    for l, n in _grid(l_max, n_max, leave=True):
        f = n * (n - 1) * multiplier
        for pos in range(1, n + 1):
            params, predicted = cyc.optimal_shift_leave(n, l, f, 0, pos)
            if cyc.measured_leave_waste(n, l, f, pos, 0, params.shift) != predicted:
                shift_bad.append(("leave", n, l, f, pos))
    results.append(CheckResult(
        "optimal-shift predicted wastes equal measurement", not shift_bad,
        f"mismatches {shift_bad}" if shift_bad else ""))
    grid_min_bad, conjecture_hits = [], []
    for l, n in _grid(l_max, n_max, leave=False):
        f = n * (n + 1) * multiplier
        step = f // (n * (n + 1))
        params, predicted = cyc.optimal_shift_join(n, l, f)
        on_grid = min(cyc.measured_join_waste(n, l, f, 0, s)
                      for s in range(0, f, step))
        everywhere = min(cyc.measured_join_waste(n, l, f, 0, s) for s in range(f))
        if on_grid != predicted:
            grid_min_bad.append(("join", n, l, f, on_grid, predicted))
        if everywhere < predicted:
            conjecture_hits.append(("join", n, l, f, everywhere, predicted))
    for l, n in _grid(l_max, n_max, leave=True):
        f = n * (n - 1) * multiplier
        step = f // (n * (n - 1))
        for pos in (1, n):
            params, predicted = cyc.optimal_shift_leave(n, l, f, 0, pos)
            on_grid = min(cyc.measured_leave_waste(n, l, f, pos, 0, s)
                          for s in range(0, f, step))
            everywhere = min(cyc.measured_leave_waste(n, l, f, pos, 0, s)
                             for s in range(f))
            if on_grid != predicted:
                grid_min_bad.append(("leave", n, l, f, pos, on_grid, predicted))
            if everywhere < predicted:
                conjecture_hits.append(("leave", n, l, f, pos, everywhere, predicted))
    results.append(CheckResult(
        "optimal shift minimizes over the step-aligned shift grid", not grid_min_bad,
        f"violations {grid_min_bad}" if grid_min_bad else ""))
    # Reported, not asserted: optimality over arbitrary shifts is conjectural.
    results.append(CheckResult(
        "no off-grid shift beat the optimum (conjecture report)", True,
        f"counterexamples {conjecture_hits}" if conjecture_hits
        else "none found on this grid"))
    piecewise_bad = []
    for l, n in _grid(l_max, n_max, leave=False):
        f = n * (n + 1) * multiplier
        step = f // (n * (n + 1))
        for s in range(0, f, step):
            if cyc.shifted_join_waste_piecewise(n, l, f, s) != \
                    cyc.measured_join_waste(n, l, f, 0, s):
                piecewise_bad.append((n, l, f, s))
    results.append(CheckResult(
        "piecewise shift-waste form matches measurement on the shift grid",
        not piecewise_bad, f"mismatches {piecewise_bad}" if piecewise_bad else ""))
    return results


_HALL_COMBOS = ((3, 2, 6), (4, 2, 12), (4, 3, 12), (5, 2, 20), (5, 3, 20),
                (5, 4, 20), (6, 2, 30), (6, 3, 30), (6, 4, 30), (6, 5, 30),
                (7, 2, 42), (7, 3, 42), (7, 4, 42), (7, 6, 42))


def doubled_block_tas(n_machines: int, n_tasks: int):
    """A valid L=2 allocation engineered to defeat zero-waste leaves.

    Machines 1 and 2 share one identical block, so whenever either leaves its
    twin can absorb nothing; the rest of the pool covers the remaining tasks
    cyclically.
    """
    n, f = n_machines, n_tasks
    load = 2 * f // n
    block = frozenset(range(load))
    rest = sorted(set(range(f)) - block)
    inner = cyc.cyclic_allocation(range(1, n - 1), 2, len(rest))
    sets = [block, block] + [frozenset(rest[t] for t in inner.task_sets[m])
                             for m in inner.machine_ids]
    return TaskAllocation.from_sets(sets, redundancy=2, n_tasks=f)


def perturbed(alloc, rng: random.Random, swaps: int):
    """Apply validity-preserving task swaps between random machine pairs."""
    sets = {m: set(alloc.task_sets[m]) for m in alloc.machine_ids}
    for _ in range(swaps):
        a, b = rng.sample(alloc.machine_ids, 2)
        only_a, only_b = sorted(sets[a] - sets[b]), sorted(sets[b] - sets[a])
        if not only_a or not only_b:
            continue
        t, u = rng.choice(only_a), rng.choice(only_b)
        sets[a].discard(t), sets[a].add(u)
        sets[b].discard(u), sets[b].add(t)
    return TaskAllocation(
        n_machines=alloc.n_machines, redundancy=alloc.redundancy,
        n_tasks=alloc.n_tasks, machine_ids=alloc.machine_ids,
        task_sets={m: frozenset(s) for m, s in sets.items()})


_DEAL_ATTEMPTS = 50


def random_tas(n_machines: int, redundancy: int, n_tasks: int,
               rng: random.Random) -> TaskAllocation:
    """Random column-regular allocation for ``verify hall`` and property tests.

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
    for _ in range(_DEAL_ATTEMPTS):
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
        f"seed state exhausted after {_DEAL_ATTEMPTS} attempts")


def verify_hall(n_samples: int = 200, seed: int = 20240601) -> list[CheckResult]:
    """Flow matcher vs subset-enumeration oracle on seeded random allocations.

    The corpus mixes uniform random allocations with engineered
    doubled-block ones (and perturbations of them) so that both the feasible
    and the infeasible branch of the equivalence are exercised.
    """
    if n_samples < 0:
        raise ValueError(f"hall corpus needs n_samples >= 0, got n_samples={n_samples}")
    rng = random.Random(seed)
    corpus = []
    for i in range(n_samples):
        n, l, f = _HALL_COMBOS[i % len(_HALL_COMBOS)]
        corpus.append(random_tas(n, l, f, rng))
    for n, f in ((4, 12), (6, 30)):
        base = doubled_block_tas(n, f)
        corpus.append(base)
        for swaps in (1, 2, 4, 8):
            corpus.append(perturbed(base, rng, swaps))
    disagreements, all_leavers_bad, bad_witnesses = [], [], []
    feasible_count = infeasible_count = 0
    for i, alloc in enumerate(corpus):
        per_leaver = []
        for leaver in alloc.machine_ids:
            oracle = hall_feasible_for_leaver(alloc, leaver)
            witness = None
            try:
                zero_waste_leave(alloc, leaver)
            except InfeasibleTransitionError as exc:
                witness = exc.witness
            per_leaver.append(oracle.feasible)
            if oracle.feasible != (witness is None):
                disagreements.append((i, leaver))
            if witness is not None:
                # J can absorb a class unless every member of J already holds it.
                graph = build_transition_graph(alloc, leaver)
                absorbable = sum(len(tasks) for holders, tasks in graph.classes.items()
                                 if not set(witness) <= set(holders))
                if absorbable >= graph.delta * len(witness):
                    bad_witnesses.append((i, leaver))
            if oracle.feasible:
                feasible_count += 1
            else:
                infeasible_count += 1
        if hall_feasible_all_leavers(alloc).feasible != all(per_leaver):
            all_leavers_bad.append(i)
    results = [
        CheckResult(
            "matcher existence agrees with subset-enumeration counting condition",
            not disagreements,
            f"{len(corpus)} allocations, seed {seed}, "
            f"{feasible_count} feasible / {infeasible_count} infeasible leaver cases"
            + (f"; disagreements {disagreements}" if disagreements else "")),
        CheckResult(
            "all-leavers intersection bound agrees with the per-leaver conjunction",
            not all_leavers_bad,
            f"seed {seed}" + (f"; mismatches {all_leavers_bad}" if all_leavers_bad else "")),
        CheckResult(
            "every min-cut witness violates the counting condition",
            not bad_witnesses,
            f"seed {seed}" + (f"; bad witnesses {bad_witnesses}" if bad_witnesses else "")),
        CheckResult(
            "corpus exercises both feasible and infeasible leaves",
            feasible_count > 0 and infeasible_count > 0,
            f"{feasible_count} feasible / {infeasible_count} infeasible"),
    ]
    return results


def probe_zero_waste_depth(alloc, floor: int) -> dict[int, tuple[int, int]]:
    """Exhaustively count feasible vs infeasible leaves down to ``floor`` machines.

    Walks every removal sequence, returning {pool size after the leave:
    (feasible, infeasible)}.  Purely empirical; guarantees only hold inside
    the proven range.
    """
    levels: dict[int, list[int]] = {}
    frontier = [alloc]
    while frontier and frontier[0].n_machines > floor:
        grown = []
        for state in frontier:
            for leaver in sorted(state.machine_ids):
                record = levels.setdefault(state.n_machines - 1, [0, 0])
                try:
                    outcome = zero_waste_leave(state, leaver)
                except InfeasibleTransitionError:
                    record[1] += 1
                    continue
                record[0] += 1
                grown.append(outcome.new_alloc)
        frontier = grown
    return {size: tuple(counts) for size, counts in sorted(levels.items())}


def _depth_report(probe: dict[int, tuple[int, int]]) -> str:
    return "; ".join(f"to {size} machines: {ok} feasible / {bad} infeasible"
                     for size, (ok, bad) in probe.items())


def verify_zwr(family: str = "fano") -> list[CheckResult]:
    """Range formulas, the exhaustive Fano-range drill beside the cyclic (7,3)
    root's depth, and the family intersection bound."""
    results = []
    if family in ("fano", "all"):
        fano_range = zero_waste_range(7, 3)
        results.append(CheckResult(
            "(7,3) range is [5,7] with two removable machines",
            (fano_range.n_min, fano_range.n_max, fano_range.removable) == (5, 7, 2),
            f"got [{fano_range.n_min},{fano_range.n_max}] R={fano_range.removable}"))
        results.append(CheckResult(
            "(13,4) range is [9,13] with four removable machines",
            (lambda r: (r.n_min, r.n_max, r.removable) == (9, 13, 4))(zero_waste_range(13, 4)),
            ""))
        f = zwr_task_count(5, 7, 3)
        alloc = tas_from_configuration(fano_plane(), f)
        # One exhaustive walk, one machine below the range, gives both the
        # in-range state count and the below-range report.
        probe = probe_zero_waste_depth(alloc, floor=4)
        built = 1 + sum(ok for size, (ok, _) in probe.items() if size >= 5)
        expected = full_tree_node_count(7, 5)
        results.append(CheckResult(
            "fully expanded Fano transition tree has the predicted node count",
            built == expected, f"F={f}, built {built}, predicted {expected}"))
        trace = ElasticTrace(initial_machines=7, redundancy=3, n_tasks=f,
                             strategy="zero_waste", n_min=5, seed_allocation=alloc)
        pair_bad, join_bad = [], []
        for first, second in itertools.permutations(sorted(alloc.machine_ids), 2):
            runner = TraceRunner(trace)
            w1 = runner.apply(ElasticEvent.leave(first)).waste
            child = runner.allocation
            w2 = runner.apply(ElasticEvent.leave(second)).waste
            if w1 or w2:
                pair_bad.append((first, second, w1, w2))
            if runner.apply(ElasticEvent.join()).waste or runner.allocation is not child:
                join_bad.append((first, second))
        results.append(CheckResult(
            "all 42 ordered leave pairs from the Fano allocation are zero waste",
            not pair_bad, f"violations {pair_bad}" if pair_bad else ""))
        results.append(CheckResult(
            "joins climb back to the parent state at zero waste",
            not join_bad, f"violations {join_bad}" if join_bad else ""))
        # reported, not asserted: how far below the proven floor chains survive
        results.append(CheckResult(
            "below-range survival probe (report only)", True, _depth_report(probe)))
        results.append(CheckResult(
            "cyclic (7,3) root below-range survival probe (report only)", True,
            _depth_report(probe_zero_waste_depth(cyc.cyclic_tas(7, 3, f), floor=4))))
    if family in ("table", "all"):
        intersect_bad = []
        for q in (2, 3, 4, 5):
            for config in (projective_plane(q), truncated_plane_q2(q),
                           truncated_plane_q2_minus_1(q)):
                if not validate_configuration(config).ok:
                    intersect_bad.append(("invalid", q, config.n_points))
                    continue
                f = config.n_points * 2
                tas = tas_from_configuration(config, f)
                limit = f // config.n_points
                worst = max(
                    len(tas.task_sets[a] & tas.task_sets[b])
                    for a in tas.machine_ids for b in tas.machine_ids if a < b)
                if worst > limit:
                    intersect_bad.append((q, config.n_points, worst, limit))
        results.append(CheckResult(
            "configuration allocations keep pairwise intersections within F/n_points",
            not intersect_bad, f"violations {intersect_bad}" if intersect_bad else ""))
    return results


def verify_coded(tolerance: int = 1, seed: int = 7, trials: int = 3) -> list[CheckResult]:
    """Decode exactness under stragglers and trajectory invariance under elasticity."""
    if trials < 1:
        raise ValueError(f"need at least one decode trial, got {trials}")
    rng = np.random.default_rng(seed)
    results = []
    worst = 0.0
    decode_bad = []
    for _ in range(trials):
        matrix = rng.normal(size=(40, 6))
        x = rng.normal(size=6)
        job = encode_job(matrix, x, n_tasks=20, redundancy=3,
                         tolerance=tolerance, n_max=5)
        alloc = cyc.cyclic_tas(5, 3, 20)
        direct = matrix @ x
        for straggler in alloc.machine_ids:
            outcome = execute_round(job, alloc, {straggler})
            if not outcome.recovered:
                decode_bad.append(straggler)
                continue
            err = np.max(np.abs(outcome.product - direct)) / max(np.max(np.abs(direct)), 1e-30)
            worst = max(worst, err)
    results.append(CheckResult(
        "single-straggler decode matches direct multiply within 1e-9",
        not decode_bad and worst < 1e-9,
        f"seed {seed}, worst relative error {worst:.3e}"))
    data = rng.normal(size=(50, 5))
    targets = rng.normal(size=50)
    trace = ElasticTrace(
        initial_machines=5, redundancy=3, n_tasks=20, strategy="cyclic",
        events=(ElasticEvent.leave(3), ElasticEvent.join()), label_policy="reuse")
    coded_run = elastic_linear_regression(
        data, targets, trace, steps=60, learning_rate=0.01,
        tolerance=tolerance, straggler_rng=random.Random(seed))
    plain_run = plain_regression_trajectory(data, targets, steps=60, learning_rate=0.01)
    scale = max(float(np.max(np.abs(plain_run))), 1e-30)
    gap = float(np.max(np.abs(coded_run - plain_run))) / scale
    results.append(CheckResult(
        "elastic coded regression matches the fixed-pool run within 1e-6",
        gap < 1e-6, f"seed {seed}, max relative gap {gap:.3e}"))
    return results


SUITES = {
    "formulas": verify_formulas,
    "hall": verify_hall,
    "zwr": verify_zwr,
    "coded": verify_coded,
}


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown verification scope {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
