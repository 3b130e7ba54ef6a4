"""Acceptance criteria, one test per criterion, each printing its verdict.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every expected value is pinned here; tolerances and runtime budgets
are asserted, not just reported.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from etalloc import (
    DeltaMatching,
    ElasticEvent,
    ElasticTrace,
    TaskAllocation,
    TraceRunner,
    build_transition_graph,
    cyclic_join_waste_closed_form,
    cyclic_leave_waste_average,
    cyclic_leave_waste_closed_form,
    cyclic_tas,
    cyclic_tas_after_leave,
    elastic_linear_regression,
    encode_job,
    execute_round,
    fano_plane,
    find_delta_matching,
    full_tree_node_count,
    hall_feasible_all_leavers,
    hall_feasible_for_leaver,
    measured_join_waste,
    measured_leave_waste,
    optimal_shift_join,
    optimal_shift_leave,
    plain_regression_trajectory,
    projective_plane,
    tas_from_configuration,
    transition_waste,
    truncated_plane_q2,
    truncated_plane_q2_minus_1,
    validate_tas,
    zero_waste_range,
)
from etalloc.checks import doubled_block_tas, perturbed, probe_zero_waste_depth, random_tas


class _Stopwatch:
    def __init__(self, name, limit_seconds=None):
        self.name = name
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.start
        within = self.limit is None or elapsed < self.limit
        verdict = "PASS" if exc_type is None and within else "FAIL"
        budget = f", budget {self.limit:.0f}s" if self.limit else ""
        print(f"{verdict} {self.name} ({elapsed:.2f}s{budget})")
        if exc_type is None:
            assert within, f"{self.name} exceeded {self.limit}s"
        return False


def test_criterion_1_single_leave_reproduction():
    with _Stopwatch("criterion 1: five-to-four leave (cyclic 12 / shifted 0 / matching)",
                    limit_seconds=1.0):
        old = cyclic_tas(5, 3, 20)
        assert transition_waste(
            old, cyclic_tas_after_leave(5, 3, 20, 5), leaver=5).total_waste == 12
        assert transition_waste(
            old, cyclic_tas_after_leave(5, 3, 20, 5, shift=17), leaver=5).total_waste == 0
        graph = build_transition_graph(old, 5)
        matching = find_delta_matching(graph)
        assert isinstance(matching, DeltaMatching) and matching.delta == 3
        matching.check(graph)


def test_criterion_2_three_to_four_join_costs_six():
    with _Stopwatch("criterion 2: (3,2,6) to (4,2,6) join waste is 6"):
        old = TaskAllocation.from_sets(
            [{0, 1, 2, 3}, {2, 3, 4, 5}, {4, 5, 0, 1}], redundancy=2, n_tasks=6)
        new = TaskAllocation.from_sets(
            [{0, 1, 2}, {0, 1, 2}, {3, 4, 5}, {3, 4, 5}], redundancy=2, n_tasks=6)
        assert transition_waste(old, new).total_waste == 6


def test_criterion_3_closed_forms_equal_measurement_on_grid():
    with _Stopwatch("criterion 3: closed forms equal set-arithmetic wastes on the grid",
                    limit_seconds=30.0):
        for l in range(2, 6):
            for n in range(l + 1, 9):
                f = n * (n + 1)
                assert cyclic_join_waste_closed_form(n, l, f) == \
                    measured_join_waste(n, l, f)
                params, predicted = optimal_shift_join(n, l, f)
                assert measured_join_waste(n, l, f, 0, params.shift) == predicted
            for n in range(l + 2, 9):
                f = n * (n - 1)
                measured = [measured_leave_waste(n, l, f, pos)
                            for pos in range(1, n + 1)]
                assert [cyclic_leave_waste_closed_form(n, l, f, pos)
                        for pos in range(1, n + 1)] == measured
                assert cyclic_leave_waste_average(n, l, f) == \
                    Fraction(sum(measured), n)
                for pos in range(1, n + 1):
                    params, predicted = optimal_shift_leave(n, l, f, 0, pos)
                    assert measured_leave_waste(n, l, f, pos, 0, params.shift) == \
                        predicted


def test_criterion_4_shift_optimality_sweeps():
    with _Stopwatch("criterion 4: recommended shifts minimize the exhaustive sweeps",
                    limit_seconds=120.0):
        conjecture_hits = []
        for l in range(2, 6):
            for n in range(l + 1, 9):
                f = n * (n + 1)
                step = f // (n * (n + 1))
                _, predicted = optimal_shift_join(n, l, f)
                on_grid = min(measured_join_waste(n, l, f, 0, s)
                              for s in range(0, f, step))
                assert on_grid == predicted, (l, n, "join")
                everywhere = min(measured_join_waste(n, l, f, 0, s)
                                 for s in range(f))
                if everywhere < predicted:
                    conjecture_hits.append(("join", l, n, everywhere, predicted))
            for n in range(l + 2, 9):
                f = n * (n - 1)
                step = f // (n * (n - 1))
                for pos in range(1, n + 1):
                    _, predicted = optimal_shift_leave(n, l, f, 0, pos)
                    on_grid = min(measured_leave_waste(n, l, f, pos, 0, s)
                                  for s in range(0, f, step))
                    assert on_grid == predicted, (l, n, pos, "leave")
                    everywhere = min(measured_leave_waste(n, l, f, pos, 0, s)
                                     for s in range(f))
                    if everywhere < predicted:
                        conjecture_hits.append(("leave", l, n, pos,
                                                everywhere, predicted))
        # conjectural beyond the aligned grid: flagged loudly, never asserted
        flag = "FLAGGED " if conjecture_hits else ""
        print(f"  {flag}full-sweep counterexamples: {conjecture_hits or 'none'}")


def test_criterion_5_hall_matching_equivalence():
    with _Stopwatch("criterion 5: matcher and counting conditions agree on 210 "
                    "seeded allocations"):
        rng = random.Random(20240601)
        combos = ((3, 2, 6), (4, 2, 12), (4, 3, 12), (5, 2, 20), (5, 3, 20),
                  (5, 4, 20), (6, 2, 30), (6, 3, 30), (6, 4, 30), (6, 5, 30),
                  (7, 2, 42), (7, 3, 42), (7, 4, 42), (7, 6, 42))
        corpus = [random_tas(*combos[i % len(combos)], rng=rng) for i in range(200)]
        for n, f in ((4, 12), (6, 30)):
            base = doubled_block_tas(n, f)
            corpus.append(base)
            corpus.extend(perturbed(base, rng, swaps) for swaps in (1, 2, 4, 8))
        assert len(corpus) >= 200
        feasible = infeasible = 0
        for alloc in corpus:
            assert alloc.n_machines <= 7 and alloc.n_tasks <= 42
            per_leaver = []
            for leaver in alloc.machine_ids:
                oracle = hall_feasible_for_leaver(alloc, leaver).feasible
                matched = find_delta_matching(build_transition_graph(alloc, leaver))
                assert oracle == (matched is not None), (alloc, leaver)
                per_leaver.append(oracle)
                feasible += oracle
                infeasible += not oracle
            assert hall_feasible_all_leavers(alloc).feasible == all(per_leaver)
        print(f"  {feasible} feasible / {infeasible} infeasible leaver cases, "
              "zero disagreements")
        assert feasible > 0 and infeasible > 0


def test_criterion_6_zero_waste_range_reproduction():
    with _Stopwatch("criterion 6: ranges [5,7]/[9,13] and the exhaustive Fano drill",
                    limit_seconds=60.0):
        fano_range = zero_waste_range(7, 3)
        assert (fano_range.removable, fano_range.n_min, fano_range.n_max) == (2, 5, 7)
        wide = zero_waste_range(13, 4)
        assert (wide.removable, wide.n_min, wide.n_max) == (4, 9, 13)
        alloc = tas_from_configuration(fano_plane(), 420)
        # every zero-waste state down to n_min: 1 + 7 + 42 = 50
        assert probe_zero_waste_depth(alloc, floor=5) == {6: (7, 0), 5: (42, 0)}
        assert full_tree_node_count(7, 5) == 50
        trace = ElasticTrace(7, 3, 420, strategy="zero_waste", n_min=5, seed_allocation=alloc)
        ordered_pairs = 0
        for first, second in itertools.permutations(sorted(alloc.machine_ids), 2):
            runner = TraceRunner(trace)
            assert runner.apply(ElasticEvent.leave(first)).waste == 0
            child = runner.allocation
            assert runner.apply(ElasticEvent.leave(second)).waste == 0
            ordered_pairs += 1
            assert runner.apply(ElasticEvent.join()).waste == 0
            assert runner.allocation is child
            assert runner.apply(ElasticEvent.join()).waste == 0
            assert runner.allocation is alloc
        assert ordered_pairs == 42


def test_criterion_7_configuration_allocations():
    with _Stopwatch("criterion 7: exact Fano embedding and intersection bounds"):
        alloc = tas_from_configuration(fano_plane(), 14)
        assert [set(alloc.task_sets[m]) for m in alloc.machine_ids] == [
            {0, 1, 2, 3, 4, 5},
            {0, 1, 6, 7, 8, 9},
            {0, 1, 10, 11, 12, 13},
            {2, 3, 6, 7, 10, 11},
            {2, 3, 8, 9, 12, 13},
            {4, 5, 8, 9, 10, 11},
            {4, 5, 6, 7, 12, 13},
        ]
        for q in (2, 3, 4, 5):
            for config in (projective_plane(q), truncated_plane_q2(q),
                           truncated_plane_q2_minus_1(q)):
                f = 2 * config.n_points
                tas = tas_from_configuration(config, f)
                assert validate_tas(tas).ok
                bound = f // config.n_points
                for a, b in itertools.combinations(tas.machine_ids, 2):
                    assert len(tas.task_sets[a] & tas.task_sets[b]) <= bound


def test_criterion_8_coded_demo():
    with _Stopwatch("criterion 8: coded decode at 1e-9 and elastic regression at 1e-6"):
        rng = np.random.default_rng(2024)
        matrix = rng.normal(size=(40, 6))
        x = rng.normal(size=6)
        job = encode_job(matrix, x, n_tasks=20, redundancy=3, tolerance=1, n_max=5)
        alloc = cyclic_tas(5, 3, 20)
        direct = matrix @ x
        for straggler in alloc.machine_ids:
            outcome = execute_round(job, alloc, {straggler})
            assert outcome.recovered
            rel = np.max(np.abs(outcome.product - direct)) / np.max(np.abs(direct))
            assert rel < 1e-9
        data = rng.normal(size=(50, 5))
        targets = data @ rng.normal(size=5) + 0.05 * rng.normal(size=50)
        trace = ElasticTrace(
            initial_machines=5, redundancy=3, n_tasks=20, label_policy="reuse",
            events=(ElasticEvent.leave(2), ElasticEvent.join()))
        coded = elastic_linear_regression(
            data, targets, trace, steps=100, learning_rate=0.01,
            tolerance=1, straggler_rng=random.Random(5))
        plain = plain_regression_trajectory(data, targets, 100, 0.01)
        gap = np.max(np.abs(coded - plain)) / np.max(np.abs(plain))
        assert gap < 1e-6
