"""Transition graphs, Hall conditions, matching, and zero-waste reallocation."""

import itertools
import random
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from etalloc import (
    DeltaMatching,
    DivisibilityError,
    ElasticEvent,
    ElasticTrace,
    InfeasibleTransitionError,
    TaskAllocation,
    TransitionGraph,
    best_effort_leave,
    build_transition_graph,
    cyclic_allocation,
    cyclic_tas,
    fano_plane,
    find_delta_matching,
    hall_feasible_all_leavers,
    hall_feasible_for_leaver,
    holder_classes,
    necessary_load_change,
    projective_plane,
    run_trace,
    tas_from_configuration,
    transition_waste,
    validate_tas,
    zero_waste_join,
    zero_waste_leave,
)
from etalloc.checks import doubled_block_tas, perturbed, random_tas
from etalloc import core, zero_waste

from oracles import (
    best_effort_leave_cold,
    find_delta_matching_per_task,
    hall_feasible_all_leavers_enumerated,
    holder_classes_by_membership,
    neighbors_by_difference,
)

FIG1A = cyclic_tas(5, 3, 20)
DOUBLED = doubled_block_tas(4, 12)


def _two_machine_cut():
    """Leaver 9 and survivors 8 and 2 share 15 tasks, so 8 and 2 can absorb only
    the leaver's 3 others: delta = 3 for either alone, too few for both."""
    sets = [set(range(15)) | set(range(t, t + 3)) for t in (15, 18, 21)]
    sets += [set(range(24, 42)) for _ in range(4)]
    pairs = [(3, 4), (3, 5), (3, 5), (3, 6), (3, 6), (4, 5), (4, 5), (4, 6), (4, 6)]
    for t, pair in enumerate(pairs, start=15):
        for m in pair:
            sets[m].add(t)
    for t, m in zip(range(24, 42), [3] * 5 + [4] * 5 + [5] * 4 + [6] * 4):
        sets[m].discard(t)
    return TaskAllocation.from_sets([frozenset(s) for s in sets], 3, 42,
                                    machine_ids=[9, 8, 2, 7, 6, 5, 4])


TWO_MACHINE_CUT = _two_machine_cut()


class TestZeroWasteJoin:
    def test_three_machine_donation(self):
        outcome = zero_waste_join(cyclic_tas(3, 2, 12), new_machine=4)
        assert outcome.total_waste == 0
        new = outcome.new_alloc
        assert validate_tas(new).ok
        assert new.task_sets[4] == frozenset(range(6))
        # lowest-first donations in ascending machine order
        assert new.task_sets[1] == frozenset(range(2, 8))

    def test_full_replication_join(self):
        outcome = zero_waste_join(cyclic_tas(2, 2, 6), new_machine=3)
        assert outcome.total_waste == 0
        assert len(outcome.new_alloc.task_sets[3]) == 4

    def test_every_existing_set_shrinks(self):
        old = cyclic_tas(5, 2, 30)
        new = zero_waste_join(old, 6).new_alloc
        for m in old.machine_ids:
            assert new.task_sets[m] <= old.task_sets[m]

    def test_divisibility_guard(self):
        with pytest.raises(DivisibilityError):
            zero_waste_join(cyclic_tas(3, 2, 9), 4)

    def test_label_collision_rejected(self):
        with pytest.raises(ValueError):
            zero_waste_join(cyclic_tas(3, 2, 12), new_machine=2)


class TestTransitionGraph:
    def test_graph_for_machine_five_leaving(self):
        graph = build_transition_graph(FIG1A, 5)
        assert graph.delta == 3
        assert graph.right == tuple(sorted({0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19}))
        assert graph.neighbors[1] == frozenset({16, 17, 18, 19})
        assert graph.neighbors[2] == frozenset({0, 1, 2, 3, 16, 17, 18, 19})
        assert graph.neighbors[3] == frozenset({0, 1, 2, 3, 4, 5, 6, 7})
        assert graph.neighbors[4] == frozenset({4, 5, 6, 7})

    def test_full_replication_has_no_edges(self):
        graph = build_transition_graph(cyclic_tas(4, 4, 12), 1)
        assert all(not nbrs for nbrs in graph.neighbors.values())
        assert graph.delta == 4

    @pytest.mark.parametrize("call", [
        build_transition_graph, zero_waste_leave, hall_feasible_for_leaver,
        lambda alloc, _: hall_feasible_all_leavers(alloc), best_effort_leave,
        lambda alloc, _: zero_waste_join(alloc, 5),
    ], ids=["build_transition_graph", "zero_waste_leave", "hall_feasible_for_leaver",
            "hall_feasible_all_leavers", "best_effort_leave", "zero_waste_join"])
    def test_fractional_intake_raises(self, call):
        # (4,2,8): neither the leave intake 16/12 nor the join share 16/20 is
        # an integer, so no balanced 3- or 5-machine allocation exists
        with pytest.raises(DivisibilityError):
            call(cyclic_tas(4, 2, 8), 1)

    def test_unknown_leaver(self):
        with pytest.raises(ValueError):
            build_transition_graph(FIG1A, 9)


class TestHallPerLeaver:
    def test_feasible_for_machine_five(self):
        assert hall_feasible_for_leaver(FIG1A, 5).feasible

    def test_doubled_block_infeasible_with_witness(self):
        result = hall_feasible_for_leaver(DOUBLED, 1)
        assert not result.feasible
        graph = build_transition_graph(DOUBLED, 1)
        absorbable = frozenset().union(*(graph.neighbors[u] for u in result.witness))
        assert len(absorbable) < len(result.witness) * graph.delta

    def test_two_machine_cut_witness_is_in_label_order(self):
        with pytest.raises(InfeasibleTransitionError) as excinfo:
            zero_waste_leave(TWO_MACHINE_CUT, 9)
        error = excinfo.value
        assert error.witness == (2, 8) == hall_feasible_for_leaver(TWO_MACHINE_CUT, 9).witness
        assert str(error) == ("no zero-waste transition when machine 9 leaves; "
                              "violating machine subset: [2, 8]")
        assert error.event_index is None

    def test_no_error_for_a_feasible_leave(self):
        for leaver in FIG1A.machine_ids:
            assert zero_waste_leave(FIG1A, leaver).total_waste == 0

    def test_cyclic_sweep_is_feasible(self):
        for l in (2, 3):
            for n in range(l + 2, 7):
                f = n * (n - 1)
                alloc = cyclic_tas(n, l, f)
                for leaver in alloc.machine_ids:
                    assert hall_feasible_for_leaver(alloc, leaver).feasible

    def test_fractional_intake_rejected(self):
        with pytest.raises(DivisibilityError):
            hall_feasible_for_leaver(cyclic_tas(4, 2, 8), 1)


class TestHallAllLeavers:
    def test_fano_allocation_passes(self):
        alloc = tas_from_configuration(fano_plane(), 42)
        assert hall_feasible_all_leavers(alloc).feasible

    def test_doubled_block_fails_with_intersection_witness(self):
        result = hall_feasible_all_leavers(DOUBLED)
        assert not result.feasible
        common = frozenset.intersection(*(DOUBLED.task_sets[m] for m in result.witness))
        delta = 2 * 12 // (4 * 3)
        assert len(common) > (4 - len(result.witness)) * delta

    def test_projective_q7_certificate(self):
        # N=57, L=8: the full C(57, 2..8) enumeration does not finish in minutes.
        # Two lines share one point's tasks, within the pair bound, so no
        # larger set is counted.
        alloc = tas_from_configuration(projective_plane(7), 399)
        with mock.patch.object(zero_waste, "_first_violating_subset", side_effect=AssertionError):
            assert hall_feasible_all_leavers(alloc).feasible

    def test_pairs_within_their_own_bound_do_not_clear_a_violating_triple(self):
        # N=6, L=3, F=20, delta=2.  Every pair shares at most (N-2)*delta = 8
        # tasks, yet {1,2,3} and {4,5,6} share 7 > (N-3)*delta = 6: only pairs
        # within (N-L)*delta = 6 may skip counting the larger sets.
        holder_counts = {(1, 2, 3): 7, (4, 5, 6): 7, (1, 2, 4): 1, (1, 3, 5): 1,
                         (2, 3, 6): 1, (1, 5, 6): 1, (2, 4, 5): 1, (3, 4, 6): 1}
        holders = [h for h, count in holder_counts.items() for _ in range(count)]
        sets = [frozenset(t for t, h in enumerate(holders) if m in h) for m in range(1, 7)]
        alloc = TaskAllocation.from_sets(sets, redundancy=3, n_tasks=20)
        result = hall_feasible_all_leavers(alloc)
        assert not result.feasible and result.witness == (1, 2, 3)
        assert result == hall_feasible_all_leavers_enumerated(alloc)

    def test_singletons_meet_the_bound_with_equality(self):
        n, l, f = 5, 3, 20
        alloc = cyclic_tas(n, l, f)
        delta = l * f // (n * (n - 1))
        for m in alloc.machine_ids:
            assert len(alloc.task_sets[m]) == (n - 1) * delta


class TestDeltaMatching:
    def test_matching_for_machine_five_is_valid(self):
        graph = build_transition_graph(FIG1A, 5)
        matching = find_delta_matching(graph)
        matching.check(graph)
        assert len(matching.assignment) == 12

    def test_published_matching_is_also_a_valid_witness(self):
        graph = build_transition_graph(FIG1A, 5)
        witness = DeltaMatching(assignment={
            17: 1, 18: 1, 19: 1, 2: 2, 3: 2, 16: 2,
            0: 3, 1: 3, 7: 3, 4: 4, 5: 4, 6: 4}, delta=3)
        witness.check(graph)

    def test_check_rejects_a_task_its_machine_already_holds(self):
        graph = build_transition_graph(FIG1A, 5)
        published = {17: 1, 18: 1, 19: 1, 2: 2, 3: 2, 16: 2,
                     0: 3, 1: 3, 7: 3, 4: 4, 5: 4, 6: 4}
        # Machine 1 already holds task 0; task 17 is one machine 2 could take.
        held = {**published, 0: 1, 17: 2}
        with pytest.raises(ValueError, match=r"pair \(machine 1, task 0\) is not an edge"):
            DeltaMatching(assignment=held, delta=3).check(graph)
        with pytest.raises(ValueError, match="is not an edge"):
            DeltaMatching(assignment={**published, 0: 5}, delta=3).check(graph)

    def test_empty_task_side_gives_empty_matching(self):
        graph = TransitionGraph(leaver=9, left=(1, 2), right=(), classes={}, delta=0)
        matching = find_delta_matching(graph)
        assert matching.assignment == {}
        matching.check(graph)

    def test_empty_task_side_with_positive_intake_has_no_matching(self):
        # Two survivors that must take three tasks each from a leaver holding none.
        graph = TransitionGraph(leaver=9, left=(1, 2), right=(), classes={}, delta=3)
        assert find_delta_matching(graph) is None
        assert find_delta_matching_per_task(graph) is None

    def test_isolated_task_vertex_is_infeasible(self):
        # Task 0 is held by neither survivor, task 1 by both.
        graph = TransitionGraph(leaver=9, left=(1, 2), right=(0, 1),
                                classes={(): (0,), (1, 2): (1,)}, delta=1)
        assert graph.neighbors == {1: frozenset({0}), 2: frozenset({0})}
        assert find_delta_matching(graph) is None

    def test_determinism(self):
        graph = build_transition_graph(FIG1A, 5)
        first = find_delta_matching(graph)
        second = find_delta_matching(graph)
        assert first.assignment == second.assignment

    @pytest.mark.parametrize("capacity", [2**80, 2**200])
    def test_flow_above_2_to_the_60_is_pushed_whole(self, capacity):
        # Pushing at most 2**60 units per search would take 2**20 searches at
        # 2**80, and 2**140 at 2**200.
        net = zero_waste._ResidualNetwork(3)
        net.add_edge(0, 1, capacity)
        net.add_edge(1, 2, capacity)
        start = time.perf_counter()
        assert net.max_flow(0, 2) == capacity
        assert time.perf_counter() - start < 0.5


class TestZeroWasteLeave:
    def test_machine_five_leaves_fig1a(self):
        outcome = zero_waste_leave(FIG1A, 5)
        assert outcome.total_waste == 0
        assert validate_tas(outcome.new_alloc).ok
        for m in outcome.new_alloc.machine_ids:
            assert FIG1A.task_sets[m] <= outcome.new_alloc.task_sets[m]

    def test_fano_allocation_any_leaver(self):
        alloc = tas_from_configuration(fano_plane(), 420)
        for leaver in alloc.machine_ids:
            outcome = zero_waste_leave(alloc, leaver)
            assert outcome is not None and outcome.total_waste == 0

    def test_doubled_block_is_infeasible(self):
        with pytest.raises(InfeasibleTransitionError) as excinfo:
            zero_waste_leave(DOUBLED, 1)
        assert excinfo.value.witness == (2,)

    def test_divisibility_guard(self):
        with pytest.raises(DivisibilityError):
            zero_waste_leave(cyclic_tas(4, 2, 8), 1)


class TestMatcherOracleEquivalence:
    def test_random_corpus(self):
        rng = random.Random(987)
        combos = ((4, 2, 12), (5, 3, 20), (5, 2, 20), (6, 3, 30), (7, 3, 42),
                  (6, 4, 30), (7, 6, 42))
        corpus = [random_tas(n, l, f, rng) for _ in range(9)
                  for (n, l, f) in combos]
        corpus.append(DOUBLED)
        corpus.extend(perturbed(DOUBLED, rng, k) for k in (1, 3, 5))
        corpus.append(doubled_block_tas(6, 30))
        feasible = infeasible = 0
        for alloc in corpus:
            verdicts = []
            for leaver in alloc.machine_ids:
                oracle = hall_feasible_for_leaver(alloc, leaver).feasible
                flow = find_delta_matching(build_transition_graph(alloc, leaver))
                assert oracle == (flow is not None)
                verdicts.append(oracle)
                feasible += oracle
                infeasible += not oracle
            assert hall_feasible_all_leavers(alloc).feasible == all(verdicts)
        assert feasible and infeasible


RANDOM_SHAPES = ((4, 2, 12), (5, 2, 20), (5, 3, 20), (6, 3, 30), (6, 4, 30),
                 (7, 3, 42), (7, 6, 42))
DOUBLED_SHAPES = ((4, 12), (5, 20), (6, 30), (7, 42))


@st.composite
def pools(draw):
    """Seeded random or doubled-block pools under shuffled labels, perhaps perturbed.

    The labels are shuffled so that witnesses are not always the block's (1, 2).
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        alloc = random_tas(*draw(st.sampled_from(RANDOM_SHAPES)), rng)
    else:
        alloc = doubled_block_tas(*draw(st.sampled_from(DOUBLED_SHAPES)))
    labels = rng.sample(range(1, 3 * alloc.n_machines), alloc.n_machines)
    alloc = TaskAllocation.from_sets([alloc.task_sets[m] for m in alloc.machine_ids],
                                     alloc.redundancy, alloc.n_tasks, machine_ids=labels)
    swaps = draw(st.integers(0, 8))
    return perturbed(alloc, rng, swaps) if swaps else alloc


class TestClassSolversMatchOracles:
    @given(pools())
    def test_graph_intake_is_the_necessary_load_change(self, alloc):
        n, l, f = alloc.n_machines, alloc.redundancy, alloc.n_tasks
        for leaver in alloc.machine_ids:
            graph = build_transition_graph(alloc, leaver)
            assert graph.delta == necessary_load_change(n, n - 1, l, f)
            assert graph.delta * (n - 1) == len(graph.right)

    @given(pools())
    def test_delta_matching_verdicts_and_validity(self, alloc):
        for leaver in alloc.machine_ids:
            graph = build_transition_graph(alloc, leaver)
            matching = find_delta_matching(graph)
            oracle = find_delta_matching_per_task(graph)
            assert (matching is None) == (oracle is None)
            assert (matching is not None) == hall_feasible_for_leaver(alloc, leaver).feasible
            if matching is not None:
                matching.check(graph)

    @given(pools())
    def test_cut_witness_violates_the_counting_condition(self, alloc):
        for leaver in alloc.machine_ids:
            try:
                zero_waste_leave(alloc, leaver)
            except InfeasibleTransitionError as exc:
                witness = exc.witness
            else:
                continue
            graph = build_transition_graph(alloc, leaver)
            assert witness and list(witness) == sorted(set(witness))
            assert set(witness) <= set(graph.left)
            absorbable = frozenset().union(*(graph.neighbors[u] for u in witness))
            assert len(absorbable) < graph.delta * len(witness)
            assert not hall_feasible_for_leaver(alloc, leaver).feasible

    @given(pools())
    @example(TWO_MACHINE_CUT)  # pools() witnesses are single machines
    def test_leave_raises_exactly_when_hall_fails_with_one_witness(self, alloc):
        n = alloc.n_machines
        for leaver in alloc.machine_ids:
            feasible = hall_feasible_for_leaver(alloc, leaver).feasible
            try:
                zero_waste_leave(alloc, leaver)
            except InfeasibleTransitionError as exc:
                witness = exc.witness
            else:
                assert feasible
                continue
            assert not feasible
            trace = ElasticTrace(n, alloc.redundancy, alloc.n_tasks, strategy="zero_waste",
                                 seed_allocation=alloc, events=(ElasticEvent.leave(leaver),))
            with pytest.raises(InfeasibleTransitionError) as traced:
                run_trace(trace)
            assert traced.value.witness == witness and traced.value.event_index == 0

    def test_all_leavers_certificate_gives_the_oracle_witness(self):
        # Count which pools the pair bound settles and which need every subset
        # counted, so that the corpus is known to run both.
        exits = Counter()
        enumerate_subsets = zero_waste._first_violating_subset

        def counted(*args):
            exits["subsets"] += 1
            return enumerate_subsets(*args)

        @given(pools())
        def check(alloc):
            before = exits["subsets"]
            assert hall_feasible_all_leavers(alloc) == hall_feasible_all_leavers_enumerated(alloc)
            if exits["subsets"] == before:
                exits["pairs"] += 1

        with mock.patch.object(zero_waste, "_first_violating_subset", counted):
            check()
        assert exits["pairs"] > 0 and exits["subsets"] > 0

    @given(pools(), st.data())
    def test_warm_started_fallback_reaches_the_minimum(self, alloc, data):
        leaver = data.draw(st.sampled_from(alloc.machine_ids))
        outcome = best_effort_leave(alloc, leaver)
        assert validate_tas(outcome.new_alloc).ok
        assert outcome.total_waste == best_effort_leave_cold(alloc, leaver).total_waste


def rebuilt(alloc):
    """The same allocation through the public, normalising constructor."""
    return TaskAllocation(alloc.n_machines, alloc.redundancy, alloc.n_tasks,
                          alloc.machine_ids, dict(alloc.task_sets))


def assert_same_as_public(alloc):
    assert alloc == rebuilt(alloc)
    assert tuple(alloc.task_sets) == alloc.machine_ids
    assert all(type(t) is int for m in alloc.machine_ids for t in alloc.task_sets[m])


class TestDerivedAllocations:
    """Producers build through the private constructor; the result must not differ."""

    @given(st.integers(1, 7), st.data())
    def test_cyclic_allocation(self, n, data):
        l = data.draw(st.integers(1, n))
        f = n * data.draw(st.integers(1, 6))
        labels = data.draw(st.permutations(range(1, n + 3)))[:n]
        shift = data.draw(st.integers(-2 * f, 2 * f))
        assert_same_as_public(cyclic_allocation(labels, l, f, shift))

    @given(pools(), st.data())
    def test_zero_waste_and_fallback_leaves(self, alloc, data):
        leaver = data.draw(st.sampled_from(alloc.machine_ids))
        assert_same_as_public(best_effort_leave(alloc, leaver).new_alloc)
        if (alloc.redundancy * alloc.n_tasks) % (alloc.n_machines * (alloc.n_machines - 1)):
            return
        try:
            outcome = zero_waste_leave(alloc, leaver)
        except InfeasibleTransitionError:
            return
        assert_same_as_public(outcome.new_alloc)

    @pytest.mark.parametrize("alloc", [FIG1A, tas_from_configuration(fano_plane(), 56),
                                       cyclic_allocation([4, 2, 9], 2, 12)])
    def test_zero_waste_join(self, alloc):
        assert_same_as_public(zero_waste_join(alloc, max(alloc.machine_ids) + 1).new_alloc)


class TestBestEffortLeave:
    def oracle_min_waste(self, alloc, leaver):
        """Exhaustive minimum over all successor allocations, for L=2, N=4 only:
        the complement sets of a valid (3,2,F)-TAS partition the tasks."""
        survivors = [m for m in alloc.machine_ids if m != leaver]
        f = alloc.n_tasks
        miss = f - 2 * f // 3
        best = None
        tasks = range(f)
        for a in itertools.combinations(tasks, miss):
            rest = [t for t in tasks if t not in a]
            for b in itertools.combinations(rest, miss):
                c = frozenset(rest) - frozenset(b)
                sets = [frozenset(tasks) - frozenset(a),
                        frozenset(tasks) - frozenset(b),
                        frozenset(tasks) - c]
                new = TaskAllocation.from_sets(sets, 2, f, machine_ids=survivors)
                waste = transition_waste(alloc, new, leaver=leaver).total_waste
                best = waste if best is None else min(best, waste)
        return best

    def test_matches_exhaustive_minimum(self):
        outcome = best_effort_leave(DOUBLED, 1)
        assert validate_tas(outcome.new_alloc).ok
        assert outcome.total_waste == self.oracle_min_waste(DOUBLED, 1)

    def test_is_zero_when_zero_waste_exists(self):
        assert best_effort_leave(FIG1A, 5).total_waste == 0

    def test_guards(self):
        with pytest.raises(ValueError):
            best_effort_leave(cyclic_tas(3, 3, 6), 1)


class TestHolderClassIndex:
    @given(pools())
    def test_classes_equal_the_membership_oracle_in_order(self, alloc):
        assert list(holder_classes(alloc).items()) == list(
            holder_classes_by_membership(alloc).items())

    @given(pools())
    def test_neighbors_equal_the_set_differences(self, alloc):
        for leaver in alloc.machine_ids:
            graph = build_transition_graph(alloc, leaver)
            assert graph.neighbors == neighbors_by_difference(alloc, leaver)

    def test_certificate_then_leaves_build_the_index_once_per_allocation(self):
        builds = Counter()
        group = core._group_by_holders

        def counted(alloc):
            builds[id(alloc)] += 1
            return group(alloc)

        pool = tas_from_configuration(fano_plane(), 420)
        with mock.patch.object(core, "_group_by_holders", counted):
            assert hall_feasible_all_leavers(pool).feasible
            first = zero_waste_leave(pool, 1)
            again = zero_waste_leave(pool, 2)
            second = zero_waste_leave(first.new_alloc, 3)
        assert first and again and second
        assert builds == {id(pool): 1, id(first.new_alloc): 1}

    def test_engine_zero_waste_leaves_never_derive_neighbors(self):
        reads = Counter()
        derive = TransitionGraph.__dict__["neighbors"].func

        def counted(graph):
            reads["neighbors"] += 1
            return derive(graph)

        fano = tas_from_configuration(fano_plane(), 420)
        feasible = ElasticTrace(7, 3, 420, strategy="zero_waste", seed_allocation=fano,
                                events=(ElasticEvent.leave(3), ElasticEvent.leave(5),
                                        ElasticEvent.join(), ElasticEvent.leave(1)))
        fallback = ElasticTrace(4, 2, 12, strategy="zero_waste_with_fallback",
                                seed_allocation=DOUBLED, events=(ElasticEvent.leave(1),))
        with mock.patch.object(TransitionGraph, "neighbors", property(counted)):
            assert run_trace(feasible).cumulative_waste == 0
            assert run_trace(fallback).infeasible_count == 1
            assert not reads
            build_transition_graph(fano, 1).neighbors
        assert reads["neighbors"] == 1


class TestRandomTas:
    def test_deterministic_and_valid(self):
        a = random_tas(6, 3, 30, random.Random(5))
        b = random_tas(6, 3, 30, random.Random(5))
        assert a == b
        assert validate_tas(a).ok

    def test_dense_parameters(self):
        assert validate_tas(random_tas(7, 6, 42, random.Random(1))).ok
        assert validate_tas(random_tas(5, 3, 20, random.Random(2))).ok

    def test_full_replication_shape(self):
        alloc = random_tas(3, 3, 6, random.Random(0))
        assert all(alloc.task_sets[m] == frozenset(range(6))
                   for m in alloc.machine_ids)
