"""Allocation validation, holder classes, and the waste metric."""

import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from etalloc import (
    AllocationError,
    DivisibilityError,
    TaskAllocation,
    cyclic_allocation,
    cyclic_tas,
    cyclic_tas_after_leave,
    holder_classes,
    mod_interval,
    necessary_load_change,
    tas_from_document,
    tas_from_json,
    tas_to_document,
    tas_to_json,
    transition_waste,
    validate_tas,
)
from etalloc.checks import perturbed, random_tas
from etalloc.core import require_valid

from oracles import mod_interval_per_element, validate_tas_per_element

EXAMPLE_326 = TaskAllocation.from_sets(
    [{0, 1, 2, 3}, {2, 3, 4, 5}, {4, 5, 0, 1}], redundancy=2, n_tasks=6)


def coverage_tally(alloc):
    counts = [0] * alloc.n_tasks
    for m in alloc.machine_ids:
        for t in alloc.task_sets[m]:
            counts[t] += 1
    return counts


class TestModInterval:
    def test_plain(self):
        assert mod_interval(2, 5, 10) == frozenset({2, 3, 4, 5})

    def test_wraparound(self):
        assert mod_interval(17, 21, 20) == frozenset({17, 18, 19, 0, 1})

    def test_capped_at_full_circle(self):
        assert mod_interval(3, 99, 6) == frozenset(range(6))

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            mod_interval(0, 1, 0)

    @given(st.integers(-200, 200), st.integers(1, 40), st.data())
    def test_matches_per_element_oracle(self, start, modulus, data):
        end = data.draw(st.integers(start - 1, start + 2 * modulus))
        assert mod_interval(start, end, modulus) == mod_interval_per_element(
            start, end, modulus)


class TestValidate:
    def test_given_326_allocation_is_valid(self):
        assert validate_tas(EXAMPLE_326).ok

    def test_full_replication_is_valid(self):
        alloc = TaskAllocation.from_sets([{0, 1}, {0, 1}], redundancy=2, n_tasks=2)
        assert validate_tas(alloc).ok

    def test_uneven_coverage_is_named(self):
        alloc = TaskAllocation.from_sets(
            [{0, 1, 2, 3}, {2, 3, 4, 5}, {4, 5, 0, 2}], redundancy=2, n_tasks=6)
        tally = coverage_tally(alloc)
        assert tally[1] == 1 and tally[2] == 3
        report = validate_tas(alloc)
        assert not report.ok
        text = " ".join(report.violations)
        assert "task 1" in text and "task 2" in text and "redundancy" in text

    def test_unbalanced_load_is_named(self):
        alloc = TaskAllocation.from_sets(
            [{0, 1}, {0}, {1, 2, 3}, {2, 3}], redundancy=2, n_tasks=4)
        report = validate_tas(alloc)
        assert not report.ok
        assert any("load balancing" in v and "machine 2" in v for v in report.violations)

    def test_divisibility_is_reported(self):
        alloc = TaskAllocation.from_sets(
            [{0, 1}, {0, 2}, {1, 2}], redundancy=2, n_tasks=4)
        report = validate_tas(alloc)
        assert any("does not divide" in v for v in report.violations)

    def test_malformed_fields_raise_at_construction(self):
        with pytest.raises(ValueError):
            TaskAllocation.from_sets([{0, 9}], redundancy=1, n_tasks=3)
        with pytest.raises(ValueError):
            TaskAllocation(n_machines=2, redundancy=1, n_tasks=2,
                           machine_ids=(1, 1), task_sets={1: frozenset({0})})

    @pytest.mark.parametrize("stray", [20, -1])
    def test_out_of_range_derived_allocation_fails_validation(self, stray):
        # The private constructor does not range-check; validation must.
        sets = dict(cyclic_allocation(range(1, 6), 3, 20).task_sets)
        dropped = min(sets[2])
        sets[2] = sets[2] - {dropped} | {stray}
        alloc = TaskAllocation._derived(3, 20, range(1, 6), sets)
        with pytest.raises(AllocationError) as info:
            require_valid(alloc)
        assert info.value.violations == (
            f"range: machine 2 holds out-of-range task indices [{stray}]",
            f"redundancy: task {dropped} covered by 2 machines, expected 3")


@st.composite
def corrupted_pools(draw):
    """A seeded random allocation, left valid, perturbed, or broken in one place."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 7))
    l = draw(st.integers(1, n))
    alloc = random_tas(n, l, n * draw(st.integers(1, 4)), rng)
    sets = {m: set(alloc.task_sets[m]) for m in alloc.machine_ids}
    victim = rng.choice(alloc.machine_ids)
    kind = draw(st.sampled_from(["valid", "perturbed", "drop", "duplicate", "redundancy"]))
    if kind == "perturbed":
        return perturbed(alloc, rng, draw(st.integers(1, 8)))
    if kind == "drop":
        sets[victim].discard(rng.choice(sorted(sets[victim])))
    elif kind == "duplicate":
        missing = sorted(set(range(alloc.n_tasks)) - sets[victim])
        sets[victim].add(rng.choice(missing) if missing else 0)
    redundancy = alloc.redundancy + (kind == "redundancy")
    return TaskAllocation(alloc.n_machines, redundancy, alloc.n_tasks,
                          alloc.machine_ids, sets)


class TestValidateMatchesOracle:
    @given(corrupted_pools())
    def test_identical_reports(self, alloc):
        assert validate_tas(alloc) == validate_tas_per_element(alloc)


class TestBoundaryNormalisation:
    def test_non_integer_task_indices_are_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            TaskAllocation.from_sets([{0.9, 1.5}, {0, 1}], 2, 2)
        with pytest.raises(ValueError, match="non-integer"):
            TaskAllocation.from_sets(["01", "01"], 2, 2)

    def test_numpy_integers_become_python_ints(self):
        alloc = TaskAllocation.from_sets([np.arange(2), np.array([0, 1])], 2, 2)
        assert all(type(t) is int for m in alloc.machine_ids for t in alloc.task_sets[m])
        assert alloc == TaskAllocation.from_sets([{0, 1}, {0, 1}], 2, 2)

    @pytest.mark.parametrize("tasks", [[0.7], [1.2], "0123456789", 7, [False], [True]])
    def test_documents_need_integer_task_lists(self, tasks):
        # Read as task 0, [False] would leave machine 1's set, a valid allocation.
        doc = tas_to_document(cyclic_tas(10, 1, 10))
        doc["machines"][0]["tasks"] = tasks
        with pytest.raises(ValueError):
            tas_from_document(doc)

    @pytest.mark.parametrize("extra,message", [(0, "lists a task index more than once"),
                                               ([0], "holds a non-integer task index")])
    def test_documents_list_each_task_once(self, extra, message):
        # Folded into the set, a repeated 0 would leave machine 1 valid.
        doc = tas_to_document(cyclic_tas(5, 3, 20))
        doc["machines"][0]["tasks"].append(extra)
        with pytest.raises(ValueError, match=f"machine 1 {message}"):
            tas_from_document(doc)

    @pytest.mark.parametrize("value", [6.9, 6.0, "6", True])
    @pytest.mark.parametrize("key", ["n_machines", "redundancy", "n_tasks", "id"])
    def test_documents_need_integer_scalars(self, key, value):
        # int() would truncate 6.9, parse "6" and read True as 1.
        doc = tas_to_document(cyclic_tas(3, 2, 6))
        (doc["machines"][0] if key == "id" else doc)[key] = value
        with pytest.raises(ValueError, match=f"'{key}' must be int, got {type(value).__name__}"):
            tas_from_document(doc)

    def test_task_sets_are_read_only(self):
        alloc = cyclic_tas(4, 2, 8)
        with pytest.raises(TypeError):
            alloc.task_sets[1] = frozenset()
        with pytest.raises(TypeError):
            del alloc.task_sets[1]

    def test_pickle_and_deepcopy_round_trip(self):
        alloc = cyclic_tas(5, 3, 20)
        assert pickle.loads(pickle.dumps(alloc)) == alloc
        assert copy.deepcopy(alloc) == alloc


class TestHolderClasses:
    def test_classes_by_least_task_with_labels_ascending(self):
        alloc = TaskAllocation.from_sets([{0, 1, 2, 3}, {2, 3, 4, 5}, {0, 1, 4, 5}],
                                         redundancy=2, n_tasks=6, machine_ids=(7, 3, 5))
        assert list(holder_classes(alloc).items()) == [
            ((5, 7), (0, 1)), ((3, 7), (2, 3)), ((3, 5), (4, 5))]

    def test_read_only_and_remembered(self):
        alloc = cyclic_tas(5, 3, 20)
        classes = holder_classes(alloc)
        assert holder_classes(alloc) is classes
        with pytest.raises(TypeError):
            classes[(1, 2, 3)] = ()
        assert holder_classes(copy.deepcopy(alloc)) == classes

    def test_invalid_allocation_rejected(self):
        alloc = TaskAllocation.from_sets(
            [{0, 1, 2, 3}, {2, 3, 4, 5}, {4, 5, 0, 2}], redundancy=2, n_tasks=6)
        with pytest.raises(AllocationError):
            holder_classes(alloc)


class TestNecessaryLoadChange:
    def test_five_to_four(self):
        assert necessary_load_change(5, 4, 3, 20) == 3

    def test_two_to_one(self):
        assert necessary_load_change(2, 1, 1, 2) == 1

    def test_three_to_four(self):
        assert necessary_load_change(3, 4, 2, 6) == 1

    def test_error_names_the_failing_side(self):
        with pytest.raises(DivisibilityError, match="n_from=3"):
            necessary_load_change(3, 4, 2, 5)
        with pytest.raises(DivisibilityError, match="n_to=4"):
            necessary_load_change(3, 4, 1, 6)

    def test_pool_sizes_must_differ_by_one(self):
        with pytest.raises(ValueError):
            necessary_load_change(5, 3, 2, 30)


class TestTransitionWaste:
    def test_cyclic_five_to_four_costs_twelve(self):
        outcome = transition_waste(cyclic_tas(5, 3, 20),
                                   cyclic_tas_after_leave(5, 3, 20, 5), leaver=5)
        assert outcome.total_waste == 12
        assert outcome.necessary_load_change == 3
        assert outcome.per_machine_waste == {1: 0, 2: 2, 3: 4, 4: 6}

    def test_given_join_example_costs_six(self):
        new = TaskAllocation.from_sets(
            [{0, 1, 2}, {0, 1, 2}, {3, 4, 5}, {3, 4, 5}], redundancy=2, n_tasks=6)
        outcome = transition_waste(EXAMPLE_326, new)
        assert outcome.total_waste == 6
        assert outcome.per_machine_waste == {1: 0, 2: 4, 3: 2}
        assert outcome.necessary_load_change == 1

    def test_shifted_five_to_four_costs_nothing(self):
        outcome = transition_waste(
            cyclic_tas(5, 3, 20), cyclic_tas_after_leave(5, 3, 20, 5, shift=17),
            leaver=5)
        assert outcome.total_waste == 0

    def test_leaver_argument_is_cross_checked(self):
        old, new = cyclic_tas(5, 3, 20), cyclic_tas_after_leave(5, 3, 20, 5)
        with pytest.raises(ValueError):
            transition_waste(old, new, leaver=2)
        with pytest.raises(ValueError):
            transition_waste(new, old, leaver=5)  # reversed direction is a join

    def test_label_sets_must_differ_by_one(self):
        with pytest.raises(ValueError):
            transition_waste(cyclic_tas(5, 3, 20), cyclic_tas(5, 3, 20))
        with pytest.raises(ValueError):
            transition_waste(cyclic_tas(5, 3, 20), cyclic_tas(3, 3, 21))

    def test_direction_symmetry_and_nonnegativity(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 6)
            l = rng.randint(1, n)
            f = n * (n + 1) * rng.randint(1, 2)
            shift = rng.randrange(f)
            old = cyclic_allocation(range(1, n + 1), l, f)
            new = cyclic_allocation(range(1, n + 2), l, f, shift)
            forward = transition_waste(old, new)
            backward = transition_waste(new, old)
            assert forward.per_machine_waste == backward.per_machine_waste
            assert all(w >= 0 for w in forward.per_machine_waste.values())

    def test_zero_waste_iff_nested_sets(self):
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(2, 6)
            l = rng.randint(1, n)
            f = n * (n + 1)
            shift = rng.randrange(f)
            old = cyclic_allocation(range(1, n + 1), l, f)
            new = cyclic_allocation(range(1, n + 2), l, f, shift)
            outcome = transition_waste(old, new)
            for m, waste in outcome.per_machine_waste.items():
                nested = (old.task_sets[m] <= new.task_sets[m]
                          or new.task_sets[m] <= old.task_sets[m])
                assert (waste == 0) == nested


class TestSerialization:
    def test_round_trip_preserves_allocation(self):
        alloc = cyclic_tas(5, 3, 20)
        again = tas_from_json(tas_to_json(alloc))
        assert again == alloc

    def test_document_is_canonically_ordered(self):
        doc = tas_to_document(cyclic_tas(4, 2, 8))
        assert [m["id"] for m in doc["machines"]] == [1, 2, 3, 4]
        for entry in doc["machines"]:
            assert entry["tasks"] == sorted(entry["tasks"])

    def test_machine_order_survives(self):
        alloc = cyclic_allocation([3, 1, 2], 2, 6)
        again = tas_from_json(tas_to_json(alloc))
        assert again.machine_ids == (3, 1, 2)
        assert again.position(1) == 2
