"""Coded matrix-vector execution and the elastic regression loop."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from etalloc import (
    ElasticEvent,
    ElasticTrace,
    cyclic_tas,
    elastic_linear_regression,
    encode_job,
    execute_round,
    plain_regression_trajectory,
)
from etalloc.checks import random_tas
from etalloc.coded import load_matrix

from oracles import execute_round_per_task
from test_zero_waste import pools

RNG = np.random.default_rng(42)


class TestEncodeJob:
    def test_shard_shapes(self):
        matrix = RNG.normal(size=(12, 4))
        job = encode_job(matrix, RNG.normal(size=4), n_tasks=2, redundancy=3,
                         tolerance=1, n_max=5)
        assert job.generator.shape == (5, 2)
        assert job.shards.shape == (5, 2, 3, 4)
        assert job.recovery_threshold == 2

    def test_shards_are_generator_combinations(self):
        matrix = RNG.normal(size=(12, 4))
        job = encode_job(matrix, RNG.normal(size=4), n_tasks=2, redundancy=3,
                         tolerance=1, n_max=5)
        pieces = matrix.reshape(2, 2, 3, 4)
        for j in range(5):
            expected = job.generator[j, 0] * pieces[0, 0] + \
                job.generator[j, 1] * pieces[0, 1]
            assert np.allclose(job.shards[j, 0], expected)

    def test_identity_partition_when_no_redundancy(self):
        matrix = RNG.normal(size=(6, 3))
        job = encode_job(matrix, RNG.normal(size=3), n_tasks=3, redundancy=1,
                         tolerance=0, n_max=3)
        for f in range(3):
            for j in range(3):
                assert np.allclose(job.shards[j, f], matrix[2 * f:2 * f + 2])

    def test_any_threshold_subset_of_generator_rows_is_invertible(self):
        job = encode_job(RNG.normal(size=(12, 2)), RNG.normal(size=2),
                         n_tasks=2, redundancy=4, tolerance=2, n_max=7)
        for rows in itertools.combinations(range(7), 2):
            square = job.generator[list(rows)]
            assert abs(np.linalg.det(square)) > 1e-12
            assert np.linalg.cond(square) < 1e6

    def test_parameter_guards(self):
        matrix, x = RNG.normal(size=(4, 2)), RNG.normal(size=2)
        with pytest.raises(ValueError):
            encode_job(matrix, x, 2, 2, 2, 5)  # E >= L
        with pytest.raises(ValueError):
            encode_job(matrix, x, 2, 3, 1, 2)  # n_max < L
        with pytest.raises(ValueError):
            encode_job(matrix, RNG.normal(size=3), 2, 2, 0, 3)


class TestToyTwoOfThree:
    """One task split in two pieces, three coded shards, any two recover."""

    def test_any_two_workers_recover(self):
        from etalloc import TaskAllocation
        matrix = RNG.normal(size=(4, 3))
        x = RNG.normal(size=3)
        job = encode_job(matrix, x, n_tasks=1, redundancy=3, tolerance=1, n_max=3)
        direct = matrix @ x
        alloc = TaskAllocation.from_sets([{0}, {0}, {0}], redundancy=3, n_tasks=1)
        for straggler in (1, 2, 3):
            outcome = execute_round(job, alloc, {straggler})
            assert outcome.recovered
            assert np.allclose(outcome.product, direct, rtol=1e-9, atol=1e-12)


class TestExecuteRound:
    def setup_method(self):
        self.matrix = RNG.normal(size=(40, 6))
        self.x = RNG.normal(size=6)
        self.job = encode_job(self.matrix, self.x, n_tasks=20, redundancy=3,
                              tolerance=1, n_max=5)
        self.alloc = cyclic_tas(5, 3, 20)
        self.direct = self.matrix @ self.x

    def relative_error(self, product):
        return np.max(np.abs(product - self.direct)) / np.max(np.abs(self.direct))

    def test_no_stragglers(self):
        outcome = execute_round(self.job, self.alloc)
        assert outcome.recovered and self.relative_error(outcome.product) < 1e-9

    @pytest.mark.parametrize("straggler", [1, 2, 3, 4, 5])
    def test_every_single_straggler(self, straggler):
        outcome = execute_round(self.job, self.alloc, {straggler})
        assert outcome.recovered and self.relative_error(outcome.product) < 1e-9

    def test_two_stragglers_sharing_a_task_are_insufficient(self):
        # machines 1 and 2 both cover tasks 4..11; the first of those dies
        outcome = execute_round(self.job, self.alloc, {1, 2})
        assert not outcome.recovered
        assert outcome.unrecoverable_task == 4

    def test_two_disjoint_stragglers_may_still_recover(self):
        # with L=2, E=1, machines 1 and 3 of the cyclic layout share no task,
        # so losing both still leaves one shard per task
        job = encode_job(self.matrix, self.x, n_tasks=20, redundancy=2,
                         tolerance=1, n_max=5)
        alloc = cyclic_tas(5, 2, 20)
        assert not alloc.task_sets[1] & alloc.task_sets[3]
        outcome = execute_round(job, alloc, {1, 3})
        assert outcome.recovered and self.relative_error(outcome.product) < 1e-9

    def test_padding_is_stripped(self):
        matrix = RNG.normal(size=(37, 5))  # forces zero padding to 40 rows
        x = RNG.normal(size=5)
        job = encode_job(matrix, x, n_tasks=20, redundancy=3, tolerance=1, n_max=5)
        outcome = execute_round(job, self.alloc)
        assert outcome.product.shape == (37,)
        assert np.allclose(outcome.product, matrix @ x)

    def test_allocation_must_match_job(self):
        with pytest.raises(ValueError):
            execute_round(self.job, cyclic_tas(4, 2, 20))

    def test_labels_beyond_nmax_rejected(self):
        from etalloc import cyclic_allocation
        alloc = cyclic_allocation([1, 2, 3, 4, 9], 3, 20)
        with pytest.raises(ValueError, match="beyond n_max"):
            execute_round(self.job, alloc)

    def test_allocation_independence(self):
        rng = random.Random(0)
        baseline = execute_round(self.job, self.alloc).product
        for _ in range(5):
            alloc = random_tas(5, 3, 20, rng)
            straggler = rng.choice(alloc.machine_ids)
            outcome = execute_round(self.job, alloc, {straggler})
            assert outcome.recovered
            assert np.allclose(outcome.product, baseline, rtol=1e-9, atol=1e-12)


def test_class_decode_matches_the_per_task_oracle():
    # With E stragglers every round recovers; with E+1 some pools lose a
    # class, and the reported task must be the oracle's least failing task.
    outcomes = Counter()

    @given(pools(), st.integers(0, 2**32 - 1))
    def check(alloc, seed):
        rng = random.Random(seed)
        e = rng.randrange(alloc.redundancy)
        data = np.random.default_rng(seed)
        k = alloc.redundancy - e
        job = encode_job(data.normal(size=(alloc.n_tasks * k + 1, 3)), data.normal(size=3),
                         alloc.n_tasks, alloc.redundancy, e, max(alloc.machine_ids))
        for count in (e, e + 1):
            stragglers = rng.sample(alloc.machine_ids, count)
            got = execute_round(job, alloc, stragglers)
            want = execute_round_per_task(job, alloc, stragglers)
            assert (got.recovered, got.unrecoverable_task) == (
                want.recovered, want.unrecoverable_task)
            assert got.recovered or count > e
            if want.recovered:
                assert np.array_equal(got.product, want.product)
            outcomes[got.recovered] += 1

    check()
    assert outcomes[True] and outcomes[False]


class TestElasticRegression:
    def setup_method(self):
        self.data = RNG.normal(size=(50, 5))
        self.targets = self.data @ RNG.normal(size=5) + 0.1 * RNG.normal(size=50)
        self.plain = plain_regression_trajectory(self.data, self.targets,
                                                 steps=100, learning_rate=0.01)

    def gap(self, trajectory):
        scale = np.max(np.abs(self.plain))
        return np.max(np.abs(trajectory - self.plain)) / scale

    def test_static_pool_matches_plain_run(self):
        trace = ElasticTrace(initial_machines=5, redundancy=3, n_tasks=20)
        coded = elastic_linear_regression(self.data, self.targets, trace,
                                          steps=100, learning_rate=0.01, tolerance=1)
        assert self.gap(coded) < 1e-6

    def test_mid_run_leave_and_join_change_nothing(self):
        trace = ElasticTrace(
            initial_machines=5, redundancy=3, n_tasks=20, label_policy="reuse",
            events=(ElasticEvent.leave(3), ElasticEvent.join()))
        coded = elastic_linear_regression(self.data, self.targets, trace,
                                          steps=100, learning_rate=0.01, tolerance=1)
        assert self.gap(coded) < 1e-6

    def test_random_straggler_every_round_changes_nothing(self):
        trace = ElasticTrace(initial_machines=5, redundancy=3, n_tasks=20)
        coded = elastic_linear_regression(
            self.data, self.targets, trace, steps=100, learning_rate=0.01,
            tolerance=1, straggler_rng=random.Random(17))
        assert self.gap(coded) < 1e-6

    def test_zero_waste_strategy_pool(self):
        trace = ElasticTrace(
            initial_machines=5, redundancy=3, n_tasks=20, strategy="zero_waste",
            label_policy="reuse",
            events=(ElasticEvent.leave(4), ElasticEvent.join()))
        coded = elastic_linear_regression(self.data, self.targets, trace,
                                          steps=50, learning_rate=0.01, tolerance=1)
        assert np.max(np.abs(coded - self.plain[:51])) / np.max(np.abs(self.plain)) < 1e-6


class TestMatrixIo:
    def test_round_trip(self, tmp_path):
        matrix = RNG.normal(size=(7, 3))
        path = tmp_path / "m.txt"
        np.savetxt(path, matrix)
        assert np.allclose(load_matrix(path), matrix)
