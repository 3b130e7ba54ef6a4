"""Straggler-tolerant coded matrix-vector multiplication on an elastic pool.

The matrix is split row-wise into F independent tasks; each task is encoded
into n_max coded shards such that any L-E of them recover the task.  Machine
labels double as shard indices, so machines joining or leaving never force a
re-encode: whoever holds label n computes shard n of every task its allocation
assigns it.  Stragglers are modelled as erased results, not delays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .core import TaskAllocation, holder_classes, require_valid
from .engine import ElasticTrace, TraceRunner

__all__ = [
    "CodedJob",
    "RoundResult",
    "encode_job",
    "execute_round",
    "elastic_linear_regression",
    "plain_regression_trajectory",
]


@dataclass(frozen=True)
class CodedJob:
    """An encoded matrix-vector instance: shards for up to ``n_max`` machines.

    ``generator`` is an n_max-by-(L-E) matrix with any L-E rows invertible
    (a real Vandermonde system on distinct evaluation points); ``shards[j, f]``
    is the coded piece machine label j+1 computes for task f.
    """

    matrix: np.ndarray
    vector: np.ndarray
    n_tasks: int
    redundancy: int
    tolerance: int
    n_max: int
    generator: np.ndarray
    shards: np.ndarray

    @property
    def recovery_threshold(self) -> int:
        return self.redundancy - self.tolerance


@dataclass(frozen=True)
class RoundResult:
    """Outcome of one compute round: the recovered product, or the task that failed."""

    recovered: bool
    product: np.ndarray | None = None
    unrecoverable_task: int | None = None


def _evaluation_points(n_max: int) -> np.ndarray:
    if n_max == 1:
        return np.array([0.0])
    return np.linspace(-1.0, 1.0, n_max)


def encode_job(matrix: np.ndarray, vector: np.ndarray, n_tasks: int,
               redundancy: int, tolerance: int, n_max: int) -> CodedJob:
    """Partition the matrix into tasks and encode each into ``n_max`` coded shards.

    Rows are zero-padded to a multiple of n_tasks*(L-E); each task's block is
    split into L-E pieces and shard j is the polynomial-evaluation combination
    of those pieces at the j-th point.  Evaluation points are spread over
    [-1, 1] to keep every (L-E)-square of the generator well conditioned at
    the scales used here.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    vector = np.asarray(vector, dtype=float)
    if not 0 <= tolerance < redundancy:
        raise ValueError(
            f"straggler tolerance must satisfy 0 <= E < L, got E={tolerance}, L={redundancy}")
    if n_max < redundancy:
        raise ValueError(f"n_max={n_max} is below the redundancy {redundancy}")
    if matrix.shape[1] != vector.shape[0]:
        raise ValueError("matrix and vector dimensions do not match")
    k = redundancy - tolerance
    chunk = n_tasks * k
    padded_rows = ((matrix.shape[0] + chunk - 1) // chunk) * chunk
    padded = np.zeros((padded_rows, matrix.shape[1]))
    padded[:matrix.shape[0]] = matrix
    pieces = padded.reshape(n_tasks, k, padded_rows // chunk, matrix.shape[1])
    points = _evaluation_points(n_max)
    generator = np.vander(points, k, increasing=True)
    shards = np.tensordot(generator, pieces, axes=([1], [1]))  # (n_max, F, rows, cols)
    return CodedJob(matrix=matrix, vector=vector, n_tasks=n_tasks,
                    redundancy=redundancy, tolerance=tolerance, n_max=n_max,
                    generator=generator, shards=shards)


def compute_subtask(job: CodedJob, machine: int, task: int,
                    vector: np.ndarray | None = None) -> np.ndarray:
    """The coded block the worker holding ``machine``'s label computes for one task."""
    if not 1 <= machine <= job.n_max:
        raise ValueError(f"machine label {machine} outside 1..{job.n_max}")
    x = job.vector if vector is None else np.asarray(vector, dtype=float)
    return job.shards[machine - 1, task] @ x


def execute_round(job: CodedJob, alloc: TaskAllocation,
                  stragglers: Iterable[int] = (),
                  vector: np.ndarray | None = None) -> RoundResult:
    """Run one coded round under an allocation and decode the full product.

    Every task is computed by the L machines covering it; results from
    stragglers never arrive.  Each task decodes from its first L-E surviving
    shards in machine-label order, which makes the outcome independent of
    worker completion order.  With at most E stragglers decoding always
    succeeds; beyond that the first unrecoverable task is reported.
    """
    require_valid(alloc)
    if alloc.redundancy != job.redundancy or alloc.n_tasks != job.n_tasks:
        raise ValueError("allocation parameters disagree with the encoded job")
    if max(alloc.machine_ids) > job.n_max:
        raise ValueError(
            f"allocation uses label {max(alloc.machine_ids)} beyond n_max={job.n_max}")
    stragglers = set(stragglers)
    x = job.vector if vector is None else np.asarray(vector, dtype=float)
    k = job.recovery_threshold
    blocks = np.empty((job.n_tasks, k * job.shards.shape[2]))
    for holders, tasks in holder_classes(alloc).items():
        available = [m for m in holders if m not in stragglers][:k]
        if len(available) < k:
            return RoundResult(recovered=False, unrecoverable_task=tasks[0])
        square = job.generator[[m - 1 for m in available]]
        for f in tasks:
            results = np.stack([compute_subtask(job, m, f, x) for m in available])
            blocks[f] = np.linalg.solve(square, results).reshape(blocks.shape[1])
    return RoundResult(recovered=True, product=blocks.reshape(-1)[:job.matrix.shape[0]])


def plain_regression_trajectory(data: np.ndarray, targets: np.ndarray, steps: int,
                                learning_rate: float) -> np.ndarray:
    """Reference gradient descent from zero weights: normal equations, no coding, fixed pool."""
    gram = data.T @ data
    moment = data.T @ targets
    w = np.zeros(data.shape[1])
    trajectory = [w.copy()]
    for _ in range(steps):
        w = w - learning_rate * (gram @ w - moment)
        trajectory.append(w.copy())
    return np.array(trajectory)


def _event_schedule(n_events: int, steps: int) -> dict[int, list[int]]:
    """Spread event indices evenly over iterations 1..steps."""
    schedule: dict[int, list[int]] = {}
    for i in range(n_events):
        at = max(1, min(steps, (i + 1) * steps // (n_events + 1)))
        schedule.setdefault(at, []).append(i)
    return schedule


def elastic_linear_regression(data: np.ndarray, targets: np.ndarray,
                              trace: ElasticTrace, steps: int, learning_rate: float,
                              tolerance: int = 0,
                              straggler_rng: random.Random | None = None) -> np.ndarray:
    """Gradient-descent least squares from zero weights, the per-step product coded.

    The Gram matrix and moment vector are computed once up front; every
    iteration then multiplies the fixed Gram matrix by the current weights
    through :func:`execute_round` under the live allocation.  Trace events
    fire between iterations, spread evenly over the run; with
    ``straggler_rng`` set, ``tolerance`` random machines are erased each
    round.  Decoding is exact, so the trajectory matches the plain fixed-pool
    run whatever the trace does.  The code has a row per machine label up to
    the trace's ``n_max``, or up to its largest pool when that is unset.
    """
    data = np.asarray(data, dtype=float)
    targets = np.asarray(targets, dtype=float)
    gram = data.T @ data
    moment = data.T @ targets
    count = peak = trace.initial_machines
    for event in trace.events:
        count += 1 if event.kind == "join" else -1
        peak = max(peak, count)
    n_max = trace.n_max if trace.n_max is not None else peak
    runner = TraceRunner(trace if trace.label_policy == "reuse"
                         else replace(trace, label_policy="reuse"))
    w = np.zeros(data.shape[1])
    job = encode_job(gram, w, trace.n_tasks, trace.redundancy, tolerance, n_max)
    schedule = _event_schedule(len(trace.events), steps)
    trajectory = [w.copy()]
    for step in range(1, steps + 1):
        for event_index in schedule.get(step, ()):
            runner.apply(trace.events[event_index])
        stragglers: list[int] = []
        if straggler_rng is not None and tolerance > 0:
            active = sorted(runner.allocation.machine_ids)
            stragglers = straggler_rng.sample(active, min(tolerance, len(active)))
        result = execute_round(job, runner.allocation, stragglers, vector=w)
        if not result.recovered:
            raise RuntimeError(
                f"round {step} could not recover task {result.unrecoverable_task}")
        w = w - learning_rate * (result.product - moment)
        trajectory.append(w.copy())
    return np.array(trajectory)
