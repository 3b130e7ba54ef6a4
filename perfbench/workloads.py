"""The benchmark's seeded workloads: inputs, set-up, ops and oracles.

Each workload turns its seed into inputs (walks, perturbations, matrices)
without timing; ``setup`` then builds the pool through the package and is
timed as ``setup_s``.  A pass replays the workload's fixed op sequence on a
fresh ``TraceRunner``, so every pass of one seed must produce the same counts;
the runner compares them across passes.  ``check`` is the independent oracle,
run after a pass and outside its timing.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

from etalloc import checks, coded, configurations, cyclic, engine, zero_waste
from etalloc.core import ElasticEvent, validate_tas

# Relative-error gate of the coded layer, as in ``etalloc verify coded``.
DECODE_GATE = 1e-9


def _walk(rng: random.Random, labels, low: int, high: int, length: int,
          rejoin: bool) -> list[ElasticEvent]:
    """Seeded leave/join walk that keeps the pool size within [low, high].

    With ``rejoin`` a join brings back the last machine to leave (the
    zero-waste engine climbs back up its history); otherwise it adds a fresh
    label, as the engine's default label policy does.
    """
    active, departed, fresh = list(labels), [], max(labels) + 1
    events = []
    for _ in range(length):
        n = len(active)
        if n > low and (n == high or rng.random() < 0.5):
            machine = rng.choice(active)
            active.remove(machine)
            departed.append(machine)
            events.append(ElasticEvent.leave(machine))
        else:
            if rejoin:
                active.append(departed.pop())
            else:
                active.append(fresh)
                fresh += 1
            events.append(ElasticEvent.join())
    return events


class Workload:
    """One pass is ``ops_per_pass`` ops on state made fresh by ``start_pass``."""

    name = ""

    def setup(self) -> None:
        raise NotImplementedError

    def start_pass(self):
        raise NotImplementedError

    def op(self, ctx, index: int):
        raise NotImplementedError

    def finish_pass(self, ctx):
        return None

    def check(self, outputs: list, final) -> dict[int, str]:
        """Map of failed op index to reason; an op that raised is failed already."""
        raise NotImplementedError

    def decode_errors(self, outputs: list) -> list[float]:
        """Relative errors of the coded products among ``outputs``, if any."""
        return []

    def layer_extras(self) -> dict[str, float]:
        """Per-layer numbers the workload measures outside the spans."""
        return {}

    def fingerprint(self, outputs: list) -> dict[str, int]:
        """Counts that must repeat exactly on every pass of one seed."""
        records = [out for out in outputs if isinstance(out, engine.EventRecord)]
        leaves = [r for r in records if r.kind == "leave"]
        return {"ops": len(outputs),
                "waste": sum(r.waste for r in records),
                "leaves": len(leaves),
                "degraded": sum(r.degraded for r in leaves)}


class _TraceWorkload(Workload):
    """Ops are the events of trace segments, each run on its own ``TraceRunner``.

    Runners are built when the pass starts, so their seed validation is in
    the pass's wall time but not in any op's latency.
    """

    def _use_traces(self, traces: list[engine.ElasticTrace]) -> None:
        self.traces = traces
        self._slots = [(ti, ei) for ti, t in enumerate(traces)
                       for ei in range(len(t.events))]
        self.ops_per_pass = len(self._slots)

    def start_pass(self):
        return [engine.TraceRunner(t) for t in self.traces]

    def op(self, runners, index: int):
        ti, ei = self._slots[index]
        return self.step(runners[ti], self.traces[ti].events[ei])

    def step(self, runner: engine.TraceRunner, event: ElasticEvent):
        return runner.apply(event)

    def finish_pass(self, runners):
        return [r.allocation for r in runners]


class ZwGeometry(_TraceWorkload):
    """Projective-plane pool walking inside [N-2, N] under ``zero_waste``."""

    name = "zw-geometry"

    def __init__(self, seed: int, smoke: bool = False):
        # q=4: N=21, L=5, F=1596, the least F with N(N-1) | L*F at N=21 and 20
        # that the 21 points divide.  Smoke: the Fano plane, F=70.
        self.q, self.n_tasks = (2, 70) if smoke else (4, 1596)
        n = self.q * self.q + self.q + 1
        self.low, self.high = n - 2, n
        # Dives from the full pool: leave, leave, join-back.  A longer walk
        # inside the window has as many joins as leaves, which puts the median
        # op on the edge between the cheap join-backs and the leaves, where it
        # jumps from run to run.  Every machine leaves first once and second
        # once per pass, in seeded order and pairing, so the seed cannot
        # change which leaves a pass times, only their order and pairs.
        rng = random.Random(seed)
        firsts = rng.sample(range(1, n + 1), n)
        seconds = firsts[:]
        while any(a == b for a, b in zip(firsts, seconds)):
            rng.shuffle(seconds)
        self.segments = [[ElasticEvent.leave(a), ElasticEvent.leave(b), ElasticEvent.join()]
                         for a, b in zip(firsts, seconds)]

    def setup(self) -> None:
        plane = configurations.projective_plane(self.q)
        pool = configurations.tas_from_configuration(plane, self.n_tasks)
        certificate = zero_waste.hall_feasible_all_leavers(pool)
        if not certificate.feasible:
            raise RuntimeError(f"admission certificate failed: {certificate.witness}")
        zwr = configurations.zero_waste_range(pool.n_machines, pool.redundancy)
        if zwr.n_min > self.low:
            raise RuntimeError(f"zero-waste range {zwr} does not cover {self.low}")
        self._use_traces([engine.ElasticTrace(
            initial_machines=pool.n_machines, redundancy=pool.redundancy,
            n_tasks=pool.n_tasks, strategy="zero_waste", events=events,
            n_min=self.low, n_max=self.high, seed_allocation=pool)
            for events in self.segments])

    def check(self, outputs, final):
        bad = {i: f"event waste {out.waste}, expected 0" for i, out in enumerate(outputs)
               if isinstance(out, engine.EventRecord) and (out.waste or not out.feasible)}
        last = 0
        for alloc, trace in zip(final, self.traces):
            last += len(trace.events)
            report = validate_tas(alloc)
            if not report.ok:
                bad[last - 1] = f"final allocation invalid: {report.violations[0]}"
        return bad


class FallbackAdversarial(_TraceWorkload):
    """Doubled-block pools; every machine leaves once, half of them after a join-back."""

    name = "fallback-adversarial"

    def __init__(self, seed: int, smoke: bool = False):
        self.n, self.n_tasks = (6, 30) if smoke else (12, 132)
        rng = random.Random(seed)
        # One swap per variant keeps machines 1 and 2 unable to leave without
        # waste (a second swap can free them), so every pool sends exactly two
        # of its leaves to the fallback and the seed cannot change that mix.
        self.variant_seeds = [rng.randrange(2**32) for _ in range(2 if smoke else 5)]
        # Segments are leave, join-back, leave: two leaves per join, so the
        # median op is a feasible leave rather than the edge of the join-backs.
        self.pairs = []
        for _ in range(len(self.variant_seeds) + 1):
            order = rng.sample(range(1, self.n + 1), self.n)
            self.pairs.append(list(zip(order[::2], order[1::2])))

    def setup(self) -> None:
        base = checks.doubled_block_tas(self.n, self.n_tasks)
        pools = [base] + [checks.perturbed(base, random.Random(s), 1)
                          for s in self.variant_seeds]
        self._use_traces([engine.ElasticTrace(
            initial_machines=self.n, redundancy=2, n_tasks=self.n_tasks,
            strategy="zero_waste_with_fallback",
            events=[ElasticEvent.leave(a), ElasticEvent.join(), ElasticEvent.leave(b)],
            n_min=self.n - 1, n_max=self.n, seed_allocation=pool)
            for pool, pairs in zip(pools, self.pairs) for a, b in pairs])
        self._verdicts: dict[tuple, tuple] = {}

    def step(self, runner, event):
        before = runner.allocation
        return before, runner.apply(event)

    def check(self, outputs, final):
        bad = {}
        for i, out in enumerate(outputs):
            if not isinstance(out, tuple) or out[1].kind != "leave":
                continue
            before, record = out
            slot = self._slots[i]
            cached = self._verdicts.get(slot)
            if cached is None or cached[0] != before:
                cached = (before, zero_waste.hall_feasible_for_leaver(before, record.machine))
                self._verdicts[slot] = cached
            if record.feasible != cached[1].feasible:
                bad[i] = (f"leave of {record.machine}: feasible={record.feasible}, "
                          f"Hall says {cached[1].feasible}")
        return bad

    def fingerprint(self, outputs):
        return super().fingerprint([out[1] if isinstance(out, tuple) else out
                                    for out in outputs])


class ShiftedWalk(_TraceWorkload):
    """Shifted-cyclic pool walking inside [19, 21] under ``shifted_cyclic``."""

    name = "shifted-walk"

    def __init__(self, seed: int, smoke: bool = False):
        # F is the least with N(N+1) | F for every join and N(N-1) | F for every
        # leave the window allows.
        self.low, self.high, self.n_tasks = (5, 7, 210) if smoke else (19, 21, 7980)
        self.redundancy, self.n0 = 3, self.low + 1
        rng = random.Random(seed)
        self.shift = rng.randrange(self.n_tasks)
        self.events = _walk(rng, range(1, self.n0 + 1), self.low, self.high,
                            12 if smoke else 40, rejoin=False)

    def setup(self) -> None:
        pool = cyclic.cyclic_allocation(range(1, self.n0 + 1), self.redundancy,
                                        self.n_tasks, self.shift)
        self._use_traces([engine.ElasticTrace(
            initial_machines=self.n0, redundancy=self.redundancy, n_tasks=self.n_tasks,
            strategy="shifted_cyclic", events=self.events, n_min=self.low,
            n_max=self.high, seed_allocation=pool, initial_shift=self.shift)])

    def step(self, runner, event):
        alloc = runner.allocation
        position = alloc.position(event.machine) if event.kind == "leave" else None
        return alloc.n_machines, position, runner.shift, runner.apply(event)

    def check(self, outputs, final):
        l, f = self.redundancy, self.n_tasks
        bad = {}
        for i, out in enumerate(outputs):
            if not isinstance(out, tuple):
                continue
            n, position, prev_shift, record = out
            if record.kind == "leave":
                params, predicted = cyclic.optimal_shift_leave(n, l, f, prev_shift, position)
            else:
                params, predicted = cyclic.optimal_shift_join(n, l, f, prev_shift)
            if (record.waste, record.shift) != (predicted, params.shift):
                bad[i] = (f"{record.kind}: waste {record.waste} shift {record.shift}, "
                          f"closed form {predicted} shift {params.shift}")
        return bad

    def fingerprint(self, outputs):
        return super().fingerprint([out[-1] if isinstance(out, tuple) else out
                                    for out in outputs])


class CodedElastic(Workload):
    """Coded mat-vec rounds on a pool that walks inside [n_max-1, n_max]."""

    name = "coded-elastic"

    def __init__(self, seed: int, smoke: bool = False):
        # Full size is the scale at which the Vandermonde decode misses the gate.
        (self.n_max, self.redundancy, self.tolerance, self.n_tasks, rows, cols,
         self.every, self.steps) = ((6, 3, 1, 30, 120, 8, 2, 6) if smoke
                                    else (40, 9, 1, 520, 4160, 200, 4, 24))
        rng = np.random.default_rng(seed)
        self.matrix = rng.normal(size=(rows, cols))
        self.vectors = rng.normal(size=(6, cols))
        walk_rng = random.Random(seed)
        labels = range(1, self.n_max + 1)
        events = _walk(walk_rng, labels, self.n_max - 1, self.n_max,
                       self.steps // self.every, rejoin=True)
        self.events = {i * self.every: e for i, e in enumerate(events)}
        active, departed, self.stragglers = list(labels), [], []
        for step in range(self.steps):
            event = self.events.get(step)
            if event is not None and event.kind == "leave":
                active.remove(event.machine)
                departed.append(event.machine)
            elif event is not None:
                active.append(departed.pop())
            self.stragglers.append(walk_rng.choice(active))
        self.ops_per_pass = self.steps

    def setup(self) -> None:
        pool = cyclic.cyclic_allocation(range(1, self.n_max + 1), self.redundancy,
                                        self.n_tasks)
        self.job = coded.encode_job(self.matrix, self.vectors[0], self.n_tasks,
                                    self.redundancy, self.tolerance, self.n_max)
        self.trace = engine.ElasticTrace(
            initial_machines=self.n_max, redundancy=self.redundancy,
            n_tasks=self.n_tasks, strategy="zero_waste",
            events=[self.events[s] for s in sorted(self.events)],
            n_min=self.n_max - 1, n_max=self.n_max, seed_allocation=pool,
            label_policy="reuse")

    def start_pass(self):
        return engine.TraceRunner(self.trace)

    def op(self, runner, index: int):
        event = self.events.get(index)
        record = runner.apply(event) if event is not None else None
        result = coded.execute_round(self.job, runner.allocation,
                                     [self.stragglers[index]],
                                     vector=self.vectors[index % len(self.vectors)])
        return record, result

    def finish_pass(self, runner):
        return runner.allocation

    def decode_errors(self, outputs) -> list[float]:
        """Relative error of each recovered product against ``matrix @ x``."""
        errors = []
        for index, out in enumerate(outputs):
            if isinstance(out, tuple) and out[1].recovered:
                direct = self.matrix @ self.vectors[index % len(self.vectors)]
                gap = np.max(np.abs(out[1].product - direct))
                errors.append(float(gap / max(np.max(np.abs(direct)), 1e-30)))
        return errors

    def check(self, outputs, final):
        bad = {}
        errors = iter(self.decode_errors(outputs))
        for i, out in enumerate(outputs):
            if not isinstance(out, tuple):
                continue
            record, result = out
            if not result.recovered:
                bad[i] = f"task {result.unrecoverable_task} unrecoverable"
                continue
            err = next(errors)
            if err > DECODE_GATE:
                bad[i] = f"relative error {err:.3e} above {DECODE_GATE:g}"
            elif record is not None and record.waste:
                bad[i] = f"event waste {record.waste}, expected 0"
        return bad

    def layer_extras(self) -> dict[str, float]:
        """Shard memory, computed from array sizes, and a direct-product baseline."""
        x = self.vectors[0]
        times = []
        for _ in range(50):
            start = time.perf_counter()
            self.matrix @ x
            times.append(time.perf_counter() - start)
        return {"coded.shards_mb": self.job.shards.nbytes / 1e6,
                "coded.direct_matvec_ms": statistics.median(times) * 1e3}

    def fingerprint(self, outputs):
        counts = super().fingerprint([out[0] for out in outputs
                                      if isinstance(out, tuple) and out[0] is not None])
        counts["ops"] = len(outputs)
        counts["recovered"] = sum(isinstance(out, tuple) and out[1].recovered
                                  for out in outputs)
        return counts


WORKLOADS = {cls.name: cls for cls in (ZwGeometry, FallbackAdversarial, ShiftedWalk,
                                        CodedElastic)}
