"""Benchmark for etalloc: seeded elastic workloads driven in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload zw-geometry --seed 1 --seconds 20 --trace 0

One caller in one process issues one op at a time; BLAS is held to one
thread.  ``--trace 0`` times the untouched package and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced passes with passes under the span
recorder in ``spans.py`` and reports the per-layer metrics plus the tracing
overhead.  Every op is checked by the workload's oracle after its pass, and
the per-pass counts must repeat exactly.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs the same workloads and oracles at tiny sizes.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the loop is single-threaded by design
# and coded.direct_matvec_ms is a single-threaded baseline.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import heapq
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up samples per run; each times back-to-back set-ups for at least
# SETUP_SAMPLE_S, so a set-up of a millisecond is timed as steadily as one of
# a third of a second.
SETUP_SAMPLES = 5
SETUP_SAMPLE_S = 0.05
# op_tail_ms is the first of these percentiles with ten samples beyond it.
# p99 also has ten beyond in a 20 s run of every workload, but it moved by a
# fifth between seeds on a shared 2-vCPU Intel Xeon VM.
TAIL_PCTS = (95.0, 90.0, 75.0, 50.0)
# Time of reference_seconds() on the nominal host.  The *_norm metrics rescale
# each pass to a host that runs the reference job in this time.
REF_NOMINAL_S = 0.080

# Metric name -> unit, with the names BENCHMARK.json declares.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s_norm": "op/s",
    "op_p50_ms_norm": "ms",
    "op_tail_ms_norm": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "core.validate_tas.calls": "count/op",
    "core.transition_waste.calls": "count/op",
    "cyclic.cyclic_allocation.calls": "count/op",
    "cyclic.optimal_shift_join.calls": "count/op",
    "cyclic.optimal_shift_leave.calls": "count/op",
    "zero_waste.build_transition_graph.calls": "count/op",
    "zero_waste.find_delta_matching.calls": "count/op",
    "zero_waste.best_effort_leave.calls": "count/op",
    "zero_waste.graph_edges": "count/op",
    "zero_waste.matchings_attempted": "count/op",
    "zero_waste.matchings_failed": "count/op",
    "engine.apply.self_ms": "ms/op",
    "core.validate_tas.self_ms": "ms/op",
    "core.transition_waste.self_ms": "ms/op",
    "op.unattributed_ms": "ms/op",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
# Functions timed per set-up rather than per op.
SETUP_FUNCTIONS = ("zero_waste.hall_feasible_all_leavers", "configurations.projective_plane",
                   "configurations.tas_from_configuration", "configurations.zero_waste_range",
                   "coded.encode_job")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time; at least two passes always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same oracles")
    return parser.parse_args(argv)


def load_package():
    """Import etalloc from this checkout's ``src``, never from an installation."""
    if not (ROOT / "src" / "etalloc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no etalloc sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import etalloc  # noqa: F401  (loads every layer module the tracer patches)
    import spans
    import workloads
    return workloads, spans


def provenance(seed: int) -> dict:
    import numpy as np
    cpu = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def reference_seconds() -> float:
    """Time one fixed job of the benchmark's own: the host's speed right now.

    It mixes what the layers' hot loops do (frozenset intersections, a
    list-based breadth-first search, heap operations) but runs no package
    code, so a change to etalloc cannot move it.  On a shared host its time
    drifts with the host's load in step with the workloads' op times.
    """
    start = time.perf_counter()
    sets = [frozenset(range(i, i + 300)) for i in range(0, 3000, 29)]
    total = sum(len(a & b) for a in sets for b in sets[:30])
    n = 2000
    adjacency = [[(v * 31 + k * 17) % n for k in range(8)] for v in range(n)]
    for source in range(0, n, 200):
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:
            for v in adjacency[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        total += sum(level)
    heap: list[tuple[int, int]] = []
    for i in range(20000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
    while heap:
        total += heapq.heappop(heap)[0]
    if total <= 0:
        raise AssertionError("reference job computed nothing")
    return time.perf_counter() - start


def seconds_per_setup(workload, count: int) -> float:
    start = time.perf_counter()
    for _ in range(count):
        workload.setup()
    return (time.perf_counter() - start) / count


def measure_setup(workload, samples: int) -> tuple[float, float, int]:
    """Median seconds per set-up, at wall speed and at nominal host speed.

    A first, untimed set-up sizes the samples.  Reference jobs between the
    samples give each sample the host's slowdown while it ran.  Also returns
    the number of timed set-ups.
    """
    per_sample = max(1, math.ceil(SETUP_SAMPLE_S / seconds_per_setup(workload, 1)))
    wall, nominal = [], []
    before = reference_seconds()
    for _ in range(samples):
        seconds = seconds_per_setup(workload, per_sample)
        after = reference_seconds()
        wall.append(seconds)
        nominal.append(seconds / ((before + after) / 2 / REF_NOMINAL_S))
        before = after
    return statistics.median(wall), statistics.median(nominal), samples * per_sample


def run_pass(workload, tracer=None):
    """One pass of ops; returns (latencies, outputs, final state, errors)."""
    ctx = workload.start_pass()
    latencies, outputs, errors = [], [], {}
    for index in range(workload.ops_per_pass):
        span = tracer.open("op") if tracer else None
        start = time.perf_counter()
        try:
            out = workload.op(ctx, index)
        except Exception as exc:  # a raising op is a failed op; the pass goes on
            out = exc
            errors[index] = "".join(traceback.format_exception_only(exc)).strip()
        latencies.append(time.perf_counter() - start)
        if tracer:
            tracer.close(span)
        outputs.append(out)
    return latencies, outputs, workload.finish_pass(ctx), errors


@dataclass
class Measured:
    """Everything the passes of one run produced."""

    passes: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    fingerprints: list[dict] = field(default_factory=list)
    traced_fingerprints: list[tuple] = field(default_factory=list)
    # traced? -> [wall seconds, ops, CPU seconds] of the timed passes
    timed: dict = field(default_factory=lambda: {False: [0.0, 0, 0.0], True: [0.0, 0, 0.0]})
    latencies: list[float] = field(default_factory=list)
    # Per untraced timed pass, the host slowdown; per timed pass, by traced?,
    # ops per second at nominal host speed; per untraced op, its latency at
    # nominal host speed.
    slowdowns: list[float] = field(default_factory=list)
    rates_norm: dict = field(default_factory=lambda: {False: [], True: []})
    latencies_norm: list[float] = field(default_factory=list)
    tracers: list = field(default_factory=list)
    coded_errors: list[float] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        return all(fp == group[0] for group in (self.fingerprints, self.traced_fingerprints)
                   for fp in group)


def measure(workload, spans, seconds: float, traced: bool) -> Measured:
    """Run passes until ``seconds`` of timed passes (and at least two) are done.

    Pass 0 warms caches and is checked but not timed.  With tracing, odd
    passes run under the recorder and even ones without it.
    """
    m = Measured()
    while m.passes < 3 or m.timed[False][0] + m.timed[True][0] < seconds:
        under = traced and m.passes % 2 == 1
        tracer = spans.Tracer() if under else None
        # Free the previous pass's outputs and collect cycles outside timing,
        # so no pass pays for another's garbage.
        outputs = final = None
        gc.collect()
        before = reference_seconds()
        start, cpu_start = time.perf_counter(), time.process_time()
        if tracer:
            with tracer:
                latencies, outputs, final, errors = run_pass(workload, tracer)
        else:
            latencies, outputs, final, errors = run_pass(workload)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        # The host's speed during the pass, from reference jobs on either side.
        slowdown = (before + reference_seconds()) / 2 / REF_NOMINAL_S
        if m.passes > 0:
            totals = m.timed[under]
            totals[0] += wall
            totals[1] += len(latencies)
            totals[2] += cpu
            m.rates_norm[under].append(len(latencies) / wall * slowdown)
            if tracer:
                m.tracers.append(tracer)
            else:
                m.latencies.extend(latencies)
                m.slowdowns.append(slowdown)
                m.latencies_norm.extend(t / slowdown for t in latencies)
        bad = {**workload.check(outputs, final), **errors}
        m.attempted += len(outputs)
        m.failures.extend(f"pass {m.passes} op {i}: {why}" for i, why in sorted(bad.items()))
        m.fingerprints.append(workload.fingerprint(outputs))
        if tracer:
            calls = {name: s["calls"] for name, s in tracer.summary("op").items()}
            m.traced_fingerprints.append((calls, dict(tracer.counts)))
        m.coded_errors.extend(workload.decode_errors(outputs))
        m.passes += 1
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, spans = load_package()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    traced = bool(args.trace)

    setup_tracer = None
    if traced:
        setup_tracer = spans.Tracer()
        with setup_tracer:
            root = setup_tracer.open("setup")
            workload.setup()
            setup_tracer.close(root)
    setup = measure_setup(workload, 1 if traced or args.smoke else SETUP_SAMPLES)

    m = measure(workload, spans, args.seconds, traced)
    failed = len(m.failures)
    records = summarise(m, setup)
    print(f"workload {workload.name} seed {args.seed}{' smoke' if args.smoke else ''}"
          f" trace {args.trace}: closed loop, 1 caller, 1 op in flight, {m.passes} passes "
          f"of {workload.ops_per_pass} ops (pass 0 untimed)")
    print("provenance " + json.dumps(provenance(args.seed)))
    for name, (value, unit, note) in records.items():
        print(f"  {name:<20} {fmt(value):>14} {unit:<6} {note}")
    print(f"  {'determinism':<20} {'ok' if m.deterministic else 'NONDETERMINISTIC':>14}"
          f"        per-pass counts {m.fingerprints[0]}")
    if not m.deterministic:
        for i, fp in enumerate(m.fingerprints):
            print(f"    pass {i}: {fp}")
        for i, fp in enumerate(m.traced_fingerprints):
            print(f"    traced pass {i}: {fp}")
    for line in m.failures[:10]:
        print(f"  FAILED {line}")
    if failed > 10:
        print(f"  ... {failed - 10} more failed ops")

    if traced:
        metrics = layer_metrics(workload, spans, setup_tracer, m)
        chosen = PER_LAYER
    else:
        metrics = {name: records[name][0] for name in END_TO_END}
        chosen = END_TO_END
    print(json.dumps({
        "correct": failed == 0 and m.deterministic, "attempted": m.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in chosen.items()}}))
    return 0


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """The ``pct`` percentile by nearest rank, and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_pct(n: int) -> float:
    """The first of TAIL_PCTS with at least ten of ``n`` samples beyond it."""
    return next((p for p in TAIL_PCTS if n - max(1, math.ceil(p / 100 * n)) >= 10),
                TAIL_PCTS[-1])


def summarise(m: Measured, setup: tuple[float, float, int]) -> dict:
    """Every end-to-end metric as name -> (value, unit, note)."""
    seconds, ops, cpu = m.timed[False]
    ordered = sorted(m.latencies)
    pct = tail_pct(len(ordered))
    tail_value, beyond = nearest_rank(ordered, pct)
    ordered_norm = sorted(m.latencies_norm)
    slowdown = statistics.median(m.slowdowns)
    waste = sum(fp["waste"] for fp in m.fingerprints)
    leaves = sum(fp["leaves"] for fp in m.fingerprints)
    degraded = sum(fp["degraded"] for fp in m.fingerprints)
    failed = len(m.failures)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setup_wall, setup_nominal, setups = setup
    return {
        "setup_s_wall": (setup_wall, "s", f"median over samples, {setups} set-ups timed"),
        "setup_s": (setup_nominal, "s", "median over samples of seconds per set-up / "
                    "the sample's slowdown"),
        "ops_per_s": (ops / seconds, "op/s",
                      f"{ops} ops in {seconds:.3f} s untraced wall, {cpu:.3f} s CPU"),
        "op_p50_ms": (statistics.median(ordered) * 1e3, "ms", f"n={len(ordered)}"),
        "op_tail_ms": (tail_value * 1e3, "ms",
                       f"p{pct:g}, n={len(ordered)}, {beyond} samples beyond"),
        "host_slowdown": (slowdown, "ratio",
                          f"median over {len(m.slowdowns)} passes of the reference job's "
                          f"time around the pass / {REF_NOMINAL_S * 1e3:g} ms"),
        "ops_per_s_norm": (statistics.median(m.rates_norm[False]), "op/s",
                           "median over passes of ops/s x that pass's slowdown"),
        "op_p50_ms_norm": (statistics.median(ordered_norm) * 1e3, "ms",
                           "median of op latency / its pass's slowdown"),
        "op_tail_ms_norm": (nearest_rank(ordered_norm, pct)[0] * 1e3, "ms",
                            f"p{pct:g} of op latency / its pass's slowdown"),
        "waste_total": (waste, "tasks", f"over all {len(m.fingerprints)} passes"),
        "degraded_frac": (degraded / leaves if leaves else 0.0, "ratio",
                          f"{degraded} fallback leaves of {leaves}"),
        "failed_frac": (failed / m.attempted, "ratio", f"{failed} of {m.attempted} ops"),
        "decode_rel_err_max": (max(m.coded_errors) if m.coded_errors else None, "ratio",
                               f"gate 1e-09, {len(m.coded_errors)} rounds"
                               if m.coded_errors else "no coded rounds in this workload"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of this process"),
    }


def layer_metrics(workload, spans, setup_tracer, m: Measured) -> dict:
    """Per-layer numbers from the traced passes, printed as a table; returns all."""
    ops = m.timed[True][1]
    loop: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for tracer in m.tracers:
        for name, s in tracer.summary("op").items():
            entry = loop.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in entry:
                entry[key] += s[key]
        for name, value in tracer.counts.items():
            counts[name] = counts.get(name, 0) + value
    setup = setup_tracer.summary("setup")
    op_total = loop["op"]["total_s"]

    metrics: dict[str, float] = {}
    print(f"  per-layer, {len(m.tracers)} traced passes, {ops} ops "
          f"(per op unless marked per set-up)")
    print(f"    {'span':<40} {'calls':>9} {'total_ms':>10} {'self_ms':>10} {'self%':>6}")
    for module, attr in spans.TRACED:
        name = spans.span_name(module, attr)
        per_setup = name in SETUP_FUNCTIONS
        s = (setup if per_setup else loop).get(name) or {
            "calls": 0, "total_s": 0.0, "self_s": 0.0}
        div = 1 if per_setup else ops
        metrics[f"{name}.calls"] = s["calls"] / div
        metrics[f"{name}.total_ms"] = s["total_s"] * 1e3 / div
        metrics[f"{name}.self_ms"] = s["self_s"] * 1e3 / div
        if s["calls"]:
            share = "" if per_setup else f"{100 * s['self_s'] / op_total:6.1f}"
            print(f"    {name:<40} {s['calls'] / div:9.4g} {s['total_s'] * 1e3 / div:10.4f} "
                  f"{s['self_s'] * 1e3 / div:10.4f} {share:>6}"
                  f"{'  per set-up' if per_setup else ''}")
    unattributed = loop["op"]["self_s"]
    print(f"    {'(op time outside every span)':<40} {'':>9} {'':>10} "
          f"{unattributed * 1e3 / ops:10.4f} {100 * unattributed / op_total:6.1f}")

    attempted = counts.get("zero_waste.matchings_attempted", 0)
    found = counts.get("zero_waste.matchings_found", 0)
    metrics["zero_waste.graph_edges"] = counts.get("zero_waste.graph_edges", 0) / ops
    metrics["zero_waste.matchings_attempted"] = attempted / ops
    metrics["zero_waste.matchings_failed"] = (attempted - found) / ops
    if attempted:
        metrics["zero_waste.matching_success_ratio"] = found / attempted
    metrics["op.unattributed_ms"] = unattributed * 1e3 / ops
    metrics["trace.coverage_frac"] = 1 - unattributed / op_total
    untraced_rate = statistics.median(m.rates_norm[False])
    traced_rate = statistics.median(m.rates_norm[True])
    metrics["trace.overhead_frac"] = 1 - traced_rate / untraced_rate
    rounds = loop.get("coded.execute_round", {}).get("calls", 0)
    if rounds:
        metrics["coded.solves_per_round"] = loop["numpy.linalg.solve"]["calls"] / rounds
    metrics.update(workload.layer_extras())
    notes = {
        "zero_waste.graph_edges": "edges per op over the transition graphs built",
        "zero_waste.matching_success_ratio": f"{found} found of {attempted} attempted",
        "coded.solves_per_round": "numpy.linalg.solve calls per execute_round",
        "coded.shards_mb": "computed from the shard array's size",
        "coded.direct_matvec_ms": "median single-threaded matrix @ x",
        "trace.coverage_frac": "share of op time inside traced spans",
        "trace.overhead_frac": f"traced {traced_rate:.4g} vs untraced {untraced_rate:.4g} "
                               "op/s at nominal host speed",
    }
    for name, note in notes.items():
        if name in metrics:
            print(f"  {name:<36} {fmt(metrics[name]):>12} {note}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
