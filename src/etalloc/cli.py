"""Command-line front end: generate, transition, simulate, verify, and report.

Exit codes are a stable contract: 0 success, 1 infeasibility or a failed
check, 2 usage errors.  Structured output is JSON; tabular output is
tab-separated lines; human output is a short summary.  Relative output paths
are resolved against $ETALLOC_OUTPUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checks
from . import cyclic as cyc
from .configurations import (
    ZWR_FAMILIES,
    _family_parameters,
    configuration_to_json,
    fano_plane,
    projective_plane,
    tas_from_configuration,
    truncated_plane_q2,
    truncated_plane_q2_minus_1,
    validate_configuration,
    zero_waste_range,
    zwr_task_count,
)
from .core import (
    ElasticEvent,
    EtallocError,
    InfeasibleTransitionError,
    tas_from_json,
    tas_to_json,
    validate_tas,
)
from .engine import (
    ElasticTrace,
    TraceRunner,
    report_rows,
    report_to_json,
    run_trace,
    trace_from_document,
)
from .coded import encode_job, execute_round, load_matrix

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _resolve(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get("ETALLOC_OUTPUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_generate(args) -> int:
    kind = args.kind
    if kind in ("cyclic", "shifted"):
        for name in ("n", "l", "f"):
            if getattr(args, name) is None:
                print(f"generate {kind} requires --{name}", file=sys.stderr)
                return USAGE_ERROR
        alloc = cyc.cyclic_allocation(range(1, args.n + 1), args.l, args.f,
                                      args.delta if kind == "shifted" else 0)
        report = validate_tas(alloc)
        _emit(tas_to_json(alloc), _resolve(args.out))
        print(f"({args.n},{args.l},{args.f}) allocation"
              + (f" with shift {args.delta % args.f}" if kind == "shifted" else "")
              + (": valid" if report.ok else f": INVALID {report.violations}"),
              file=sys.stderr)
        return 0 if report.ok else CHECK_FAILURE
    builders = {
        "fano": lambda: fano_plane(),
        "projective": lambda: projective_plane(args.q),
        "q2": lambda: truncated_plane_q2(args.q),
        "q2m1": lambda: truncated_plane_q2_minus_1(args.q),
    }
    if kind in ("projective", "q2", "q2m1") and args.q is None:
        print(f"generate {kind} requires --q", file=sys.stderr)
        return USAGE_ERROR
    config = builders[kind]()
    report = validate_configuration(config)
    summary = (f"({config.n_points},{config.line_size}) configuration: "
               + ("valid" if report.ok else f"INVALID {report.violations}"))
    if args.f is not None:
        alloc = tas_from_configuration(config, args.f)
        tas_report = validate_tas(alloc)
        _emit(tas_to_json(alloc), _resolve(args.out))
        summary += (f"; embedded as ({alloc.n_machines},{alloc.redundancy},{args.f}) "
                    "allocation: " + ("valid" if tas_report.ok
                                      else f"INVALID {tas_report.violations}"))
        report_ok = report.ok and tas_report.ok
    else:
        _emit(configuration_to_json(config), _resolve(args.out))
        report_ok = report.ok
    print(summary, file=sys.stderr)
    return 0 if report_ok else CHECK_FAILURE


def _detect_shift(alloc) -> int | None:
    """The shift of a shifted cyclic allocation, or None if it is not one.

    The first machine's interval starts at the shift: the one task whose
    predecessor mod F it does not hold (shift 0 when the set is full).  One
    rebuild at that shift confirms the whole allocation.
    """
    f = alloc.n_tasks
    first = alloc.task_sets[alloc.machine_ids[0]]
    if len(first) == f:
        shift = 0
    else:
        shift = next((t for t in first if (t - 1) % f not in first), None)
        if shift is None:
            return None
    candidate = cyc.cyclic_allocation(alloc.machine_ids, alloc.redundancy, f, shift)
    return shift if candidate.task_sets == alloc.task_sets else None


def _cmd_transition(args) -> int:
    alloc = tas_from_json(Path(args.tas).read_text())
    shift = 0
    if args.strategy == "shifted":
        detected = _detect_shift(alloc)
        shift = args.delta_prev if args.delta_prev is not None else detected
        if shift is None:
            print("input is not a shifted cyclic allocation; pass --delta-prev",
                  file=sys.stderr)
            return USAGE_ERROR
        # Full sets (N = L) look the same at every shift.
        if (detected is not None and alloc.redundancy < alloc.n_machines
                and (shift - detected) % alloc.n_tasks):
            print(f"--delta-prev {shift} disagrees with the input's shift {detected}",
                  file=sys.stderr)
            return USAGE_ERROR
    event = (ElasticEvent.leave(args.leave) if args.leave is not None
             else ElasticEvent.join(args.join or None))
    runner = TraceRunner(ElasticTrace(
        alloc.n_machines, alloc.redundancy, alloc.n_tasks, strategy=args.strategy,
        events=(event,), seed_allocation=alloc, initial_shift=shift))
    record = runner.apply(event)
    new_alloc = runner.allocation
    survivors = [m for m in new_alloc.machine_ids if m in alloc.task_sets]
    if args.strategy == "zero_waste" and event.kind == "leave":
        old_sets, new_sets = alloc.task_sets, new_alloc.task_sets
        assignment = {t: m for m in survivors for t in new_sets[m] - old_sets[m]}
        print("matching: " + json.dumps(
            {str(t): m for t, m in sorted(assignment.items())}), file=sys.stderr)
    _emit(tas_to_json(new_alloc), _resolve(args.out))
    # Per machine, abandoned + acquired = |S ^ S'| = waste + load change.
    stats = runner.report().machine_stats
    per = " ".join(f"{m}:{sum(stats[m]) - record.load_change}" for m in sorted(survivors))
    shift_note = f", shift {record.shift}" if record.shift is not None else ""
    print(f"total waste {record.waste}, load change {record.load_change}{shift_note}; "
          f"per machine: {per}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    trace = trace_from_document(json.loads(Path(args.trace).read_text()))
    report = run_trace(trace, strategy=args.strategy)
    if args.format == "tabular":
        _emit("\n".join(report_rows(report)) + "\n", _resolve(args.out))
    else:
        _emit(report_to_json(report), _resolve(args.out))
    print(f"strategy {report.strategy}: cumulative waste {report.cumulative_waste}, "
          f"{report.infeasible_count} infeasible events over {len(report.records)}",
          file=sys.stderr)
    return 0 if report.infeasible_count == 0 and report.aborted is None else CHECK_FAILURE


def _cmd_verify(args) -> int:
    kwargs = {}
    if args.scope == "formulas":
        kwargs = {"l_max": args.lmax, "n_max": args.nmax, "multiplier": args.multiplier}
    elif args.scope == "hall":
        kwargs = {"n_samples": args.count, "seed": args.seed}
    elif args.scope == "zwr":
        kwargs = {"family": args.family}
    elif args.scope == "coded":
        kwargs = {"tolerance": args.e, "seed": args.seed, "trials": args.trials}
    results = checks.run_suite(args.scope, **kwargs)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failed += not result.passed
        line = f"{status} {result.name}"
        if result.detail:
            line += f" [{result.detail}]"
        print(line)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else CHECK_FAILURE


def _cmd_shift_profile(args) -> int:
    profile = cyc.shift_waste_profile(args.n, args.l, args.f, args.delta_prev)
    lines = [f"{shift}\t{waste}" for shift, waste in sorted(profile.items())]
    _emit("\n".join(lines) + "\n", _resolve(args.out))
    best = min(profile.items(), key=lambda kv: (kv[1], kv[0]))
    print(f"minimum waste {best[1]} at shift {best[0]}", file=sys.stderr)
    return 0


def _cmd_zwr(args) -> int:
    takes = ("nmax",) if args.family in ("l3", "l4") else ("q",) if args.family else ("nmax", "l")
    stray = [f"--{name}" for name in ("q", "nmax", "l")
             if name not in takes and getattr(args, name) is not None]
    if stray:
        mode = f"--family {args.family}" if args.family else "without --family"
        print(f"zwr {mode} does not take {', '.join(stray)}", file=sys.stderr)
        return USAGE_ERROR
    if args.family:
        n_max, redundancy = _family_parameters(args.family, args.q, args.nmax)
    elif args.nmax is None or args.l is None:
        print("zwr requires --family or both --nmax and --l", file=sys.stderr)
        return USAGE_ERROR
    else:
        n_max, redundancy = args.nmax, args.l
    result = zero_waste_range(n_max, redundancy)
    f = zwr_task_count(result.n_min, result.n_max)
    if args.format == "structured":
        print(json.dumps({
            "n_max": result.n_max, "n_min": result.n_min,
            "removable": result.removable, "discriminant": result.discriminant,
            "redundancy": redundancy, "least_task_count": f}))
    else:
        print(f"n_max\t{result.n_max}\nn_min\t{result.n_min}\nremovable\t"
              f"{result.removable}\ndiscriminant\t{result.discriminant}\n"
              f"least_task_count\t{f}")
    return 0


def _cmd_coded_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.matrix:
        matrix = np.atleast_2d(load_matrix(args.matrix))
        x = (load_matrix(args.vector).ravel() if args.vector
             else rng.normal(size=matrix.shape[1]))
    else:
        matrix = rng.normal(size=(args.rows, args.cols))
        x = rng.normal(size=args.cols)
    alloc = cyc.cyclic_tas(args.n, args.l, args.f)
    job = encode_job(matrix, x, args.f, args.l, args.e, args.n)
    stragglers = set(args.straggler or ())
    outcome = execute_round(job, alloc, stragglers)
    if not outcome.recovered:
        print(f"insufficient results: task {outcome.unrecoverable_task} unrecoverable "
              f"with stragglers {sorted(stragglers)}")
        return CHECK_FAILURE
    direct = matrix @ x
    abs_err = float(np.max(np.abs(outcome.product - direct)))
    rel_err = abs_err / max(float(np.max(np.abs(direct))), 1e-30)
    print(f"recovered {matrix.shape[0]}-row product on ({args.n},{args.l},{args.f}) "
          f"allocation, stragglers {sorted(stragglers)}")
    print(f"max abs error {abs_err:.3e}, max rel error {rel_err:.3e}")
    return 0 if rel_err < 1e-9 else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etalloc",
        description="Elastic task allocation: generation, transitions, simulation, "
                    "verification.")
    parser.add_argument("--format", choices=("human", "tabular", "structured"),
                        default="human", help="output flavor where applicable")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit an allocation or configuration")
    p.add_argument("kind", choices=("cyclic", "shifted", "fano", "projective",
                                    "q2", "q2m1"))
    p.add_argument("--n", type=int, help="machine count for cyclic kinds")
    p.add_argument("--l", type=int, help="redundancy for cyclic kinds")
    p.add_argument("--f", type=int, help="task count (embeds configurations)")
    p.add_argument("--delta", type=int, default=0, help="shift for kind=shifted")
    p.add_argument("--q", type=int, help="prime power for geometric kinds")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("transition", help="apply one join/leave to an allocation file")
    p.add_argument("--tas", required=True, help="input allocation file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--leave", type=int, help="label of the leaving machine")
    group.add_argument("--join", type=int, nargs="?", const=0,
                       help="join (optionally with an explicit label)")
    p.add_argument("--strategy", default="cyclic",
                   choices=("cyclic", "shifted", "zero_waste"))
    p.add_argument("--delta-prev", type=int,
                   help="current shift of the input allocation (otherwise detected)")
    p.add_argument("--out", help="output allocation file (default stdout)")
    p.set_defaults(func=_cmd_transition)

    p = sub.add_parser("simulate", help="run a trace file and report waste")
    p.add_argument("--trace", required=True)
    p.add_argument("--strategy", help="override the trace's strategy")
    p.add_argument("--out", help="report file (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run a self-verification suite")
    p.add_argument("scope", choices=sorted(checks.SUITES))
    p.add_argument("--lmax", type=int, default=5)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--multiplier", type=int, default=1)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=20240601)
    p.add_argument("--family", default="all", choices=("fano", "table", "all"))
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--trials", type=int, default=3)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("shift-profile", help="dump waste for every shift (join case)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--delta-prev", type=int, default=0)
    p.add_argument("--out", help="two-column output file (default stdout)")
    p.set_defaults(func=_cmd_shift_profile)

    p = sub.add_parser("zwr", help="zero-waste range for a configuration family")
    p.add_argument("--family", choices=ZWR_FAMILIES)
    p.add_argument("--q", type=int)
    p.add_argument("--nmax", type=int)
    p.add_argument("--l", type=int)
    p.set_defaults(func=_cmd_zwr)

    p = sub.add_parser("coded-demo", help="straggler-tolerant coded multiply demo")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--f", type=int, default=20)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--rows", type=int, default=40)
    p.add_argument("--cols", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matrix", help="matrix file (whitespace-delimited text)")
    p.add_argument("--vector", help="vector file (whitespace-delimited text)")
    p.add_argument("--straggler", type=int, action="append",
                   help="straggling machine label (repeatable)")
    p.set_defaults(func=_cmd_coded_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleTransitionError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    except (EtallocError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
