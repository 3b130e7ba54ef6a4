"""Command-line surface: round trips, exit codes, and output formats."""

import hashlib
import json
import random

import pytest

from etalloc import (
    EtallocError,
    TaskAllocation,
    configuration_to_document,
    tas_from_configuration,
    tas_from_json,
    fano_plane,
    projective_plane,
    trace_to_document,
    truncated_plane_q2,
    truncated_plane_q2_minus_1,
    validate_tas,
    ElasticEvent,
    ElasticTrace,
    build_transition_graph,
    cyclic_allocation,
    find_delta_matching,
    run_trace,
    tas_to_document,
    tas_to_json,
    transition_waste,
)
from etalloc.checks import doubled_block_tas, perturbed
from etalloc.cli import _detect_shift, main

from oracles import assert_perfect_intake


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_cyclic_round_trip(self, tmp_path, capsys):
        out = tmp_path / "tas.json"
        code, _, err = run(["generate", "cyclic", "--n", "5", "--l", "3",
                            "--f", "20", "--out", str(out)], capsys)
        assert code == 0 and "valid" in err
        alloc = tas_from_json(out.read_text())
        assert validate_tas(alloc).ok
        assert alloc.task_sets[1] == frozenset(range(12))

    def test_shifted(self, tmp_path, capsys):
        out = tmp_path / "tas.json"
        code, _, _ = run(["generate", "shifted", "--n", "4", "--l", "3",
                          "--f", "20", "--delta", "17", "--out", str(out)], capsys)
        assert code == 0
        alloc = tas_from_json(out.read_text())
        assert alloc.task_sets[1] == frozenset(range(17, 20)) | frozenset(range(12))

    def test_fano_configuration_to_stdout(self, capsys):
        code, out, _ = run(["generate", "fano"], capsys)
        assert code == 0
        assert json.loads(out) == configuration_to_document(fano_plane())

    def test_fano_embedding(self, tmp_path, capsys):
        out = tmp_path / "fano14.json"
        code, _, _ = run(["generate", "fano", "--f", "14", "--out", str(out)], capsys)
        assert code == 0
        assert tas_from_json(out.read_text()) == tas_from_configuration(fano_plane(), 14)

    @pytest.mark.parametrize("kind,builder", [
        ("projective", projective_plane),
        ("q2", truncated_plane_q2),
        ("q2m1", truncated_plane_q2_minus_1),
    ])
    def test_geometric_kinds_round_trip(self, kind, builder, tmp_path, capsys):
        out = tmp_path / f"{kind}.json"
        code, _, _ = run(["generate", kind, "--q", "3", "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text()) == configuration_to_document(builder(3))

    def test_non_prime_power_is_usage_error(self, capsys):
        code, _, err = run(["generate", "projective", "--q", "6"], capsys)
        assert code == 2 and "prime power" in err

    def test_missing_params_is_usage_error(self, capsys):
        code, _, _ = run(["generate", "cyclic", "--n", "5"], capsys)
        assert code == 2

    def test_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ETALLOC_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(["generate", "cyclic", "--n", "4", "--l", "2",
                          "--f", "8", "--out", "nested/tas.json"], capsys)
        assert code == 0
        assert (tmp_path / "nested" / "tas.json").exists()


class TestTransition:
    @pytest.fixture
    def fig1a(self, tmp_path, capsys):
        out = tmp_path / "fig1a.json"
        run(["generate", "cyclic", "--n", "5", "--l", "3", "--f", "20",
             "--out", str(out)], capsys)
        return out

    def test_cyclic_leave_costs_twelve(self, fig1a, tmp_path, capsys):
        out = tmp_path / "next.json"
        code, _, err = run(["transition", "--tas", str(fig1a), "--leave", "5",
                            "--strategy", "cyclic", "--out", str(out)], capsys)
        assert code == 0 and "total waste 12" in err

    def test_shifted_leave_costs_nothing(self, fig1a, tmp_path, capsys):
        out = tmp_path / "next.json"
        code, _, err = run(["transition", "--tas", str(fig1a), "--leave", "5",
                            "--strategy", "shifted", "--out", str(out)], capsys)
        assert code == 0 and "total waste 0" in err and "shift 17" in err

    def test_zero_waste_leave_prints_matching(self, fig1a, tmp_path, capsys):
        out = tmp_path / "next.json"
        code, _, err = run(["transition", "--tas", str(fig1a), "--leave", "5",
                            "--strategy", "zero_waste", "--out", str(out)], capsys)
        assert code == 0 and "total waste 0" in err and "matching:" in err
        alloc = tas_from_json(out.read_text())
        assert validate_tas(alloc).ok

    def test_infeasible_zero_waste_exits_one_with_witness(self, tmp_path, capsys):
        bad = tmp_path / "doubled.json"
        bad.write_text(tas_to_json(doubled_block_tas(4, 12)))
        code, _, err = run(["transition", "--tas", str(bad), "--leave", "1",
                            "--strategy", "zero_waste"], capsys)
        assert code == 1 and "violating machine subset" in err

    def test_infeasible_above_enumeration_limit_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "doubled22.json"
        bad.write_text(tas_to_json(doubled_block_tas(22, 462)))
        code, _, err = run(["transition", "--tas", str(bad), "--leave", "1",
                            "--strategy", "zero_waste"], capsys)
        assert code == 1 and "violating machine subset: [2]" in err

    def test_zero_waste_matching_line_is_the_delta_matching(self, tmp_path, capsys):
        pool = tas_from_configuration(projective_plane(3), 312)
        path = tmp_path / "projective.json"
        path.write_text(tas_to_json(pool))
        code, _, err = run(["transition", "--tas", str(path), "--leave", "4",
                            "--strategy", "zero_waste", "--out", str(tmp_path / "n.json")],
                           capsys)
        graph = build_transition_graph(pool, 4)
        intake = find_delta_matching(graph)
        assert_perfect_intake(graph, intake)
        expected = "matching: " + json.dumps(
            {str(t): m for t, m in sorted((t, m) for m, tasks in intake.items() for t in tasks)})
        line = err.splitlines()[0]
        assert code == 0 and line == expected
        # The flow's expansion order is part of the output, so the line is pinned.
        assert hashlib.sha256(line.encode()).hexdigest() == (
            "14bb5d21d9f84e2a757ca4f56cd5288af02a13f70878528de903116e775c0566")

    def test_detected_shift_equals_given_shift(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 8)
            l = rng.randint(1, n)
            f = n * rng.randint(1, 12)
            labels = rng.sample(range(1, 20), n)
            shift = rng.randrange(-f, 2 * f)
            alloc = cyclic_allocation(labels, l, f, shift)
            assert _detect_shift(alloc) == (0 if l == n else shift % f)

    def test_detection_rejects_non_cyclic_allocations(self):
        assert _detect_shift(perturbed(cyclic_allocation(range(1, 7), 2, 30, 4),
                                       random.Random(2), 3)) is None
        alloc = cyclic_allocation(range(1, 6), 3, 20, 5)
        sets = [alloc.task_sets[m] for m in alloc.machine_ids]
        sets[1], sets[2] = sets[2], sets[1]
        assert _detect_shift(TaskAllocation.from_sets(sets, 3, 20)) is None

    def test_shifted_leave_with_detected_or_given_shift(self, tmp_path, capsys):
        path = tmp_path / "shifted.json"
        path.write_text(tas_to_json(cyclic_allocation(range(1, 21), 3, 7980, 5000)))
        outputs = []
        for extra in ([], ["--delta-prev", "5000"]):
            code, out, err = run(["transition", "--tas", str(path), "--leave", "3",
                                  "--strategy", "shifted", *extra], capsys)
            assert code == 0
            outputs.append((out, err))
        assert outputs[0] == outputs[1]

    def test_wrong_given_shift_is_usage_error(self, fig1a, capsys):
        # Run from shift 3, this leave would cost 12; from the real shift 0 it is free.
        code, out, err = run(["transition", "--tas", str(fig1a), "--leave", "5",
                              "--strategy", "shifted", "--delta-prev", "3"], capsys)
        assert code == 2 and not out
        assert "--delta-prev 3" in err and "shift 0" in err

    def test_non_shifted_input_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "fano.json"
        path.write_text(tas_to_json(tas_from_configuration(fano_plane(), 14)))
        code, _, err = run(["transition", "--tas", str(path), "--leave", "3",
                            "--strategy", "shifted"], capsys)
        assert code == 2 and "not a shifted cyclic allocation" in err

    @pytest.mark.parametrize("tasks", [[0.7, *range(1, 10)], [0, 1.2, *range(2, 10)],
                                       "0123456789"])
    def test_non_integral_tasks_are_usage_errors(self, tasks, tmp_path, capsys):
        # Read as int(t) or per character, each of these would be machine 1's {0..9}.
        doc = tas_to_document(cyclic_allocation([1, 2], 1, 20))
        doc["machines"][0]["tasks"] = tasks
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["transition", "--tas", str(path), "--leave", "2",
                            "--strategy", "cyclic"], capsys)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("generate,event,shift", [
        (["--n", "4", "--l", "3", "--f", "12", "--delta", "5"], ["--leave", "2"], 5),
        (["--n", "3", "--l", "3", "--f", "12"], ["--join"], 0),
    ])
    def test_shifted_step_to_or_from_full_sets_keeps_the_shift(
            self, generate, event, shift, tmp_path, capsys):
        # With N-1 = L after a leave, or N = L before a join, one side's sets are
        # full, so no shift is optimised and the move costs nothing.
        path = tmp_path / "shifted.json"
        run(["generate", "shifted", *generate, "--out", str(path)], capsys)
        code, _, err = run(["transition", "--tas", str(path), *event,
                            "--strategy", "shifted"], capsys)
        assert code == 0 and "total waste 0" in err and f"shift {shift};" in err

    def test_unknown_machine_is_usage_error(self, fig1a, capsys):
        code, _, _ = run(["transition", "--tas", str(fig1a), "--leave", "9"], capsys)
        assert code == 2

    def test_join_works(self, fig1a, tmp_path, capsys):
        out = tmp_path / "next.json"
        code, _, _ = run(["transition", "--tas", str(fig1a), "--join",
                          "--strategy", "zero_waste", "--out", str(out)], capsys)
        assert code == 0
        assert tas_from_json(out.read_text()).n_machines == 6


EQUIVALENCE_POOLS = {
    "fig1": lambda: cyclic_allocation(range(1, 6), 3, 20),
    "shifted": lambda: cyclic_allocation(range(1, 21), 3, 7980, 5000),
    "projective": lambda: tas_from_configuration(projective_plane(3), 312),
}


@pytest.mark.parametrize("event", [ElasticEvent.leave(2), ElasticEvent.join()],
                         ids=["leave", "join"])
@pytest.mark.parametrize("strategy", ["cyclic", "shifted", "zero_waste"])
@pytest.mark.parametrize("pool", sorted(EQUIVALENCE_POOLS))
def test_transition_equals_one_event_trace(pool, strategy, event, tmp_path, capsys):
    alloc = EQUIVALENCE_POOLS[pool]()
    path, out = tmp_path / "pool.json", tmp_path / "next.json"
    path.write_text(tas_to_json(alloc))
    # A non-cyclic pool runs the shifted strategy from shift 0, as the engine would.
    shift = _detect_shift(alloc)
    extra = ["--delta-prev", "0"] if strategy == "shifted" and shift is None else []
    move = ["--leave", str(event.machine)] if event.kind == "leave" else ["--join"]
    code, _, err = run(["transition", "--tas", str(path), *move, "--strategy", strategy,
                        "--out", str(out), *extra], capsys)
    trace = ElasticTrace(alloc.n_machines, alloc.redundancy, alloc.n_tasks,
                         strategy=strategy, events=(event,), seed_allocation=alloc,
                         initial_shift=shift or 0)
    try:
        report = run_trace(trace)
    except EtallocError as exc:  # a join the pool's task count does not allow
        assert code == 2 and f"error: {exc}" in err
        return
    assert code == 0
    assert tas_from_json(out.read_text()) == report.final
    assert f"total waste {report.cumulative_waste}," in err
    # The per-machine figures are derived from the runner's stats; measure them here.
    per = transition_waste(alloc, report.final).per_machine_waste
    assert err.endswith("per machine: " + " ".join(f"{m}:{w}" for m, w in sorted(per.items()))
                        + "\n")


# Machine 1 lists task 0 twice; folded into a set, it would load as a valid allocation.
REPEATED_TASK = tas_to_document(cyclic_allocation(range(1, 6), 3, 20))
REPEATED_TASK["machines"][0]["tasks"].insert(0, 0)

MALFORMED_DOCUMENTS = [
    ("transition", {"n_machines": 2, "redundancy": 1, "n_tasks": 2,
                    "machines": [{"id": 1}, {"id": 2, "tasks": [1]}]}, "'tasks'"),
    ("transition", {"n_machines": 2, "redundancy": 1,
                    "machines": [{"id": 1, "tasks": [0]}, {"id": 2, "tasks": [1]}]},
     "'n_tasks'"),
    ("transition", [], "JSON object"),
    ("simulate", {"initial": {"n0": 5, "l": 3, "f": 20}, "events": [{"machine": 5}]},
     "'kind'"),
    ("simulate", {"initial": {"n0": 5, "l": 3, "f": 20}}, "'events'"),
    ("simulate", {"initial": {"n0": 5, "l": 3, "f": 20, "shift": [1]}, "events": []},
     "'shift'"),
    ("transition", {"n_machines": 3, "redundancy": 2, "n_tasks": 6.9,
                    "machines": [{"id": m, "tasks": [(m - 1 + i) % 6 for i in range(4)]}
                                 for m in (1, 2, 3)]}, "'n_tasks' must be int, got float"),
    ("transition", {"n_machines": 2, "redundancy": True, "n_tasks": 2,
                    "machines": [{"id": 1, "tasks": [0]}, {"id": 2, "tasks": [1]}]},
     "'redundancy' must be int, got bool"),
    ("simulate", {"initial": {"n0": "5", "l": 3, "f": 20}, "events": []},
     "'n0' must be int, got str"),
    ("simulate", {"initial": {"n0": 5, "l": 3.5, "f": 20}, "events": []},
     "'l' must be int, got float"),
    ("simulate", {"initial": {"n0": 5, "l": 3, "f": 20, "nmax": True}, "events": []},
     "'nmax' must be int, got bool"),
    ("simulate", {"initial": {"n0": 5, "l": 3, "f": 20, "seed_tas": {}}, "events": []},
     "allocation has no 'machines' field"),
    ("transition", REPEATED_TASK, "machine 1 lists a task index more than once"),
]


@pytest.mark.parametrize("command,doc,field", MALFORMED_DOCUMENTS,
                         ids=["no-tasks", "no-n_tasks", "list", "no-kind", "no-events",
                              "list-shift", "float-n_tasks", "bool-redundancy", "str-n0",
                              "float-l", "bool-nmax", "empty-seed_tas", "repeated-task"])
def test_malformed_documents_are_usage_errors(command, doc, field, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = (["transition", "--tas", str(path), "--leave", "2"] if command == "transition"
            else ["simulate", "--trace", str(path)])
    code, _, err = run(argv, capsys)
    assert code == 2 and err.startswith("error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["transition", "simulate"])
def test_boolean_task_is_usage_error(command, tmp_path, capsys):
    # Read as task 1, this true would leave a valid (5,3,20) allocation.
    doc = tas_to_document(cyclic_allocation(range(1, 6), 3, 20))
    doc["machines"][0]["tasks"][1] = True
    path = tmp_path / "doc.json"
    if command == "transition":
        path.write_text(json.dumps(doc))
        argv = ["transition", "--tas", str(path), "--leave", "5", "--strategy", "zero_waste"]
    else:
        path.write_text(json.dumps({
            "initial": {"n0": 5, "l": 3, "f": 20, "strategy": "zero_waste", "seed_tas": doc},
            "events": [{"kind": "leave", "machine": 5}]}))
        argv = ["simulate", "--trace", str(path)]
    code, out, err = run(argv, capsys)
    assert code == 2 and err.startswith("error:") and "non-integer task index" in err
    assert not out


class TestSimulate:
    @pytest.fixture
    def trace_file(self, tmp_path):
        trace = ElasticTrace(initial_machines=5, redundancy=3, n_tasks=20,
                             events=(ElasticEvent.leave(5),))
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace_to_document(trace)))
        return path

    @pytest.mark.parametrize("strategy,waste", [
        ("cyclic", 12), ("shifted_cyclic", 0), ("zero_waste", 0)])
    def test_fig1_trace_under_each_strategy(self, trace_file, tmp_path, capsys,
                                            strategy, waste):
        out = tmp_path / "report.json"
        code, _, err = run(["simulate", "--trace", str(trace_file),
                            "--strategy", strategy, "--out", str(out)], capsys)
        assert code == 0 and f"cumulative waste {waste}" in err
        report = json.loads(out.read_text())
        assert report["cumulative_waste"] == waste

    def test_tabular_format(self, trace_file, capsys):
        code, out, _ = run(["--format", "tabular", "simulate",
                            "--trace", str(trace_file)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index\tkind\tmachine\twaste\tdelta\tfeasible"
        assert lines[1].split("\t")[:4] == ["0", "leave", "5", "12"]

    def test_empty_trace(self, tmp_path, capsys):
        trace = ElasticTrace(initial_machines=5, redundancy=3, n_tasks=20)
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(trace_to_document(trace)))
        code, _, err = run(["simulate", "--trace", str(path)], capsys)
        assert code == 0 and "cumulative waste 0" in err

    def test_fano_hundred_event_trace_is_waste_free(self, tmp_path, capsys):
        import random
        from etalloc import tas_from_configuration, fano_plane
        rng = random.Random(99)
        events, count = [], 7
        active = list(range(1, 8))
        departed = []
        for _ in range(100):
            if count == 7 or (count > 5 and rng.random() < 0.5):
                leaver = rng.choice(active)
                events.append(ElasticEvent.leave(leaver))
                active.remove(leaver)
                departed.append(leaver)
                count -= 1
            else:
                events.append(ElasticEvent.join())
                active.append(departed.pop())
                count += 1
        trace = ElasticTrace(
            initial_machines=7, redundancy=3, n_tasks=420, strategy="zero_waste",
            n_min=5, n_max=7, seed_allocation=tas_from_configuration(fano_plane(), 420),
            events=tuple(events))
        path = tmp_path / "fano_trace.json"
        path.write_text(json.dumps(trace_to_document(trace)))
        code, _, err = run(["simulate", "--trace", str(path)], capsys)
        assert code == 0 and "cumulative waste 0" in err

    @pytest.mark.parametrize("initial, message", [
        ({"n0": 5, "l": 3, "f": 20, "nmax": 0}, "outside [3, 0]"),
        ({"n0": 3, "l": 3, "f": 6, "strategy": "zero_waste", "nmin": 0},
         "n_min=0 is below the redundancy 3"),
    ])
    def test_trace_bounds_are_usage_errors(self, tmp_path, capsys, initial, message):
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps({"initial": initial,
                                    "events": [{"kind": "leave", "machine": 3}]}))
        code, out, err = run(["simulate", "--trace", str(path)], capsys)
        assert code == 2 and not out and message in err

    def test_zero_waste_join_of_another_label_exits_two(self, tmp_path, capsys):
        trace = ElasticTrace(
            initial_machines=7, redundancy=3, n_tasks=420, strategy="zero_waste",
            n_min=5, seed_allocation=tas_from_configuration(fano_plane(), 420),
            events=(ElasticEvent.leave(3), ElasticEvent.join(9)))
        path = tmp_path / "relabel.json"
        path.write_text(json.dumps(trace_to_document(trace)))
        code, out, err = run(["simulate", "--trace", str(path)], capsys)
        assert code == 2 and not out
        assert "join of machine 9 would climb back to departed machine 3" in err

    def test_infeasible_trace_exits_one(self, tmp_path, capsys):
        trace = ElasticTrace(initial_machines=4, redundancy=2, n_tasks=12,
                             strategy="zero_waste",
                             seed_allocation=doubled_block_tas(4, 12),
                             events=(ElasticEvent.leave(1),))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(trace_to_document(trace)))
        code, _, err = run(["simulate", "--trace", str(path)], capsys)
        assert code == 1 and "infeasible" in err


class TestVerify:
    def test_formulas_small_grid(self, capsys):
        code, out, _ = run(["verify", "formulas", "--lmax", "2", "--nmax", "4"], capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_zwr_table(self, capsys):
        code, out, _ = run(["verify", "zwr", "--family", "table"], capsys)
        assert code == 0 and "FAIL" not in out

    def test_zwr_fano_range_drill(self, capsys):
        code, out, _ = run(["verify", "zwr", "--family", "fano"], capsys)
        assert code == 0 and out.endswith("7/7 checks passed\n")
        assert "[5,7]" in out and "42 ordered leave pairs" in out
        assert ("cyclic (7,3) root below-range survival probe (report only) "
                "[to 4 machines: 199 feasible / 11 infeasible;") in out

    def test_hall_suite(self, capsys):
        code, out, _ = run(["verify", "hall", "--count", "30", "--seed", "6"], capsys)
        assert code == 0 and "infeasible" in out

    @pytest.mark.parametrize("argv,message", [
        (["formulas", "--lmax", "1"], "l_max=1"),
        (["formulas", "--nmax", "3"], "n_max=3"),
        (["coded", "--trials", "0"], "got 0"),
        (["hall", "--count", "-3"], "n_samples=-3"),
        (["formulas", "--multiplier", "0"], "multiplier=0"),
        (["formulas", "--multiplier", "-1"], "multiplier=-1"),
    ])
    def test_runs_that_check_nothing_are_usage_errors(self, argv, message, capsys):
        code, out, err = run(["verify", *argv], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err


class TestShiftProfile:
    def test_two_column_dump(self, tmp_path, capsys):
        out = tmp_path / "profile.tsv"
        code, _, err = run(["shift-profile", "--n", "4", "--l", "3", "--f", "20",
                            "--out", str(out)], capsys)
        assert code == 0 and "minimum waste 0 at shift 3" in err
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 20
        assert lines[3] == "3\t0"


class TestZwr:
    def test_structured_output(self, capsys):
        code, out, _ = run(["--format", "structured", "zwr",
                            "--family", "projective", "--q", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["n_max"], doc["n_min"], doc["least_task_count"]) == (7, 5, 140)

    def test_general_parameters(self, capsys):
        code, out, _ = run(["zwr", "--nmax", "13", "--l", "4"], capsys)
        assert code == 0 and "n_min\t9" in out

    def test_requires_parameters(self, capsys):
        code, _, _ = run(["zwr"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv,stray", [
        (["--family", "projective", "--q", "3", "--nmax", "40"], "--nmax"),
        (["--family", "l3", "--nmax", "9", "--q", "5"], "--q"),
        (["--family", "l4", "--nmax", "13", "--l", "4"], "--l"),
        (["--family", "q2", "--q", "3", "--l", "3"], "--l"),
        (["--nmax", "9", "--l", "3", "--q", "7"], "--q"),
    ])
    def test_flags_the_mode_ignores_are_usage_errors(self, capsys, argv, stray):
        code, out, err = run(["zwr", *argv], capsys)
        assert code == 2 and not out
        assert f"does not take {stray}" in err

    @pytest.mark.parametrize("argv,n_min,redundancy", [
        (["--family", "l3", "--nmax", "9"], 7, 3),
        (["--family", "l4", "--nmax", "13"], 9, 4),
        (["--family", "projective", "--q", "3"], 9, 4),
        (["--family", "q2m1", "--q", "4"], 11, 4),
    ])
    def test_family_reports_its_redundancy(self, capsys, argv, n_min, redundancy):
        code, out, _ = run(["--format", "structured", "zwr", *argv], capsys)
        doc = json.loads(out)
        assert code == 0 and (doc["n_min"], doc["redundancy"]) == (n_min, redundancy)

    @pytest.mark.parametrize("argv", [["--family", "l3"], ["--family", "q2"],
                                      ["--family", "projective", "--q", "6"]])
    def test_family_without_its_parameter_is_a_usage_error(self, capsys, argv):
        code, out, _ = run(["zwr", *argv], capsys)
        assert code == 2 and not out


class TestCodedDemo:
    def test_recovers_with_straggler(self, capsys):
        code, out, _ = run(["coded-demo", "--seed", "1", "--straggler", "2"], capsys)
        assert code == 0 and "recovered" in out

    def test_too_many_stragglers(self, capsys):
        code, out, _ = run(["coded-demo", "--straggler", "1", "--straggler", "2"],
                           capsys)
        assert code == 1 and "insufficient" in out

    def test_matrix_files(self, tmp_path, capsys):
        import numpy as np
        rng = np.random.default_rng(7)
        np.savetxt(tmp_path / "a.txt", rng.normal(size=(40, 4)))
        np.savetxt(tmp_path / "x.txt", rng.normal(size=4))
        code, out, _ = run(["coded-demo", "--matrix", str(tmp_path / "a.txt"),
                            "--vector", str(tmp_path / "x.txt"),
                            "--straggler", "5"], capsys)
        assert code == 0 and "recovered 40-row product" in out
