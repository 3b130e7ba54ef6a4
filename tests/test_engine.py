"""Trace execution, the same trace under each strategy, and walks of the zero-waste transition tree."""

import json
import math
import random

import pytest

from etalloc import (
    ElasticEvent,
    ElasticTrace,
    EtallocError,
    InfeasibleTransitionError,
    TraceRunner,
    cyclic_tas,
    fano_plane,
    full_tree_node_count,
    optimal_shift_join,
    optimal_shift_leave,
    run_trace,
    tas_from_configuration,
    trace_from_document,
    trace_to_document,
    validate_tas,
)
from etalloc import core, engine, zero_waste
from etalloc.checks import doubled_block_tas, perturbed, probe_zero_waste_depth
from etalloc.cli import main
from etalloc.engine import STRATEGIES, report_rows, report_to_document

FIG1_TRACE = ElasticTrace(initial_machines=5, redundancy=3, n_tasks=20,
                          events=(ElasticEvent.leave(5),))


class TestRunTrace:
    def test_cyclic_single_leave(self):
        report = run_trace(FIG1_TRACE, strategy="cyclic")
        assert report.cumulative_waste == 12
        assert report.records[0].load_change == 3

    def test_shifted_single_leave(self):
        report = run_trace(FIG1_TRACE, strategy="shifted_cyclic")
        assert report.cumulative_waste == 0
        assert report.records[0].shift == 17

    def test_zero_waste_single_leave(self):
        report = run_trace(FIG1_TRACE, strategy="zero_waste")
        assert report.cumulative_waste == 0

    def test_allocation_stays_valid_throughout(self):
        rng = random.Random(3)
        events = []
        count = 5
        for _ in range(8):
            if count <= 4 or (count < 6 and rng.random() < 0.5):
                events.append(ElasticEvent.join())
                count += 1
            else:
                events.append(None)  # placeholder, leaver chosen while running
                count -= 1
        trace = ElasticTrace(initial_machines=5, redundancy=2,
                             n_tasks=math.lcm(*(n * (n + 1) for n in range(4, 8))),
                             strategy="cyclic")
        runner = TraceRunner(trace)
        for event in events:
            if event is None:
                leaver = rng.choice(runner.allocation.machine_ids)
                event = ElasticEvent.leave(leaver)
            record = runner.apply(event)
            assert validate_tas(runner.allocation).ok
            assert record.waste >= 0

    def test_shifted_chain_tracks_predictions(self):
        # joins 4->5->6 then leaves 6->5->4; the shift threads through so each
        # transition must hit its predicted optimal waste
        f = 60
        predictions = []
        params, w = optimal_shift_join(4, 3, f, 0)
        predictions.append(w)
        params2, w = optimal_shift_join(5, 3, f, params.shift)
        predictions.append(w)
        params3, w = optimal_shift_leave(6, 3, f, params2.shift, leaver_position=6)
        predictions.append(w)
        _, w = optimal_shift_leave(5, 3, f, params3.shift, leaver_position=5)
        predictions.append(w)
        trace = ElasticTrace(
            initial_machines=4, redundancy=3, n_tasks=f, strategy="shifted_cyclic",
            events=(ElasticEvent.join(), ElasticEvent.join(),
                    ElasticEvent.leave(6), ElasticEvent.leave(5)))
        report = run_trace(trace)
        assert [r.waste for r in report.records] == predictions == [0, 4, 4, 0]

    def test_zero_waste_leaves_then_joins_return_to_start(self):
        alloc = tas_from_configuration(fano_plane(), 420)
        trace = ElasticTrace(
            initial_machines=7, redundancy=3, n_tasks=420, strategy="zero_waste",
            n_min=5, n_max=7, seed_allocation=alloc,
            events=(ElasticEvent.leave(2), ElasticEvent.leave(6),
                    ElasticEvent.join(), ElasticEvent.join()))
        report = run_trace(trace)
        assert report.cumulative_waste == 0
        assert report.final == alloc

    def test_zero_waste_random_walk_inside_the_range(self):
        # arbitrary interleaving of leaves and join-backs within [5, 7]
        rng = random.Random(2718)
        alloc = tas_from_configuration(fano_plane(), 420)
        runner = TraceRunner(ElasticTrace(
            initial_machines=7, redundancy=3, n_tasks=420, strategy="zero_waste",
            n_min=5, n_max=7, seed_allocation=alloc))
        for _ in range(60):
            n = runner.allocation.n_machines
            if n == 7 or (n > 5 and rng.random() < 0.5):
                event = ElasticEvent.leave(rng.choice(runner.allocation.machine_ids))
            else:
                event = ElasticEvent.join()
            record = runner.apply(event)
            assert record.waste == 0 and record.feasible
            assert validate_tas(runner.allocation).ok
        assert runner.report().cumulative_waste == 0

    def test_zero_waste_join_from_scratch(self):
        trace = ElasticTrace(initial_machines=3, redundancy=2, n_tasks=12,
                             strategy="zero_waste", events=(ElasticEvent.join(),))
        report = run_trace(trace)
        assert report.cumulative_waste == 0
        assert report.final.n_machines == 4

    def test_infeasible_leave_raises_with_witness(self):
        trace = ElasticTrace(initial_machines=4, redundancy=2, n_tasks=12,
                             strategy="zero_waste",
                             seed_allocation=doubled_block_tas(4, 12),
                             events=(ElasticEvent.leave(1),))
        with pytest.raises(InfeasibleTransitionError) as excinfo:
            run_trace(trace)
        assert excinfo.value.event_index == 0
        assert excinfo.value.witness

    def test_infeasible_leave_far_above_enumeration_has_cut_witness(self):
        # Machine 2 holds every task machine 1 leaves behind: it can absorb none.
        trace = ElasticTrace(initial_machines=40, redundancy=2, n_tasks=1560,
                             strategy="zero_waste",
                             seed_allocation=doubled_block_tas(40, 1560),
                             events=(ElasticEvent.leave(1),))
        with pytest.raises(InfeasibleTransitionError) as excinfo:
            run_trace(trace)
        assert excinfo.value.witness == (2,)
        assert "violating machine subset: [2]" in str(excinfo.value)

    def test_fallback_degrades_instead_of_raising(self):
        trace = ElasticTrace(initial_machines=4, redundancy=2, n_tasks=12,
                             strategy="zero_waste_with_fallback",
                             seed_allocation=doubled_block_tas(4, 12),
                             events=(ElasticEvent.leave(1),))
        report = run_trace(trace)
        assert report.infeasible_count == 1
        assert report.records[0].degraded
        assert validate_tas(report.final).ok

    def test_machine_stats_track_symmetric_differences(self):
        report = run_trace(FIG1_TRACE, strategy="cyclic")
        old, new = cyclic_tas(5, 3, 20), report.final
        for m in new.machine_ids:
            abandoned, acquired = report.machine_stats[m]
            assert abandoned == len(old.task_sets[m] - new.task_sets[m])
            assert acquired == len(new.task_sets[m] - old.task_sets[m])

    @pytest.mark.parametrize("strategy,seed_allocation", [
        ("cyclic", None), ("shifted_cyclic", None),
        ("zero_waste", tas_from_configuration(fano_plane(), 420)),
        ("zero_waste_with_fallback", perturbed(doubled_block_tas(6, 60), random.Random(4), 3)),
    ])
    def test_machine_stats_equal_set_differences_over_a_walk(self, strategy, seed_allocation):
        pool = seed_allocation or cyclic_tas(6, 3, 420)
        n0 = pool.n_machines
        rng = random.Random(8)
        runner = TraceRunner(ElasticTrace(initial_machines=n0, redundancy=pool.redundancy,
                                          n_tasks=pool.n_tasks, strategy=strategy,
                                          n_min=n0 - 2, n_max=n0,
                                          seed_allocation=seed_allocation))
        expected: dict[int, list[int]] = {}
        for kind in ("leave", "leave", "join", "leave", "join", "join"):
            old = runner.allocation
            event = (ElasticEvent.leave(rng.choice(old.machine_ids)) if kind == "leave"
                     else ElasticEvent.join())
            runner.apply(event)
            new = runner.allocation
            for m in old.machine_ids:
                if m in new.task_sets:
                    tally = expected.setdefault(m, [0, 0])
                    tally[0] += len(old.task_sets[m] - new.task_sets[m])
                    tally[1] += len(new.task_sets[m] - old.task_sets[m])
        stats = runner.report().machine_stats
        for m, (abandoned, acquired) in expected.items():
            assert stats[m] == (abandoned, acquired)


class TestValidateOnce:
    """Each allocation is validated once: when it is first built, never again."""

    @pytest.fixture
    def validated(self, monkeypatch):
        calls = []
        real = core.validate_tas

        def counting(alloc):
            calls.append(alloc)
            return real(alloc)

        monkeypatch.setattr(core, "validate_tas", counting)
        return calls

    def test_shifted_walk_validates_each_new_allocation_once(self, validated):
        trace = ElasticTrace(initial_machines=20, redundancy=3, n_tasks=7980,
                             strategy="shifted_cyclic", n_min=19, n_max=21, initial_shift=11)
        runner = TraceRunner(trace)
        built = [runner.allocation]
        for event in (ElasticEvent.leave(4), ElasticEvent.join(), ElasticEvent.join(),
                      ElasticEvent.leave(1), ElasticEvent.leave(21), ElasticEvent.join()):
            runner.apply(event)
            built.append(runner.allocation)
        assert [id(a) for a in validated] == [id(a) for a in built]

    def test_zero_waste_leaves_validate_once_and_join_backs_never(self, validated):
        seed = tas_from_configuration(fano_plane(), 420)
        runner = TraceRunner(ElasticTrace(initial_machines=7, redundancy=3, n_tasks=420,
                                          strategy="zero_waste", n_min=5,
                                          seed_allocation=seed))
        assert [id(a) for a in validated] == [id(seed)]
        runner.apply(ElasticEvent.leave(2))
        first = runner.allocation
        runner.apply(ElasticEvent.leave(6))
        second = runner.allocation
        assert [id(a) for a in validated] == [id(seed), id(first), id(second)]
        runner.apply(ElasticEvent.join())
        runner.apply(ElasticEvent.join())
        assert runner.allocation is seed
        assert len(validated) == 3


class TestSolveOnce:
    """An infeasible leave solves its class flow once, for the verdict and the witness."""

    @pytest.fixture
    def flows(self, monkeypatch):
        calls = []
        real = zero_waste._delta_flow

        def counting(graph):
            calls.append(graph.leaver)
            return real(graph)

        monkeypatch.setattr(zero_waste, "_delta_flow", counting)
        return calls

    def test_infeasible_trace_leave(self, flows):
        trace = ElasticTrace(initial_machines=40, redundancy=2, n_tasks=1560,
                             strategy="zero_waste",
                             seed_allocation=doubled_block_tas(40, 1560),
                             events=(ElasticEvent.leave(1),))
        with pytest.raises(InfeasibleTransitionError) as excinfo:
            run_trace(trace)
        assert excinfo.value.witness == (2,)
        assert flows == [1]

    def test_infeasible_leave_then_fallback(self, flows, monkeypatch):
        fallbacks = []
        real = engine.best_effort_leave

        def counting(alloc, leaver):
            fallbacks.append(leaver)
            return real(alloc, leaver)

        monkeypatch.setattr(engine, "best_effort_leave", counting)
        trace = ElasticTrace(initial_machines=12, redundancy=2, n_tasks=132,
                             strategy="zero_waste_with_fallback",
                             seed_allocation=doubled_block_tas(12, 132),
                             events=(ElasticEvent.leave(1),))
        assert run_trace(trace).records[0].degraded
        assert flows == [1] and fallbacks == [1]


class TestBoundsAndLabels:
    def test_leave_below_redundancy_rejected_statically(self):
        with pytest.raises(ValueError):
            ElasticTrace(initial_machines=2, redundancy=2, n_tasks=12,
                         events=(ElasticEvent.leave(1),))

    def test_join_above_declared_max_rejected_statically(self):
        with pytest.raises(ValueError):
            ElasticTrace(initial_machines=3, redundancy=2, n_tasks=12, n_max=3,
                         events=(ElasticEvent.join(),))

    def test_zero_n_max_is_a_bound(self):
        with pytest.raises(ValueError, match=r"initial machine count 5 outside \[3, 0\]"):
            ElasticTrace(5, 3, 20, n_max=0)
        with pytest.raises(ValueError, match="initial machine count"):
            ElasticTrace(5, 3, 20, n_max=0, events=(ElasticEvent.leave(5),))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_n_min_below_redundancy_rejected(self, strategy):
        # A leave to N-1 < L would otherwise escape as a bare ValueError or,
        # under zero_waste, as an infeasible leave with a meaningless witness.
        with pytest.raises(ValueError, match="n_min=0 is below the redundancy 3"):
            ElasticTrace(3, 3, 6, strategy=strategy, n_min=0,
                         events=(ElasticEvent.leave(3),))
        with pytest.raises(ValueError, match="below the redundancy"):
            ElasticTrace(4, 3, 12, strategy=strategy, n_min=2)
        assert ElasticTrace(4, 3, 12, strategy=strategy, n_min=3).n_min == 3

    def test_runtime_leave_of_unknown_machine(self):
        trace = ElasticTrace(initial_machines=4, redundancy=2, n_tasks=20)
        runner = TraceRunner(trace)
        with pytest.raises(EtallocError):
            runner.apply(ElasticEvent.leave(9))

    def test_runtime_bounds_refuse_events_outside_the_trace(self):
        # ElasticTrace refuses these events statically; apply meets them only
        # when a caller drives the runner with events the trace does not hold.
        runner = TraceRunner(ElasticTrace(4, 2, 12, n_min=3, n_max=4))
        with pytest.raises(EtallocError, match="event 0: join would exceed the declared bound 4"):
            runner.apply(ElasticEvent.join())
        runner.apply(ElasticEvent.leave(1))
        with pytest.raises(EtallocError, match="event 1: leave would drop below 3 machines"):
            runner.apply(ElasticEvent.leave(2))
        assert runner.allocation.machine_ids == (2, 3, 4)

    def test_fresh_labels_grow(self):
        trace = ElasticTrace(initial_machines=4, redundancy=2, n_tasks=60,
                             strategy="cyclic")
        runner = TraceRunner(trace)
        runner.apply(ElasticEvent.leave(2))
        record = runner.apply(ElasticEvent.join())
        assert record.machine == 5

    def test_zero_waste_join_back_draws_no_fresh_label(self):
        trace = ElasticTrace(initial_machines=5, redundancy=3, n_tasks=20,
                             strategy="zero_waste",
                             events=(ElasticEvent.leave(5), ElasticEvent.join(),
                                     ElasticEvent.join()))
        assert [r.machine for r in run_trace(trace).records] == [5, 5, 6]

    @staticmethod
    def fano_walk(strategy, join_label):
        """The Fano pool (F=420) losing machine 3, then a join naming ``join_label``."""
        return ElasticTrace(7, 3, 420, strategy=strategy, n_min=5,
                            seed_allocation=tas_from_configuration(fano_plane(), 420),
                            events=(ElasticEvent.leave(3), ElasticEvent.join(join_label)))

    def test_zero_waste_join_naming_another_machine_is_rejected(self):
        trace = self.fano_walk("zero_waste", 9)
        with pytest.raises(EtallocError, match="event 1: join of machine 9 would climb "
                                               "back to departed machine 3"):
            run_trace(trace)
        runner = TraceRunner(trace)
        runner.apply(trace.events[0])
        with pytest.raises(EtallocError):
            runner.apply(trace.events[1])
        # the rejected join leaves the runner where it was
        assert runner.apply(ElasticEvent.join(3)).machine == 3
        assert runner.allocation == trace.seed_allocation

    @pytest.mark.parametrize("label", [None, 3])
    def test_zero_waste_join_back_unnamed_or_departed(self, label):
        trace = self.fano_walk("zero_waste", label)
        report = run_trace(trace)
        assert [(r.kind, r.machine, r.waste) for r in report.records] == \
            [("leave", 3, 0), ("join", 3, 0)]
        assert report.final == trace.seed_allocation

    def test_cyclic_joins_the_named_machine_and_zero_waste_aborts(self):
        report = run_trace(self.fano_walk("cyclic", 9))
        assert [r.machine for r in report.records] == [3, 9]
        assert 9 in report.final.machine_ids
        with pytest.raises(EtallocError, match="departed machine 3"):
            run_trace(self.fano_walk("zero_waste", 9))

    def test_reused_labels_fill_gaps(self):
        trace = ElasticTrace(initial_machines=4, redundancy=2, n_tasks=60,
                             strategy="cyclic", label_policy="reuse")
        runner = TraceRunner(trace)
        runner.apply(ElasticEvent.leave(2))
        record = runner.apply(ElasticEvent.join())
        assert record.machine == 2


class TestCompareStrategies:
    """The same trace run under each strategy."""

    @staticmethod
    def wastes(trace, strategies=("cyclic", "shifted_cyclic", "zero_waste")):
        return {name: run_trace(trace, strategy=name).cumulative_waste for name in strategies}

    def test_single_leave_comparison(self):
        assert self.wastes(FIG1_TRACE) == {"cyclic": 12, "shifted_cyclic": 0, "zero_waste": 0}

    def test_empty_trace(self):
        trace = ElasticTrace(initial_machines=5, redundancy=3, n_tasks=20)
        assert set(self.wastes(trace).values()) == {0}

    def test_pure_join_trace(self):
        f = math.lcm(5 * 6, 6 * 7)
        trace = ElasticTrace(initial_machines=5, redundancy=3, n_tasks=f,
                             events=(ElasticEvent.join(), ElasticEvent.join()))
        expected = sum((n - 1) * f // (n + 1) for n in (5, 6))
        assert self.wastes(trace, ("cyclic", "zero_waste")) == \
            {"cyclic": expected, "zero_waste": 0}

    def test_join_with_active_label_aborts_every_strategy(self):
        trace = ElasticTrace(5, 2, 20, events=(ElasticEvent.join(3),), n_max=6)
        for strategy in STRATEGIES:
            with pytest.raises(EtallocError, match="event 0: machine 3 is already active"):
                run_trace(trace, strategy=strategy)

    def test_infeasible_events_are_recorded_not_thrown(self):
        trace = ElasticTrace(initial_machines=4, redundancy=2, n_tasks=12,
                             seed_allocation=doubled_block_tas(4, 12),
                             events=(ElasticEvent.leave(1),))
        report = run_trace(trace, strategy="zero_waste_with_fallback")
        assert report.infeasible_count == 1


class TestTransitionTree:
    """The probe counts the tree's states; the runner walks it."""

    @staticmethod
    def states(alloc, n_min):
        probe = probe_zero_waste_depth(alloc, floor=n_min)
        assert all(bad == 0 for _, bad in probe.values())
        return 1 + sum(ok for ok, _ in probe.values())

    @staticmethod
    def fano_runner():
        alloc = tas_from_configuration(fano_plane(), 420)
        return TraceRunner(ElasticTrace(7, 3, 420, strategy="zero_waste", n_min=5,
                                        seed_allocation=alloc))

    def test_small_tree_node_count(self):
        assert self.states(cyclic_tas(3, 1, 6), 1) == full_tree_node_count(3, 1) == 10

    def test_fano_tree_node_count(self):
        alloc = tas_from_configuration(fano_plane(), 420)
        assert self.states(alloc, 5) == full_tree_node_count(7, 5) == 50

    def test_single_node_tree(self):
        assert self.states(cyclic_tas(4, 2, 12), 4) == 1

    def test_navigation_round_trip(self):
        runner = self.fano_runner()
        root = runner.allocation
        runner.apply(ElasticEvent.leave(3))
        runner.apply(ElasticEvent.join())
        assert runner.allocation is root

    def test_leave_order_matters(self):
        def walk(*leavers):
            runner = self.fano_runner()
            for m in leavers:
                runner.apply(ElasticEvent.leave(m))
            return runner.allocation

        a, b = walk(2, 6), walk(6, 2)
        assert set(a.machine_ids) == set(b.machine_ids)
        assert a.task_sets != b.task_sets


class TestTraceSerialization:
    def test_round_trip(self):
        trace = ElasticTrace(
            initial_machines=7, redundancy=3, n_tasks=420, strategy="zero_waste",
            n_min=5, n_max=7, seed_allocation=tas_from_configuration(fano_plane(), 420),
            events=(ElasticEvent.leave(2), ElasticEvent.join()))
        assert trace_from_document(trace_to_document(trace)) == trace

    @pytest.mark.parametrize("key,value", [
        ("n0", "5"), ("l", 3.5), ("f", 20.0), ("nmax", True), ("shift", False)])
    def test_initial_fields_need_integers(self, key, value):
        doc = trace_to_document(FIG1_TRACE)
        doc["initial"][key] = value
        with pytest.raises(ValueError, match=f"'{key}' must be int, got {type(value).__name__}"):
            trace_from_document(doc)

    def test_empty_seed_allocation_is_refused(self):
        doc = trace_to_document(FIG1_TRACE)
        doc["initial"]["seed_tas"] = {}
        with pytest.raises(ValueError, match="allocation has no 'machines' field"):
            trace_from_document(doc)

    @pytest.mark.parametrize("machine", [5.0, "5", True])
    def test_event_machines_need_integers(self, machine):
        doc = trace_to_document(FIG1_TRACE)
        doc["events"][0]["machine"] = machine
        with pytest.raises(ValueError, match="trace event 0: 'machine' must be int"):
            trace_from_document(doc)

    def test_report_exports(self, tmp_path, capsys):
        report = run_trace(FIG1_TRACE, strategy="cyclic")
        doc = report_to_document(report)
        assert list(doc) == ["strategy", "cumulative_waste", "infeasible_count", "aborted",
                             "events", "machines", "final"]
        assert doc["aborted"] is None
        assert doc["cumulative_waste"] == 12
        assert doc["events"][0]["kind"] == "leave"
        rows = report_rows(report)
        assert rows[0].startswith("index\t")
        assert rows[1].split("\t")[3] == "12"
        # A degraded leave: machine 2 can absorb none of its twin 1's tasks.
        degraded = ElasticTrace(6, 2, 30, strategy="zero_waste_with_fallback",
                                seed_allocation=doubled_block_tas(6, 30),
                                events=(ElasticEvent.leave(1),))
        report = run_trace(degraded)
        doc = report_to_document(report)
        assert doc["events"][0]["feasible"] is False and doc["events"][0]["degraded"] is True
        assert doc["infeasible_count"] == report.infeasible_count == 1
        assert doc["cumulative_waste"] == report.records[0].waste > 0
        assert report_rows(report)[1].split("\t")[5] == "false"
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace_to_document(degraded)))
        assert main(["simulate", "--trace", str(path)]) == 1
        assert "1 infeasible events over 1" in capsys.readouterr().err
