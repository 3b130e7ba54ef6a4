"""Finite-geometry configurations, their allocations, and zero-waste ranges."""

import itertools

import pytest

from etalloc import (
    TaskAllocation,
    configuration_from_document,
    configuration_from_json,
    configuration_to_json,
    family_zero_waste_range,
    fano_plane,
    hall_feasible_all_leavers,
    is_prime_power,
    projective_plane,
    tas_from_configuration,
    truncated_plane_q2,
    truncated_plane_q2_minus_1,
    validate_configuration,
    validate_tas,
    zero_waste_range,
    zwr_task_count,
)
from etalloc.configurations import _Field
from etalloc.core import require_valid

from oracles import FieldPerCall, family_zero_waste_range_specialized, projective_plane_per_call

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9]
FANO_LINES = [{1, 2, 3}, {1, 4, 5}, {1, 6, 7}, {2, 4, 6}, {2, 5, 7},
              {3, 5, 6}, {3, 4, 7}]


def line_meet_profile(config):
    return sorted(len(a & b) for a, b in itertools.combinations(config.lines, 2))


class TestFano:
    def test_exact_line_listing(self):
        assert [set(line) for line in fano_plane().lines] == FANO_LINES

    def test_every_point_on_three_lines(self):
        config = fano_plane()
        for p in range(1, 8):
            assert sum(p in line for line in config.lines) == 3

    def test_every_line_pair_meets_once(self):
        assert line_meet_profile(fano_plane()) == [1] * 21

    def test_validates(self):
        assert validate_configuration(fano_plane()).ok


class TestProjectivePlane:
    def test_q2_has_fano_shape(self):
        plane = projective_plane(2)
        assert (plane.n_points, plane.line_size) == (7, 3)
        assert line_meet_profile(plane) == line_meet_profile(fano_plane())
        assert validate_configuration(plane).ok

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_parameters_and_validity(self, q):
        plane = projective_plane(q)
        assert plane.n_points == q * q + q + 1
        assert plane.line_size == q + 1
        assert validate_configuration(plane).ok

    def test_q3_lines_meet_exactly_once(self):
        assert line_meet_profile(projective_plane(3)) == [1] * (13 * 12 // 2)

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError, match="prime power"):
            projective_plane(6)

    def test_prime_power_detection(self):
        assert [q for q in range(2, 17) if is_prime_power(q)] == \
            [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]

    def test_deterministic(self):
        assert projective_plane(3) == projective_plane(3)


class TestFieldTables:
    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_tables_equal_per_call_arithmetic(self, q):
        field, oracle = _Field(q), FieldPerCall(q)
        pairs = list(itertools.product(range(q), repeat=2))
        assert [field.add_table[a][b] for a, b in pairs] == [oracle.add(a, b) for a, b in pairs]
        assert [field.mul_table[a][b] for a, b in pairs] == [oracle.mul(a, b) for a, b in pairs]

    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_tables_form_a_field(self, q):
        field = _Field(q)
        elements = list(range(q))
        assert all(sorted(row) == elements for row in field.add_table)
        assert all(sorted(field.mul_table[a][1:]) == elements[1:] for a in elements[1:])

    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_plane_equals_per_call_construction(self, q):
        assert projective_plane(q) == projective_plane_per_call(q)


class TestTruncatedPlanes:
    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_q_squared(self, q):
        config = truncated_plane_q2(q)
        assert (config.n_points, config.line_size) == (q * q, q)
        assert len(config.lines) == config.n_points
        assert validate_configuration(config).ok

    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_q_squared_minus_one(self, q):
        config = truncated_plane_q2_minus_1(q)
        assert (config.n_points, config.line_size) == (q * q - 1, q)
        assert len(config.lines) == config.n_points
        assert validate_configuration(config).ok


class TestConfigurationAllocation:
    def test_fano_fourteen_tasks(self):
        alloc = tas_from_configuration(fano_plane(), 14)
        expected = [
            {0, 1, 2, 3, 4, 5},
            {0, 1, 6, 7, 8, 9},
            {0, 1, 10, 11, 12, 13},
            {2, 3, 6, 7, 10, 11},
            {2, 3, 8, 9, 12, 13},
            {4, 5, 8, 9, 10, 11},
            {4, 5, 6, 7, 12, 13},
        ]
        assert [set(alloc.task_sets[m]) for m in alloc.machine_ids] == expected
        assert validate_tas(alloc).ok

    def test_singleton_slices_recover_the_lines(self):
        alloc = tas_from_configuration(fano_plane(), 7)
        for machine, line in zip(alloc.machine_ids, fano_plane().lines):
            assert alloc.task_sets[machine] == frozenset(p - 1 for p in line)

    def test_projective_three_intersections(self):
        alloc = tas_from_configuration(projective_plane(3), 26)
        sizes = [len(alloc.task_sets[m]) for m in alloc.machine_ids]
        assert sizes == [8] * 13
        worst = max(len(alloc.task_sets[a] & alloc.task_sets[b])
                    for a, b in itertools.combinations(alloc.machine_ids, 2))
        assert worst <= 2

    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_intersection_bound_across_families(self, q):
        for config in (projective_plane(q), truncated_plane_q2(q),
                       truncated_plane_q2_minus_1(q)):
            f = 2 * config.n_points
            alloc = tas_from_configuration(config, f)
            assert validate_tas(alloc).ok
            bound = f // config.n_points
            for a, b in itertools.combinations(alloc.machine_ids, 2):
                assert len(alloc.task_sets[a] & alloc.task_sets[b]) <= bound

    def test_divisibility_guard(self):
        with pytest.raises(ValueError):
            tas_from_configuration(fano_plane(), 15)

    @pytest.mark.parametrize("config,f", [
        (fano_plane(), 7), (fano_plane(), 42), (projective_plane(4), 1596),
        (projective_plane(9), 182), (truncated_plane_q2(8), 128),
        (truncated_plane_q2_minus_1(7), 96),
    ])
    def test_derived_pool_equals_public_rebuild(self, config, f):
        alloc = tas_from_configuration(config, f)
        public = TaskAllocation(alloc.n_machines, alloc.redundancy, alloc.n_tasks,
                                alloc.machine_ids, dict(alloc.task_sets))
        assert alloc == public
        assert alloc.machine_ids == tuple(range(1, config.n_points + 1))
        assert tuple(alloc.task_sets) == alloc.machine_ids
        assert all(type(t) is int for m in alloc.machine_ids for t in alloc.task_sets[m])
        require_valid(alloc)


class TestZeroWasteRange:
    def test_fano_range(self):
        result = zero_waste_range(7, 3)
        assert (result.n_min, result.n_max, result.removable) == (5, 7, 2)

    def test_thirteen_four_range(self):
        result = zero_waste_range(13, 4)
        assert (result.n_min, result.n_max, result.removable) == (9, 13, 4)

    def test_q_squared_family_agrees_with_general(self):
        q = 3
        family = family_zero_waste_range("q2", q=q)
        general = zero_waste_range(q * q, q)
        assert (family.n_min, family.removable) == (general.n_min, general.removable)

    def test_small_parameter_guard(self):
        with pytest.raises(ValueError):
            zero_waste_range(7, 1)

    def test_range_never_drops_below_redundancy(self):
        for l in range(2, 6):
            for n in range(max(3, l), 40):
                result = zero_waste_range(n, l)
                assert result.n_min >= l


class TestFamilyTable:
    CASES = [
        ("l3", {"n_max": 7}, 3),
        ("l3", {"n_max": 8}, 3),
        ("l3", {"n_max": 9}, 3),
        ("l4", {"n_max": 13}, 4),
        ("l4", {"n_max": 14}, 4),
        ("projective", {"q": 2}, 3),
        ("projective", {"q": 3}, 4),
        ("projective", {"q": 4}, 5),
        ("projective", {"q": 5}, 6),
        ("q2", {"q": 3}, 3),
        ("q2", {"q": 4}, 4),
        ("q2", {"q": 5}, 5),
        ("q2m1", {"q": 3}, 3),
        ("q2m1", {"q": 4}, 4),
        ("q2m1", {"q": 5}, 5),
    ]

    @pytest.mark.parametrize("family,kwargs,l", CASES)
    def test_agrees_with_general_formula(self, family, kwargs, l):
        result = family_zero_waste_range(family, **kwargs)
        general = zero_waste_range(result.n_max, l)
        assert (result.n_min, result.removable) == (general.n_min, general.removable)

    def test_l3_at_seven(self):
        result = family_zero_waste_range("l3", n_max=7)
        assert (result.n_min, result.n_max) == (5, 7)

    def test_l4_at_thirteen(self):
        result = family_zero_waste_range("l4", n_max=13)
        assert (result.n_min, result.n_max) == (9, 13)

    def test_projective_two_equals_fano_numbers(self):
        assert family_zero_waste_range("projective", q=2) == zero_waste_range(7, 3)

    def test_guards(self):
        with pytest.raises(ValueError):
            family_zero_waste_range("l3", n_max=5)
        with pytest.raises(ValueError):
            family_zero_waste_range("projective", q=6)
        with pytest.raises(ValueError):
            family_zero_waste_range("heptagon", q=2)


def _range_or_error(solver, family, kwargs):
    try:
        return solver(family, **kwargs)
    except Exception as exc:  # the oracle comparison covers the exception type too
        return type(exc)


class TestFamilyRangeMatchesSpecializedPolynomials:
    # l3/l4 for 7 <= n_max < 400 (l4 below 13 is rejected) and the three
    # q-families for each of the 43 prime powers q <= 127: 786 + 129 cases
    CASES = ([(family, {"n_max": n}) for family in ("l3", "l4") for n in range(7, 400)]
             + [(family, {"q": q}) for family in ("projective", "q2", "q2m1")
                for q in range(2, 128) if is_prime_power(q)])
    GUARDS = [("l3", {"n_max": 6}), ("l3", {}), ("l4", {"n_max": 12}), ("q2", {}),
              ("projective", {"q": 6}), ("q2m1", {"q": 1}), ("heptagon", {"q": 2}),
              ("L3", {"n_max": 9}), ("Projective", {"q": 3})]

    def test_every_case_equals_the_oracle(self):
        assert len(self.CASES) == 915
        outcomes = []
        for family, kwargs in self.CASES + self.GUARDS:
            got = _range_or_error(family_zero_waste_range, family, kwargs)
            assert got == _range_or_error(family_zero_waste_range_specialized, family, kwargs), \
                (family, kwargs)
            outcomes.append(got)
        errors = sum(got is ValueError for got in outcomes)
        assert errors == 6 + 7 and len(outcomes) - errors > 900

    @pytest.mark.parametrize("family,kwargs", [("l3", {"n_max": 7}), ("l4", {"n_max": 13}),
                                               ("projective", {"q": 2}), ("q2", {"q": 3}),
                                               ("q2m1", {"q": 3})])
    def test_paper_polynomials_give_the_discriminant(self, family, kwargs):
        oracle = family_zero_waste_range_specialized(family, **kwargs)
        assert family_zero_waste_range(family, **kwargs).discriminant == oracle.discriminant


class TestTaskCountHelper:
    def test_fano_range_needs_420(self):
        assert zwr_task_count(5, 7) == 420

    def test_single_size(self):
        assert zwr_task_count(7, 7) == 42

    def test_guard(self):
        with pytest.raises(ValueError):
            zwr_task_count(1, 7)


class TestRangeFeasibilityOnRealAllocations:
    @pytest.mark.parametrize("config,f", [
        (fano_plane(), 42),
        (truncated_plane_q2(3), 72),
        (projective_plane(3), 156),
    ])
    def test_allocations_with_removable_machines_pass_the_hall_bound(self, config, f):
        result = zero_waste_range(config.n_points, config.line_size)
        assert result.removable >= 1
        alloc = tas_from_configuration(config, f)
        assert hall_feasible_all_leavers(alloc).feasible


class TestSerialization:
    def test_round_trip(self):
        config = projective_plane(3)
        assert configuration_from_json(configuration_to_json(config)) == config

    @pytest.mark.parametrize("doc,field", [
        ({"v": 7, "k": 3}, "'lines'"),
        ({"k": 3, "lines": []}, "'v'"),
        ({"v": 7, "lines": []}, "'k'"),
        ({"v": "seven", "k": 3, "lines": []}, "'v'"),
        ({"v": 7, "k": [3], "lines": []}, "'k'"),
        ({"v": 7, "k": 3, "lines": {"1": [1, 2, 3]}}, "'lines'"),
        ({"v": 7, "k": 3, "lines": [[1, 2, 3], 4]}, "line 2"),
        ({"v": 7, "k": 3, "lines": [[1.7, 2, 3]]}, "line 1"),
        ({"v": 7, "k": 3, "lines": [["1", 2, 3]]}, "line 1"),
        ([7, 3], "JSON object"),
        ({"v": 7.8, "k": 3, "lines": []}, "'v' must be int, got float"),
        ({"v": 7, "k": "3", "lines": []}, "'k' must be int, got str"),
        ({"v": True, "k": 3, "lines": []}, "'v' must be int, got bool"),
        ({"v": 3, "k": 2, "lines": [[True, 2], [2, 3], [1, 3]]},
         "line 1 must list integer points: a boolean"),
    ])
    def test_malformed_documents_name_the_field(self, doc, field):
        with pytest.raises(ValueError, match=field):
            configuration_from_document(doc)

    def test_integral_points_are_accepted(self):
        config = configuration_from_document({"v": 3, "k": 2, "lines": [[1, 2], [2, 3], [1, 3]]})
        assert config.lines == (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}))
