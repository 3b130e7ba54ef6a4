"""Elastic task allocation with transition-waste accounting.

Construct balanced redundant task allocations (cyclic, shifted cyclic, and
finite-geometry based), transition them as machines join and leave, measure
and minimize the tasks wasted along the way, and couple the whole thing to a
straggler-tolerant coded matrix-vector computation.
"""

from .core import (
    AllocationError,
    DivisibilityError,
    ElasticEvent,
    EtallocError,
    InfeasibleTransitionError,
    TaskAllocation,
    TransitionOutcome,
    ValidationReport,
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
from .cyclic import (
    ShiftedCyclicParams,
    cyclic_allocation,
    cyclic_join_waste_closed_form,
    cyclic_leave_waste_average,
    cyclic_leave_waste_closed_form,
    cyclic_tas,
    cyclic_tas_after_leave,
    measured_join_waste,
    measured_leave_waste,
    optimal_shift_join,
    optimal_shift_leave,
    shift_waste_profile,
    shifted_join_waste_piecewise,
)
from .zero_waste import (
    HallResult,
    TransitionGraph,
    best_effort_leave,
    build_transition_graph,
    find_delta_matching,
    hall_feasible_all_leavers,
    hall_feasible_for_leaver,
    zero_waste_join,
    zero_waste_leave,
)
from .configurations import (
    Configuration,
    ZwrResult,
    configuration_to_document,
    configuration_to_json,
    family_parameters,
    fano_plane,
    is_prime_power,
    projective_plane,
    tas_from_configuration,
    truncated_plane_q2,
    truncated_plane_q2_minus_1,
    validate_configuration,
    zero_waste_range,
    zwr_task_count,
)
from .engine import (
    ElasticTrace,
    EventRecord,
    SimulationReport,
    TraceRunner,
    full_tree_node_count,
    run_trace,
    trace_from_document,
    trace_to_document,
)
from .coded import (
    CodedJob,
    RoundResult,
    elastic_linear_regression,
    encode_job,
    execute_round,
    plain_regression_trajectory,
)

__version__ = "0.1.0"
