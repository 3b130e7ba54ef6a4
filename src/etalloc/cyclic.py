"""Cyclic and shifted-cyclic allocation schemes with closed-form waste accounting.

The cyclic scheme gives the machine at position n the interval of L*F/N task
indices starting at (n-1)*F/N (mod F); the shifted variant offsets every
interval by a common shift.  Closed forms below predict the exact transition
waste of these schemes and the shift minimizing it; they are pure integer
arithmetic and never touch the set-based measurement in :mod:`etalloc.core`,
so the two can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    DivisibilityError,
    TaskAllocation,
    mod_interval,
    transition_waste,
)

__all__ = [
    "ShiftedCyclicParams",
    "cyclic_tas",
    "cyclic_allocation",
    "cyclic_tas_after_leave",
    "cyclic_join_waste_closed_form",
    "cyclic_leave_waste_closed_form",
    "cyclic_leave_waste_average",
    "optimal_shift_join",
    "optimal_shift_leave",
    "shifted_join_waste_piecewise",
    "shift_waste_profile",
    "measured_join_waste",
    "measured_leave_waste",
]


@dataclass(frozen=True)
class ShiftedCyclicParams:
    """Parameters of a shifted cyclic (N, L, F) allocation.

    ``shift`` is reduced mod F.
    """

    n_machines: int
    redundancy: int
    n_tasks: int
    shift: int = 0

    def __post_init__(self):
        if self.n_tasks % self.n_machines != 0:
            raise DivisibilityError(
                f"machine count {self.n_machines} does not divide task count {self.n_tasks}")
        object.__setattr__(self, "shift", self.shift % self.n_tasks)


def cyclic_allocation(labels: Sequence[int], redundancy: int, n_tasks: int,
                      shift: int = 0) -> TaskAllocation:
    """Cyclic allocation over an explicit machine ordering.

    The machine at position n (1-based index into ``labels``) receives
    [(n-1)*F/N + shift, (n-1)*F/N + L*F/N - 1 + shift] mod F.  N | F is
    required, and it implies N | L*F.
    """
    n = len(labels)
    if not 0 < redundancy <= n:
        raise ValueError(f"need 0 < redundancy <= machine count, got L={redundancy}, N={n}")
    if n_tasks % n != 0:
        raise DivisibilityError(f"machine count {n} does not divide task count {n_tasks}")
    size = redundancy * n_tasks // n
    sets = {}
    for pos, label in enumerate(labels):
        start = pos * n_tasks // n + shift
        sets[label] = mod_interval(start, start + size - 1, n_tasks)
    return TaskAllocation._derived(redundancy, n_tasks, labels, sets)


def cyclic_tas(n_machines: int, redundancy: int, n_tasks: int) -> TaskAllocation:
    """The cyclic (N, L, F) allocation with machines labelled 1..N."""
    return cyclic_allocation(range(1, n_machines + 1), redundancy, n_tasks)


def cyclic_tas_after_leave(n_machines: int, redundancy: int, n_tasks: int,
                           leaver_position: int, shift: int = 0) -> TaskAllocation:
    """The (N-1)-machine cyclic allocation after the machine at ``leaver_position`` left.

    Survivors keep their global labels 1..N (minus the leaver) and are
    reindexed in order, so an old position n > leaver_position becomes n-1.
    """
    if not 1 <= leaver_position <= n_machines:
        raise ValueError(f"leaver position {leaver_position} outside 1..{n_machines}")
    labels = [m for m in range(1, n_machines + 1) if m != leaver_position]
    return cyclic_allocation(labels, redundancy, n_tasks, shift)


def measured_join_waste(n_machines: int, redundancy: int, n_tasks: int,
                        prev_shift: int = 0, shift: int = 0) -> int:
    """Set-arithmetic waste of shifted-cyclic N -> N+1 (oracle for the closed forms)."""
    old = cyclic_allocation(range(1, n_machines + 1), redundancy, n_tasks, prev_shift)
    new = cyclic_allocation(range(1, n_machines + 2), redundancy, n_tasks, shift)
    return transition_waste(old, new).total_waste


def measured_leave_waste(n_machines: int, redundancy: int, n_tasks: int,
                         leaver_position: int, prev_shift: int = 0,
                         shift: int = 0) -> int:
    """Set-arithmetic waste of shifted-cyclic N -> N-1 with the given leaver."""
    old = cyclic_allocation(range(1, n_machines + 1), redundancy, n_tasks, prev_shift)
    new = cyclic_tas_after_leave(n_machines, redundancy, n_tasks, leaver_position, shift)
    return transition_waste(old, new, leaver=leaver_position).total_waste


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    if numerator % denominator != 0:
        raise DivisibilityError(f"{what}: {numerator} is not divisible by {denominator}")
    return numerator // denominator


def cyclic_join_waste_closed_form(n_machines: int, redundancy: int, n_tasks: int) -> int:
    """Exact waste (N-1)F/(N+1) of the unshifted cyclic join N -> N+1.

    Requires N > L (at N = L every set is the full task range and the waste is
    trivially zero, outside this formula) and N(N+1) | F.
    """
    n, l, f = n_machines, redundancy, n_tasks
    if n <= l:
        raise ValueError(f"closed form needs N > L, got N={n}, L={l}")
    _exact_div(f, n * (n + 1), "join closed form needs N(N+1) | F")
    return (n - 1) * f // (n + 1)


def cyclic_leave_waste_closed_form(n_machines: int, redundancy: int, n_tasks: int,
                                   leaver_position: int) -> int:
    """Exact waste of the unshifted cyclic leave N -> N-1 for a given leaver position.

    Requires N > L+1 and N(N-1) | F.  The value depends on where the leaver
    sat: positions below N-L leave a gap that later machines rotate across.
    """
    n, l, f = n_machines, redundancy, n_tasks
    if n <= l + 1:
        raise ValueError(f"closed form needs N > L+1, got N={n}, L={l}")
    if not 1 <= leaver_position <= n:
        raise ValueError(f"leaver position {leaver_position} outside 1..{n}")
    _exact_div(f, n * (n - 1), "leave closed form needs N(N-1) | F")
    p = leaver_position
    if p < n - l:
        numer = (p - 1) * (p - 2) + (n - l - p) * (n - l - p + 1)
    else:
        numer = (p - 1) * (p - 2)
    return numer * f // (n * (n - 1))


def cyclic_leave_waste_average(n_machines: int, redundancy: int,
                               n_tasks: int) -> Fraction:
    """Leave waste of the unshifted cyclic scheme averaged over all leaver positions."""
    n, l, f = n_machines, redundancy, n_tasks
    if n <= l + 1:
        raise ValueError(f"closed form needs N > L+1, got N={n}, L={l}")
    _exact_div(f, n * (n - 1), "leave closed form needs N(N-1) | F")
    return (Fraction(n - 2, 3 * n)
            + Fraction((n - l - 1) * (n - l) * (n - l + 1), 3 * (n - 1) * n * n)) * f


def optimal_shift_join(n_machines: int, redundancy: int, n_tasks: int,
                       prev_shift: int = 0) -> tuple[ShiftedCyclicParams, int]:
    """Best shift for the join N -> N+1 from a ``prev_shift``-shifted cyclic TAS.

    Returns the parameters of the new (N+1)-machine allocation and its exact
    predicted waste, which is minimal among all shifts differing from
    ``prev_shift`` by a multiple of F/(N(N+1)).
    """
    n, l, f = n_machines, redundancy, n_tasks
    if n <= l:
        raise ValueError(f"optimal shift needs N > L, got N={n}, L={l}")
    step = _exact_div(f, n * (n + 1), "optimal join shift needs N(N+1) | F")
    shift = (prev_shift + ((n + l - 1) // 2) * step) % f
    if (n - l) % 2 == 1:
        waste = (n - l - 1) * (n - l + 1) * f // (2 * n * (n + 1))
    else:
        waste = (n - l) * (n - l) * f // (2 * n * (n + 1))
    return ShiftedCyclicParams(n + 1, l, f, shift), waste


def optimal_shift_leave(n_machines: int, redundancy: int, n_tasks: int,
                        prev_shift: int = 0,
                        leaver_position: int = 1) -> tuple[ShiftedCyclicParams, int]:
    """Best shift for the leave N -> N-1; the predicted waste ignores who left.

    The shift compensates for the reindexing gap at the leaver's position, so
    the formula depends on ``leaver_position`` but the resulting waste does
    not.  Minimal among shifts on the F/(N(N-1)) grid.
    """
    n, l, f = n_machines, redundancy, n_tasks
    if n <= l + 1:
        raise ValueError(f"optimal shift needs N > L+1, got N={n}, L={l}")
    if not 1 <= leaver_position <= n:
        raise ValueError(f"leaver position {leaver_position} outside 1..{n}")
    step = _exact_div(f, n * (n - 1), "optimal leave shift needs N(N-1) | F")
    shift = (prev_shift + ((n - leaver_position) - (n + l - 2) // 2) * step) % f
    if (n - l) % 2 == 1:
        waste = (n - l - 1) * (n - l - 1) * f // (2 * n * (n - 1))
    else:
        waste = (n - l) * (n - l - 2) * f // (2 * n * (n - 1))
    return ShiftedCyclicParams(n - 1, l, f, shift), waste


def shifted_join_waste_piecewise(n_machines: int, redundancy: int, n_tasks: int,
                                 shift: int) -> int:
    """Piecewise closed form of the join waste as a function of the shift offset.

    ``shift`` is the offset of the new (N+1)-machine allocation relative to the
    old one (both measured from the same origin).  Each machine contributes one
    of five regimes depending on where the shift lands its new interval:
    trailing overlap, containment (zero), leading overlap, disjoint, or, for
    large L, a wrapped two-arc intersection.  Exact on multiples of
    F/(N(N+1)); measured waste is the source of truth elsewhere.
    """
    n, l, f = n_machines, redundancy, n_tasks
    if not 0 < l < n:
        raise ValueError(f"case analysis needs 0 < L < N, got L={l}, N={n}")
    step = _exact_div(f, n * (n + 1), "piecewise form needs N(N+1) | F")
    shift %= f
    span = l * n * step  # combined drift of interval start and length over one lap
    small_l = l < (n + 2) // 2  # L < ceil((N+1)/2): intersections stay contiguous
    total = 0
    for pos in range(1, n + 1):
        a = (pos - 1) * step
        if shift < a:
            total += 2 * (a - shift)
        elif shift < a + l * step:
            continue
        elif shift < a + l * step + span:
            if small_l or shift <= f + a - span:
                total += 2 * (shift - (a + l * step))
            else:
                total += 2 * (n - l) * f // n
        else:
            if small_l:
                total += 2 * span if shift <= f + a - span else 2 * (f + a - shift)
            else:
                total += 2 * (f + a - shift)
    return total


def shift_waste_profile(n_machines: int, redundancy: int, n_tasks: int,
                        prev_shift: int = 0) -> dict[int, int]:
    """Measured join waste for every possible shift of the new allocation.

    Values come from set arithmetic, not the piecewise form, so the profile
    doubles as an exhaustive oracle for the optimal-shift claims.
    """
    n, l, f = n_machines, redundancy, n_tasks
    _exact_div(f, n * (n + 1), "shift profile needs N(N+1) | F")
    old = cyclic_allocation(range(1, n + 1), l, f, prev_shift)
    profile = {}
    for shift in range(f):
        new = cyclic_allocation(range(1, n + 2), l, f, shift)
        profile[shift] = transition_waste(old, new).total_waste
    return profile
