"""Symmetric point-line configurations and the zero-waste ranges they induce.

A symmetric (v, k)-configuration has v points and v lines, k points per line,
k lines per point, and no two points on more than one common line.  Spreading
F/v tasks over each point and giving every machine the tasks of one line
yields an allocation whose pairwise set intersections are at most F/v, small
enough to sustain a provable range of consecutive zero-waste departures.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

from .core import TaskAllocation, ValidationReport

__all__ = [
    "Configuration",
    "ZwrResult",
    "validate_configuration",
    "fano_plane",
    "is_prime_power",
    "projective_plane",
    "truncated_plane_q2",
    "truncated_plane_q2_minus_1",
    "tas_from_configuration",
    "zero_waste_range",
    "family_parameters",
    "ZWR_FAMILIES",
    "zwr_task_count",
    "configuration_to_document",
    "configuration_to_json",
]


@dataclass(frozen=True)
class Configuration:
    """A point-line incidence structure; points are 1..n_points, lines point sets."""

    n_points: int
    line_size: int
    lines: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ZwrResult:
    """A zero-waste range [n_min, n_max] with its removable-machine count.

    ``removable`` machines can leave one after another from ``n_max`` with
    zero transition waste no matter who leaves; ``discriminant`` is the
    quadratic discriminant the bound comes from.
    """

    n_max: int
    removable: int
    discriminant: int

    @property
    def n_min(self) -> int:
        return self.n_max - self.removable


def validate_configuration(config: Configuration) -> ValidationReport:
    """Check symmetry, uniform line size, uniform point degree, and pair uniqueness."""
    v, k = config.n_points, config.line_size
    violations: list[str] = []
    if len(config.lines) != v:
        violations.append(
            f"symmetry: {len(config.lines)} lines for {v} points")
    degree = {p: 0 for p in range(1, v + 1)}
    for i, line in enumerate(config.lines):
        if len(line) != k:
            violations.append(f"line {i + 1} has {len(line)} points, expected {k}")
        for p in line:
            if not 1 <= p <= v:
                violations.append(f"line {i + 1} references unknown point {p}")
            else:
                degree[p] += 1
    for p, d in degree.items():
        if d != k:
            violations.append(f"point {p} lies on {d} lines, expected {k}")
    for (i, a), (j, b) in itertools.combinations(enumerate(config.lines), 2):
        if len(a & b) > 1:
            violations.append(
                f"lines {i + 1} and {j + 1} share {len(a & b)} points")
    return ValidationReport(tuple(violations))


def fano_plane() -> Configuration:
    """The (7,3)-configuration on points 1..7 in its classical line listing."""
    lines = ({1, 2, 3}, {1, 4, 5}, {1, 6, 7}, {2, 4, 6}, {2, 5, 7}, {3, 5, 6}, {3, 4, 7})
    return Configuration(n_points=7, line_size=3,
                         lines=tuple(frozenset(l) for l in lines))


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p**k, or None."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k, rest = 0, q
    while rest % p == 0:
        rest //= p
        k += 1
    return (p, k) if rest == 1 else None


def is_prime_power(q: int) -> bool:
    return _prime_power(q) is not None


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    a = list(a)
    deg_mod = len(mod) - 1
    for i in range(len(a) - 1, deg_mod - 1, -1):
        coef = a[i]
        if coef:
            for j in range(deg_mod + 1):
                a[i - deg_mod + j] = (a[i - deg_mod + j] - coef * mod[j]) % p
    return a[:deg_mod]


def _find_irreducible(p: int, k: int) -> list[int]:
    """First monic degree-k polynomial over GF(p) with no lower-degree monic divisor."""
    def divides(divisor: list[int], poly: list[int]) -> bool:
        return not any(_poly_mod(poly, divisor, p))

    monics = lambda deg: (list(c) + [1] for c in
                          itertools.product(range(p), repeat=deg))
    for candidate in monics(k):
        if all(not divides(d, candidate)
               for deg in range(1, k // 2 + 1) for d in monics(deg)):
            return candidate
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


class _Field:
    """GF(p**k) with elements encoded as integers 0..q-1 (base-p coefficient digits).

    The q-by-q addition and multiplication tables are built once from the
    digit and polynomial arithmetic, so field operations are lookups.
    """

    def __init__(self, q: int):
        pk = _prime_power(q)
        if pk is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        self.p, self.k = pk
        self.modulus = None if self.k == 1 else _find_irreducible(self.p, self.k)
        digits = [self._digits(e) for e in range(q)]
        self.add_table = tuple(
            tuple(self._encode((x + y) % self.p for x, y in zip(a, b)) for b in digits)
            for a in digits)
        self.mul_table = tuple(tuple(self._poly_product(a, b) for b in digits) for a in digits)

    def _digits(self, e: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(e % self.p)
            e //= self.p
        return out

    def _encode(self, digits: Sequence[int]) -> int:
        e = 0
        for d in reversed(list(digits)):
            e = e * self.p + d
        return e

    def _poly_product(self, a: Sequence[int], b: Sequence[int]) -> int:
        prod = _poly_mul(a, b, self.p)
        if self.k == 1:
            return prod[0]
        reduced = _poly_mod(prod, self.modulus, self.p)
        return self._encode(reduced + [0] * (self.k - len(reduced)))


def _projective_points(field: _Field) -> list[tuple[int, int, int]]:
    """Canonical homogeneous triples (first nonzero coordinate 1), lex ordered."""
    points = []
    for vec in itertools.product(range(field.q), repeat=3):
        if vec == (0, 0, 0):
            continue
        lead = next(c for c in vec if c != 0)
        if lead == 1:
            points.append(vec)
    return points


def projective_plane(q: int) -> Configuration:
    """The (q*q+q+1, q+1)-configuration of 1- and 2-dimensional subspaces of GF(q)^3.

    Points and lines are both indexed by canonical homogeneous triples in
    lexicographic order, so repeated calls produce identical structures.  q=2
    yields a structure isomorphic to the Fano plane.
    """
    field = _Field(q)
    reps = _projective_points(field)
    point_id = {vec: i + 1 for i, vec in enumerate(reps)}
    lines = []
    for coeffs in reps:
        members = frozenset(
            point_id[vec] for vec in reps
            if not _dot(field, coeffs, vec))
        lines.append(members)
    return Configuration(n_points=len(reps), line_size=q + 1, lines=tuple(lines))


def _dot(field: _Field, a: Sequence[int], b: Sequence[int]) -> int:
    add, mul = field.add_table, field.mul_table
    acc = 0
    for x, y in zip(a, b):
        acc = add[acc][mul[x][y]]
    return acc


def _truncate(q: int, extra_line_through_p: bool) -> Configuration:
    """Remove a point, its pencil of lines, and one further line with its points.

    With the extra removed line through the pivot point this leaves a
    (q*q, q)-configuration; with the extra line avoiding the pivot it leaves a
    (q*q - 1, q)-configuration.  The pivot is point 1 and the extra line is the
    first qualifying one, so the output is canonical.
    """
    plane = projective_plane(q)
    pivot = 1
    contains = lambda line: pivot in line
    extra = next(line for line in plane.lines
                 if contains(line) == extra_line_through_p)
    removed_points = set(extra) | {pivot}
    removed_lines = {line for line in plane.lines if contains(line)}
    if not extra_line_through_p:
        removed_lines.add(extra)
    kept_points = [p for p in range(1, plane.n_points + 1) if p not in removed_points]
    relabel = {p: i + 1 for i, p in enumerate(kept_points)}
    new_lines = sorted(
        (frozenset(relabel[p] for p in line if p in relabel)
         for line in plane.lines if line not in removed_lines),
        key=sorted)
    return Configuration(n_points=len(kept_points), line_size=q, lines=tuple(new_lines))


def truncated_plane_q2(q: int) -> Configuration:
    """A (q*q, q)-configuration cut out of the projective plane over GF(q)."""
    return _truncate(q, extra_line_through_p=True)


def truncated_plane_q2_minus_1(q: int) -> Configuration:
    """A (q*q - 1, q)-configuration cut out of the projective plane over GF(q)."""
    return _truncate(q, extra_line_through_p=False)


def tas_from_configuration(config: Configuration, n_tasks: int) -> TaskAllocation:
    """Allocation with one machine per line, holding the tasks of the line's points.

    Partitions the task range into n_points contiguous equal slices, one per
    point; machine n takes the union of the slices on line n.  Pairwise task
    set intersections are then at most n_tasks / n_points.  The sets are
    unions of ranges, so the allocation is built as a derived one;
    :func:`validate_tas` reports tasks of points outside 1..n_points.
    """
    v = config.n_points
    if n_tasks % v != 0:
        raise ValueError(
            f"point count {v} does not divide task count {n_tasks}")
    size = n_tasks // v
    ids = range(1, len(config.lines) + 1)
    sets = {m: frozenset().union(*(range((p - 1) * size, p * size) for p in line))
            for m, line in zip(ids, config.lines)}
    return TaskAllocation._derived(config.line_size, n_tasks, ids, sets)


def _floor_sub_sqrt(a: int, disc: int, b: int) -> int:
    """floor((a - sqrt(disc)) / b) computed exactly in integers (b > 0)."""
    t = (a - math.isqrt(disc)) // b
    while (a - t * b) < 0 or (a - t * b) ** 2 < disc:
        t -= 1
    while (a - (t + 1) * b) >= 0 and (a - (t + 1) * b) ** 2 >= disc:
        t += 1
    return t


def zero_waste_range(n_max: int, redundancy: int) -> ZwrResult:
    """Guaranteed zero-waste range of a configuration-backed allocation.

    Starting from an (n_max, L)-configuration allocation, R consecutive
    departures stay zero-waste, where R solves a quadratic in the number of
    removals: each removal inflates pairwise intersections by at most twice
    the load change, and the range ends where the intersection bound would
    break.
    """
    n, l = n_max, redundancy
    if l < 2 or n < 3:
        raise ValueError(f"range formula needs L >= 2 and n_max >= 3, got L={l}, n_max={n}")
    disc = l * n * (l * n + 8 * l * l - 16 * l + 6) + (2 * l - 1) ** 2
    if disc < 0:
        raise ValueError(f"negative discriminant {disc} for (n_max={n}, L={l})")
    removable = max(1 + _floor_sub_sqrt(3 * l * n - 2 * n - 2 * l + 1, disc, 4 * l - 2), 0)
    result = ZwrResult(n_max=n, removable=removable, discriminant=disc)
    if result.n_min < l:
        raise ValueError(f"range [{result.n_min}, {n}] would drop below redundancy {l}")
    return result


ZWR_FAMILIES = ("l3", "l4", "projective", "q2", "q2m1")


def family_parameters(family: str, q: int | None = None,
                      n_max: int | None = None) -> tuple[int, int]:
    """(n_max, L) of a named configuration family; its zero-waste range is
    ``zero_waste_range(*family_parameters(...))``.

    ``l3``/``l4`` take ``n_max`` (>= 7 and >= 13); ``projective``, ``q2`` and
    ``q2m1`` take a prime power ``q``.  Raises ValueError for a family that
    does not exist at these parameters.
    """
    family = family.lower()
    if family in ("l3", "l4"):
        l, least = (3, 7) if family == "l3" else (4, 13)
        if n_max is None or n_max < least:
            raise ValueError(f"(n,{l})-configurations need n_max >= {least}, got {n_max}")
        return n_max, l
    if family not in ("projective", "q2", "q2m1"):
        raise ValueError(f"unknown family {family!r}; choose one of {ZWR_FAMILIES}")
    if q is None or not is_prime_power(q):
        raise ValueError(f"family {family!r} needs a prime power q, got {q}")
    return {"projective": (q * q + q + 1, q + 1), "q2": (q * q, q),
            "q2m1": (q * q - 1, q)}[family]


def zwr_task_count(n_min: int, n_max: int, redundancy: int) -> int:
    """Least task count F with N(N-1) | L*F for every pool size N in [n_min, n_max].

    Makes every leave inside the range (and the probe one step below it) have
    an integral load change L*F/(N(N-1)); also divisible by n_max as the
    configuration embedding requires.
    """
    if not 2 <= n_min <= n_max or redundancy < 1:
        raise ValueError(f"need 2 <= n_min <= n_max and L >= 1, "
                         f"got [{n_min}, {n_max}], L={redundancy}")
    return math.lcm(n_max, *(n * (n - 1) // math.gcd(n * (n - 1), redundancy)
                             for n in range(n_min, n_max + 1)))


def configuration_to_document(config: Configuration) -> dict:
    return {
        "v": config.n_points,
        "k": config.line_size,
        "lines": [sorted(line) for line in config.lines],
    }


def configuration_to_json(config: Configuration) -> str:
    return json.dumps(configuration_to_document(config), indent=2) + "\n"
