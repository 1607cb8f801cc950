"""Exact enumeration of constrained integer boxes.

The brute-force ground truth behind every closed form in the package:
a box `0 <= x[j] <= upper[j]` intersected with a coordinate-sum
window `sum_min <= sum(x) <= sum_max`, enumerated in lexicographic order
and summed with exact arithmetic.  Hard guards keep everything desk-scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterator, Tuple

from .errors import CapacityError, ValidationError
from .scalars import Scalar, check_uniform_mode

SupportPoint = Tuple[int, ...]

MAX_DIM = 20
MAX_POINTS = 10_000_000
MAX_SUM = 1_000_000


def area(x: SupportPoint) -> int:
    """E(x) = sum_j (d - j + 1) x_j over the coordinates j = 1..d of x: the
    one statistic a joint weight of either urn kind reads."""
    return sum(map(mul, range(len(x), 0, -1), x))


@dataclass(frozen=True)
class ConstraintSet:
    """Integer box 0 <= x[j] <= upper[j] with a coordinate-sum window."""

    upper: Tuple[int, ...]
    sum_min: int
    sum_max: int

    def __post_init__(self) -> None:
        for up in self.upper:
            if up < 0:
                raise ValidationError(f"need 0 <= upper per coordinate, got {up}")
        if self.sum_min > self.sum_max:
            raise ValidationError(f"sum window is inverted: [{self.sum_min}, {self.sum_max}]")
        if self.dim > MAX_DIM:
            raise CapacityError(f"dimension {self.dim} exceeds the guard ({MAX_DIM})")

    @property
    def dim(self) -> int:
        return len(self.upper)


def count_points(constraints: ConstraintSet) -> int:
    """Number of admissible points, by a sum-indexed recursion (no listing)."""
    smax = min(constraints.sum_max, sum(constraints.upper))
    smin = max(constraints.sum_min, 0)
    if smin > smax:
        return 0
    if smax > MAX_SUM:
        raise CapacityError(f"sum window up to {smax} exceeds the guard ({MAX_SUM})")
    ways = [0] * (smax + 1)
    ways[0] = 1
    for up in constraints.upper:
        nxt = [0] * (smax + 1)
        for s, w in enumerate(ways):
            if not w:
                continue
            for v in range(min(up, smax - s) + 1):
                nxt[s + v] += w
        ways = nxt
    total = sum(ways[smin : smax + 1])
    if total > MAX_POINTS:
        raise CapacityError(f"{total} lattice points exceed the guard ({MAX_POINTS})")
    return total


def _suffix_sums(bounds: Tuple[int, ...]) -> list:
    """out[i] = bounds[i] + ... + bounds[-1], with out[len(bounds)] = 0."""
    out = [0] * (len(bounds) + 1)
    for i in range(len(bounds) - 1, -1, -1):
        out[i] = out[i + 1] + bounds[i]
    return out


def iter_points(constraints: ConstraintSet) -> Iterator[SupportPoint]:
    """Lexicographically ordered stream of admissible points.

    An odometer: coordinate j ranges over [lo_j, min(upper[j], sum_max -
    S_j)], where S_j is the sum of the coordinates before j and lo_j =
    max(0, sum_min - S_j - upper[j+1] - ... - upper[-1]) is the least value
    the rest can still lift into the window.  The last coordinate runs
    through its range; then the rightmost other coordinate below its top
    steps up by one, and every coordinate after it resets to its least
    value.  Once the first coordinate's range is non-empty, every range
    reached this way is non-empty, so each point listed is admissible.
    """
    dim, upper = constraints.dim, constraints.upper
    smin, smax = constraints.sum_min, constraints.sum_max
    up_suffix = _suffix_sums(upper)
    if dim == 0:
        if smin <= 0 <= smax:
            yield ()
        return
    if max(0, smin - up_suffix[1]) > min(upper[0], smax):
        return
    point = [0] * dim
    sums = [0] * (dim + 1)  # sums[j] = S_j

    def reset_from(i: int) -> None:
        s = sums[i]
        for j in range(i, dim):
            v = smin - s - up_suffix[j + 1]
            if v < 0:
                v = 0
            point[j] = v
            s += v
            sums[j + 1] = s

    reset_from(0)
    last = dim - 1
    while True:
        head = point[:last]
        for v in range(point[last], min(upper[last], smax - sums[last]) + 1):
            yield (*head, v)
        j = last - 1
        while j >= 0:
            if point[j] < upper[j] and sums[j + 1] < smax:
                break
            j -= 1
        else:
            return
        point[j] += 1
        sums[j + 1] += 1
        reset_from(j + 1)


def enumerate_points(constraints: ConstraintSet) -> Tuple[SupportPoint, ...]:
    """Complete, duplicate-free, lexicographic enumeration.

    Counts first so the capacity guard fires before any large listing, then
    self-checks the listing against the independent count.
    """
    expected = count_points(constraints)
    points = tuple(iter_points(constraints))
    if len(points) != expected:
        raise AssertionError(
            f"enumeration self-check failed: {len(points)} points listed, {expected} counted"
        )
    return points


def partial_sum_total(
    constraints: ConstraintSet, factor: Callable[[int, int, int], Scalar]
) -> Scalar:
    """Sum over the admissible points x of prod_j factor(j, x_j, S_j), where
    S_j = x_0 + ... + x_j is the running sum, without listing the points.

    The same recursion as `count_points`, with the unit weights replaced by
    the factors: partial[s] holds the summed products of every admissible
    prefix whose running sum is s.  The result equals `weighted_sum` over
    the product weight, exactly in exact mode.
    """
    count_points(constraints)
    upper = constraints.upper
    smin, smax = constraints.sum_min, constraints.sum_max
    up_suffix = _suffix_sums(upper)
    partial = {0: 1}
    for j in range(constraints.dim):
        nxt = {}
        for s, value in partial.items():
            lo = max(0, smin - s - up_suffix[j + 1])
            up = min(upper[j], smax - s)
            for v in range(lo, up + 1):
                term = value * factor(j, v, s + v)
                nxt[s + v] = nxt[s + v] + term if s + v in nxt else term
        partial = nxt
    return sum(value for s, value in partial.items() if smin <= s <= smax)


def weighted_sum(constraints: ConstraintSet, weight: Callable[[SupportPoint], Scalar]) -> Scalar:
    """Sum of `weight` over the enumeration, refusing mixed-mode terms."""
    count_points(constraints)
    total: Scalar = 0
    terms = []
    for x in iter_points(constraints):
        terms.append(weight(x))
    check_uniform_mode(terms, "weighted_sum")
    for t in terms:
        total += t
    return total
