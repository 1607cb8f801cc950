"""Exact enumeration of constrained integer boxes.

The brute-force ground truth behind every closed form in the package:
a box `0 <= x[j] <= upper[j]` intersected with a coordinate-sum
window `sum_min <= sum(x) <= sum_max`, enumerated in lexicographic order
and summed with exact arithmetic.  Hard guards keep everything desk-scale.

One listing gives that order: `walk` extends prefixes one coordinate at a
time and carries each prefix's area E along (`area`), the one statistic a
joint weight reads; a prefix is built as `prefix + cell[v]`, so with tuple
cells it lists points and with text cells the text of table rows.  It
yields chunks, so a listing of any size holds a few thousand prefixes at a
time.  `enumerate_areas` is the guarded, self-checked listing of the points
and their areas that `enumerate_points` and `weighted_sum` read.
"""

from __future__ import annotations

from itertools import accumulate
from math import lcm
from operator import mul
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .errors import CapacityError, ValidationError
from .records import Record
from .scalars import Scalar, check_uniform_mode

SupportPoint = Tuple[int, ...]

MAX_DIM = 20
MAX_POINTS = 10_000_000
MAX_SUM = 1_000_000


def area(x: SupportPoint) -> int:
    """E(x) = sum_j (d - j + 1) x_j over the coordinates j = 1..d of x: the
    one statistic a joint weight of either urn kind reads."""
    return sum(map(mul, range(len(x), 0, -1), x))


class ConstraintSet(Record):
    """Integer box 0 <= x[j] <= upper[j] with a coordinate-sum window."""

    _fields = ("upper", "sum_min", "sum_max")

    def __init__(self, upper: Tuple[int, ...], sum_min: int, sum_max: int) -> None:
        for up in upper:
            if up < 0:
                raise ValidationError(f"need 0 <= upper per coordinate, got {up}")
        if sum_min > sum_max:
            raise ValidationError(f"sum window is inverted: [{sum_min}, {sum_max}]")
        check_dimension(len(upper))
        super().__init__(upper, sum_min, sum_max)

    @property
    def dim(self) -> int:
        return len(self.upper)


def check_dimension(dim: int) -> None:
    """Refuse `dim` coordinates beyond the guard (CapacityError)."""
    if dim > MAX_DIM:
        raise CapacityError(f"dimension {dim} exceeds the guard ({MAX_DIM})")


def _sum_ways(upper: Tuple[int, ...], smax: int, width: int) -> List[int]:
    """ways[t], t <= smax: the number of points of the box `upper` with sum
    t at width 0, else the polynomial of their areas e, exponent e - t, at
    X = 2^(8 width), as one int (`classes`).  A coordinate of cap `up` takes
    ways[t - up..t], a difference of running sums; appending v to a point
    of sum s = t - v adds t to its area, a shift of its exponent by s."""
    bits = 8 * width
    ways = [1] + [0] * smax
    for up in upper:
        below = [0, *accumulate(w << (bits * s) for s, w in enumerate(ways))]
        ways = [below[t + 1] - below[max(0, t - up)] for t in range(smax + 1)]
    return ways


def sum_counts(upper: Tuple[int, ...], smax: int) -> List[int]:
    """The number of points of the box `upper` with sum s, for s <= smax,
    without a listing (`_sum_ways`), after the sum guard."""
    if smax > MAX_SUM:
        raise CapacityError(f"sum window up to {smax} exceeds the guard ({MAX_SUM})")
    return _sum_ways(upper, smax, 0)


def check_points(total: int) -> int:
    """Refuse more than MAX_POINTS points (CapacityError); else `total`."""
    if total > MAX_POINTS:
        raise CapacityError(f"{total} lattice points exceed the guard ({MAX_POINTS})")
    return total


def count_points(constraints: ConstraintSet) -> int:
    """Number of admissible points (`sum_counts`), after the guards."""
    smax = min(constraints.sum_max, sum(constraints.upper))
    smin = max(constraints.sum_min, 0)
    if smin > smax:
        return 0
    return check_points(sum(sum_counts(constraints.upper, smax)[smin : smax + 1]))


# The most points in a chunk of `walk`, for coordinate ranges below it.
WALK_CHUNK = 512


def walk(constraints: ConstraintSet, cells: Sequence[Sequence], start=()) -> Iterator[Tuple[List, List[int]]]:
    """The admissible points in lexicographic order, as chunks
    (prefixes, areas): the prefix `start + cells[0][x_0] + ... +
    cells[d-1][x_{d-1}]` of each point x and its area E(x) (`area`).

    Coordinate j takes the values [lo_j, min(upper[j], sum_max - S_j)], where
    S_j is the sum of the coordinates before j and lo_j = max(0, sum_min -
    S_j - upper[j+1] - ... - upper[-1]) is the least value the rest can
    still lift into the window, so each point listed is admissible.  E is
    carried along: appending v to a prefix of sum S and area E gives
    sum S + v and area E + S + v, since E(x) is the sum of the prefix sums
    of x.  The trailing coordinates whose value tuples number at most
    WALK_CHUNK (at least the last one) are not walked per prefix: their
    tails, the text and the area of each admissible x[h:], depend only on
    the sum s of x[:h] and are built once per s.  A point is then
    `prefix + tail`, with area E(x[:h]) + (d - h) s + E(x[h:]).
    The prefixes of x[:h] are extended in slices, so a level holds at most
    WALK_CHUNK of them (one when a coordinate's range alone is wider), and a
    chunk holds at most WALK_CHUNK points when a tail list does.
    """
    dim, upper = constraints.dim, constraints.upper
    smin, smax = constraints.sum_min, constraints.sum_max
    up_suffix = list(accumulate(reversed(upper), initial=0))[::-1]  # upper[j] + ... + upper[-1]
    if dim == 0:
        if smin <= 0 <= smax:
            yield [start], [0]
        return
    h, tuples = dim - 1, upper[-1] + 1
    while h > 0 and tuples * (upper[h - 1] + 1) <= WALK_CHUNK:
        h -= 1
        tuples *= upper[h] + 1
    memo: Dict[Tuple[int, int], Tuple[List, List[int]]] = {}

    def tails(j: int, s: int) -> Tuple[Sequence, Sequence[int]]:
        # The texts and the areas of the admissible x[j:] after a prefix of sum s.
        up, rest = upper[j], smin - up_suffix[j + 1]
        lo = rest - s if rest > s else 0  # [lo_j, min(upper[j], sum_max - S_j)], without max and min
        hi = smax - s if smax - s < up else up
        if j == dim - 1:
            return cells[j][lo:hi + 1], range(lo, hi + 1)
        entry = memo.get((j, s))
        if entry is None:
            texts, areas = [], []
            for v in range(lo, hi + 1):
                sub_texts, sub_areas = tails(j + 1, s + v)
                texts += map(cells[j][v].__add__, sub_texts)
                areas += map(((dim - j) * v).__add__, sub_areas)
            entry = memo[j, s] = texts, areas
        return entry

    def extend(items: list, j: int) -> Iterator[Tuple[List, List[int]]]:
        # items: (prefix, sum, area) of the prefixes of length j.
        if j == h:
            prefixes, areas = [], []
            for p, s, a in items:
                texts, tail_areas = tails(h, s)
                if areas and len(areas) + len(tail_areas) > WALK_CHUNK:
                    yield prefixes, areas
                    prefixes, areas = [], []
                areas += map((a + (dim - h) * s).__add__, tail_areas)
                prefixes += map(p.__add__, texts)
            if areas:
                yield prefixes, areas
            return
        cell = cells[j]
        up, rest = upper[j], smin - up_suffix[j + 1]
        nxt = []
        for p, s, a in items:
            for v in range(rest - s if rest > s else 0, (smax - s if smax - s < up else up) + 1):
                t = s + v
                nxt.append((p + cell[v], t, a + t))
        size = max(1, WALK_CHUNK // (upper[j + 1] + 1))
        for i in range(0, len(nxt), size):
            yield from extend(nxt[i:i + size], j + 1)

    yield from extend([(start, 0, 0)], 0)


def point_cells(constraints: ConstraintSet) -> List[List[Tuple[int]]]:
    """The cells (v,) of each coordinate's values: `walk` then lists points."""
    return [[(v,) for v in range(up + 1)] for up in constraints.upper]


def enumerate_areas(constraints: ConstraintSet) -> Tuple[Tuple[SupportPoint, ...], Tuple[int, ...]]:
    """Complete, duplicate-free, lexicographic enumeration: the points and
    the area of each, from one `walk`.

    Counts first so the capacity guard fires before any large listing, then
    self-checks the listing against the independent count.
    """
    expected = count_points(constraints)
    points, areas = [], []
    for chunk_points, chunk_areas in walk(constraints, point_cells(constraints)):
        points += chunk_points
        areas += chunk_areas
    if len(points) != expected:
        raise AssertionError(f"enumeration self-check failed: {len(points)} points listed, {expected} counted")
    return tuple(points), tuple(areas)


def enumerate_points(constraints: ConstraintSet) -> Tuple[SupportPoint, ...]:
    """The points of `enumerate_areas`."""
    return enumerate_areas(constraints)[0]


# A layer of the recursion below: (partial, denominator).  partial[s] holds
# the summed products over every admissible prefix whose running sum is s,
# as an integer numerator over the one common denominator, in both modes.
Layer = Tuple[Dict[int, int], int]

# The layer of the empty prefix: product 1 at running sum 0.
FIRST_LAYER: Layer = ({0: 1}, 1)


def layer_step(layer: Layer, cap: int, top: int, factor: Callable[[int, int], Tuple[int, int]]) -> Layer:
    """Extend every prefix of `layer` by one coordinate: a value v in
    [0, cap] whose new running sum t = s + v is at most `top`, weighted by
    factor(v, t), a (numerator, denominator) pair of ints
    (`algebra._closed_pair`).  The factors of the step are brought to their
    least common denominator and integers are added, so no step reduces a
    fraction or rounds a float."""
    partial, denominator = layer
    terms = [
        (value, t, factor(t - s, t))
        for s, value in partial.items()
        for t in range(s, min(s + cap, top) + 1)
    ]
    scale = lcm(*{bottom for _, _, (_, bottom) in terms})
    nxt = {}
    for value, t, (top, bottom) in terms:
        nxt[t] = nxt.get(t, 0) + value * top * (scale // bottom)
    return nxt, denominator * scale


def weighted_sum(constraints: ConstraintSet, weight: Callable[[SupportPoint], Scalar]) -> Scalar:
    """Sum of `weight` over the enumeration, refusing mixed-mode terms."""
    total: Scalar = 0
    terms = [weight(x) for x in enumerate_areas(constraints)[0]]
    check_uniform_mode(terms, "weighted_sum")
    for t in terms:
        total += t
    return total
