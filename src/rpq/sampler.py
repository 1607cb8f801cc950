"""Deterministic sampling, by inverse CDF or one coordinate at a time.

The uniform source is SplitMix64 (Steele, Lea & Flood's constants): state
advances by the golden-gamma increment 0x9E3779B97F4A7C15 and each output
is finalized with the 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB xor-multiply
mix.  A variate is the top 53 bits of one output, read as the exact
rational mantissa / 2^53, so draws are reproducible bit-for-bit on any
platform.  A variate takes the first outcome whose cumulative probability
exceeds it (`pmf.cdf_thresholds`); thresholds are ceil(F * 2^53), with F
exact in both modes (a float weight read as the rational it is), so no
boundary is misassigned and no zero-probability point is drawn.

`sample` draws a table's points, one variate each, against the thresholds
the table keeps (`PmfTable.cdf`); the CLI draws the joint's the same way by
a descent of its prefix classes (`classes.PrefixClasses`), listing no table.
`sequential_sample` draws the joint law one coordinate at a time (the
conditional-distribution method), by the steps of the same classes; its
thresholds are exact in both modes, from the classes' integer masses.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, islice
from operator import truediv
from typing import Dict, Iterator, List, Tuple

from .classes import _decode
from .errors import ValidationError
from .lattice import SupportPoint, point_cells, walk
from .occupancy import OccupancyParams, _joint_law, joint_pmf  # noqa: F401 (perfbench wraps joint_pmf here)
from .pmf import CDF_BITS, PmfTable
from .records import Record
from .scalars import Scalar

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# A variate's mantissa is an output shifted right by this much.
_MANTISSA_SHIFT = 64 - CDF_BITS


def _outputs(seed: int, count: int) -> List[int]:
    """The first `count` SplitMix64 outputs from `seed`, computed side by
    side: output i is bits [128 i, 128 i + 64) of one int, the rest of its
    lane room for a product, so each step of the mix is one int operation."""
    steps, ones, width = 1, 1, 1  # lane i holds i + 1, and 1
    while width < count:
        steps |= (steps + width * ones) << (128 * width)
        ones |= ones << (128 * width)
        width *= 2
    top = 1 << (128 * count)
    steps, ones = steps & (top - 1), ones & (top - 1)
    mask = ones * _MASK64
    z = (steps * _GOLDEN_GAMMA + ones * (seed & _MASK64)) & mask
    z = ((z ^ ((z >> 30) & mask)) * _MIX1) & mask
    z = ((z ^ ((z >> 27) & mask)) * _MIX2) & mask
    z ^= (z >> 31) & mask
    # The 1 past the last lane keeps a last output of 0 among the words.
    return _decode(z | top, 8)[0:2 * count:2]


def _stream(seed: int, count: int) -> Iterator[int]:
    """The first `count` outputs from `seed` in lists of at most 2^12, which
    bounds what a large count holds: after i outputs the state is seed + i
    gamma."""
    return chain.from_iterable(_outputs(seed + i * _GOLDEN_GAMMA, min(1 << 12, count - i))
                               for i in range(0, count, 1 << 12))


class SplitMix64:
    """Counter-based 64-bit generator with a fully specified stream."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        return _outputs(self._state - _GOLDEN_GAMMA, 1)[0]


class SampleBatch(Record):
    _fields = ("params", "seed", "count", "draws", "empirical")

    def empirical_map(self) -> Dict[SupportPoint, Fraction]:
        return dict(self.empirical)


def _empirical(draws, count) -> Tuple[Tuple[SupportPoint, Fraction], ...]:
    """(point, c / count) per drawn point in sorted order, where c is how
    often it was drawn: one Fraction per distinct c, shared by its points."""
    counts = sorted(Counter(draws).items())
    frequency = {c: Fraction(c, count) for c in {c for _, c in counts}}
    return tuple((point, frequency[c]) for point, c in counts)


def _check_count(count: int) -> None:
    if count < 1:
        raise ValidationError(f"count: need count >= 1, got {count}")


def sample(table: PmfTable, seed: int, count: int) -> SampleBatch:
    """Draw `count` inverse-CDF samples from a normalized table: one variate
    per draw, against the table's thresholds (`PmfTable.cdf`)."""
    _check_count(count)
    thresholds, support = table.cdf, table.support
    draws = tuple([support[bisect_right(thresholds, u >> _MANTISSA_SHIFT)] for u in _stream(seed, count)])
    return SampleBatch(dict(table.params), seed, count, draws, _empirical(draws, count))


def _descent(params: OccupancyParams, seed: int, count: int) -> SampleBatch:
    """`sample` of the joint table of `params`, listing no table: each run of
    2^16 sorted variates descends the prefix classes, visiting each at most
    once, a class after mass `offset` giving child j those below
    ceil((offset + C_j) 2^53 / total), C_j its children's masses up to j.
    The points drawn, one tuple each, and their thresholds form a table."""
    classes = _joint_law(params)
    _check_count(count)
    step, mass, total, k = classes.step, classes.mass, classes.total, params.k
    outputs, shared, draws = _stream(seed, count), {}, []

    def descend(key, point, offset, start, stop):
        _, lo, children = step(key)
        cumulative = list(accumulate(map(mass, children)))
        for v, (child, before, c) in enumerate(zip(children, [0, *cumulative], cumulative), lo):
            bound = float(-(-((offset + c) << CDF_BITS) // total))
            end = bisect_left(ordered, bound, start, stop)
            if end > start and child[0] < k:
                descend(child, (*point, v), offset + before, start, end)
            elif end > start:
                bounds.append(bound)
                points.append(shared.setdefault((*point, v), (*point, v)))
            if end == stop:
                return
            start = end

    for _ in range(0, count, 1 << 16):
        # Floats hold each variate and threshold (at most 2^53) exactly, and
        # sort and compare faster than ints of two digits.
        variates = [float(u >> _MANTISSA_SHIFT) for u in islice(outputs, 1 << 16)]
        ordered, bounds, points = sorted(variates), [], []
        descend((0, 0, 0), (), 0, 0, len(ordered))
        draws.extend([points[bisect_right(bounds, u)] for u in variates])
    draws = tuple(draws)
    return SampleBatch(dict(classes.law.params), seed, count, draws, _empirical(draws, count))


def path_probabilities(params: OccupancyParams) -> Dict[SupportPoint, Scalar]:
    """Chain-rule probability of each support point, coordinate by
    coordinate, from the masses of its prefixes' classes; equals the joint
    probability exactly."""
    classes = _joint_law(params)
    mass, box = classes.mass, classes.law.constraints
    k, (one, ratio) = params.k, ((1, Fraction) if params.alg.exact else (1.0, truediv))
    out = {}
    for points, _ in walk(box, point_cells(box)):
        for point in points:
            prob, s, base, parent = one, 0, 0, mass((0, 0, 0))
            for r, v in enumerate(point):
                s, base = s + v, base + (k - r) * v
                child = mass((r + 1, s, base))
                prob *= ratio(child, parent)
                parent = child
            out[point] = prob
    return out


def sequential_sample(params: OccupancyParams, seed: int, count: int) -> SampleBatch:
    """Draw occupancy vectors one coordinate at a time, of either kind.

    Each coordinate consumes one variate and is decided by the conditional
    law given the prefix drawn so far, one step per prefix class
    (`PrefixClasses.step`), so the induced distribution is exactly the
    joint law; only the variate stream differs from `sample`.
    """
    classes = _joint_law(params)
    _check_count(count)
    step, outputs, coordinates, draws = classes.step, _stream(seed, count * params.k), range(params.k), []
    for _ in range(count):
        key, point = (0, 0, 0), []
        for _ in coordinates:
            thresholds, lo, children = step(key)
            i = bisect_right(thresholds, next(outputs) >> _MANTISSA_SHIFT)
            point.append(lo + i)
            key = children[i]
        draws.append(tuple(point))
    return SampleBatch(dict(classes.law.params, sampler="sequential"), seed, count, tuple(draws),
                       _empirical(draws, count))
