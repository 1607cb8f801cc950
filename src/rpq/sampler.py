"""Deterministic sampling, by inverse CDF or one coordinate at a time.

The uniform source is SplitMix64 (Steele, Lea & Flood's constants): state
advances by the golden-gamma increment 0x9E3779B97F4A7C15 and each output
is finalized with the 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB xor-multiply
mix.  A variate is the top 53 bits of one output, read as the exact
rational mantissa / 2^53, so draws are reproducible bit-for-bit on any
platform.  A variate takes the first outcome whose cumulative probability
exceeds it (`pmf.cdf_thresholds`); thresholds are ceil(F * 2^53), with F
exact in both modes (a float weight read as the rational it is), so no
boundary is misassigned and no zero-probability point is drawn.  Outputs
are computed side by side in one int (`_packed`), from constants kept per
count (`_lanes`), and their mantissas are cut from that int by one shift
(`_variates`), so no draw shifts a variate of its own.

`sample` draws a table's points, one variate each, against the thresholds
the table keeps (`PmfTable.cdf`), and tallies them by support index, whose
order is the points': a variate reads its bucket in the thresholds' guide
(`bucket_guide`, kept as `PmfTable.guide`), and only one in a bucket that
a threshold splits is bisected.  The CLI draws the joint's the same way by
a descent of its prefix classes (`classes.PrefixClasses`), listing no table.
`sequential_sample` draws the joint law one coordinate at a time (the
conditional-distribution method), by the steps of the same classes; its
thresholds are exact in both modes, from the classes' integer masses.  A
draw follows the steps as linked nodes, linking a child's step the first
time it reaches it, so a warm draw looks no class up.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter, truediv
from typing import Dict, Iterator, List, Sequence, Tuple

from .classes import _decode
from .errors import ValidationError
from .lattice import SupportPoint, point_cells, walk
from .occupancy import OccupancyParams, _integers, _joint_law, joint_pmf  # noqa: F401 (perfbench wraps joint_pmf here)
from .pmf import CDF_BITS, PmfTable
from .records import Record
from .scalars import Scalar

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# A variate's mantissa is an output shifted right by this much.
_MANTISSA_SHIFT = 64 - CDF_BITS


# Bounded: a draw reads at most two counts (lists of 2^12 outputs and the
# rest), each kept in four ints of 16 bytes per output.
@lru_cache(maxsize=4)
def _lanes(count: int) -> Tuple[int, int, int, int]:
    """The seed-free constants of `count` outputs side by side (`_packed`):
    the ints whose lane i holds (i + 1) gamma, 1 and 2^64 - 1, and the 1
    past the last lane."""
    steps, ones, width = 1, 1, 1  # lane i holds i + 1, and 1
    while width < count:
        steps |= (steps + width * ones) << (128 * width)
        ones |= ones << (128 * width)
        width *= 2
    top = 1 << (128 * count)
    steps, ones = steps & (top - 1), ones & (top - 1)
    return steps * _GOLDEN_GAMMA, ones, ones * _MASK64, top


def _packed(seed: int, count: int) -> int:
    """The first `count` SplitMix64 outputs from `seed`, computed side by
    side: output i is bits [128 i, 128 i + 64) of one int, the rest of its
    lane (zeros) room for a product, so each step of the mix is one int
    operation.  A 1 past the last lane keeps a last output of 0 among the
    words `_decode` reads."""
    gammas, ones, mask, top = _lanes(count)
    z = (gammas + ones * (seed & _MASK64)) & mask
    z = ((z ^ ((z >> 30) & mask)) * _MIX1) & mask
    z = ((z ^ ((z >> 27) & mask)) * _MIX2) & mask
    z ^= (z >> 31) & mask
    return z | top


def _outputs(seed: int, count: int) -> List[int]:
    """The first `count` SplitMix64 outputs from `seed`."""
    return _decode(_packed(seed, count), 8)[0:2 * count:2]


def _variates(seed: int, count: int) -> List[int]:
    """The mantissas of the first `count` outputs from `seed`, their top 53
    bits, cut by one shift of the packed outputs (`_packed`): the zeros of
    each lane's upper word shift in above its mantissa, and an output's low
    bits go to the upper word of the lane below, which is not read.  The
    shifted int holds 2 count words, of which the even ones are read."""
    return _decode(_packed(seed, count) >> _MANTISSA_SHIFT, 8, 2)


def _lists(seed: int, count: int) -> Iterator[List[int]]:
    """The mantissas of the first `count` outputs from `seed` (`_variates`)
    in lists of at most 2^12, which bounds what a large count holds: after
    i outputs the state is seed + i gamma."""
    return (_variates(seed + i * _GOLDEN_GAMMA, min(1 << 12, count - i)) for i in range(0, count, 1 << 12))


def _stream(seed: int, count: int) -> Iterator[int]:
    """The mantissas of `_lists`, one by one."""
    return chain.from_iterable(_lists(seed, count))


class SplitMix64:
    """Counter-based 64-bit generator with a fully specified stream."""

    def __init__(self, seed: int) -> None:
        (seed,) = _integers("seed", (seed,))
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        return _outputs(self._state - _GOLDEN_GAMMA, 1)[0]


class SampleBatch(Record):
    _fields = ("params", "seed", "count", "draws", "empirical")

    def empirical_map(self) -> Dict[SupportPoint, Fraction]:
        return dict(self.empirical)


def _empirical(draws, count, support=None) -> Tuple[Tuple[SupportPoint, Fraction], ...]:
    """(point, c / count) per drawn point in sorted order, where c is how
    often it was drawn: one Fraction per distinct c, shared by its points.
    Given a strictly increasing `support`, the draws are indices into it,
    whose order is the points'."""
    counts = sorted(Counter(draws).items())
    frequency = {c: Fraction(c, count) for c in {c for _, c in counts}}
    return tuple((point if support is None else support[point], frequency[c]) for point, c in counts)


def _check_count(seed: int, count: int) -> Tuple[int, int]:
    """`seed` and `count` read as ints (`occupancy._integers`), count >= 1."""
    (seed,), (count,) = _integers("seed", (seed,)), _integers("count", (count,))
    if count < 1:
        raise ValidationError(f"count: need count >= 1, got {count}")
    return seed, count


def bucket_guide(thresholds: Sequence[int]) -> Tuple[int, List[int]]:
    """The guide of the indexed search (Chen & Asau, 1974; Devroye,
    *Non-Uniform Random Variate Generation*, 1986, III.2.4) of inverse-CDF
    thresholds, non-decreasing ints in [0, 2^53]: (shift, guide), the guide
    2^b >= 4 (len(thresholds) + 1) entries, shift = 53 - b.  Entry j is
    bisect_right(thresholds, u) for every u of bucket j, [j << shift,
    (j + 1) << shift), or -1 where a threshold falls inside the bucket,
    past its first variate.  One pass over the thresholds fills each run of
    equal entries at once."""
    shift = CDF_BITS - (4 * len(thresholds) + 3).bit_length()
    inside, guide = (1 << shift) - 1, []
    for i, t in enumerate(thresholds):
        j = t >> shift
        guide += repeat(i, j - len(guide))  # the buckets from the last one filled up to t's
        if t & inside and len(guide) == j:
            guide.append(-1)
    guide += repeat(len(thresholds), (1 << (CDF_BITS - shift)) - len(guide))
    return shift, guide


def sample(table: PmfTable, seed: int, count: int) -> SampleBatch:
    """Draw `count` inverse-CDF samples from a normalized table: one variate
    per draw, against the table's thresholds (`PmfTable.cdf`), tallied by
    support index.  A variate takes the entry of its bucket in the table's
    guide (`PmfTable.guide`, `bucket_guide`), and is bisected among the
    thresholds only where a threshold splits its bucket."""
    if not isinstance(table, PmfTable):
        raise ValidationError(
            f"sample draws the points of a table, not of a {type(table).__name__}: draw the joint table, "
            "joint_pmf(params), or draw the joint law without listing it by the descent of `rpq sample`")
    seed, count = _check_count(seed, count)
    thresholds, (shift, guide), support = table.cdf, table.guide, table.support
    drawn: List[int] = []
    for variates in _lists(seed, count):
        picked, i = [guide[u >> shift] for u in variates], -1
        for _ in range(picked.count(-1)):
            i = picked.index(-1, i + 1)
            picked[i] = bisect_right(thresholds, variates[i])
        drawn += picked
    draws = itemgetter(*drawn)(support) if count > 1 else (support[drawn[0]],)
    return SampleBatch(dict(table.params), seed, count, draws, _empirical(drawn, count, support))


def _descent(params: OccupancyParams, seed: int, count: int) -> SampleBatch:
    """`sample` of the joint table of `params`, listing no table: each run of
    2^16 sorted variates descends the prefix classes, visiting each at most
    once, a class after mass `offset` giving child j those below
    ceil((offset + C_j) 2^53 / total), C_j its children's masses up to j.
    The points drawn, one tuple each, and their thresholds form a table."""
    classes = _joint_law(params)
    seed, count = _check_count(seed, count)
    step, mass, total, k = classes.step, classes.mass, classes.total, params.k
    outputs, shared, draws = _stream(seed, count), {}, []

    def descend(key, point, offset, start, stop):
        _, lo, children, _ = step(key)
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
        variates = list(map(float, islice(outputs, 1 << 16)))
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
    seed, count = _check_count(seed, count)
    step, draws = classes.step, []
    root = step((0, 0, 0))
    # A draw's k variates, one per coordinate: the step of its last
    # coordinate has leaves for children, whose kids are never filled.
    for *head, last in zip(*[_stream(seed, count * params.k)] * params.k):
        node, point = root, []
        for u in head:
            thresholds, lo, children, kids = node
            i = bisect_right(thresholds, u)
            point.append(lo + i)
            node = kids[i]
            if node is None:
                node = kids[i] = step(children[i])
        point.append(node[1] + bisect_right(node[0], last))
        draws.append(tuple(point))
    return SampleBatch(dict(classes.law.params, sampler="sequential"), seed, count, tuple(draws),
                       _empirical(draws, count))
