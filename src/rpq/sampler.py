"""Deterministic sampling from enumerated tables, by inverse CDF or one
coordinate at a time.

The uniform source is SplitMix64 (Steele, Lea & Flood's constants): state
advances by the golden-gamma increment 0x9E3779B97F4A7C15 and each output
is finalized with the 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB xor-multiply
mix.  A variate is the top 53 bits of one output, read as the exact
rational mantissa / 2^53, so draws are reproducible bit-for-bit on any
platform.

Both samplers run one walk over prefixes.  A draw starts at the empty
prefix and, at each of a list of prefix lengths, reads one variate u and
moves to the first extension of its prefix (in the table's lexicographic
order) whose cumulative conditional probability exceeds u.  `sample` walks
straight to the full length, an inverse-CDF draw from one variate;
`sequential_sample` walks the lengths 1..k, one variate per coordinate
(the conditional-distribution method), for either kind.  Thresholds are
exact rationals in exact mode; u < F is decided by integer comparison
against ceil(F * 2^53), which never misassigns a boundary and never lands
on a zero-probability point.  A table computes each step once
(`PmfTable.steps`), and a step is taken by binary search over its
thresholds.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from .errors import ValidationError
from .lattice import SupportPoint
from .occupancy import OccupancyParams, joint_pmf
from .pmf import CDF_BITS, PmfTable
from .scalars import Scalar

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# A variate's mantissa is an output shifted right by this much.
_MANTISSA_SHIFT = 64 - CDF_BITS


def _outputs(seed: int) -> Iterator[int]:
    """The SplitMix64 output stream from `seed`, without end.  The draw
    loops read it directly, one generator step per variate."""
    state = seed & _MASK64
    while True:
        state = (state + _GOLDEN_GAMMA) & _MASK64
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


class SplitMix64:
    """Counter-based 64-bit generator with a fully specified stream."""

    def __init__(self, seed: int) -> None:
        self._outputs = _outputs(seed)

    def next_uint64(self) -> int:
        return next(self._outputs)

    def next_mantissa(self) -> int:
        """Top 53 bits of one output: the variate is mantissa / 2^53."""
        return next(self._outputs) >> _MANTISSA_SHIFT


@dataclass(frozen=True)
class SampleBatch:
    params: Mapping[str, object]
    seed: int
    count: int
    draws: Tuple[SupportPoint, ...]
    empirical: Tuple[Tuple[SupportPoint, Fraction], ...]

    def empirical_map(self) -> Dict[SupportPoint, Fraction]:
        return dict(self.empirical)


def _empirical(draws, count) -> Tuple[Tuple[SupportPoint, Fraction], ...]:
    """(point, c / count) per drawn point in sorted order, where c is how
    often it was drawn: one Fraction per distinct c, shared by its points."""
    counts = sorted(Counter(draws).items())
    frequency = {c: Fraction(c, count) for c in {c for _, c in counts}}
    return tuple((point, frequency[c]) for point, c in counts)


def _walk(table: PmfTable, cuts: Sequence[int], seed: int, count: int) -> Tuple[SupportPoint, ...]:
    """`count` points of `table` drawn, each by a walk from the empty prefix
    through the prefix lengths `cuts`, the last of them the full length.

    Each step reads one variate and takes an extension of the prefix the
    walk is at (`PmfTable.steps`).  Every walk leaves the empty prefix by
    the same step, read once here.
    """
    if count < 1:
        raise ValidationError(f"count: need count >= 1, got {count}")
    lo, thresholds = table.steps(0, cuts[0])[0]
    legs = [table.steps(cut, to) for cut, to in zip(cuts, cuts[1:])]
    outputs = _outputs(seed)
    ends = []
    for u in islice(outputs, count):
        i = lo + bisect_right(thresholds, u >> _MANTISSA_SHIFT)
        for leg in legs:
            start, bounds = leg[i]
            i = start + bisect_right(bounds, next(outputs) >> _MANTISSA_SHIFT)
        ends.append(i)
    return tuple(map(table.support.__getitem__, ends))


def sample(table: PmfTable, seed: int, count: int) -> SampleBatch:
    """Draw `count` inverse-CDF samples from a normalized table: one step
    from the empty prefix to the whole point per draw."""
    draws = _walk(table, (len(table.support[0]),), seed, count)
    return SampleBatch(dict(table.params), seed, count, draws, _empirical(draws, count))


def path_probabilities(params: OccupancyParams) -> Dict[SupportPoint, Scalar]:
    """Chain-rule probability of each support point, coordinate by
    coordinate; equals the joint probability exactly."""
    table = joint_pmf(params)
    masses = {p: m for cut in range(params.k + 1) for p, m in zip(*table.cut_masses(cut))}
    out = {}
    for point in table.support:
        prob: Scalar = 1 if table.exact else 1.0
        for cut in range(1, len(point) + 1):
            prob *= masses[point[:cut]] / masses[point[: cut - 1]]
        out[point] = prob
    return out


def sequential_sample(params: OccupancyParams, seed: int, count: int) -> SampleBatch:
    """Draw occupancy vectors one coordinate at a time, of either kind.

    Each coordinate consumes one variate and is decided by the conditional
    law given the prefix drawn so far, so the induced distribution is
    exactly the joint law; only the variate stream differs from `sample`.
    """
    table = joint_pmf(params)
    draws = _walk(table, range(1, params.k + 1), seed, count)
    return SampleBatch(dict(table.params, sampler="sequential"), seed, count, draws,
                       _empirical(draws, count))
