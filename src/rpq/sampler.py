"""Deterministic inverse-CDF sampling from enumerated tables.

The uniform source is SplitMix64 (Steele, Lea & Flood's constants): state
advances by the golden-gamma increment 0x9E3779B97F4A7C15 and each output
is finalized with the 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB xor-multiply
mix.  A variate is the top 53 bits of one output, read as the exact
rational mantissa / 2^53, so draws are reproducible bit-for-bit on any
platform.

Selection rule: a variate u picks the first support point (in the table's
lexicographic order) whose cumulative probability exceeds u.  Thresholds
are exact rationals in exact mode; u < F is decided by integer comparison
against ceil(F * 2^53), which never misassigns a boundary and never lands
on a zero-probability point.  A table computes its thresholds, prefix
masses and per-prefix sequential bounds once, and each draw is found by
binary search over the thresholds.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Dict, Iterator, Mapping, Tuple

from .errors import ValidationError
from .lattice import SupportPoint
from .occupancy import OccupancyParams, joint_pmf
from .pmf import CDF_BITS, PmfTable, node_prefix
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


def sample(table: PmfTable, seed: int, count: int) -> SampleBatch:
    """Draw `count` inverse-CDF samples from a normalized table.

    Each draw is found by binary search over the thresholds.  An approximate
    table whose float CDF ends below 1 sends a variate past the last
    threshold to the last point.
    """
    if count < 1:
        raise ValidationError(f"count: need count >= 1, got {count}")
    thresholds = table.cdf_thresholds()
    support = table.support
    last = len(support) - 1
    draws = tuple(
        support[min(bisect_right(thresholds, u >> _MANTISSA_SHIFT), last)]
        for u in islice(_outputs(seed), count)
    )
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
    """Draw occupancy vectors one coordinate at a time.

    Each coordinate consumes one variate and is decided by the conditional
    law given the prefix drawn so far, so the induced distribution is
    exactly the joint law; only the variate stream differs from `sample`.
    A coordinate is decided between 0 and 1, so only a kind of cap 1 (the
    first kind) samples sequentially.
    """
    if params.cap != 1:
        raise ValidationError("sequential: only the first kind samples sequentially")
    if count < 1:
        raise ValidationError(f"count: need count >= 1, got {count}")
    table = joint_pmf(params)
    k = params.k
    # Each draw walks the tree of 0/1 prefixes by node index (root 1, child
    # 2 * node + bit) and reads each node's bound from the table's memo.
    zero_bound = table.node_zero_bound
    outputs = _outputs(seed)
    nodes = []
    for _ in range(count):
        node = 1
        for u in islice(outputs, k):
            node = 2 * node + (u >> _MANTISSA_SHIFT >= zero_bound(node))
        nodes.append(node)
    points = {node: node_prefix(node) for node in set(nodes)}
    draws = tuple(map(points.__getitem__, nodes))
    batch_params = dict(table.params)
    batch_params["sampler"] = "sequential"
    return SampleBatch(batch_params, seed, count, draws, _empirical(draws, count))
