"""Area classes: how many points of a box fall in each area class, and the
masses of a joint law's prefix classes, read from those counts.

A joint weight reads a point x only through its area E(x) (`lattice.area`),
so its normalizer needs the number of support points in each area class,
not the points.  Let N_d(t, e) count the vectors of a d-coordinate box with
sum t and area e.  Appending a last coordinate v to a vector y of sum t - v
adds the new sum t to the area (E is the sum of the prefix sums), so
N_d(t, e) = sum_v N_{d-1}(t - v, e - t); over {0..cap}^d its generating
polynomial is a Gaussian binomial (Andrews, *The Theory of Partitions*,
ch. 3), which the recursion (`lattice._sum_ways`) needs no closed form of.

The class route.  Cut a support point x of k coordinates after r of them
into a prefix p and a suffix s: E(x) = E(p) + (k - r) sum(p) + E(s), and
the suffixes of p are the points of the suffix box, k - r coordinates with
sums in the joint's window shifted down by sum(p).  So the mass of p, the
summed weight of its extensions, depends only on its class (r, sum p,
base = E(p) + (k - r) sum p), and so does a step of a sequential draw: the
children of (r, s, base) are (r + 1, s + v, base + (k - r) v).  A block of
coordinates ending at S adds E(v) + (k - S) sum(v) for its vectors v, so
one depth-first walk per grouping scheme gives every leading block sum its
mass (`blocks`).  `PrefixClasses` computes all of these without the joint's
points, in both modes from the same integers: a mass is summed as an
integer over the joint's one denominator (the exact sum of float weights,
in approximate mode), and `make_table` takes the integers along, so no
decimal sum depends on an order of points.  A law keeps one mass and one
step per class, the count rows of its suffix boxes and, within a budget of
points, the tables and moment reports read from it by call and its schemes'
walks: a repeated call is one lookup, so nothing that only serves a table's
first build is kept besides.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import mul
from typing import Callable, Dict, List, Sequence, Tuple

from .lattice import ConstraintSet, SupportPoint, _sum_ways, area, count_points, enumerate_areas
from .pmf import PmfStream, cdf_thresholds

# The array type code of each coefficient width `_decode` reads in one pass.
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _width(dim: int, smax: int) -> int:
    """The bytes of one coefficient of the area polynomials of a box of at
    most `dim` coordinates with sums <= smax (`lattice._sum_ways`): enough
    for C(smax + dim, dim), its number of vectors, rounded up to 1, 2, 4 or
    8 (the widths `_decode` reads in one pass) where one of these suffices."""
    need = (comb(smax + dim, dim).bit_length() + 7) // 8
    return next((w for w in _CODES if w >= need), need)


def _decode(value: int, width: int) -> List[int]:
    """The coefficients of a packed polynomial, lowest first, up to its
    last nonzero one, read in one pass."""
    size = -(-value.bit_length() // (8 * width)) * width
    if width not in _CODES:
        raw = value.to_bytes(size, "little")
        return [int.from_bytes(raw[i:i + width], "little") for i in range(0, size, width)]
    coefficients = memoryview(value.to_bytes(size, sys.byteorder)).cast(_CODES[width]).tolist()
    if sys.byteorder == "big":
        coefficients.reverse()
    return coefficients


def area_counts(constraints: ConstraintSet) -> Dict[int, int]:
    """{e: number of admissible points with area e}, e ascending, classes
    with no point left out.  The polynomials of the sums t in the window,
    each at its offset t in e, are added pairwise (so no int grows beyond
    the span of the areas it holds) and decoded in one pass."""
    smax = min(constraints.sum_max, sum(constraints.upper))
    width = _width(constraints.dim, max(smax, 0))
    ways = _sum_ways(constraints.upper, max(smax, 0), width)
    terms = [(t, ways[t]) for t in range(max(constraints.sum_min, 0), smax + 1)]
    while len(terms) > 1:
        pairs = zip(terms[::2], terms[1::2])
        terms = [(t, w + (v << 8 * width * (u - t))) for (t, w), (u, v) in pairs] + terms[len(terms) & ~1:]
    return {t + i: count for t, total in terms for i, count in enumerate(_decode(total, width)) if count}


def sum_rows(upper: Tuple[int, ...], smax: int) -> Tuple[List[int], ...]:
    """The area counts of the box `upper` by sum: row t lists the number
    of its vectors with sum t and area t + i at index i, for t <= smax."""
    width = _width(len(upper), smax)
    return tuple(_decode(w, width) for w in _sum_ways(upper, smax, width))


class Recent(OrderedDict):
    """`make(key)` by key: the most recently read values, while they hold
    at most `budget` points in all, `size(value)` each (a larger value is
    not kept).  `cache_clear()` drops them all."""

    def __init__(self, make: Callable, size: Callable[[object], int], budget: int) -> None:
        super().__init__()
        self.make, self.size, self.budget, self.points = make, size, budget, 0

    def __call__(self, key):
        try:  # a kept value, now the most recently read
            self.move_to_end(key)
            return self[key]
        except KeyError:
            pass
        value = self.make(key)
        if self.size(value) <= self.budget:
            self[key], self.points = value, self.points + self.size(value)
            while self.points > self.budget:
                self.points -= self.size(self.popitem(last=False)[1])
        return value

    def cache_clear(self) -> None:
        self.clear()
        self.points = 0


def _points(kept) -> int:
    """The size of a value kept on a class law: a walk's block vectors at
    every depth (its list of levels, `PrefixClasses.blocks`), moment reports
    (a tuple of them), or a table's support points."""
    if isinstance(kept, list):
        return sum(map(len, kept))
    return len(kept) if isinstance(kept, tuple) else len(kept.support)


def _listing(box: ConstraintSet) -> Tuple[Tuple[SupportPoint, ...], Tuple[Tuple[int, int], ...], List[int]]:
    """The points of a box in lexicographic order and their class partition:
    the distinct keys (sum, area) in first-seen order, each point's key
    index."""
    (points, areas), keys = enumerate_areas(box), {}
    index = [keys.setdefault(key, len(keys)) for key in zip(map(sum, points), areas)]
    return points, tuple(keys), index


class PrefixClasses:
    """The prefix classes of one joint law, `law`, over a box of k
    coordinates, each at most `bound`, with sums in [smin, smax]: `mass`
    and `step` give a class (r, s, base) its mass and its step of a
    sequential draw, memoised, one entry per class.  A mass is the summed
    weight of the support points in the class (at r = 0 the normalizer's,
    `total`), an integer over the joint's one denominator `denominator`: in
    both modes the counts by sum of the suffix box of d coordinates
    (`rows(d)`, `sum_rows`, memoised) dotted with the class weights of `law`
    as `numerators` over `denominator`, the exact sum of the weights.
    `tables(call)` is `build(params, *args)` of a call (build, *args),
    `params` the model of the joint: a table, a walk or moment reports,
    kept while they hold at most 2^14 points (`_points`)."""

    def __init__(self, law: PmfStream, numerators: Sequence[int], denominator: int, params) -> None:
        self.law, self.denominator = law, denominator
        box = law.constraints
        self.k, self.bound, self.smin, self.smax = box.dim, box.upper[0], box.sum_min, box.sum_max
        self.mass, self.step, self.rows = (lru_cache(maxsize=None)(f) for f in (self._mass, self._step, self._rows))
        self.tables = Recent(lambda call: call[0](params, *call[1:]), _points, 1 << 14)
        scaled = dict(zip(law.weights, numerators))
        self._scaled = [scaled.get(e, 0) for e in range(max(scaled) + 1)]
        self.total = sum(law.counts[e] * n for e, n in scaled.items())

    def _rows(self, d: int) -> Tuple[List[int], ...]:
        return sum_rows((self.bound,) * d, self.smax)

    def _mass(self, key: Tuple[int, int, int]) -> int:
        r, s, base = key
        if r == 0:
            return self.total
        rows, numerator = self.rows(self.k - r), 0
        for t in range(max(0, self.smin - s), self.smax - s + 1):
            numerator += sum(map(mul, rows[t], self._scaled[base + t:base + t + len(rows[t])]))
        return numerator

    def prefixes(self, given: SupportPoint, m: int) -> Tuple[tuple, tuple, List[int], List[int]]:
        """The m-prefixes x of the support that extend `given` (r = len(given)
        coordinates), in lexicographic order: their parts s = x[r:], the
        points of a box of m - r coordinates whose sums leave the last k - m
        room in the window, the keys (sum s, E(s)) and index of that box's
        class partition, and the mass of each class."""
        r, y = len(given), sum(given)
        box = ConstraintSet((self.bound,) * (m - r), max(0, self.smin - y - (self.k - m) * self.bound), self.smax - y)
        points, keys, index = _listing(box)
        base, tail, mass = area(given) + (self.k - r) * y, self.k - m, self.mass
        return points, keys, index, [mass((m, y + t, base + e + tail * t)) for t, e in keys]

    def _step(self, key: Tuple[int, int, int]) -> Tuple[List[int], int, list]:
        # The children of class (r, s, base), r < k, take the values v from
        # `lo` up that leave the rest of the point room in the window; a
        # variate u takes child bisect_right(thresholds, u).
        r, s, base = key
        rest = self.k - r - 1
        lo = max(0, self.smin - s - rest * self.bound)
        children = [(r + 1, s + v, base + (rest + 1) * v) for v in range(lo, min(self.bound, self.smax - s) + 1)]
        return cdf_thresholds(list(map(self.mass, children))), lo, children

    def blocks(self, sizes: Sequence[int]) -> List[Dict[SupportPoint, int]]:
        """The block sums y of the consecutive blocks of `sizes` (which cover
        the k coordinates) by depth: `levels[d - 1]` maps each admissible
        y[:d], in lexicographic order, to the mass of the points it leads.
        One depth-first walk, after the guard on the box of block sums,
        merges the (area, count) pairs of each y[:d] once, packed as
        `lattice._sum_ways` packs those of each (block, sum): a block ending
        at S adds E(v) + (k - S) y_j for its vectors v of sum y_j.  A leaf's
        mass is its pairs dotted with the class weights, an inner one the
        sum of its children's."""
        uppers, tails = [self.bound * m for m in sizes], [self.k - end + 1 for end in accumulate(sizes)]
        expected = count_points(ConstraintSet(tuple(uppers), self.smin, self.smax))
        room = list(accumulate(reversed(uppers), initial=0))[::-1]  # uppers[j] + ... + uppers[-1]
        width = _width(self.k, self.smax)
        rows = [_sum_ways((self.bound,) * m, self.smax, width) for m in sizes]
        levels: List[Dict[SupportPoint, int]] = [{} for _ in range(len(sizes) + 1)]

        def descend(y: SupportPoint, s: int, low: int, pairs: int) -> int:
            # `pairs`: the areas of the vectors of y's blocks, packed from area `low`.
            j = len(y)
            if j < len(sizes):
                mass = sum(descend(y + (v,), s + v, low + tails[j] * v, pairs * rows[j][v])
                           for v in range(max(0, self.smin - s - room[j + 1]), min(uppers[j], self.smax - s) + 1))
            else:
                counts = _decode(pairs, width)
                mass = sum(map(mul, counts, self._scaled[low:low + len(counts)]))
            levels[j][y] = mass
            return mass

        descend((), 0, 0, 1)
        if len(levels[-1]) != expected:
            raise AssertionError(f"block walk self-check failed: {len(levels[-1])} listed, {expected} counted")
        return levels[1:]
