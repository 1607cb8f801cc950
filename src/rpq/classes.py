"""Integer class counts: how many points of a box fall in each area class.

A joint weight reads a point x only through its area E(x) (`lattice.area`),
so its normalizer needs the number of support points in each area class,
not the points.  Let N_d(t, e) count the vectors of a d-coordinate box with
sum t and area e.  Appending a last coordinate v to a vector y of sum t - v
adds the new sum t to the area (E is the sum of the prefix sums), so

    N_d(t, e) = sum_v N_{d-1}(t - v, e - t),

the same as prepending a first coordinate v: N_d(t, e) = sum_v
N_{d-1}(t - v, e - d v).  Over the box {0..cap}^d the generating polynomial
of the sum-t vectors by area is a Gaussian binomial in q (Andrews, *The
Theory of Partitions*, ch. 3); the recursion needs no closed form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Dict

from .lattice import ConstraintSet


# Bounded: one entry per box and window a process asks about; each holds
# one count per area class.
@lru_cache(maxsize=64)
def area_counts(constraints: ConstraintSet) -> Dict[int, int]:
    """{e: number of admissible points with area e}, e ascending, classes
    with no point left out.  Sums the recursion over the running sums in
    the window, as `lattice.count_points` does.

    Each running sum t keeps its vectors' polynomial in X with exponent
    e - t (in [0, (d-1) t]) as one int, at X = 2^(8 width): a coefficient
    is at most the number of vectors with sum <= sum_max, which `width`
    bytes hold, so ints add and subtract coefficient by coefficient.
    Appending v takes the vectors of sum s = t - v to exponent e - t + s,
    a shift by s, and the v in [0, upper] of a coordinate are a difference
    of running sums.
    """
    smax = min(constraints.sum_max, sum(constraints.upper))
    smin = max(constraints.sum_min, 0)
    if smin > smax:
        return {}
    width = (comb(smax + constraints.dim, smax).bit_length() + 7) // 8
    bits = 8 * width
    ways = [1] + [0] * smax
    for up in constraints.upper:
        below = [0, *accumulate(w << (bits * s) for s, w in enumerate(ways))]
        ways = [below[t + 1] - below[max(0, t - up)] for t in range(smax + 1)]
    counts: Dict[int, int] = {}
    for t in range(smin, smax + 1):
        raw = ways[t].to_bytes(-(-ways[t].bit_length() // bits) * width, "little")
        for r in range(0, len(raw), width):
            count = int.from_bytes(raw[r:r + width], "little")
            if count:
                e = r // width + t
                counts[e] = counts.get(e, 0) + count
    return dict(sorted(counts.items()))
