import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpq import (
    CapacityError,
    ConstraintSet,
    ModeMixError,
    ValidationError,
    count_points,
    enumerate_points,
    weighted_sum,
)
from rpq import lattice
from rpq.lattice import area, point_cells, walk


def test_enumeration_listings():
    assert enumerate_points(ConstraintSet((1, 1), 0, 1)) == ((0, 0), (0, 1), (1, 0))
    assert enumerate_points(ConstraintSet((1, 1), 1, 2)) == ((0, 1), (1, 0), (1, 1))
    assert enumerate_points(ConstraintSet((2,), 0, 2)) == ((0,), (1,), (2,))


def test_enumeration_is_sorted_and_duplicate_free():
    points = enumerate_points(ConstraintSet((2, 1, 3), 2, 4))
    assert list(points) == sorted(set(points))
    assert all(2 <= sum(p) <= 4 for p in points)


def test_count_matches_enumeration():
    for upper in ((1, 1, 1), (2, 3), (1, 2, 1, 2)):
        for smin in range(0, sum(upper) + 1):
            for smax in range(smin, sum(upper) + 1):
                c = ConstraintSet(upper, smin, smax)
                assert count_points(c) == len(enumerate_points(c))
    # Zero caps, empty and negative windows and the empty box included.
    rng = random.Random(2305)
    for _ in range(1500):
        upper = tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 6)))
        smin = rng.randint(-3, 20)
        c = ConstraintSet(upper, smin, rng.randint(smin, 25))
        points = enumerate_points(c)
        assert count_points(c) == len(points)
        assert list(points) == _recursive_points(c), c


def test_capacity_one_window_cardinality():
    # points of {0,1}^k with sum in {n-1, n} number C(k, n) + C(k, n-1)
    for k in range(1, 11):
        for n in range(1, k + 1):
            c = ConstraintSet((1,) * k, n - 1, n)
            assert count_points(c) == math.comb(k, n) + math.comb(k, n - 1)


def test_empty_window():
    c = ConstraintSet((1, 1), 5, 6)
    assert enumerate_points(c) == ()
    assert weighted_sum(c, lambda x: Fraction(1)) == 0


def test_weighted_sum_values():
    c = ConstraintSet((1, 1), 0, 1)
    assert weighted_sum(c, lambda x: 1) == 3
    q = Fraction(1, 2)
    c = ConstraintSet((1, 1), 1, 2)
    total = weighted_sum(c, lambda r: q ** (r[0] + 2 * r[1]))
    assert total == Fraction(7, 8)


def test_weighted_sum_linearity_and_order_invariance():
    c = ConstraintSet((2, 2), 1, 3)
    f = lambda x: Fraction(x[0] + 1, 3)
    g = lambda x: Fraction(x[1] ** 2 + 1, 5)
    lhs = weighted_sum(c, lambda x: 2 * f(x) + 7 * g(x))
    assert lhs == 2 * weighted_sum(c, f) + 7 * weighted_sum(c, g)
    forward = [f(x) for x in enumerate_points(c)]
    assert sum(reversed(forward)) == weighted_sum(c, f)


def test_mode_mix_rejected():
    c = ConstraintSet((1,), 0, 1)
    with pytest.raises(ModeMixError):
        weighted_sum(c, lambda x: 0.5 if x[0] else Fraction(1, 2))


def test_validation():
    with pytest.raises(ValidationError):
        ConstraintSet((1, -1), 0, 1)
    with pytest.raises(ValidationError):
        ConstraintSet((1, 1), 2, 1)


def test_capacity_guards():
    with pytest.raises(CapacityError):
        ConstraintSet((1,) * 21, 0, 21)
    with pytest.raises(CapacityError):
        count_points(ConstraintSet((9,) * 14, 0, 126))
    with pytest.raises(CapacityError, match=r"sum window up to 1000001 exceeds the guard \(1000000\)"):
        count_points(ConstraintSet((10**6, 1), 0, 10**7))
    # C(29, 9) = 10,015,005 points: one over the point guard.
    with pytest.raises(CapacityError, match=r"10015005 lattice points exceed the guard \(10000000\)"):
        count_points(ConstraintSet((20,) * 10, 20, 20))
    assert count_points(ConstraintSet((19,) * 10, 19, 19)) == math.comb(28, 9)


def test_reproducibility():
    c = ConstraintSet((3, 3, 3), 2, 7)
    w = lambda x: Fraction(2, 3) ** sum(x)
    assert weighted_sum(c, w) == weighted_sum(c, w)
    assert enumerate_points(c) == enumerate_points(c)


def _recursive_points(c):
    """Reference listing: every box point, depth first, kept if its sum is
    in the window."""
    def rec(prefix):
        if len(prefix) == c.dim:
            if c.sum_min <= sum(prefix) <= c.sum_max:
                yield prefix
            return
        for v in range(c.upper[len(prefix)] + 1):
            yield from rec(prefix + (v,))

    return list(rec(()))


@pytest.mark.parametrize("upper", [(), (0,), (3,), (1, 1), (0, 2), (2, 0, 1), (1, 1, 1, 1), (2, 3, 1), (3, 0, 2, 1)])
def test_enumerate_points_matches_recursive_reference(upper):
    total = sum(upper)
    # Windows below, across and beyond the box, sum_min > 0 and empty ones included.
    for smin in range(-1, total + 3):
        for smax in range(smin, total + 3):
            c = ConstraintSet(upper, smin, smax)
            assert list(enumerate_points(c)) == _recursive_points(c), (upper, smin, smax)


@pytest.mark.parametrize("chunk", (1, 3, 8, lattice.WALK_CHUNK))
@pytest.mark.parametrize("upper", [(), (0,), (3,), (1, 1), (0, 2), (2, 0, 1), (1, 1, 1, 1), (2, 3, 1), (3, 0, 2, 1),
                                   (1,) * 7, (2, 1, 2, 1, 2)])
def test_walk_matches_recursive_reference(upper, chunk, monkeypatch):
    """Points, row texts and areas, at chunk sizes that make the walk take
    its tails from every level."""
    monkeypatch.setattr(lattice, "WALK_CHUNK", chunk)
    total = sum(upper)
    for smin in range(-1, total + 2):
        for smax in range(smin, total + 2):
            c = ConstraintSet(upper, smin, smax)
            points = _recursive_points(c)
            chunks = list(walk(c, point_cells(c)))
            assert [x for listed, _ in chunks for x in listed] == points, (upper, smin, smax)
            assert [e for _, areas in chunks for e in areas] == list(map(area, points))
            cells = [[f"{v};" for v in range(up + 1)] for up in upper]
            text_chunks = list(walk(c, cells, "<"))
            texts = [t for listed, _ in text_chunks for t in listed]
            assert texts == ["<" + "".join(f"{v};" for v in x) for x in points]
            assert [e for _, areas in text_chunks for e in areas] == list(map(area, points))
            assert all(areas for _, areas in chunks)
            if max(upper, default=0) < chunk:
                assert all(len(areas) <= chunk for _, areas in chunks)


# Factors as unreduced (numerator, denominator) pairs, negative and zero
# numerators included, keyed by (coordinate, value, running sum).
_pair_factors = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 9)),
                                st.tuples(st.integers(-10**20, 10**20), st.integers(1, 10**6)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=0, max_size=4), st.integers(0, 9), st.integers(0, 9), _pair_factors)
def test_layer_windows_are_the_exact_sums_of_their_points(upper, lo, hi, pairs):
    """A layer's window is the exact sum, over the window's points, of the
    product of each point's factors (a pair read as its Fraction)."""
    upper = tuple(upper)

    def factor(j, v, t):
        return pairs.get((j, v, t), (j + v + 1, t + 2))

    def weight(x):
        value, s = Fraction(1), 0
        for j, v in enumerate(x):
            s += v
            top, bottom = factor(j, v, s)
            value *= Fraction(top, bottom)
        return value

    top = max(lo, hi)
    layer = lattice.FIRST_LAYER
    for j, up in enumerate(upper):
        layer = lattice.layer_step(layer, up, top, lambda v, t, j=j: factor(j, v, t))
    partial, denominator = layer
    total = sum(value for s, value in partial.items() if lo <= s <= hi)
    want = weighted_sum(ConstraintSet(upper, lo, max(lo, hi)), weight) if lo <= hi else 0
    assert Fraction(total, denominator) == want
