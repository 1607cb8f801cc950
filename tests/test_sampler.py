import math
from fractions import Fraction

import pytest

from conftest import JS, Q_HALF
from oracle import mantissas, scan_sample
from rpq import (
    FirstKindParams,
    SecondKindParams,
    ValidationError,
    jagannathan_srinivasa,
    path_probabilities,
    sample,
    sequential_sample,
)
from rpq import sampler
from rpq.first_kind import joint_pmf
from rpq.sampler import SplitMix64


def test_generator_is_fully_specified():
    gen = SplitMix64(0)
    first = [gen.next_uint64() for _ in range(3)]
    # reference values of the standard splitmix64 stream from seed 0
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    again = SplitMix64(0)
    assert [again.next_uint64() for _ in range(3)] == first


def test_draws_continue_one_stream_across_output_lists():
    # The outputs come in lists of at most 2^12: a count past two lists
    # draws what one stream gives.
    params = FirstKindParams(Q_HALF, 2, 1)
    table = joint_pmf(params)
    count = (2 << 12) + 50
    assert sample(table, 9, count).draws == scan_sample(table, mantissas(9), count)
    # The descent sorts runs of 2^16 variates: past two runs it draws what
    # `sample` does, and a point drawn in several runs is one tuple.
    count = (2 << 16) + 50
    draws = sampler._descent(params, 9, count).draws
    assert draws == sample(table, 9, count).draws
    assert len(set(map(id, draws))) == len(set(draws)) == len(table.support)


def test_point_mass_draws():
    table = joint_pmf(FirstKindParams(Q_HALF, 2, 0))
    batch = sample(table, seed=9, count=25)
    assert set(batch.draws) == {(0, 0)}
    assert batch.empirical == (((0, 0), Fraction(1)),)


def test_threshold_selection_rule(monkeypatch):
    table = joint_pmf(FirstKindParams(Q_HALF, 2, 1))
    # The inverse-CDF draw leaves the empty prefix for the first point below
    # the thresholds 4/7 and 6/7 on the 53-bit scale, rounded up; the last
    # point takes every variate past them.
    denom = 1 << 53
    low, high = -(-4 * denom // 7), -(-6 * denom // 7)
    variates = [0, low - 1, low, int(0.6 * denom), high - 1, high, denom - 1]
    monkeypatch.setattr(sampler, "_outputs", lambda seed, count: [u << 11 for u in variates[:count]])
    # u = 0.6 lies between 4/7 and 6/7, so the second point is selected.
    assert sample(table, 1, len(variates)).draws == tuple(
        table.support[i] for i in (0, 0, 1, 1, 1, 2, 2))
    assert table.support[1] == (0, 1)


def test_draws_reproducible_and_within_binomial_error():
    table = joint_pmf(FirstKindParams(Q_HALF, 2, 1))
    count = 100_000
    one = sample(table, seed=20240101, count=count)
    two = sample(table, seed=20240101, count=count)
    assert one.draws == two.draws
    emp = one.empirical_map()
    for point, prob in zip(table.support, table.probabilities):
        se = 3 * math.sqrt(float(prob) * (1 - float(prob)) / count)
        assert abs(float(emp.get(point, 0)) - float(prob)) <= se
    assert sum(emp.values()) == 1


def test_distinct_seeds_differ():
    table = joint_pmf(FirstKindParams(Q_HALF, 2, 1))
    assert sample(table, 1, 200).draws != sample(table, 2, 200).draws


def test_no_zero_probability_draws():
    table = joint_pmf(FirstKindParams(Q_HALF, 3, 2))
    batch = sample(table, seed=5, count=2000)
    support = set(table.support)
    assert set(batch.draws) <= support


def test_path_probabilities_match_joint():
    for k, n in ((2, 1), (3, 2), (4, 4), (5, 3), (2, 0)):
        params = FirstKindParams(Q_HALF, k, n)
        table = joint_pmf(params)
        paths = path_probabilities(params)
        assert set(paths) == set(table.support)
        for point, prob in zip(table.support, table.probabilities):
            assert paths[point] == prob
        assert sum(paths.values()) == 1
    assert path_probabilities(FirstKindParams(Q_HALF, 2, 1))[(0, 1)] == Fraction(2, 7)


@pytest.mark.parametrize("params", [
    FirstKindParams(Q_HALF, 2, 1),
    SecondKindParams(JS, 3, 3),
    SecondKindParams(jagannathan_srinivasa(0.9, 0.5), 3, 3),
], ids=("first", "second-exact", "second-decimal"))
def test_sequential_sampler_reproducible_and_calibrated(params):
    one = sequential_sample(params, seed=77, count=50_000)
    two = sequential_sample(params, seed=77, count=50_000)
    assert one.draws == two.draws
    table = joint_pmf(params)
    emp = one.empirical_map()
    for point, prob in zip(table.support, table.probabilities):
        se = 3 * math.sqrt(float(prob) * (1 - float(prob)) / one.count)
        assert abs(float(emp.get(point, 0)) - float(prob)) <= se


def test_sequential_zero_balls():
    batch = sequential_sample(FirstKindParams(Q_HALF, 3, 0), seed=3, count=10)
    assert set(batch.draws) == {(0, 0, 0)}


def test_count_validation():
    table = joint_pmf(FirstKindParams(Q_HALF, 2, 1))
    with pytest.raises(ValidationError):
        sample(table, seed=1, count=0)


def test_second_kind_path_probabilities_are_the_second_kind_joint():
    params = SecondKindParams(Q_HALF, 2, 3)
    table = joint_pmf(params)
    assert len(table.support) == 10
    assert path_probabilities(params) == dict(zip(table.support, table.probabilities))
