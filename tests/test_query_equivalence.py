"""Derived laws and draws against scan-and-sum references over the joint.

Conditionals, grouped marginals and grouped conditionals are summed here
from the joint in support order, the way the straightforward scan does it,
and the samplers are replayed with a linear threshold scan and uncached
prefix masses.  Floats are compared with `==`: the library must reproduce
the scan bit for bit, not just within tolerance.
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from conftest import Q_HALF
from oracle import KINDS, grid, kind_id
from rpq import (
    ValidationError,
    ZeroProbabilityEventError,
    jagannathan_srinivasa,
    sample,
    sequential_sample,
)
from rpq import first_kind, sampler
from rpq.first_kind import FirstKindParams, GroupingScheme
from rpq.pmf import make_table

DENOM = 1 << 53

# Every small (k, n): k <= 4 for the first kind, k, n <= 3 for the second.
_params = partial(grid, first_k=4, second_k=3, second_n=3)


def _scan(points, masses, keep, project):
    acc = {}
    for point, mass in zip(points, masses):
        if keep(point):
            key = project(point)
            acc[key] = acc[key] + mass if key in acc else mass
    support = tuple(sorted(acc))
    return support, tuple(acc[p] for p in support)


def _block_sums(sizes):
    """The projection of a point to the sums of its consecutive blocks of
    `sizes`."""
    def project(x):
        out, start = [], 0
        for size in sizes:
            out.append(sum(x[start:start + size]))
            start += size
        return tuple(out)
    return project


def _prefix_masses(joint):
    """Summed weight of every support-point prefix, the empty one included,
    by a scan in support order."""
    masses = {}
    for point, weight in zip(joint.support, joint.weights):
        for cut in range(len(point) + 1):
            key = point[:cut]
            masses[key] = masses[key] + weight if key in masses else weight
    return masses


def _compositions(k):
    for cuts in product((0, 1), repeat=k - 1):
        sizes, run = [], 1
        for cut in cuts:
            if cut:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        if len(sizes) > 1:
            yield tuple(sizes)


def _assert_same(table, support, masses):
    assert table.support == support
    assert table.weights == masses
    total = masses[0]
    for w in masses[1:]:
        total = total + w
    assert table.probabilities == tuple(w / total for w in masses)


def _prefixes(module, params, r):
    top = 1 if module is first_kind else params.n
    return [g for g in product(range(top + 1), repeat=r) if sum(g) <= params.n]


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_conditionals_equal_scan(case):
    for params in _params(*case):
        _check_conditionals(case[0], params)


def _check_conditionals(module, params):
    joint = module.joint_pmf(params)
    for r in range(1, params.k):
        for given in _prefixes(module, params, r):
            for m in range(r + 1, params.k + 1):
                support, masses = _scan(
                    joint.support, joint.weights, lambda x: x[:r] == given, lambda x: x[r:m]
                )
                if not support:
                    with pytest.raises(ZeroProbabilityEventError, match="has probability zero"):
                        module.conditional_pmf(params, given, m)
                    continue
                table = module.conditional_pmf(params, given, m)
                _assert_same(table, support, masses)
                again = module.conditional_pmf(params, given, m)
                assert (again.support, again.weights) == (table.support, table.weights)


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_grouped_marginals_and_conditionals_equal_scan(case):
    for params in _params(*case):
        _check_grouped(case[0], params)


def _check_grouped(module, params):
    joint = module.joint_pmf(params)
    for sizes in _compositions(params.k):
        scheme = GroupingScheme(sizes)
        blocks, block_masses = _scan(
            joint.support, joint.weights, lambda x: True, _block_sums(sizes)
        )
        for nu in range(1, len(sizes)):
            support, masses = _scan(blocks, block_masses, lambda y: True, lambda y: y[:nu])
            _assert_same(module.grouped_marginal_pmf(params, scheme, nu), support, masses)
            for given in set(y[:nu] for y in blocks) | {tuple(params.n + 1 for _ in range(nu))}:
                support, masses = _scan(
                    blocks, block_masses, lambda y: y[:nu] == given, lambda y: y[nu:]
                )
                if not support:
                    with pytest.raises(ZeroProbabilityEventError, match="has probability zero"):
                        module.grouped_conditional_pmf(params, scheme, given)
                    continue
                _assert_same(module.grouped_conditional_pmf(params, scheme, given), support, masses)


class _SplitMix64:
    """The sampler's variate stream, written out here: SplitMix64 outputs,
    top 53 bits each."""

    def __init__(self, seed):
        self.state = seed % (1 << 64)

    def next_mantissa(self):
        mask = (1 << 64) - 1
        self.state = (self.state + 0x9E3779B97F4A7C15) & mask
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return (z ^ (z >> 31)) >> 11


def _frequencies(draws):
    """(point, c / count) per drawn point in sorted order, c its count."""
    return tuple((point, Fraction(c, len(draws))) for point, c in sorted(Counter(draws).items()))


def _on_scale(cumulative, exact):
    """A cumulative probability as a threshold on the 53-bit scale: rounded
    up in exact mode."""
    if exact:
        frac = Fraction(cumulative) * DENOM
        return -(-frac.numerator // frac.denominator)
    return cumulative * DENOM


def _scan_sample(table, seed, count):
    thresholds = []
    cumulative = 0
    for prob in table.probabilities:
        cumulative += prob
        thresholds.append(_on_scale(cumulative, table.exact))
    gen = _SplitMix64(seed)
    draws = []
    for _ in range(count):
        u = gen.next_mantissa()
        for i, bound in enumerate(thresholds):
            if u < bound:
                draws.append(table.support[i])
                break
        else:
            draws.append(table.support[-1])
    return tuple(draws)


def _children(masses):
    """Each prefix's one-coordinate extensions, sorted."""
    children = {}
    for prefix in sorted(masses):
        if prefix:
            children.setdefault(prefix[:-1], []).append(prefix)
    return children


def _scan_sequential(table, k, seed, count):
    """Draws one coordinate at a time: a variate picks the first extension
    of the prefix whose cumulative conditional probability, by a linear
    scan over uncached prefix masses, exceeds it, else the last one."""
    masses = _prefix_masses(table)
    children = _children(masses)
    gen = _SplitMix64(seed)
    draws = []
    for _ in range(count):
        prefix = ()
        for _coord in range(k):
            u = gen.next_mantissa()
            cumulative = 0
            for child in children[prefix]:
                cumulative += masses[child] / masses[prefix]
                if u < _on_scale(cumulative, table.exact):
                    break
            prefix = child
        draws.append(prefix)
    return tuple(draws)


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_draws_equal_linear_scan(case):
    module = case[0]
    for params in _params(*case):
        table = module.joint_pmf(params)
        batches = []
        for seed in (1, 2):
            expected = _scan_sample(table, seed, 300)
            for _ in range(2):
                batches.append((sample(table, seed, 300), expected))
        expected = _scan_sequential(table, params.k, 3, 300)
        for _ in range(2):
            batches.append((sequential_sample(params, 3, 300), expected))
        for batch, expected in batches:
            assert batch.draws == expected
            assert batch.empirical == _frequencies(expected)
            assert all(type(freq) is Fraction for _, freq in batch.empirical)


def _scan_step(masses, prefix, extended, points, exact):
    """The index in `points` of the first of the extensions `extended` of
    `prefix`, and the thresholds of all of them but the last."""
    thresholds, cumulative = [], 0
    for point in extended[:-1]:
        cumulative += masses[point] / masses[prefix]
        thresholds.append(_on_scale(cumulative, exact))
    return points.index(extended[0]), thresholds


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_memoised_steps_equal_uncached(case):
    module = case[0]
    for params in _params(*case):
        table = module.joint_pmf(params)
        masses = _prefix_masses(table)
        children = _children(masses)
        cuts = [sorted(p for p in masses if len(p) == cut) for cut in range(params.k + 1)]
        # Each prefix's step into the next cut, cold and then warm.
        for cut, prefixes in enumerate(cuts[:-1]):
            for i, prefix in enumerate(prefixes):
                expected = _scan_step(masses, prefix, children[prefix], cuts[cut + 1], table.exact)
                assert table.steps(cut, cut + 1)[i] == expected
                assert table.steps(cut, cut + 1)[i] == expected
        # The inverse-CDF step, from the empty prefix to the whole point.
        support = list(table.support)
        assert table.steps(0, params.k)[0] == _scan_step(masses, (), support, support, table.exact)


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_cold_warm_and_copied_walks_equal_scan(case):
    module = case[0]
    for params in _params(*case):
        module.joint_pmf.cache_clear()
        # The first seed walks a fresh table, the others a warm one.
        for seed in (1, 7, 12345, (1 << 64) - 1):
            expected = _scan_sequential(module.joint_pmf(params), params.k, seed, 150)
            batch = sequential_sample(params, seed, 150)
            assert batch.draws == expected
            assert batch.empirical == _frequencies(expected)
        # The walk memoises the steps of the cuts it crosses, from the root
        # on; a copy starts without them and walks alike.
        joint = module.joint_pmf(params)
        assert set(joint._steps) == {(cut, cut + 1) for cut in range(params.k)}
        assert list(joint._steps[0, 1]) == [0]
        copy = replace(joint)
        assert copy._steps == {}
        assert sample(copy, 5, 150).draws == sample(joint, 5, 150).draws == _scan_sample(joint, 5, 150)


def test_approximate_draw_past_last_threshold_takes_last_point(monkeypatch):
    joint = first_kind.joint_pmf(FirstKindParams(jagannathan_srinivasa(0.9, 0.5), 3, 1))
    # The float CDF of this law ends at 1 - 2^-53, so the largest variate,
    # 2^53 - 1, falls past the last threshold, and takes the last point.
    cumulative = 0
    for prob in joint.probabilities:
        cumulative += prob
    assert cumulative == 0.9999999999999999
    top = DENOM - 1
    assert not top < _on_scale(cumulative, False)
    monkeypatch.setattr(sampler, "_outputs", lambda seed: iter([top << 11] * 3))
    assert sample(joint, 4, 3).draws == (joint.support[-1],) * 3
    monkeypatch.undo()
    assert sample(joint, 4, 400).draws == _scan_sample(joint, 4, 400)


def test_table_lookup_and_support_order():
    joint = first_kind.joint_pmf(FirstKindParams(Q_HALF, 3, 2))
    for point, prob in zip(joint.support, joint.probabilities):
        assert joint.probability(point) == prob
    for absent in ((), (0, 0, 0), (0, 1, 0, 0), (1, 1, 1), (2,)):
        assert joint.probability(absent) == 0
    for support in (((1,), (0,)), ((0,), (0,))):
        with pytest.raises(ValidationError, match="strictly increasing"):
            make_table(kind="t", params={}, coord_labels=("x",), support=support,
                       weights=(Fraction(1), Fraction(1)), alg=Q_HALF)
