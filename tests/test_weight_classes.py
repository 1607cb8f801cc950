"""Weight-class tables against per-point references.

A joint weight depends on a point only through E(x), so the library builds
one weight object per value of E, sums a class of m points as m * weight in
exact mode, and divides and formats once per class.  These tests rebuild
every quantity point by point, the way a plain scan does it, and compare
with `==`, floats included: the class engine must reproduce the scan bit
for bit.
"""

import re
from fractions import Fraction
from functools import partial
from itertools import islice

import pytest

from conftest import JS, Q_HALF
from oracle import KINDS, block_sums, compositions, grid, in_order, joint_table, kind_id, path_probabilities, scan
from rpq import UnderflowError, ValidationError, jagannathan_srinivasa, sampler
from rpq.first_kind import GroupingScheme
from rpq.lattice import area
from rpq.pmf import ClosedFormCheck, make_table
from rpq.scalars import scalars_close

# k <= 6; every n for the first kind, n <= 4 for the second.
_params = partial(grid, first_k=6, second_k=6, second_n=4)


def _scan(points, masses, project):
    return scan(points, masses, lambda x: True, project)


def _assert_table(table, support, weights):
    assert table.support == support
    assert table.weights == weights
    z = in_order(weights)
    assert table.z_enumerated == z
    assert table.probabilities == tuple(w / z for w in weights)


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_joint_weights_are_per_point_weights(case):
    module = case[0]
    for params in _params(*case):
        joint = module.joint_pmf(params)
        weights = tuple(module.joint_weight(params, x) for x in joint.support)
        _assert_table(joint, joint.support, weights)
        # One weight object per weight class.
        classes = {area(x) for x in joint.support}
        assert len({id(w) for w in joint.weights}) == len(classes)


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_marginals_grouped_and_prefix_masses_equal_scan(case):
    module = case[0]
    for params in _params(*case):
        joint = joint_table(params)
        k = params.k
        for r in range(1, k):
            support, masses = _scan(joint.support, joint.weights, lambda x: x[:r])
            _assert_table(module.marginal_pmf(params, r), support, masses)
        for sizes in islice(compositions(k), 4):
            support, masses = _scan(joint.support, joint.weights, block_sums(sizes))
            _assert_table(module.grouped_pmf(params, GroupingScheme(sizes)), support, masses)
        # The masses of every prefix, the empty one and the whole points
        # included, as the chain-rule products read them.
        paths = sampler.path_probabilities(params)
        expected = path_probabilities(joint)
        assert [(x, p, type(p), repr(p)) for x, p in paths.items()] == [
            (x, p, type(p), repr(p)) for x, p in expected.items()]


def _normalized(values, exact):
    """Point-by-point reference: the in-order sum (of Fractions in exact
    mode) and each value divided by it."""
    if exact:
        values = [Fraction(v) for v in values]
    total = in_order(values)
    return total, tuple(v / total for v in values)


@pytest.mark.parametrize("alg", [JS, Q_HALF, jagannathan_srinivasa(0.9, 0.5)], ids=lambda a: a.name)
def test_make_table_with_fresh_and_repeated_weight_objects(alg):
    one = Fraction(1) if alg.exact else 1.0
    values = [alg.tau2**e for e in (0, 1, 1, 2, 0, 1, 3)]
    # Equal values, distinct objects: nothing is shared.
    fresh = [v * one for v in values]
    assert len({id(v) for v in fresh}) == len(fresh)
    shared = alg.tau2**2
    cases = [
        (fresh, None),
        # One object repeated at every point, and a single point.
        ([shared] * 6, None),
        ([shared], None),
        # One closed-value object at every point, and objects shared by some.
        (fresh, [shared] * 7),
        (fresh, [values[0], shared, shared, values[0], fresh[4], shared, values[0]]),
        ([shared] * 3, [shared, values[3], shared]),
        ([shared], [values[1]]),
    ]
    if alg.exact:
        # Plain ints, repeated and single.
        cases += [([3, 1, 1, 2, 3], [1, 2, 2, 1, 2]), ([5], [7]), ([2, 2], None)]
    scalar = Fraction if alg.exact else float
    for weights, closed in cases:
        support = tuple((i,) for i in range(len(weights)))
        table = make_table(kind="t", params={}, coord_labels=("x",), support=support,
                           weights=weights, alg=alg, closed_values=closed)
        z, probabilities = _normalized(weights, alg.exact)
        assert table.weights == tuple(weights)
        assert (table.z_enumerated, table.probabilities) == (z, probabilities)
        assert repr((table.z_enumerated, table.probabilities)) == repr((z, probabilities))
        assert all(type(v) is scalar for v in (table.z_enumerated, *table.probabilities))
        if closed is None:
            assert table.closed_form_check is None
            continue
        closed_probs = _normalized(closed, alg.exact)[1]
        equal = all(scalars_close(a, b, alg.exact, alg.tol) for a, b in zip(closed_probs, probabilities))
        assert table.closed_form_check == ClosedFormCheck(closed_probs, equal)
        assert repr(table.closed_form_check.probabilities) == repr(closed_probs)
        assert all(type(v) is scalar for v in table.closed_form_check.probabilities)
    # Shared closed values that equal some of the probabilities only.
    table = make_table(kind="t", params={}, coord_labels=("x",), support=((0,), (1,), (2,)),
                       weights=[shared, shared, shared * 2], alg=alg, closed_values=[shared] * 3)
    assert table.closed_form_check.pointwise_equal is False


def test_make_table_checks_each_distinct_value():
    negative = Fraction(-1)
    with pytest.raises(ValidationError, match="negative probability -1/2"):
        make_table(kind="t", params={}, coord_labels=("x",), support=((0,), (1,), (2,)),
                   weights=(Fraction(1), negative, Fraction(2)), alg=Q_HALF)


def test_approximate_make_table_refuses_a_zero_weight_or_probability():
    decimal = jagannathan_srinivasa(0.9, 0.5)
    support = ((0,), (1,), (2,))
    # A weight that is 0.0, and a positive weight whose probability is 0.0.
    for weights, point in (((1.0, 0.0, 2.0), (1,)), ((1e300, 1e300, 1e-300), (2,))):
        with pytest.raises(UnderflowError, match=re.escape(f"probability of {point} is 0.0")):
            make_table(kind="t", params={}, coord_labels=("x",), support=support,
                       weights=weights, alg=decimal)
    # A closed form may be 0.
    table = make_table(kind="t", params={}, coord_labels=("x",), support=support,
                       weights=(1.0, 1.0, 2.0), alg=decimal, closed_values=(0.0, 1.0, 1.0))
    assert table.closed_form_check.probabilities == (0.0, 0.5, 0.5)
