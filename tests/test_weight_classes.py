"""Weight-class tables against per-point references.

A joint weight depends on a point only through E(x), so the library builds
one weight object per value of E, sums a class of m points as m * weight,
and divides and formats once per class.  These tests rebuild every
quantity point by point, the way a plain scan does it, with exact sums
that a decimal value rounds once (`oracle.normalized`), and compare with
`==`, floats included: the class engine must reproduce them bit for bit.
"""

import re
from fractions import Fraction
from functools import partial
from itertools import islice
from math import fsum

import pytest

from conftest import JS, Q_HALF
from oracle import (KINDS, block_sums, compositions, exact, grid, joint_table, kind_id, normalized, path_probabilities,
                    scan)
from rpq import UnderflowError, ValidationError, first_kind, jagannathan_srinivasa, occupancy, sampler, second_kind
from rpq.first_kind import FirstKindParams, GroupingScheme
from rpq.lattice import area
from rpq.pmf import ClosedFormCheck, make_table
from rpq.second_kind import SecondKindParams
from rpq.scalars import scalars_close

# k <= 6; every n for the first kind, n <= 4 for the second.
_params = partial(grid, first_k=6, second_k=6, second_n=4)


def _scan(points, masses, project):
    return scan(points, masses, lambda x: True, project)


def _assert_table(table, support, masses):
    assert table.support == support
    assert (table.weights, table.z_enumerated, table.probabilities) == normalized([exact(m) for m in masses],
                                                                                  table.exact)


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_joint_weights_are_per_point_weights(case):
    module = case[0]
    for params in _params(*case):
        joint = module.joint_pmf(params)
        weights = tuple(module.joint_weight(params, x) for x in joint.support)
        _assert_table(joint, joint.support, weights)
        if not joint.exact:
            assert joint.z_enumerated == fsum(weights)
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


def _normalized(values, exact_mode):
    """Point-by-point reference: the exact sum and each value divided by
    it, each rounded once in approximate mode."""
    return normalized([Fraction(v) for v in values], exact_mode)[1:]


@pytest.mark.parametrize("alg", [JS, Q_HALF, jagannathan_srinivasa(0.9, 0.5)], ids=lambda a: a.name)
def test_make_table_normalizes_classes_of_one_and_of_many_points(alg):
    one = Fraction(1) if alg.exact else 1.0
    values = [alg.tau2**e * one for e in (0, 1, 2, 3)]
    # (class weights, each point's class, class closed values)
    cases = [
        # One class per point; classes of several points, listed in
        # first-seen order or not.
        (values, range(4), None),
        (values, [0, 1, 1, 2, 0, 1, 3], None),
        (values, [2, 0, 3, 3, 1, 0], None),
        # One class for every point, and a single point.
        (values[2:3], [0] * 6, None),
        (values[2:3], [0], None),
        # Closed values per class: equal for some classes, one for all.
        (values, [0, 1, 1, 2, 0, 1, 3], [values[0], values[2], values[2], values[1]]),
        (values, range(4), [values[2]] * 4),
        (values[:2], [0, 1, 0], [values[2], values[3]]),
        (values[1:2], [0], [values[1]]),
    ]
    if alg.exact:
        # Plain ints, repeated and single.
        cases += [([3, 1, 2], [0, 1, 1, 2, 0], [1, 2, 1]), ([5], [0], [7]), ([2], [0, 0], None)]
    scalar = Fraction if alg.exact else float
    for weights, index, closed in cases:
        point_weights = [weights[c] for c in index]
        support = tuple((i,) for i in range(len(point_weights)))
        table = make_table(kind="t", params={}, coord_labels=("x",), support=support,
                           weights=weights, index=index, alg=alg, closed_values=closed)
        z, probabilities = _normalized(point_weights, alg.exact)
        assert table.weights == tuple(point_weights)
        assert (table.z_enumerated, table.probabilities) == (z, probabilities)
        assert repr((table.z_enumerated, table.probabilities)) == repr((z, probabilities))
        assert all(type(v) is scalar for v in (table.z_enumerated, *table.probabilities))
        if closed is None:
            assert table.closed_form_check is None
            continue
        closed_probs = _normalized([closed[c] for c in index], alg.exact)[1]
        equal = all(scalars_close(a, b, alg.exact, alg.tol) for a, b in zip(closed_probs, probabilities))
        assert table.closed_form_check == ClosedFormCheck(closed_probs, equal)
        assert repr(table.closed_form_check.probabilities) == repr(closed_probs)
        assert all(type(v) is scalar for v in table.closed_form_check.probabilities)
    # Closed values that equal some of the probabilities only.
    shared = alg.tau2**2
    table = make_table(kind="t", params={}, coord_labels=("x",), support=((0,), (1,), (2,)),
                       weights=[shared * 2, shared, shared], index=range(3), alg=alg,
                       closed_values=[shared, shared, shared * 2])
    assert table.closed_form_check.probabilities[1] == table.probabilities[1]
    assert table.closed_form_check.pointwise_equal is False


def test_make_table_checks_each_distinct_value():
    negative = Fraction(-1)
    with pytest.raises(ValidationError, match="negative probability -1/2"):
        make_table(kind="t", params={}, coord_labels=("x",), support=((0,), (1,), (2,)),
                   weights=(Fraction(1), negative, Fraction(2)), index=range(3), alg=Q_HALF)


def test_approximate_make_table_refuses_a_zero_weight_or_probability():
    decimal = jagannathan_srinivasa(0.9, 0.5)
    support = ((0,), (1,), (2,), (3,))
    # A weight that is 0.0, a positive weight whose probability is 0.0, and
    # two such classes: the first point of either in support order is named.
    for weights, index, point in (((1.0, 0.0, 2.0), [0, 1, 2, 1], (1,)),
                                  ((1e300, 1e300, 1e-300), [0, 1, 2, 2], (2,)),
                                  ((1e-300, 1e300, 1e-300), [1, 2, 0, 2], (1,))):
        with pytest.raises(UnderflowError, match=re.escape(f"probability of {point} is 0.0")):
            make_table(kind="t", params={}, coord_labels=("x",), support=support,
                       weights=weights, index=index, alg=decimal)
    # A closed form may be 0.
    table = make_table(kind="t", params={}, coord_labels=("x",), support=support[:3],
                       weights=(1.0, 1.0, 2.0), index=range(3), alg=decimal, closed_values=(0.0, 1.0, 1.0))
    assert table.closed_form_check.probabilities == (0.0, 0.5, 0.5)


@pytest.mark.parametrize("module", (first_kind, second_kind), ids=("first", "second"))
def test_decimal_derived_law_refuses_an_underflowed_class_at_its_first_point(module, monkeypatch):
    """One class of a decimal conditional made to have mass 0: the refusal
    names the first point of that class in support order, found by the
    points' (sum, area) keys, not the last point it was picked by."""
    decimal = jagannathan_srinivasa(0.9, 0.5)
    params = (FirstKindParams(decimal, 7, 3) if module is first_kind else SecondKindParams(decimal, 4, 4))
    given, m = (0,), params.k
    # The support and the (sum, area) key of each point, read from the class
    # law, not from a conditional: a returned table is kept, so the first
    # `conditional_pmf` call must come after the patch.
    law = occupancy._joint_law(params)
    support, classes, index, _ = law.prefixes(given, m)
    keys = [classes[c] for c in index]
    assert keys == [(sum(s), area(s)) for s in support]
    # The last point of a class of several points that is not the first class.
    last = max(j for j, key in enumerate(keys) if keys.count(key) > 1 and key != keys[0])
    first = support[keys.index(keys[last])]
    assert first < support[last]
    # With given (0,) and m = k, a point's class is (k, sum, area) of its suffix.
    target = (m, *keys[last])
    mass = law.mass
    monkeypatch.setattr(law, "mass", lambda key: 0 if key == target else mass(key))
    with pytest.raises(UnderflowError, match=re.escape(f"probability of {first} is 0.0")):
        module.conditional_pmf(params, given, m)
