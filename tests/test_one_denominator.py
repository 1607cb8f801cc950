"""Exact derived laws over one denominator against the per-class Fraction
route.

An exact derived table reads its class masses as integers over the joint's
one denominator and its closed values as unreduced integer pairs over
their lcm, with a conditional's common divisor applied once to the closed
total; it reduces a Fraction only for what it holds.  These tests compare
every exact table with the route that reduces each closed value (divisor
included) and divides Fractions (`oracle.fraction_route`), feed
`make_table` the same values both ways, and check that a custom number
rule's divisor that is not positive still fails: a negative one with the
same error and message, a zero one with a ZeroDivisionError.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import KINDS, block_sums, compositions, fraction_route, grid, joint_table, kind_id, prefixes, scan
from rpq import ValidationError, first_kind, jagannathan_srinivasa, second_kind
from rpq.algebra import _closed_pair, custom_algebra
from rpq.first_kind import FirstKindParams, GroupingScheme
from rpq.lattice import area
from rpq.pmf import make_table
from rpq.second_kind import SecondKindParams

EXACT_KINDS = [case for case in KINDS if case[1].exact]


def _closed(params, terms, divisor=1):
    """The closed value of `terms` (`algebra._closed_pair`), reduced, over
    `divisor`."""
    return Fraction(*_closed_pair(params.alg, *terms)) / divisor


def _derived(module, params, joint):
    """(table, class key of each point, masses, closed values) of every
    marginal, conditional, grouped, grouped-marginal and grouped-conditional
    table of `params`: masses scanned from the per-point joint, closed values
    from the kind's terms, each reduced with its divisor."""
    k = params.k
    for m in range(1, k + 1):
        if m < k:
            support, masses = scan(joint.support, joint.weights, lambda x: True, lambda x: x[:m])
            closed = [_closed(params, params.marginal_terms(m, (sum(p), area(p)))) for p in support]
            yield module.marginal_pmf(params, m), [(sum(p), area(p)) for p in support], masses, closed
        for r in range(1, m):
            for given_ in prefixes(module, params, r):
                support, masses = scan(joint.support, joint.weights, lambda x: x[:r] == given_, lambda x: x[r:m])
                if not support:
                    continue
                y = sum(given_)
                divisor = params.prefix_normalizer(given_)
                closed = [_closed(params, params.conditional_terms(m, (y + sum(s), sum(s), area(s))), divisor)
                          for s in support]
                yield (module.conditional_pmf(params, given_, m), [(sum(s), area(s)) for s in support], masses,
                       closed)
    for sizes in compositions(k):
        scheme = GroupingScheme(sizes)
        blocks, block_masses = scan(joint.support, joint.weights, lambda x: True, block_sums(sizes))
        yield (module.grouped_pmf(params, scheme), blocks, block_masses,
               [_closed(params, params.grouped_terms(scheme, y)) for y in blocks])
        for nu in range(1, len(sizes)):
            support, masses = scan(blocks, block_masses, lambda y: True, lambda y: y[:nu])
            closed = [_closed(params, params.grouped_terms(scheme, p)) for p in support]
            yield module.grouped_marginal_pmf(params, scheme, nu), support, masses, closed
            for prefix in support:
                suffixes, masses = scan(blocks, block_masses, lambda y: y[:nu] == prefix, lambda y: y[nu:])
                divisor = _closed(params, params.grouped_terms(scheme, prefix))
                closed = [_closed(params, params.grouped_terms(scheme, prefix + s), divisor) for s in suffixes]
                yield module.grouped_conditional_pmf(params, scheme, prefix), suffixes, masses, closed


def _shared_by_class(table, keys):
    """Each column holds one object per class, shared by its points."""
    first = {}
    columns = (table.weights, table.probabilities, table.closed_form_check.probabilities)
    for i, key in enumerate(keys):
        j = first.setdefault(key, i)
        assert all(column[i] is column[j] for column in columns)


@pytest.mark.parametrize("case", EXACT_KINDS, ids=kind_id)
def test_exact_derived_tables_equal_the_per_class_fraction_route(case):
    module = case[0]
    for params in grid(*case, first_k=5, second_k=4, second_n=3):
        joint = joint_table(params)
        for table, keys, masses, closed in _derived(module, params, joint):
            z, probabilities, closed_probabilities, equal = fraction_route(masses, closed)
            assert (table.weights, table.z_enumerated, table.probabilities) == (masses, z, probabilities)
            check = table.closed_form_check
            assert (check.probabilities, check.pointwise_equal) == (closed_probabilities, equal)
            _shared_by_class(table, keys)


_rationals = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**9))
_positive = st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**9))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_positive, _rationals), min_size=1, max_size=8), st.data())
def test_make_table_takes_fractions_and_integers_over_one_denominator_alike(classes, data):
    """Weights and closed values as Fractions, against the same weights as
    integer numerators over a common multiple of their denominators and
    closed values as unreduced integer pairs, and against closed values
    times a divisor that `make_table` divides out once."""
    alg = jagannathan_srinivasa(Fraction(9, 10), Fraction(1, 2))
    weights, closed = map(list, zip(*classes))
    index = data.draw(st.permutations(list(range(len(weights))) + data.draw(
        st.lists(st.integers(0, len(weights) - 1), max_size=6))))
    support = tuple((i,) for i in range(len(index)))
    common = dict(kind="t", params={}, coord_labels=("x",), support=support, index=index, alg=alg)
    try:
        reference = make_table(weights=weights, closed_values=closed, **common)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=str(exc).replace("/", ".")):
            make_table(weights=weights, closed_values=[(v.numerator, v.denominator) for v in closed], **common)
        return
    denominator = data.draw(st.integers(1, 1000))
    for w in weights:
        denominator *= w.denominator
    scale = data.draw(st.integers(1, 10**6))
    divisor = data.draw(_positive)
    pairs = [(v.numerator * scale, v.denominator * scale) for v in closed]
    divided = [(n * divisor.numerator, d * divisor.denominator) for n, d in pairs]
    over = dict(numerators=[int(w * denominator) for w in weights], denominator=denominator)
    for table in (make_table(weights=weights, closed_values=pairs, **over, **common),
                  make_table(weights=weights, closed_values=divided, closed_divisor=divisor, **over, **common)):
        assert (table, repr(table)) == (reference, repr(reference))
        for column in (table.weights, table.probabilities, table.closed_form_check.probabilities):
            assert len({id(v) for v in column}) <= len(weights)


def test_decimal_closed_divisor_gives_the_table_of_the_divided_values():
    alg = jagannathan_srinivasa(0.9, 0.5)
    closed, divisor = [0.3, 0.7, 1.1], 2.9
    common = dict(kind="t", params={}, coord_labels=("x",), support=((0,), (1,), (2,)), weights=[1.0, 2.0, 3.0],
                  index=range(3), alg=alg)
    table = make_table(closed_values=closed, closed_divisor=divisor, **common)
    assert table == make_table(closed_values=[v / divisor for v in closed], **common)


# [4] = -1 and [5] = 0 make the divisor [4 over 1] of a first-kind
# conditional at k = 4, n = 1 negative, and the divisor of the grouped
# conditional given y_1 = 0 at k = 4, n = 2 too; [4] = 0 makes both zero.
TILT = custom_algebra("tilt", tau1=Fraction(2, 3), tau2=Fraction(1, 2),
                      numbers=[Fraction(v) for v in (0, 1, 2, 3, -1, 5, 7)])
FLAT = custom_algebra("flat", tau1=Fraction(2, 3), tau2=Fraction(1, 2),
                      numbers=[Fraction(v) for v in (0, 1, 2, 3, 0, 5)])


@pytest.mark.parametrize("alg, error, message", [
    (TILT, ValidationError, "first-conditional table: closed form sums to -73/108"),
    (FLAT, ZeroDivisionError, r"Fraction\(-?\d+, 0\)"),
], ids=("negative", "zero"))
def test_custom_rule_conditional_divisor_keeps_its_error(alg, error, message):
    """A negative divisor keeps the message of the per-class route, where
    each closed value was divided by the divisor before the sum was
    checked; a zero divisor raises the ZeroDivisionError of the division
    of the closed total by it."""
    params = FirstKindParams(alg, 4, 1)
    assert params.prefix_normalizer((0,)) == (-1 if alg is TILT else 0)
    with pytest.raises(error) as caught:
        first_kind.conditional_pmf(params, (0,), 2)
    assert str(caught.value) == message if error is ValidationError else re.fullmatch(message, str(caught.value))
    if error is ValidationError:
        # The sum of the closed values of the suffixes (0,) and (1,).
        values = [_closed(params, params.conditional_terms(2, (v, v, v)), params.prefix_normalizer((0,)))
                  for v in (0, 1)]
        assert message.endswith(f" {sum(values)}")


@pytest.mark.parametrize("alg, error, message", [
    (TILT, ValidationError, "first-grouped-conditional table: closed form sums to -405/16"),
    (FLAT, ZeroDivisionError, r"Fraction\(-?\d+, 0\)"),
], ids=("negative", "zero"))
def test_custom_rule_grouped_conditional_divisor_keeps_its_error(alg, error, message):
    with pytest.raises(error) as caught:
        first_kind.grouped_conditional_pmf(FirstKindParams(alg, 4, 2), GroupingScheme((1, 3)), (0,))
    assert str(caught.value) == message if error is ValidationError else re.fullmatch(message, str(caught.value))


def test_second_kind_custom_rule_tables_keep_their_records():
    table = second_kind.conditional_pmf(SecondKindParams(TILT, 2, 2), (0,), 2)
    assert table.closed_form_check.probabilities == (Fraction(16, 37), Fraction(12, 37), Fraction(9, 37))
    assert table.closed_form_check.pointwise_equal
