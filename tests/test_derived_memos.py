"""Derived tables read sums memoised on the joint and closed values shared
per class; these tests rebuild them point by point and cold.

Masses are summed here by a scan over the joint, and every closed-form
record (`closed_form_check.probabilities`, `pointwise_equal`,
`z_discrepancy`) is recomputed with one closed value, one division and one
comparison per point.  Floats are compared with `==`: sharing must not move
a single bit.
"""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from conftest import ALL_PRESETS, JS
from rpq import ZeroProbabilityEventError, jagannathan_srinivasa, q_deformation
from rpq import first_kind, pmf, second_kind
from rpq.algebra import MonomialFit, deformed_binomial, fit_monomial
from rpq.first_kind import FirstKindParams, GroupingScheme, sum_and_area
from rpq.pmf import make_table
from rpq.scalars import scalars_close
from rpq.second_kind import SecondKindParams
from test_query_equivalence import _compositions, _scan

PRESETS = ALL_PRESETS + (jagannathan_srinivasa(0.9, 0.5),)

KINDS = [(first_kind, alg) for alg in PRESETS] + [(second_kind, alg) for alg in PRESETS]


def _kind_id(case):
    module, alg = case
    return f"{module.KIND}-{alg.name}-{'exact' if alg.exact else 'approx'}"


def _params(module, alg):
    """Every n for the first kind at k <= 5, n <= 3 for the second at k <= 4."""
    if module is first_kind:
        return [FirstKindParams(alg, k, n) for k in range(1, 6) for n in range(k + 2)]
    return [SecondKindParams(alg, k, n) for k in range(1, 5) for n in range(4)]


def _in_order(values):
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total


def _z_reference(module, params):
    """(closed normalizer, fit bound) a joint-normalized derived table carries."""
    alg, k, n = params.alg, params.k, params.n
    if module is first_kind:
        return deformed_binomial(alg, k + 1, n), (k + 1) * max(n, 1)
    return deformed_binomial(alg, k + n, n), second_kind._phi_constant_exponent(k, n) + k * n


# Most tables of one joint share z, so the reference fits are memoised.
_fit = lru_cache(maxsize=None)(fit_monomial)


def _assert_records(table, params, support, masses, closed, z_reference=None):
    """`table` against masses scanned from the joint and per-point closed
    values: probabilities, closed-form check and normalizer fit."""
    alg = params.alg
    assert table.support == support
    assert table.weights == masses
    z = _in_order(masses)
    assert table.z_enumerated == z
    assert table.probabilities == tuple(w / z for w in masses)
    closed_total = _in_order(closed)
    closed_probs = tuple(v / closed_total for v in closed)
    check = table.closed_form_check
    assert check.probabilities == closed_probs
    assert check.pointwise_equal == all(
        scalars_close(a, b, alg.exact, alg.tol) for a, b in zip(closed_probs, table.probabilities)
    )
    if z_reference is None:
        assert table.z_discrepancy is None
    else:
        z_closed, bound = z_reference
        assert table.z_closed_form == z_closed
        assert table.z_discrepancy == _fit(alg, z, z_closed, bound)


def _prefixes(module, params, r):
    top = 1 if module is first_kind else params.n
    return [g for g in product(range(top + 1), repeat=r) if sum(g) <= params.n]


@pytest.mark.parametrize("case", KINDS, ids=_kind_id)
def test_marginal_and_conditional_records_equal_per_point(case):
    module = case[0]
    for params in _params(*case):
        joint = module.joint_pmf(params)
        k = params.k
        for r in range(1, k):
            support, masses = _scan(joint.support, joint.weights, lambda x: True, lambda x: x[:r])
            closed = [module._marginal_closed_weight(params, p) for p in support]
            table = module.marginal_pmf(params, r)
            _assert_records(table, params, support, masses, closed, _z_reference(module, params))
            # One closed value per (sum, area) class, shared by its points.
            classes = {sum_and_area(p) for p in support}
            assert len({id(v) for v in table.closed_form_check.probabilities}) == len(classes)
            for given in _prefixes(module, params, r):
                for m in range(r + 1, k + 1):
                    support, masses = _scan(
                        joint.support, joint.weights, lambda x: x[:r] == given, lambda x: x[r:m]
                    )
                    if not support:
                        continue
                    closed = [module._conditional_closed_value(params, given, s) for s in support]
                    _assert_records(
                        module.conditional_pmf(params, given, m), params, support, masses, closed
                    )


@pytest.mark.parametrize("case", KINDS, ids=_kind_id)
def test_grouped_records_equal_per_point(case):
    module = case[0]
    for params in _params(*case):
        joint = module.joint_pmf(params)
        z_reference = _z_reference(module, params)
        for sizes in _compositions(params.k):
            scheme = GroupingScheme(sizes)
            blocks, block_masses = _scan(
                joint.support, joint.weights, lambda x: True, scheme.project
            )
            closed = [module._grouped_closed_weight(params, scheme, y) for y in blocks]
            _assert_records(
                module.grouped_pmf(params, scheme), params, blocks, block_masses, closed, z_reference
            )
            for nu in range(1, len(sizes)):
                support, masses = _scan(blocks, block_masses, lambda y: True, lambda y: y[:nu])
                closed = [
                    module._grouped_marginal_closed_weight(params, scheme, p) for p in support
                ]
                table = module.grouped_marginal_pmf(params, scheme, nu)
                _assert_records(table, params, support, masses, closed, z_reference)
                for given in support:
                    suffixes, masses = _scan(
                        blocks, block_masses, lambda y: y[:nu] == given, lambda y: y[nu:]
                    )
                    prefix_weight = module._grouped_marginal_closed_weight(params, scheme, given)
                    closed = [
                        module._grouped_closed_weight(params, scheme, given + s) / prefix_weight
                        for s in suffixes
                    ]
                    table = module.grouped_conditional_pmf(params, scheme, given)
                    _assert_records(table, params, suffixes, masses, closed)


def _clear_caches():
    for module in (first_kind, second_kind):
        module.joint_pmf.cache_clear()
        module.block_masses.cache_clear()
    pmf._normalizer_fit.cache_clear()


def _derived_calls(module, params):
    """Every marginal, conditional and grouped call at `params`, as thunks."""
    k = params.k
    calls = [lambda r=r: module.marginal_pmf(params, r) for r in range(1, k)]
    for r in range(1, k):
        for given in _prefixes(module, params, r):
            calls.extend(
                lambda g=given, m=m: module.conditional_pmf(params, g, m) for m in range(r + 1, k + 1)
            )
    for sizes in _compositions(k):
        scheme = GroupingScheme(sizes)
        calls.append(lambda s=scheme: module.grouped_pmf(params, s))
        for nu in range(1, len(sizes)):
            calls.append(lambda s=scheme, nu=nu: module.grouped_marginal_pmf(params, s, nu))
            for given in product(range(params.n + 1), repeat=nu):
                calls.append(lambda s=scheme, g=given: module.grouped_conditional_pmf(params, s, g))
    return calls


def _outcome(call):
    try:
        table = call()
    except ZeroProbabilityEventError as exc:
        return str(exc)
    return table, repr(table)


@pytest.mark.parametrize(
    "params",
    [FirstKindParams(JS, 5, 3), FirstKindParams(jagannathan_srinivasa(0.9, 0.5), 4, 2),
     SecondKindParams(JS, 4, 3), SecondKindParams(jagannathan_srinivasa(0.9, 0.5), 3, 3)],
    ids=lambda p: f"{type(p).__name__}-{p.alg.name}-{p.k}-{p.n}",
)
def test_warm_calls_equal_cold_calls(params):
    module = first_kind if isinstance(params, FirstKindParams) else second_kind
    calls = _derived_calls(module, params)
    cold = []
    for call in calls:
        _clear_caches()
        cold.append(_outcome(call))
    _clear_caches()
    # Warm: every call after the first shares a cut or a scheme with an
    # earlier one.
    assert [_outcome(call) for call in calls] == cold
    assert [_outcome(call) for call in calls] == cold


def test_cold_derived_call_sums_one_cut_or_scheme():
    params = FirstKindParams(JS, 6, 3)
    _clear_caches()
    joint = first_kind.joint_pmf(params)
    first_kind.marginal_pmf(params, 2)
    assert list(joint._cut_masses) == [2]
    first_kind.conditional_pmf(params, (0, 1), 5)
    first_kind.conditional_pmf(params, (1, 0, 1), 5)
    assert list(joint._cut_masses) == [2, 5]
    scheme = GroupingScheme((2, 3, 1))
    first_kind.grouped_pmf(params, scheme)
    first_kind.grouped_marginal_pmf(params, scheme, 2)
    first_kind.grouped_conditional_pmf(params, scheme, (1,))
    info = first_kind.block_masses.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_replace_starts_with_empty_memos():
    joint = first_kind.joint_pmf(FirstKindParams(JS, 5, 3))
    joint.prefix_masses()
    joint.cdf_thresholds()
    joint.zero_bound((0, 1))
    assert joint._cut_masses and joint._thresholds and joint._zero_bounds
    copy = replace(joint)
    assert copy == joint
    assert (copy._cut_masses, copy._thresholds, copy._zero_bounds) == ({}, [], {})
    assert copy.prefix_masses() == joint.prefix_masses()
    assert copy.zero_bound((0, 1)) == joint.zero_bound((0, 1))


@pytest.mark.parametrize("module", (first_kind, second_kind), ids=("first", "second"))
def test_exact_and_decimal_algebras_of_equal_values_keep_their_own_tables(module):
    exact, decimal = q_deformation(Fraction(1, 2)), q_deformation(0.5)
    assert exact != decimal
    make = FirstKindParams if module is first_kind else SecondKindParams
    exact_params, decimal_params = make(exact, 3, 2), make(decimal, 3, 2)
    assert exact_params != decimal_params
    scheme = GroupingScheme((2, 1))
    _clear_caches()
    # Both joints, then both block masses in the other order, in one process.
    exact_joint = module.joint_pmf(exact_params)
    decimal_joint = module.joint_pmf(decimal_params)
    decimal_masses = module.block_masses(decimal_params, scheme)[1]
    exact_masses = module.block_masses(exact_params, scheme)[1]
    assert decimal_joint is not exact_joint
    assert all(type(v) is Fraction for v in exact_joint.probabilities + exact_masses)
    assert all(type(v) is float for v in decimal_joint.probabilities + decimal_masses)
    assert module.joint_pmf(exact_params) is exact_joint
    assert module.joint_pmf(decimal_params) is decimal_joint


@pytest.mark.parametrize(
    "module, params",
    [(first_kind, FirstKindParams(JS, 7, 3)), (second_kind, SecondKindParams(JS, 7, 2))],
    ids=("first", "second"),
)
def test_block_mass_cache_is_bounded(module, params):
    schemes = [GroupingScheme(sizes) for sizes in _compositions(7)][:40]
    assert len(set(schemes)) == 40
    for scheme in schemes:
        module.grouped_pmf(params, scheme)
    info = module.block_masses.cache_info()
    assert info.maxsize == 32
    assert info.currsize <= 32


def test_shared_closed_value_is_compared_with_every_probability():
    # One closed-value object at every point, and the last point's
    # probability equals its closed probability: only the other pairs differ.
    shared = Fraction(1)
    table = make_table(kind="t", params={}, coord_labels=("x",),
                       support=((0,), (1,), (2,), (3,)),
                       weights=(Fraction(3), Fraction(2), Fraction(1), Fraction(2)),
                       alg=JS, closed_values=[shared] * 4)
    assert table.closed_form_check.probabilities == (Fraction(1, 4),) * 4
    assert table.probabilities[-1] == Fraction(1, 4)
    assert table.closed_form_check.pointwise_equal is False


@pytest.mark.parametrize("module", (first_kind, second_kind), ids=("first", "second"))
@pytest.mark.parametrize("alg", ALL_PRESETS, ids=lambda alg: alg.name)
def test_exact_derived_tables_reuse_the_joint_fit(module, alg):
    for params in _params(module, alg):
        if params.k < 2:
            continue
        _clear_caches()
        module.joint_pmf(params)
        z_closed, bound = _z_reference(module, params)
        tables = [module.marginal_pmf(params, r) for r in range(1, params.k)]
        for sizes in _compositions(params.k):
            scheme = GroupingScheme(sizes)
            tables.append(module.grouped_pmf(params, scheme))
            tables.extend(module.grouped_marginal_pmf(params, scheme, nu) for nu in range(1, len(sizes)))
        tables.append(module.bivariate_table(params))
        # The joint's fit is the only one computed.
        assert pmf._normalizer_fit.cache_info().misses == 1
        for table in tables:
            assert table.z_discrepancy == fit_monomial(alg, table.z_enumerated, z_closed, bound)


def test_fit_memo_keys_on_the_bound_the_algebra_and_the_scalar_types():
    fit = pmf._normalizer_fit
    fit.cache_clear()
    cube = JS.tau1**3
    assert fit(JS, Fraction(1), cube, 3) == MonomialFit(exact=False, found=True, a=3, b=0)
    assert not fit(JS, Fraction(1), cube, 2).found
    assert not fit(replace(JS, tau1=Fraction(2, 3)), Fraction(1), cube, 3).found
    # Algebras with equal values in the other mode, and equal scalars of
    # another type: a separate entry.
    exact, decimal = q_deformation(Fraction(1, 2)), q_deformation(0.5)
    assert exact != decimal
    assert fit(exact, Fraction(1, 4), Fraction(1, 2), 3) == MonomialFit(exact=False, found=True, a=0, b=-1)
    assert fit(decimal, 0.25, 0.5, 3) == MonomialFit(exact=False, found=True, a=0, b=-1)
    assert fit.cache_info().misses == 5
