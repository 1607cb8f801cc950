import math
from fractions import Fraction

import pytest

from conftest import ALL_PRESETS, JS, Q_HALF, TAU1_ONE_PRESETS
from rpq import (
    FirstKindParams,
    GroupingScheme,
    ModeMixError,
    ValidationError,
    ZeroProbabilityEventError,
    compositions,
    custom_algebra,
    deformed_binomial,
    deformed_number,
    inverse_algebra,
    oracle_expectation,
    q_deformation,
)
from rpq.first_kind import (
    bernoulli_construction_check,
    bivariate_moments,
    coerce_theta,
    conditional_pmf,
    covariance_closed_form,
    grouped_conditional_pmf,
    grouped_marginal_pmf,
    grouped_pmf,
    joint_pmf,
    marginal_pmf,
    mean_closed_form,
    mixed_closed_form,
    single_ball_pmf,
    variance_closed_form,
)
from rpq.pmf import make_table


def test_joint_reference_table():
    table = joint_pmf(FirstKindParams(Q_HALF, 2, 1))
    assert table.as_mapping() == {
        (0, 0): Fraction(4, 7),
        (0, 1): Fraction(2, 7),
        (1, 0): Fraction(1, 7),
    }
    assert table.z_enumerated == Fraction(7, 4)
    assert table.z_closed_form == deformed_binomial(Q_HALF, 3, 1)
    assert table.z_discrepancy.exact


def test_joint_point_mass_cases():
    table = joint_pmf(FirstKindParams(Q_HALF, 3, 0))
    assert table.support == ((0, 0, 0),)
    assert table.probabilities == (1,)
    table = joint_pmf(FirstKindParams(Q_HALF, 3, 4))
    assert table.support == ((1, 1, 1),)


def test_support_cardinality():
    for alg in (Q_HALF, JS):
        for k in range(1, 7):
            for n in range(1, k + 2):
                table = joint_pmf(FirstKindParams(alg, k, n))
                want = math.comb(k, n) + math.comb(k, n - 1) if n <= k else 1
                assert len(table.support) == want


def test_normalization_all_presets():
    for alg in ALL_PRESETS:
        for k in range(1, 7):
            for n in range(0, k + 2):
                assert sum(joint_pmf(FirstKindParams(alg, k, n)).probabilities) == 1


def test_parameter_validation():
    with pytest.raises(ValidationError):
        FirstKindParams(Q_HALF, 2, 4)
    with pytest.raises(ValidationError):
        FirstKindParams(Q_HALF, 0, 0)


def test_classical_limit_equiprobable():
    alg = q_deformation(1 - 1e-8)
    table = joint_pmf(FirstKindParams(alg, 2, 1))
    for p in table.probabilities:
        assert abs(p - Fraction(1, 3)) < 1e-6


def test_single_ball_law():
    table = single_ball_pmf(Q_HALF, 2)
    assert table.probabilities == (Fraction(2, 3), Fraction(1, 3))
    assert single_ball_pmf(Q_HALF, 2, reverse=True).probabilities == (Fraction(1, 3), Fraction(2, 3))
    assert single_ball_pmf(Q_HALF, 1).probabilities == (1,)
    assert table.z_closed_form == deformed_number(Q_HALF, 2)
    assert table.z_discrepancy.exact
    with pytest.raises(ValidationError):
        single_ball_pmf(Q_HALF, 0)


def test_single_ball_discrepancy_recorded_for_general_tau():
    # for tau1 != 1 the enumerated normalizer differs from [r] by more than a
    # monomial; the record says so instead of asserting
    table = single_ball_pmf(JS, 3)
    assert sum(table.probabilities) == 1
    assert not table.z_discrepancy.exact
    assert not table.z_discrepancy.found


def test_marginal_reference_values():
    params = FirstKindParams(Q_HALF, 2, 1)
    table = marginal_pmf(params, 1)
    assert table.as_mapping() == {(0,): Fraction(6, 7), (1,): Fraction(1, 7)}
    assert sum(table.probabilities) == 1
    assert table.closed_form_check.pointwise_equal


def test_marginal_requires_proper_prefix():
    params = FirstKindParams(Q_HALF, 2, 1)
    with pytest.raises(ValidationError):
        marginal_pmf(params, 2)
    with pytest.raises(ValidationError):
        marginal_pmf(params, 0)


def test_conditional_reference_values():
    params = FirstKindParams(Q_HALF, 2, 1)
    table = conditional_pmf(params, (0,), 2)
    assert table.probability((1,)) == Fraction(1, 3)
    table = conditional_pmf(params, (1,), 2)
    assert table.probability((0,)) == 1
    with pytest.raises(ZeroProbabilityEventError):
        conditional_pmf(FirstKindParams(Q_HALF, 3, 1), (1, 1), 3)


def test_chain_rule_exact():
    for alg in TAU1_ONE_PRESETS:
        for k in range(2, 6):
            for n in range(0, k + 2):
                params = FirstKindParams(alg, k, n)
                joint = joint_pmf(params)
                for r in range(1, k):
                    marg = marginal_pmf(params, r)
                    for point, prob in zip(joint.support, joint.probabilities):
                        cond = conditional_pmf(params, point[:r], k)
                        assert marg.probability(point[:r]) * cond.probability(point[r:]) == prob


def test_closed_form_checks_tau1_one():
    for alg in TAU1_ONE_PRESETS:
        for k in range(2, 6):
            for n in range(0, k + 2):
                params = FirstKindParams(alg, k, n)
                for r in range(1, k):
                    assert marginal_pmf(params, r).closed_form_check.pointwise_equal
                for sizes in compositions(k):
                    assert grouped_pmf(params, GroupingScheme(sizes)).closed_form_check.pointwise_equal


def test_grouped_reference_values():
    params = FirstKindParams(Q_HALF, 2, 1)
    table = grouped_pmf(params, GroupingScheme((2,)))
    assert table.as_mapping() == {(0,): Fraction(4, 7), (1,): Fraction(3, 7)}
    assert table.closed_form_check.pointwise_equal
    # singleton blocks reproduce the joint
    singles = grouped_pmf(params, GroupingScheme((1, 1)))
    joint = joint_pmf(params)
    assert singles.support == joint.support
    assert singles.probabilities == joint.probabilities


def test_grouped_marginal_and_conditional():
    params = FirstKindParams(Q_HALF, 4, 2)
    scheme = GroupingScheme((2, 2))
    grouped = grouped_pmf(params, scheme)
    marg = grouped_marginal_pmf(params, scheme, 1)
    assert marg.closed_form_check.pointwise_equal
    for point, prob in zip(grouped.support, grouped.probabilities):
        cond = grouped_conditional_pmf(params, scheme, point[:1])
        assert cond.closed_form_check.pointwise_equal
        assert marg.probability(point[:1]) * cond.probability(point[1:]) == prob
    with pytest.raises(ValidationError):
        GroupingScheme((2, 1)).validate_for(4)


def test_bernoulli_construction_matches_inverse_model():
    report = bernoulli_construction_check(Q_HALF, 2, 1, Fraction(1, 3))
    assert report.match
    inverse_joint = joint_pmf(FirstKindParams(inverse_algebra(Q_HALF), 2, 1))
    assert report.model_probs == inverse_joint.probabilities
    assert report.construction_probs == inverse_joint.probabilities


def test_bernoulli_theta_invariance():
    a = bernoulli_construction_check(Q_HALF, 3, 2, Fraction(1, 3))
    b = bernoulli_construction_check(Q_HALF, 3, 2, Fraction(2, 3))
    assert a.construction_probs == b.construction_probs
    assert a.match and b.match


def test_bernoulli_forced_point_mass():
    report = bernoulli_construction_check(Q_HALF, 1, 2, Fraction(1, 3))
    assert report.support == ((1,),)
    assert report.construction_probs == (1,)
    assert report.match


def test_bernoulli_theta_validation():
    with pytest.raises(ValidationError):
        bernoulli_construction_check(Q_HALF, 2, 1, Fraction(3, 2))
    with pytest.raises(ValidationError):
        bernoulli_construction_check(Q_HALF, 2, 1, Fraction(0))


def test_theta_is_coerced_in_the_algebra_mode():
    approximate = q_deformation(0.5)
    assert coerce_theta("1/3", Q_HALF) == Fraction(1, 3)
    assert type(coerce_theta(Fraction(1, 3), Q_HALF)) is Fraction
    for theta in ("0.25", Fraction(1, 4), 0.25):
        assert coerce_theta(theta, approximate) == 0.25
        assert type(coerce_theta(theta, approximate)) is float
    cases = [
        (Q_HALF, 0.25, ModeMixError, "theta: float parameter in exact mode"),
        (Q_HALF, "0.25", ModeMixError, "theta: float parameter in exact mode"),
        (Q_HALF, "1/0", ValidationError, "theta: zero denominator in rational '1/0'"),
        (Q_HALF, "half", ValidationError, "theta: not a rational or decimal number: 'half'"),
        (approximate, None, ValidationError, "theta: not a number: None"),
        (Q_HALF, True, ValidationError, "theta: not a number: True"),
        (Q_HALF, 1, ValidationError, "theta: need 0 < theta < 1, got 1"),
        (approximate, "0", ValidationError, "theta: need 0 < theta < 1, got 0.0"),
    ]
    for alg, theta, error, message in cases:
        with pytest.raises(error) as raised:
            coerce_theta(theta, alg)
        assert str(raised.value).startswith(message)


def test_moment_reference_values():
    # k=1, n=1: mean q/(1+q) = 1/3 via the univariate law, and the closed form
    params = FirstKindParams(Q_HALF, 1, 1)
    table = joint_pmf(params)
    inv = inverse_algebra(Q_HALF)
    mean = oracle_expectation(table, lambda x: deformed_number(inv, x[0]))
    assert mean == Fraction(1, 3)
    assert mean_closed_form(Q_HALF, 1, 1) == Fraction(1, 3)
    assert variance_closed_form(Q_HALF, 1, 1) == Fraction(2, 9)
    var = oracle_expectation(table, lambda x: deformed_number(inv, x[0]) ** 2) - mean**2
    assert var == Fraction(2, 9)


def test_bivariate_moments_reference_values():
    reports = {r.quantity: r for r in bivariate_moments(FirstKindParams(Q_HALF, 2, 1))}
    assert reports["mean[i1=1]"].oracle_value == Fraction(1, 7)
    assert reports["variance"].oracle_value == Fraction(6, 49)
    assert reports["mixed[i2=1]"].oracle_value == Fraction(2, 7)
    assert reports["covariance"].oracle_value == Fraction(-2, 49)
    assert all(r.match for r in reports.values())
    assert mixed_closed_form(Q_HALF, 2, 1) == Fraction(2, 7)
    assert covariance_closed_form(Q_HALF, 2, 1) == Fraction(-2, 49)


def test_bivariate_moments_sweep_tau1_one():
    for alg in TAU1_ONE_PRESETS:
        for k in range(2, 7):
            for n in range(0, k + 2):
                for order in (1, 2, 3):
                    reports = bivariate_moments(FirstKindParams(alg, k, n), order, order)
                    assert all(r.match for r in reports), (alg.name, k, n, order)


def test_moments_zero_balls():
    for report in bivariate_moments(FirstKindParams(Q_HALF, 3, 0)):
        assert report.oracle_value == 0
        assert report.closed_form == 0


def test_moments_validation():
    with pytest.raises(ValidationError):
        bivariate_moments(FirstKindParams(Q_HALF, 1, 1))
    with pytest.raises(ValidationError):
        bivariate_moments(FirstKindParams(Q_HALF, 2, 1), 0, 1)


def test_general_tau_discrepancies_recorded_not_asserted():
    params = FirstKindParams(JS, 3, 2)
    table = joint_pmf(params)
    assert sum(table.probabilities) == 1
    assert not table.z_discrepancy.exact
    assert table.z_discrepancy.found
    reports = bivariate_moments(params)
    assert any(r.match is False for r in reports)


def test_exact_tables_from_integer_weights_hold_fractions():
    alg = custom_algebra("ints", tau1=1, tau2=2)
    for table in (joint_pmf(FirstKindParams(alg, 1, 1)), single_ball_pmf(alg, 2)):
        assert table.exact
        assert table.probabilities == (Fraction(1, 3), Fraction(2, 3))
        assert all(type(v) is Fraction for v in (table.z_enumerated, *table.probabilities))
    marginal = marginal_pmf(FirstKindParams(alg, 3, 2), 1)
    assert all(type(v) is Fraction for v in marginal.closed_form_check.probabilities)
    # Plain int weights and closed values handed to make_table directly.
    table = make_table(kind="t", params={}, coord_labels=("x",), support=((0,), (1,)),
                       weights=(1, 2), index=range(2), alg=JS, closed_values=(2, 1))
    assert table.z_enumerated == 3 and type(table.z_enumerated) is Fraction
    assert table.probabilities == (Fraction(1, 3), Fraction(2, 3))
    assert table.closed_form_check.probabilities == (Fraction(2, 3), Fraction(1, 3))
    assert all(
        type(v) is Fraction for v in table.probabilities + table.closed_form_check.probabilities
    )


def test_moments_share_one_inverse_algebra():
    alg = q_deformation(Fraction(1, 2))
    inv = inverse_algebra(alg)
    bivariate_moments(FirstKindParams(alg, 3, 2))
    assert inverse_algebra(alg) is inv
    assert inv._numbers  # the moments filled the shared inverse's memo
