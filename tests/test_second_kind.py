import math
from fractions import Fraction

import pytest

from conftest import ALL_PRESETS, JS, Q_HALF, TAU1_ONE_PRESETS
from rpq import (
    GroupingScheme,
    SecondKindParams,
    ValidationError,
    ZeroProbabilityEventError,
    classical_algebra,
    compositions,
    deformed_binomial,
    inverse_algebra,
    q_deformation,
)
from rpq.second_kind import (
    bivariate_moments,
    conditional_pmf,
    covariance_closed_form,
    factorial_moment_closed_form,
    geometric_construction_check,
    grouped_conditional_pmf,
    grouped_marginal_pmf,
    grouped_pmf,
    joint_pmf,
    marginal_pmf,
    mixed_closed_form,
    variance_closed_form,
)


def test_joint_reference_tables():
    table = joint_pmf(SecondKindParams(Q_HALF, 1, 1))
    assert table.as_mapping() == {(0,): Fraction(2, 3), (1,): Fraction(1, 3)}
    table = joint_pmf(SecondKindParams(Q_HALF, 1, 2))
    assert table.as_mapping() == {
        (0,): Fraction(4, 7),
        (1,): Fraction(2, 7),
        (2,): Fraction(1, 7),
    }
    assert table.z_enumerated == table.z_closed_form == deformed_binomial(Q_HALF, 3, 2)


def test_support_size_and_normalization():
    for alg in ALL_PRESETS:
        for k in range(1, 6):
            for n in range(0, 6):
                table = joint_pmf(SecondKindParams(alg, k, n))
                assert len(table.support) == math.comb(k + n, n)
                assert sum(table.probabilities) == 1


def test_z_closed_form_tau1_one():
    for alg in TAU1_ONE_PRESETS:
        for k in range(1, 6):
            for n in range(0, 6):
                table = joint_pmf(SecondKindParams(alg, k, n))
                assert table.z_enumerated == deformed_binomial(alg, k + n, n)


def test_classical_limit_equiprobable():
    alg = q_deformation(1 - 1e-8)
    for k, n in ((1, 2), (2, 2), (3, 2)):
        table = joint_pmf(SecondKindParams(alg, k, n))
        want = 1 / math.comb(k + n, n)
        for p in table.probabilities:
            assert abs(p - want) < 1e-6


def test_marginal_reference_values():
    params = SecondKindParams(Q_HALF, 2, 1)
    table = marginal_pmf(params, 1)
    assert table.as_mapping() == {(0,): Fraction(6, 7), (1,): Fraction(1, 7)}
    assert table.closed_form_check.pointwise_equal


def test_conditional_chain_and_point_mass():
    params = SecondKindParams(Q_HALF, 2, 2)
    joint = joint_pmf(params)
    marg = marginal_pmf(params, 1)
    for point, prob in zip(joint.support, joint.probabilities):
        cond = conditional_pmf(params, point[:1], 2)
        assert marg.probability(point[:1]) * cond.probability(point[1:]) == prob
    forced = conditional_pmf(params, (2,), 2)
    assert forced.support == ((0,),)
    assert forced.probabilities == (1,)
    with pytest.raises(ZeroProbabilityEventError):
        conditional_pmf(params, (3,), 2)


def test_grouped_reference_values():
    params = SecondKindParams(Q_HALF, 2, 1)
    table = grouped_pmf(params, GroupingScheme((2,)))
    assert table.as_mapping() == {(0,): Fraction(4, 7), (1,): Fraction(3, 7)}
    singles = grouped_pmf(params, GroupingScheme((1, 1)))
    joint = joint_pmf(params)
    assert singles.support == joint.support
    assert singles.probabilities == joint.probabilities
    # [m + y - 1 over y] = 1 for singleton blocks
    assert singles.closed_form_check.pointwise_equal


def test_grouped_closed_forms_tau1_one():
    for alg in TAU1_ONE_PRESETS:
        for k in range(2, 5):
            for n in range(0, 5):
                params = SecondKindParams(alg, k, n)
                for sizes in compositions(k):
                    scheme = GroupingScheme(sizes)
                    grouped = grouped_pmf(params, scheme)
                    assert grouped.closed_form_check.pointwise_equal, (alg.name, k, n, sizes)
                    for nu in range(1, len(sizes)):
                        marg = grouped_marginal_pmf(params, scheme, nu)
                        assert marg.closed_form_check.pointwise_equal
                        for point, prob in zip(grouped.support, grouped.probabilities):
                            cond = grouped_conditional_pmf(params, scheme, point[:nu])
                            assert cond.closed_form_check.pointwise_equal
                            assert marg.probability(point[:nu]) * cond.probability(point[nu:]) == prob


def test_geometric_construction_matches_inverse_model():
    report = geometric_construction_check(Q_HALF, 1, 1, Fraction(1, 4))
    assert report.match
    inverse_joint = joint_pmf(SecondKindParams(inverse_algebra(Q_HALF), 1, 1))
    assert report.construction_probs == inverse_joint.probabilities


def test_geometric_theta_invariance_and_trivial_case():
    a = geometric_construction_check(Q_HALF, 2, 3, Fraction(1, 4))
    b = geometric_construction_check(Q_HALF, 2, 3, Fraction(2, 3))
    assert a.construction_probs == b.construction_probs
    assert a.match and b.match
    zero = geometric_construction_check(Q_HALF, 2, 0, Fraction(1, 3))
    assert zero.support == ((0, 0),)
    assert zero.match


def test_geometric_theta_validation():
    # quesne has tau2 > tau1, so late trials push the failure odds past one
    from conftest import QUESNE

    with pytest.raises(ValidationError):
        geometric_construction_check(QUESNE, 4, 2, Fraction(2, 3))
    with pytest.raises(ValidationError):
        geometric_construction_check(Q_HALF, 2, 1, Fraction(5, 4))


def test_factorial_moment_reference_values():
    # k=1, n=1: E([X1]) = q [1]/[2] = 1/3, matching the table directly
    table = joint_pmf(SecondKindParams(Q_HALF, 1, 1))
    assert table.probability((1,)) == Fraction(1, 3)
    assert factorial_moment_closed_form(Q_HALF, 1, 1, 1) == Fraction(1, 3)
    # k=1, n=2, i=2: only x1=2 contributes [2][1] = 3/2
    assert factorial_moment_closed_form(Q_HALF, 1, 2, 2) == Fraction(3, 14)


def test_bivariate_moment_reference_values():
    reports = {r.quantity: r for r in bivariate_moments(SecondKindParams(Q_HALF, 2, 2))}
    assert reports["factorial-moment[i1=1]"].oracle_value == Fraction(3, 14)
    assert reports["variance"].oracle_value == Fraction(93, 490)
    assert reports["mixed[i2=1]"].oracle_value == Fraction(3, 7)
    assert reports["covariance"].oracle_value == Fraction(-31, 490)
    assert all(r.match for r in reports.values())
    assert mixed_closed_form(Q_HALF, 2, 2, 1) == Fraction(3, 7)
    assert covariance_closed_form(Q_HALF, 2, 2) == Fraction(-31, 490)


def test_bivariate_moments_sweep_tau1_one():
    for alg in TAU1_ONE_PRESETS:
        for k in range(2, 6):
            for n in range(0, 6):
                for order in (1, 2, 3):
                    reports = bivariate_moments(SecondKindParams(alg, k, n), order, order)
                    assert all(r.match for r in reports), (alg.name, k, n, order)


def test_moment_order_beyond_n_vanishes():
    reports = bivariate_moments(SecondKindParams(Q_HALF, 2, 2), 3, 3)
    by_name = {r.quantity: r for r in reports}
    assert by_name["factorial-moment[i1=3]"].oracle_value == 0
    assert by_name["factorial-moment[i1=3]"].closed_form == 0
    assert by_name["mixed[i2=3]"].oracle_value == 0


def test_variance_formula_unevaluable_for_general_tau():
    assert variance_closed_form(JS, 2, 2) is None
    reports = {r.quantity: r for r in bivariate_moments(SecondKindParams(JS, 2, 2))}
    assert reports["variance"].closed_form is None
    assert reports["variance"].match is None
    assert "unevaluable" in reports["variance"].note


def test_classical_covariance_is_negative():
    # balls compete for urns, so occupancies are negatively correlated
    reports = {r.quantity: r for r in bivariate_moments(SecondKindParams(classical_algebra(), 2, 2))}
    assert reports["covariance"].oracle_value == Fraction(-5, 18)
    assert reports["covariance"].oracle_value < 0
    assert reports["covariance"].match


@pytest.mark.parametrize("call, message", [
    (lambda: bivariate_moments(SecondKindParams(JS, 3, 2), 0, 1), "moment orders must be >= 1, got i1=0, i2=1"),
    (lambda: bivariate_moments(SecondKindParams(JS, 3, 2), 1, 0), "moment orders must be >= 1, got i1=1, i2=0"),
    (lambda: factorial_moment_closed_form(JS, 3, 2, 0), "i: moment order must be >= 1, got 0"),
    (lambda: mixed_closed_form(JS, 3, 2, 0), "i2: moment order must be >= 1, got 0"),
], ids=("bivariate-i1-0", "bivariate-i2-0", "factorial-i-0", "mixed-i2-0"))
def test_moment_orders_below_one_are_refused(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
