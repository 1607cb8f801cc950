import math
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import ALL_PRESETS, CJ, JS, Q_HALF, QUESNE
from rpq import (
    AlgebraSpec,
    ModeMixError,
    ValidationError,
    arik_coon,
    check_triangular_recurrence,
    classical_algebra,
    custom_algebra,
    deformed_binomial,
    deformed_factorial,
    deformed_falling_factorial,
    deformed_number,
    fit_monomial,
    inverse_algebra,
    jagannathan_srinivasa,
    load_algebra_config,
    make_preset,
    q_deformation,
)
from rpq.algebra import binomial_or_zero, tau_monomial


def test_preset_tau_assignments():
    assert (JS.tau1, JS.tau2) == (Fraction(9, 10), Fraction(1, 2))
    assert (Q_HALF.tau1, Q_HALF.tau2) == (1, Fraction(1, 2))
    assert (QUESNE.tau1, QUESNE.tau2) == (Fraction(9, 10), 2)
    assert (CJ.tau1, CJ.tau2) == (Fraction(10, 9), Fraction(1, 2))


def test_numbers_small_values():
    alg = jagannathan_srinivasa(1, Fraction(1, 2))
    assert deformed_number(alg, 0) == 0
    assert deformed_number(alg, 1) == 1
    assert deformed_number(alg, 2) == Fraction(3, 2)
    assert deformed_number(alg, 3) == Fraction(7, 4)


def test_numbers_positive_and_unit_for_presets():
    for alg in ALL_PRESETS:
        assert deformed_number(alg, 0) == 0
        assert deformed_number(alg, 1) == 1
        for n in range(1, 13):
            assert deformed_number(alg, n) > 0


def test_factorials():
    alg = jagannathan_srinivasa(1, Fraction(1, 2))
    for preset in ALL_PRESETS:
        assert deformed_factorial(preset, 0) == 1
    assert deformed_factorial(alg, 2) == Fraction(3, 2)
    assert deformed_factorial(alg, 3) == Fraction(21, 8)


def test_binomials():
    alg = jagannathan_srinivasa(1, Fraction(1, 2))
    for preset in ALL_PRESETS:
        assert deformed_binomial(preset, 5, 0) == 1
    assert deformed_binomial(alg, 3, 1) == Fraction(7, 4)
    assert deformed_binomial(alg, 3, 2) == Fraction(7, 4)
    with pytest.raises(ValidationError):
        deformed_binomial(alg, 2, 3)


def test_binomial_symmetry_and_positivity():
    for alg in ALL_PRESETS:
        for m in range(13):
            for n in range(m + 1):
                value = deformed_binomial(alg, m, n)
                assert value == deformed_binomial(alg, m, m - n)
                assert value > 0


def test_classical_limit_binomial():
    alg = q_deformation(1 - 1e-8)
    for m in range(13):
        for n in range(m + 1):
            want = math.comb(m, n)
            assert abs(deformed_binomial(alg, m, n) - want) < 1e-6 * want


def test_falling_factorial():
    alg = jagannathan_srinivasa(1, Fraction(1, 2))
    assert deformed_falling_factorial(alg, 4, 0) == 1
    assert deformed_falling_factorial(alg, 2, 2) == Fraction(3, 2)
    assert deformed_falling_factorial(alg, 3, 2) == Fraction(21, 8)
    assert deformed_falling_factorial(alg, 2, 3) == 0
    for preset in ALL_PRESETS:
        for n in range(13):
            assert deformed_falling_factorial(preset, n, 1) == deformed_number(preset, n)


def test_equal_tau_limit_is_classical():
    alg = classical_algebra()
    for n in range(10):
        assert deformed_number(alg, n) == n
    assert deformed_binomial(alg, 6, 2) == 15


def test_inverse_algebra_basics():
    inv = inverse_algebra(Q_HALF)
    assert inv.tau2 == 2
    assert inverse_algebra(inv) == Q_HALF
    alg = jagannathan_srinivasa(1, Fraction(1, 2))
    inv = inverse_algebra(alg)
    # (tau1*tau2)^(-n(k-n)) * binom(k, n) = binom_inv(k, n) at k=2, n=1
    assert Fraction(1, 2) ** -1 * deformed_binomial(alg, 2, 1) == 3
    assert deformed_number(inv, 2) == 3


def test_inverse_scaling_relation_all_presets():
    for alg in ALL_PRESETS:
        inv = inverse_algebra(alg)
        for m in range(11):
            for n in range(m + 1):
                scale = (alg.tau1 * alg.tau2) ** (-n * (m - n))
                assert scale * deformed_binomial(alg, m, n) == deformed_binomial(inv, m, n)


def test_preset_range_validation():
    with pytest.raises(ValidationError):
        jagannathan_srinivasa(Fraction(1, 2), Fraction(9, 10))  # q > p
    with pytest.raises(ValidationError):
        q_deformation(Fraction(3, 2))
    with pytest.raises(ValidationError):
        jagannathan_srinivasa(Fraction(11, 10), Fraction(1, 2))  # p > 1


def test_mode_mixing_rejected():
    with pytest.raises(ModeMixError):
        jagannathan_srinivasa(0.9, Fraction(1, 2))
    with pytest.raises(ModeMixError):
        AlgebraSpec("mixed", Fraction(1), 0.5, Fraction(1), 0.5)


def test_approximate_mode_comparisons():
    alg = q_deformation(0.5)
    assert not alg.exact
    assert alg.close(deformed_number(alg, 2), 1.5)


def test_triangular_recurrence_presets():
    for alg in ALL_PRESETS:
        report = check_triangular_recurrence(alg, 6)
        assert report.variant_a_holds
        assert report.variant_b_holds
    report = check_triangular_recurrence(Q_HALF, 1)
    assert len(report.entries) == 1
    assert report.entries[0].m == report.entries[0].n == 1


def test_triangular_recurrence_custom_rule_diagnostic():
    # an arbitrary positive sequence satisfies neither recurrence variant
    alg = custom_algebra("lopsided", tau1=Fraction(1), tau2=Fraction(1, 2),
                         numbers=[Fraction(0), Fraction(1), Fraction(5), Fraction(6)])
    report = check_triangular_recurrence(alg, 3)
    assert not report.variant_a_holds
    assert not report.variant_b_holds


def test_arik_coon_rule():
    alg = arik_coon(Fraction(1, 2))
    assert deformed_number(alg, 0) == 0
    assert deformed_number(alg, 1) == 1
    # (q^2 - q^-2)/(q - q^-1) = q + 1/q
    assert deformed_number(alg, 2) == Fraction(5, 2)
    with pytest.raises(ValidationError):
        inverse_algebra(alg)


def test_fit_monomial_finds_unique_pair():
    lhs = deformed_binomial(JS, 4, 2) * JS.tau1 ** (-3) * JS.tau2**2
    fit = fit_monomial(JS, lhs, deformed_binomial(JS, 4, 2), 6)
    assert fit.found and (fit.a, fit.b) == (3, -2)
    fit = fit_monomial(JS, Fraction(1), Fraction(3), 4)
    assert not fit.found


def test_fit_monomial_tau2_one_prefers_smallest_b():
    exact = fit_monomial(custom_algebra("t", tau1=Fraction(2), tau2=Fraction(1)), Fraction(1), Fraction(2), 3)
    approx = fit_monomial(custom_algebra("t", tau1=2.0, tau2=1.0), 1.0, 2.0, 3)
    for fit in (exact, approx):
        assert fit.found and (fit.a, fit.b) == (1, 0)


def test_approximate_fit_tries_b_by_size_then_sign():
    # At rel_tol 1/2 both neighbours of b0 = log(need) / log(tau2) match as
    # well, so the order of the candidates decides the fit.
    alg = custom_algebra("t", tau1=3.0, tau2=0.5, tol=0.5)
    for b0 in (-6, -3, -2, 2, 3, 6):
        for bound in (abs(b0) - 1, abs(b0), abs(b0) + 1):
            fit = fit_monomial(alg, 1.0, 0.5**b0, bound)
            within = [b for b in (b0 - 1, b0, b0 + 1) if abs(b) <= bound]
            assert (fit.found, fit.a, fit.b) == (True, 0, min(within, key=lambda b: (abs(b), b < 0)))


def test_algebras_of_equal_values_in_two_modes_differ():
    exact, decimal = q_deformation(Fraction(1, 2)), q_deformation(0.5)
    assert exact.exact and not decimal.exact
    assert exact != decimal and len({exact, decimal}) == 2
    assert make_preset("q", q="1/2") == exact and hash(make_preset("q", q="1/2")) == hash(exact)
    assert not replace(decimal, tol=1e-6).exact
    with pytest.raises(TypeError):
        AlgebraSpec("t", None, None, Fraction(1), Fraction(2), exact=False)


def test_tau_monomials_equal_the_power_product_and_are_memoised():
    for preset in ALL_PRESETS + (jagannathan_srinivasa(0.9, 0.5),):
        alg = replace(preset)
        assert alg._monomials == {}
        for a in range(-4, 5):
            for b in range(-4, 5):
                value = tau_monomial(alg, a, b)
                expected = alg.tau1**a * alg.tau2**b
                assert value == expected and type(value) is type(expected)
                assert tau_monomial(alg, a, b) is value
        assert len(alg._monomials) == 81


def test_binomial_or_zero_conventions():
    for alg in (JS, jagannathan_srinivasa(0.9, 0.5)):
        one = Fraction(1) if alg.exact else 1.0
        for m in range(-1, 6):
            for n in range(-2, 7):
                value = binomial_or_zero(alg, m, n)
                if n == 0:
                    expected = one
                elif n < 0 or m < n:
                    expected = one * 0
                else:
                    expected = deformed_binomial(alg, m, n)
                assert value == expected and type(value) is type(expected)


def test_load_algebra_config():
    alg = load_algebra_config("name=jagannathan-srinivasa\np=9/10\nq=1/2\nmode=exact\n")
    assert alg == JS
    alg = load_algebra_config("name=q\nq=1/2\nmode=approximate\n")
    assert not alg.exact and alg.q == 0.5
    with pytest.raises(ValidationError):
        load_algebra_config("p=1/2\n")
    with pytest.raises(ValidationError):
        load_algebra_config("name=q\nq=1/2\nmode=sloppy\n")


def test_make_preset_aliases():
    assert make_preset("js", p="9/10", q="1/2") == JS
    assert make_preset("q", q="1/2") == Q_HALF
    with pytest.raises(ValidationError):
        make_preset("unknown", q="1/2")
