import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_PRESETS, CJ, JS, Q_HALF, QUESNE
from rpq import (
    AlgebraSpec,
    ModeMixError,
    UnderflowError,
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
from rpq.algebra import _has_foreign_prime, binomial_or_zero, tau_monomial


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


def test_approximate_fit_decides_exponents_past_the_float_range():
    # Past |a| = 1024, 0.5^a and 0.25^b leave the float range; each such
    # candidate is decided on the exact dyadic product, and none matches.
    alg = make_preset("js", p=0.5, q=0.25)
    for bound in (1000, 1030):
        assert not fit_monomial(alg, 1.0, 2.0 * (1 + 1e-7), bound).found
    fit = fit_monomial(alg, 1.0, 2.0**-1000, 1030)
    assert (fit.found, fit.a, fit.b) == (True, 0, 500)


def test_algebras_of_equal_values_in_two_modes_differ():
    exact, decimal = q_deformation(Fraction(1, 2)), q_deformation(0.5)
    assert exact.exact and not decimal.exact
    assert exact != decimal and len({exact, decimal}) == 2
    assert make_preset("q", q="1/2") == exact and hash(make_preset("q", q="1/2")) == hash(exact)
    assert not decimal.replace(tol=1e-6).exact
    with pytest.raises(TypeError):
        AlgebraSpec("t", None, None, Fraction(1), Fraction(2), exact=False)


def test_tau_monomials_equal_the_power_product_and_are_memoised():
    for preset in ALL_PRESETS + (jagannathan_srinivasa(0.9, 0.5),):
        alg = preset.replace()
        assert alg._monomials == {}
        for a in range(-4, 5):
            for b in range(-4, 5):
                value = tau_monomial(alg, a, b)
                expected = alg.tau1**a * alg.tau2**b
                assert value == expected and type(value) is type(expected)
                assert tau_monomial(alg, a, b) is value
        assert len(alg._monomials) == 81


def test_tau_monomials_past_the_float_range_are_the_exact_product_rounded_once():
    # tau1^2 = 1e-400 underflows and tau2^-2 = 1e600 overflows as floats,
    # though tau1^2 tau2^-1 = 1e-100 and tau1^-2 tau2^2 = 1e-200.
    alg = make_preset("js", p="1e-200", q="1e-300")
    t1, t2 = Fraction(alg.tau1), Fraction(alg.tau2)
    for a, b, near in ((2, -1, 1e-100), (-2, 2, 1e-200)):
        value = tau_monomial(alg, a, b)
        assert value == float(t1**a * t2**b) and math.isclose(value, near)
    # A product out of the range is 0.0 or overflows, whatever its powers do.
    assert tau_monomial(alg, 3, 0) == tau_monomial(alg, 6, -1) == 0.0
    for a, b in ((-2, 0), (-6, 1)):
        with pytest.raises(OverflowError):
            tau_monomial(alg, a, b)


def _has_foreign_prime_by_division(value, base):
    """The reference: strip the factors `value` shares with `base`, one gcd
    per pass."""
    common = math.gcd(value, base)
    while common > 1:
        value //= common
        common = math.gcd(value, common)
    return value != 1


@settings(max_examples=300, deadline=None)
@given(
    primes=st.sampled_from([(2,), (2, 3), (2, 3, 5), (3, 5, 7), (2, 5, 13)]),
    base_powers=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    exponents=st.lists(st.integers(0, 2000), min_size=3, max_size=3),
    foreign=st.sampled_from([1, 11, 11**2, 17 * 19, 10007, 2**61 - 1]),
)
def test_foreign_prime_power_test_matches_the_division_loop(primes, base_powers, exponents, foreign):
    base = math.prod(p**k for p, k in zip(primes, base_powers))
    value = math.prod(p**e for p, e in zip(primes, exponents)) * foreign
    assert _has_foreign_prime(value, base) == _has_foreign_prime_by_division(value, base) == (foreign != 1)


def test_foreign_prime_of_one_and_of_a_unit_base():
    assert not _has_foreign_prime(1, 90) and not _has_foreign_prime(1, 1)
    assert _has_foreign_prime(2, 1) == _has_foreign_prime_by_division(2, 1)


def test_decimal_triangular_recurrence_refuses_an_underflowed_side():
    # [2 over 1] = tau1 + tau2 is near 1e-200, but its difference quotient
    # (tau1^2 - tau2^2) / (tau1 - tau2) rounds to 0.0.
    with pytest.raises(UnderflowError, match="triangular m=2 n=1: the lhs is 0.0"):
        check_triangular_recurrence(make_preset("js", p="1e-200", q="1e-300"), 3)


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


def test_inverse_is_built_once_per_algebra():
    exact, decimal = q_deformation(Fraction(1, 2)), q_deformation(0.5)
    inv_exact, inv_decimal = inverse_algebra(exact), inverse_algebra(decimal)
    assert inverse_algebra(exact) is inv_exact and inverse_algebra(decimal) is inv_decimal
    # Equal parameter values in two modes: two inverses, each in its mode.
    assert inv_exact is not inv_decimal
    assert inv_exact.tau2 == Fraction(2) and type(inv_exact.tau2) is Fraction
    assert inv_decimal.tau2 == 2.0 and type(inv_decimal.tau2) is float
    # The memo takes no part in equality, and a copy starts without it.
    copy = exact.replace()
    assert copy == exact and copy._inverse is None
    assert inverse_algebra(copy) == inv_exact and inverse_algebra(copy) is not inv_exact


def test_integer_constants_are_stored_as_fractions_in_exact_mode():
    alg = custom_algebra("ints", tau1=1, tau2=2)
    assert alg.exact
    assert (type(alg.tau1), type(alg.tau2)) == (Fraction, Fraction)
    assert alg == custom_algebra("ints", tau1=Fraction(1), tau2=Fraction(2))
    assert alg.describe()["tau2"] == "2"
    for n in range(6):
        assert type(deformed_number(alg, n)) is Fraction
    assert deformed_number(alg, 3) == 7


FLOAT_RULE = custom_algebra("x", tau1=Fraction(1), tau2=Fraction(1, 2), numbers=lambda n: float(n))


def test_exact_algebra_refuses_a_float_number_rule_in_derived_tables():
    from rpq.first_kind import FirstKindParams, marginal_pmf

    assert FLOAT_RULE.exact
    with pytest.raises(ModeMixError):
        deformed_number(FLOAT_RULE, 2)
    with pytest.raises(ModeMixError):
        marginal_pmf(FirstKindParams(FLOAT_RULE, 4, 2), 2)


def test_exact_algebra_refuses_a_float_number_rule_in_identities():
    from rpq import verify_identity

    with pytest.raises(ModeMixError):
        verify_identity("hs2", FLOAT_RULE, 3)


@pytest.mark.parametrize("call, message", [
    (lambda: deformed_number(JS, -1), "n: deformed number needs n >= 0, got -1"),
    (lambda: deformed_factorial(JS, -1), "n: factorial needs n >= 0, got -1"),
    (lambda: deformed_falling_factorial(JS, -1, 0), "falling factorial needs n, i >= 0, got n=-1, i=0"),
    (lambda: deformed_falling_factorial(JS, 2, -1), "falling factorial needs n, i >= 0, got n=2, i=-1"),
    (lambda: check_triangular_recurrence(JS, 0), "mmax: need mmax >= 1, got 0"),
    (lambda: check_triangular_recurrence(custom_algebra("rule", numbers=[0, 1, 2, 3]), 3),
     "triangular recurrence needs structure constants"),
    (lambda: custom_algebra("x", numbers=[1, 1, 2]), "custom number rule must give [0] = 0"),
    (lambda: custom_algebra("x", numbers=[0, 1, 0]), "custom number rule must be positive for n >= 1, got [2] = 0"),
    (lambda: deformed_number(custom_algebra("short", numbers=[0, 1]), 2), "custom sequence of 'short' has no entry for n=2"),
    (lambda: make_preset("q"), "q: required for the q-deformation preset"),
    (lambda: make_preset("q", p="1/2", q="1/3"), "p: q-deformation fixes p = 1"),
    (lambda: make_preset("ac"), "q: required for the arik-coon preset"),
    (lambda: load_algebra_config("name=q\nq=1/2\nmode exact\n"), "config line 3: expected key=value, got 'mode exact'"),
], ids=("number-negative", "factorial-negative", "falling-n-negative", "falling-i-negative", "triangular-mmax-0",
        "triangular-no-taus", "custom-zero", "custom-nonpositive", "custom-no-entry", "q-without-q",
        "q-with-p", "arik-coon-without-q", "config-line-without-equals"))
def test_refusal_messages(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
