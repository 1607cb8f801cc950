"""Occupancy distributions for unlimited-capacity urns (Bose-Einstein
statistics).

n indistinguishable balls land in k+1 distinguishable urns of unlimited
capacity; the overflow urn absorbs the remainder, so the first k occupancy
counts (X_1..X_k) range over {0..n}^k with sum at most n and no further cap.

Joint weights are

    Phi(x) = tau1^(-E(x) + 2kn + C(k+1,2)) * tau2^(E(x)),
    E(x)   = sum_j (k - j + 1) x_j,

normalized by their enumerated sum.  The closed-form normalizer is the
base-algebra [k+n over n]: that is what the enumerated sum equals whenever
tau1 = 1 (an inverse-parameter normalizer would be off by (tau1*tau2)^(-nk)
and would not normalize even there).  As in the capacity-one family, all
derived tables carry the exact law induced by the joint, with closed forms
attached as cross-checks.

This module holds what is particular to the second kind:
`SecondKindParams`, whose class attributes and methods give the cap, the
sum window, the weights, the normalizer and the closed forms the shared
core reads, the geometric construction check and the moment closed forms.
The joint, marginal, conditional and grouped laws are the functions of
`rpq.occupancy`, re-exported here under the same names.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Tuple

from .algebra import (
    AlgebraSpec,
    binomial_or_zero,
    deformed_factorial,
    deformed_falling_factorial,
    deformed_number,
    tau_monomial,
)
from .errors import ValidationError
# The core's functions, re-exported under their usual names.
from .occupancy import (ConstructionReport, GroupingScheme, OccupancyParams, _kept_moments, bivariate_table,
                        coerce_theta, conditional_pmf, construction_report, grouped_conditional_pmf,
                        grouped_marginal_pmf, grouped_pmf, joint_pmf, joint_stream, joint_weight, marginal_pmf,
                        support_constraints)
from .pmf import compare_moment, oracle_expectation
from .scalars import Scalar

KIND = "second"


def _phi_constant_exponent(k: int, n: int) -> int:
    return 2 * k * n + comb(k + 1, 2)


class SecondKindParams(OccupancyParams):
    """k+1 unlimited-capacity urns, n balls, under a given deformation."""

    kind = KIND
    cap = None

    @staticmethod
    def check_n(k: int, n: int) -> None:
        if n < 0:
            raise ValidationError(f"n: need n >= 0, got {n}")

    def sum_window(self) -> Tuple[int, int]:
        return 0, self.n

    def area_weight(self, e: int) -> Scalar:
        return tau_monomial(self.alg, _phi_constant_exponent(self.k, self.n) - e, e)

    @staticmethod
    def normalizer(alg: AlgebraSpec, k: int, n: int) -> Scalar:
        """[k+n over n]: n balls in k+1 unlimited-capacity urns (0 once n < 0)."""
        return binomial_or_zero(alg, k + n, n)

    def fit_bound(self) -> int:
        return _phi_constant_exponent(self.k, self.n) + self.k * self.n

    def marginal_terms(self, r: int, key: Tuple[int, int]) -> Tuple[int, int, Tuple[Scalar]]:
        """The closed weight of an r-prefix p from its key (y, E) = (sum p, E(p)):
        tau1^(phi - e) tau2^e [k-r+n-y over n-y], where e = sum_j (k - j) p_j
        over j = 0..r-1 equals (k - r) y + E."""
        k, n = self.k, self.n
        y, area_p = key
        e = (k - r) * y + area_p
        return _phi_constant_exponent(k, n) - e, e, (self.normalizer(self.alg, k - r, n - y),)

    def conditional_terms(self, m: int, key: Tuple[int, int, int]) -> Tuple[int, int, Tuple[Scalar]]:
        """The closed value of a suffix s = x[r:m] before its divisor, from
        the suffix's key (y_m, t, E(s)) = (sum x[:m], sum s, E(s)):
        tau1^-e tau2^e [k-m+n-y_m over n-y_m], where e = sum_j (k - r - j) s_j
        over j = 0..m-r-1 equals (k - m) t + E(s)."""
        k, n = self.k, self.n
        y_m, t, area_s = key
        e = (k - m) * t + area_s
        return -e, e, (self.normalizer(self.alg, k - m, n - y_m),)

    def block_factor(self, m_j: int, y_j: int, z: int, s_j: int) -> Tuple[int, int, Scalar]:
        """(n - z - s_j)(m_j - 1), (k - s_j + 1) y_j and [m_j + y_j - 1 over y_j]."""
        return ((self.n - z - s_j) * (m_j - 1), (self.k - s_j + 1) * y_j,
                binomial_or_zero(self.alg, m_j + y_j - 1, y_j))


def geometric_construction_check(alg: AlgebraSpec, k: int, n: int, theta) -> ConstructionReport:
    """Condition k+1 independent failure counts on n total failures.

    W_j counts failures between the (j-1)-th and j-th success of a trials
    scheme whose per-trial failure odds scale by tau2/tau1; conditioning on
    sum(W) = n truncates every W_j to {0..n}, so the check is finite and
    exact.  The conditional law of (W_1..W_k) is compared with the
    unlimited-capacity joint law under the inverse-parameter algebra.
    """
    params = SecondKindParams(alg, k, n)
    theta = coerce_theta(theta, alg)
    if alg.tau1 is None or alg.tau2 is None:
        raise ValidationError("construction check needs structure constants")
    for j in range(1, k + 2):
        if alg.tau1 ** (j - 1) - theta * alg.tau2 ** (j - 1) <= 0:
            raise ValidationError(
                f"theta: trial {j} has success probability outside (0,1) for theta={theta}"
            )

    def mass(w):
        value = 1 if alg.exact else 1.0
        for j, w_j in enumerate(w, start=1):
            value *= (
                alg.tau1 ** ((1 - j) * (w_j + 1))
                * (theta * alg.tau2 ** (j - 1)) ** w_j
                * (alg.tau1 ** (j - 1) - theta * alg.tau2 ** (j - 1))
            )
        return value

    return construction_report("geometric", params, theta, mass)


def factorial_moment_closed_form(alg: AlgebraSpec, k: int, n: int, i: int) -> Scalar:
    """Closed form of E([X1][X1-1]...[X1-i+1]); zero once i > n."""
    if i < 1:
        raise ValidationError(f"i: moment order must be >= 1, got {i}")
    if i > n:
        return Fraction(0) if alg.exact else 0.0
    return (
        tau_monomial(alg, _phi_constant_exponent(k, n) - k * i, k * i)
        * deformed_falling_factorial(alg, n, i)
        * deformed_factorial(alg, i)
        / deformed_falling_factorial(alg, k + i, i)
    )


def mixed_closed_form(alg: AlgebraSpec, k: int, n: int, i2: int) -> Scalar:
    """Closed form of E(tau1^(-i2 X1) tau2^(i2 X1) [X2]_(i2))."""
    if i2 < 1:
        raise ValidationError(f"i2: moment order must be >= 1, got {i2}")
    if i2 > n:
        return Fraction(0) if alg.exact else 0.0
    return (
        tau_monomial(alg, _phi_constant_exponent(k, n) + (1 - k) * i2, (k - 1) * i2)
        * deformed_factorial(alg, i2)
        * deformed_falling_factorial(alg, n, i2)
        / deformed_falling_factorial(alg, k + i2, i2)
    )


def variance_closed_form(alg: AlgebraSpec, k: int, n: int):
    """Closed form of V([X1]), evaluable only when tau1 = 1.

    The printed general form carries a stray tau1^(1-x1) with x1 unbound, so
    for tau1 != 1 it is not a number; the oracle value is authoritative and
    the report flags the formula instead of guessing.
    """
    if alg.tau1 != 1:
        return None
    t2 = alg.tau2
    term1 = (
        t2 ** (2 * k + 1)
        * deformed_falling_factorial(alg, n, 2)
        * deformed_factorial(alg, 2)
        / deformed_falling_factorial(alg, k + 2, 2)
    )
    term2 = t2**k * deformed_number(alg, n) / deformed_number(alg, k + 1)
    mean = t2**k * deformed_number(alg, n) / deformed_number(alg, k + 1)
    return term1 + term2 - mean**2


def covariance_closed_form(alg: AlgebraSpec, k: int, n: int) -> Scalar:
    """Closed form of Cov([X1], tau1^(-X1) tau2^(X1) [X2]).

    The denominator factor is tau1^(2k(1-n) - C(k+1,2)); enumeration at
    (k, n) = (2, 1) rules out reading it as a power of tau2.
    """
    if n == 0:
        return Fraction(0) if alg.exact else 0.0
    nabla = alg.tau2 * deformed_number(alg, n - 1) * deformed_number(alg, k + 1)
    nabla -= alg.tau1 * deformed_number(alg, n) * deformed_number(alg, k + 2)
    return (
        alg.tau2 ** (2 * k - 1)
        * deformed_number(alg, n)
        * nabla
        / (
            alg.tau1 ** (2 * k * (1 - n) - comb(k + 1, 2))
            * deformed_number(alg, k + 1) ** 2
            * deformed_number(alg, k + 2)
        )
    )


def bivariate_moments(params: SecondKindParams, i1: int = 1, i2: int = 1) -> list:
    """Closed-form factorial moments, variance and covariance of (X_1, X_2)
    against exact oracle expectations over the bivariate law, kept on the
    joint's class law (`occupancy._kept_moments`)."""
    return _kept_moments(params, _moments, i1, i2)


def _moments(params: SecondKindParams, i1: int, i2: int) -> tuple:
    alg = params.alg
    k, n = params.k, params.n
    table = bivariate_table(params)

    def fall(x, i):
        return deformed_falling_factorial(alg, x, i)

    fact_o = oracle_expectation(table, lambda x: fall(x[0], i1))
    mean_o = oracle_expectation(table, lambda x: deformed_number(alg, x[0]))
    var_o = oracle_expectation(table, lambda x: deformed_number(alg, x[0]) ** 2) - mean_o**2
    mixed_o = oracle_expectation(
        table, lambda x: tau_monomial(alg, -i2 * x[0], i2 * x[0]) * fall(x[1], i2)
    )
    cross_o = oracle_expectation(
        table,
        lambda x: deformed_number(alg, x[0])
        * alg.tau1 ** (-x[0])
        * alg.tau2 ** (x[0])
        * deformed_number(alg, x[1]),
    )
    mixed1_o = oracle_expectation(
        table, lambda x: tau_monomial(alg, -x[0], x[0]) * deformed_number(alg, x[1])
    )
    cov_o = cross_o - mean_o * mixed1_o

    variance_closed = variance_closed_form(alg, k, n)
    variance_note = "" if variance_closed is not None else "printed form unevaluable for tau1 != 1"
    return (
        compare_moment(
            f"factorial-moment[i1={i1}]", fact_o, factorial_moment_closed_form(alg, k, n, i1), alg
        ),
        compare_moment("variance", var_o, variance_closed, alg, note=variance_note),
        compare_moment(f"mixed[i2={i2}]", mixed_o, mixed_closed_form(alg, k, n, i2), alg),
        compare_moment("covariance", cov_o, covariance_closed_form(alg, k, n), alg),
    )
