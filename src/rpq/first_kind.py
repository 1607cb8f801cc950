"""Occupancy distributions for capacity-one urns (Fermi-Dirac statistics).

n indistinguishable balls land in k+1 distinguishable urns, each holding at
most one ball, so n <= k+1.  The law of the first k occupancy counts
(X_1..X_k), each in {0,1}, is supported on vectors whose sum lies in
{max(0, n-1), n}: the overflow urn absorbs exactly the remainder and it too
holds at most one ball.

Joint weights are the monomials

    Phi(x) = tau1^(-E(x) + C(n,2) + k*n) * tau2^(E(x) - C(n,2)),
    E(x)   = sum_j (k - j + 1) x_j,

normalized by their enumerated sum.  The closed-form normalizer
[k+1 over n] and the closed-form marginal/conditional/grouped laws are
attached as cross-check records; they agree exactly whenever tau1 = 1 and
are reported (not asserted) otherwise.  Derived tables (marginals,
conditionals, grouped laws) always carry the measure induced by the joint;
this keeps every table a genuine probability distribution regardless of how
the closed-form bookkeeping behaves for tau1 != 1.

This module holds what is particular to the first kind: `FirstKindParams`,
whose class attributes and methods give the cap, the sum window, the
weights, the normalizer and the closed forms the shared core reads, the
single-ball law, the Bernoulli construction check and the moment closed
forms.  The joint, marginal, conditional and grouped laws are the
functions of `rpq.occupancy`, re-exported here under the same names.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Tuple

from .algebra import (
    AlgebraSpec,
    binomial_or_zero,
    deformed_binomial,
    deformed_number,
    inverse_algebra,
    tau_monomial,
)
from .errors import ValidationError
# The core's functions, re-exported under their usual names.
from .occupancy import (ConstructionReport, GroupingScheme, OccupancyParams, bivariate_table, coerce_theta,
                        conditional_pmf, construction_report, grouped_conditional_pmf, grouped_marginal_pmf,
                        grouped_pmf, joint_pmf, joint_stream, joint_weight, marginal_pmf, support_constraints)
from .pmf import PmfTable, compare_moment, make_table, oracle_expectation
from .scalars import Scalar

KIND = "first"


class FirstKindParams(OccupancyParams):
    """k+1 capacity-one urns, n balls, under a given deformation."""

    kind = KIND
    cap = 1

    @staticmethod
    def check_n(k: int, n: int) -> None:
        if not 0 <= n <= k + 1:
            raise ValidationError(f"n: first kind needs 0 <= n <= k+1, got n={n}, k={k}")

    def sum_window(self) -> Tuple[int, int]:
        return max(0, self.n - 1), min(self.n, self.k)

    def area_weight(self, e: int) -> Scalar:
        c2 = comb(self.n, 2)
        return tau_monomial(self.alg, c2 + self.k * self.n - e, e - c2)

    @staticmethod
    def normalizer(alg: AlgebraSpec, k: int, n: int) -> Scalar:
        """[k+1 over n]: n balls in k+1 capacity-one urns (0 once n > k+1)."""
        return binomial_or_zero(alg, k + 1, n)

    def fit_bound(self) -> int:
        return (self.k + 1) * max(self.n, 1)

    def marginal_terms(self, r: int, key: Tuple[int, int]) -> Tuple[int, int, Tuple[Scalar]]:
        """The closed weight of an r-prefix p from its key (y, E) = (sum p, E(p)):
        tau1^(C(y,2) + kn - g) tau2^(g - C(y,2)) [k-r+1 over n-y], where
        g = sum_j (k - j - n + y) p_j over j = 0..r-1 equals (k - n - r + y) y + E."""
        k, n = self.k, self.n
        y, e = key
        g = (k - n - r + y) * y + e
        c2 = comb(y, 2)
        return c2 + k * n - g, g - c2, (self.normalizer(self.alg, k - r, n - y),)

    def conditional_terms(self, m: int, key: Tuple[int, int, int]) -> Tuple[int, int, Tuple[Scalar]]:
        """The closed value of a suffix s = x[r:m] before its divisor, from
        the suffix's key (y_m, t, E(s)) = (sum x[:m], sum s, E(s)):
        tau1^(C(t,2) + kn - h) tau2^(h - C(t,2)) [k-m+1 over n-y_m], where
        h = sum_j (k - r - j - n + y_m) s_j over j = 0..m-r-1 equals
        (k - m - n + y_m) t + E(s)."""
        k, n = self.k, self.n
        y_m, t, e = key
        h = (k - m - n + y_m) * t + e
        c2 = comb(t, 2)
        return c2 + k * n - h, h - c2, (self.normalizer(self.alg, k - m, n - y_m),)

    def block_factor(self, m_j: int, y_j: int, z: int, s_j: int) -> Tuple[int, int, Scalar]:
        """(n - z - s_j)(m_j - y_j), (k - s_j - n + z + 1) y_j and [m_j over y_j]."""
        n = self.n
        return (n - z - s_j) * (m_j - y_j), (self.k - s_j - n + z + 1) * y_j, deformed_binomial(self.alg, m_j, y_j)


def single_ball_pmf(alg: AlgebraSpec, r: int, reverse: bool = False) -> PmfTable:
    """Law of the urn index receiving one ball passed through r urns.

    Weight tau2^(j-1) for urn j (tau2^(r-j) in reverse order); the closed
    normalizer [r] matches the enumerated one exactly when tau1 = 1.
    """
    if r < 1:
        raise ValidationError(f"r: need at least one urn, got {r}")
    if alg.tau2 is None:
        raise ValidationError("single-ball law needs structure constants")
    weights = [alg.tau2 ** (r - j if reverse else j - 1) for j in range(1, r + 1)]
    params = {"kind": "single-ball", "r": r, "order": "reverse" if reverse else "forward"}
    params.update(alg.describe())
    return make_table(
        kind="single-ball",
        params=params,
        coord_labels=("j",),
        support=tuple((j,) for j in range(1, r + 1)),
        weights=weights,
        index=range(r),
        alg=alg,
        z_closed_form=deformed_number(alg, r),
        fit_bound=r,
    )


def bernoulli_construction_check(alg: AlgebraSpec, k: int, n: int, theta) -> ConstructionReport:
    """Condition k+1 independent success/failure trials on n total successes.

    Trial i succeeds with probability theta*tau2^(i-1) / (tau1^(i-1) +
    theta*tau2^(i-1)).  The conditional law of the first k indicators is
    compared pointwise with the capacity-one joint law under the
    inverse-parameter algebra; theta cancels on the conditioning event, so
    the report must not depend on it.
    """
    params = FirstKindParams(alg, k, n)
    theta = coerce_theta(theta, alg)
    if alg.tau1 is None or alg.tau2 is None:
        raise ValidationError("construction check needs structure constants")

    def mass(x):
        value = 1 if alg.exact else 1.0
        for i, x_i in enumerate(x):
            value *= theta**x_i * alg.tau2 ** (i * x_i) * alg.tau1 ** (i * (1 - x_i))
        return value

    return construction_report("bernoulli", params, theta, mass)


def mean_closed_form(alg: AlgebraSpec, k: int, n: int) -> Scalar:
    """tau1^(kn) [n]_inv / [k+1]_inv, the success rate of one leading urn."""
    inv = inverse_algebra(alg)
    return alg.tau1 ** (k * n) * deformed_number(inv, n) / deformed_number(inv, k + 1)


def variance_closed_form(alg: AlgebraSpec, k: int, n: int) -> Scalar:
    mu = mean_closed_form(alg, k, n)
    return mu * (1 - mu)


def mixed_closed_form(alg: AlgebraSpec, k: int, n: int) -> Scalar:
    """Closed form of E(tau2^(-X1) [X2]_inv)."""
    inv = inverse_algebra(alg)
    return (
        deformed_number(inv, n)
        / (alg.tau2 * alg.tau1 ** (n * (1 - k)) * deformed_number(inv, k + 1))
    )


def covariance_closed_form(alg: AlgebraSpec, k: int, n: int) -> Scalar:
    """Closed form of Cov([X1]_inv, tau2^(-X1) [X2]_inv)."""
    inv = inverse_algebra(alg)
    if n == 0:
        return Fraction(0) if alg.exact else 0.0
    delta = alg.tau1**n * deformed_number(inv, n - 1) * deformed_number(inv, k + 1)
    delta -= deformed_number(inv, n) * deformed_number(inv, k)
    return (
        deformed_number(inv, n)
        * delta
        / (
            alg.tau2
            * alg.tau1 ** (n * (1 - k))
            * deformed_number(inv, k + 1) ** 2
            * deformed_number(inv, k)
        )
    )


def bivariate_moments(params: FirstKindParams, i1: int = 1, i2: int = 1) -> list:
    """Closed-form mean, variance, mixed expectation and covariance of
    (X_1, X_2) against exact oracle expectations.

    Moments live in the inverse-parameter algebra.  Powers i1, i2 >= 1 are
    inert because occupancies are 0/1-valued and [1] = 1; the reports note
    this rather than pretending an extra computation happened.
    """
    if i1 < 1 or i2 < 1:
        raise ValidationError(f"moment orders must be >= 1, got i1={i1}, i2={i2}")
    alg = params.alg
    inv = inverse_algebra(alg)
    table = bivariate_table(params)
    k, n = params.k, params.n
    inert = "power is inert on 0/1 occupancies" if (i1 > 1 or i2 > 1) else ""

    def num_inv(x):
        return deformed_number(inv, x)

    mean_o = oracle_expectation(table, lambda x: num_inv(x[0]) ** i1)
    var_o = oracle_expectation(table, lambda x: num_inv(x[0]) ** 2) - mean_o**2
    mixed_o = oracle_expectation(table, lambda x: alg.tau2 ** (-x[0]) * num_inv(x[1]) ** i2)
    cross_o = oracle_expectation(
        table, lambda x: num_inv(x[0]) * alg.tau2 ** (-x[0]) * num_inv(x[1])
    )
    cov_o = cross_o - mean_o * mixed_o

    return [
        compare_moment(f"mean[i1={i1}]", mean_o, mean_closed_form(alg, k, n), alg, note=inert),
        compare_moment("variance", var_o, variance_closed_form(alg, k, n), alg),
        compare_moment(f"mixed[i2={i2}]", mixed_o, mixed_closed_form(alg, k, n), alg, note=inert),
        compare_moment("covariance", cov_o, covariance_closed_form(alg, k, n), alg),
    ]
