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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Hashable, Iterable, List, Sequence, Tuple

from .algebra import (
    AlgebraSpec,
    binomial_or_zero,
    deformed_binomial,
    deformed_number,
    inverse_algebra,
    tau_monomial,
)
from .errors import ValidationError, ZeroProbabilityEventError
from .lattice import ConstraintSet, SupportPoint, area, enumerate_points
from .pmf import PmfTable, compare_moment, grouped_sums, make_table, oracle_expectation
from .scalars import Scalar
from ._coerce import coerce_theta

KIND = "first"


@dataclass(frozen=True)
class FirstKindParams:
    """k+1 capacity-one urns, n balls, under a given deformation."""

    alg: AlgebraSpec
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError(f"k: need k >= 1, got {self.k}")
        if not 0 <= self.n <= self.k + 1:
            raise ValidationError(f"n: first kind needs 0 <= n <= k+1, got n={self.n}, k={self.k}")

    def describe(self) -> dict:
        out = {"kind": KIND, "k": self.k, "n": self.n}
        out.update(self.alg.describe())
        return out


def support_constraints(params: FirstKindParams) -> ConstraintSet:
    k, n = params.k, params.n
    return ConstraintSet(upper=(1,) * k, sum_min=max(0, n - 1), sum_max=min(n, k))


def class_values(keys: Iterable[Hashable], value: Callable[[Hashable], Scalar]) -> List[Scalar]:
    """value(key) of each point's class key, computed once per distinct key
    (in first-seen order) and shared by the points of that class: one
    object per class."""
    keys = list(keys)
    memo = {key: value(key) for key in dict.fromkeys(keys)}
    return list(map(memo.__getitem__, keys))


def _area_weight(params: FirstKindParams, e: int) -> Scalar:
    alg, k, n = params.alg, params.k, params.n
    c2 = comb(n, 2)
    return tau_monomial(alg, c2 + k * n - e, e - c2)


def joint_weight(params: FirstKindParams, x: SupportPoint) -> Scalar:
    return _area_weight(params, area(x))


# Bounded: a long-lived process keeps at most 32 joints, with their memos.
@lru_cache(maxsize=32)
def joint_pmf(params: FirstKindParams) -> PmfTable:
    """Joint law of (X_1..X_k); closed-form normalizer [k+1 over n]."""
    alg, k, n = params.alg, params.k, params.n
    support = enumerate_points(support_constraints(params))
    weights = class_values(map(area, support), lambda e: _area_weight(params, e))
    return make_table(
        kind=KIND,
        params=params.describe(),
        coord_labels=tuple(f"x{j}" for j in range(1, k + 1)),
        support=support,
        weights=weights,
        alg=alg,
        z_closed_form=deformed_binomial(alg, k + 1, n),
        fit_bound=(k + 1) * max(n, 1),
    )


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
        alg=alg,
        z_closed_form=deformed_number(alg, r),
        fit_bound=r,
    )


def _accumulate(
    points: Sequence[SupportPoint], masses: Sequence[Scalar], project, exact: bool
) -> Tuple[Tuple[SupportPoint, ...], Tuple[Scalar, ...]]:
    """Summed mass per projected key (`pmf.class_sum`), in sorted key order."""
    acc = grouped_sums(((project(point), mass) for point, mass in zip(points, masses)), exact)
    items = sorted(acc.items())
    return tuple(p for p, _ in items), tuple(m for _, m in items)


def _given_block(
    points: Sequence[SupportPoint], masses: Tuple[Scalar, ...], given: SupportPoint
) -> Tuple[Tuple[SupportPoint, ...], Tuple[Scalar, ...], slice]:
    """The points that extend `given`, cut to what follows it, their masses,
    and the slice of `points` they occupy.

    `points` is strictly increasing, so those points form one contiguous
    block; two bisections find it without scanning the rest.
    """
    lo = bisect_left(points, given)
    hi = bisect_left(points, given[:-1] + (given[-1] + 1,), lo)
    if lo == hi:
        raise ZeroProbabilityEventError(f"conditioning event {given} has probability zero")
    r = len(given)
    return tuple(x[r:] for x in points[lo:hi]), masses[lo:hi], slice(lo, hi)


def _marginal_closed_weight(params: FirstKindParams, r: int, key: Tuple[int, int]) -> Scalar:
    """Closed weight of an r-prefix p with key (y, E) = (sum p, E(p)):
    tau1^(C(y,2) + kn - g) tau2^(g - C(y,2)) [k-r+1 over n-y], where
    g = sum_j (k - j - n + y) p_j over j = 0..r-1 equals (k - n - r + y) y + E."""
    alg, k, n = params.alg, params.k, params.n
    y, e = key
    g = (k - n - r + y) * y + e
    c2 = comb(y, 2)
    tail = binomial_or_zero(alg, k - r + 1, n - y)
    return tau_monomial(alg, c2 + k * n - g, g - c2) * tail


def marginal_pmf(params: FirstKindParams, r: int) -> PmfTable:
    """Law of the prefix (X_1..X_r), 1 <= r < k, by exact summation.

    Weights are the joint masses summed over the dropped coordinates, so the
    enumerated normalizer coincides with the joint one.  The closed-form
    weights tau-monomial * [k-r+1 over n-y] ride along as a cross-check.
    """
    if not 1 <= r < params.k:
        raise ValidationError(f"r: marginal needs 1 <= r < k, got r={r}, k={params.k}")
    joint = joint_pmf(params)
    support, masses = joint.cut_masses(r)
    table_params = params.describe()
    table_params.update({"table": "marginal", "r": r})
    return make_table(
        kind=f"{KIND}-marginal",
        params=table_params,
        coord_labels=tuple(f"x{j}" for j in range(1, r + 1)),
        support=support,
        weights=masses,
        alg=params.alg,
        z_closed_form=deformed_binomial(params.alg, params.k + 1, params.n),
        fit_bound=(params.k + 1) * max(params.n, 1),
        closed_values=class_values(
            zip(*joint.cut_classes(r)), lambda key: _marginal_closed_weight(params, r, key)
        ),
    )


def _suffix_key(given: SupportPoint, m: int, key: Tuple[int, int]) -> Tuple[int, int]:
    """(sum s, E(s)) of the suffix s = x[r:m] of an m-prefix x that extends
    `given` (r = len(given)), from the m-prefix's key (sum, E):
    E(x[:m]) = E(given) + (m - r) sum(given) + E(s)."""
    y_r = sum(given)
    return key[0] - y_r, key[1] - area(given) - (m - len(given)) * y_r


def _conditional_closed_value(
    params: FirstKindParams, given: SupportPoint, m: int, key: Tuple[int, int]
) -> Scalar:
    """Closed value of the suffix s = x[r:m] given x[:r] = `given`, from the
    m-prefix's key: tau1^(C(t,2) + kn - h) tau2^(h - C(t,2))
    [k-m+1 over n-y_m] / [k-r+1 over n-y_r], where t = sum s and
    h = sum_j (k - r - j - n + y_m) s_j over j = 0..m-r-1 equals
    (k - m - n + y_m) t + E(s)."""
    alg, k, n = params.alg, params.k, params.n
    r = len(given)
    y_r = sum(given)
    y_m = key[0]
    t, e = _suffix_key(given, m, key)
    h = (k - m - n + y_m) * t + e
    c2 = comb(t, 2)
    numerator = binomial_or_zero(alg, k - m + 1, n - y_m)
    denominator = deformed_binomial(alg, k - r + 1, n - y_r)
    return tau_monomial(alg, c2 + k * n - h, h - c2) * numerator / denominator


def conditional_pmf(params: FirstKindParams, given: Sequence[int], m: int) -> PmfTable:
    """Law of (X_{r+1}..X_m) given (X_1..X_r) = `given`, via the chain rule.

    Weights are restricted joint masses, the normalizer is the mass of the
    conditioning event; a zero-probability event is an error, not an empty
    table.
    """
    given = tuple(given)
    r = len(given)
    if not 1 <= r < m <= params.k:
        raise ValidationError(f"conditional needs 1 <= r < m <= k, got r={r}, m={m}, k={params.k}")
    if any(v not in (0, 1) for v in given):
        raise ValidationError(f"given: capacity-one occupancies are 0/1, got {given}")
    if sum(given) > params.n:
        raise ZeroProbabilityEventError(f"given: prefix places {sum(given)} > n = {params.n} balls")
    joint = joint_pmf(params)
    support, masses, rows = _given_block(*joint.cut_masses(m), given)
    sums, areas = joint.cut_classes(m)
    table_params = params.describe()
    table_params.update({"table": "conditional", "given": list(given), "m": m})
    return make_table(
        kind=f"{KIND}-conditional",
        params=table_params,
        coord_labels=tuple(f"x{j}" for j in range(r + 1, m + 1)),
        support=support,
        weights=masses,
        alg=params.alg,
        closed_values=class_values(
            zip(sums[rows], areas[rows]), lambda key: _conditional_closed_value(params, given, m, key)
        ),
    )


@dataclass(frozen=True)
class GroupingScheme:
    """Consecutive urn blocks of sizes m_1..m_r covering all k leading urns."""

    sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes or any(m < 1 for m in self.sizes):
            raise ValidationError(f"scheme: group sizes must be positive, got {self.sizes}")
        object.__setattr__(self, "sizes", tuple(self.sizes))

    def validate_for(self, k: int) -> None:
        if sum(self.sizes) != k:
            raise ValidationError(f"scheme: group sizes {self.sizes} must sum to k={k}")

    @property
    def partial_sums(self) -> Tuple[int, ...]:
        out = []
        s = 0
        for m in self.sizes:
            s += m
            out.append(s)
        return tuple(out)

    def project(self, x: SupportPoint) -> SupportPoint:
        out = []
        start = 0
        for m in self.sizes:
            out.append(sum(x[start : start + m]))
            start += m
        return tuple(out)


# Bounded like `joint_pmf`: a long-lived process keeps at most 32 block-mass
# tables.
@lru_cache(maxsize=32)
def block_masses(
    params: FirstKindParams, scheme: GroupingScheme
) -> Tuple[Tuple[SupportPoint, ...], Tuple[Scalar, ...]]:
    """Block-sum vectors of `scheme` in sorted order, and their joint masses."""
    joint = joint_pmf(params)
    return _accumulate(joint.support, joint.weights, scheme.project, joint.exact)


def _grouped_closed_weight(params: FirstKindParams, scheme: GroupingScheme, y: SupportPoint) -> Scalar:
    alg, k, n = params.alg, params.k, params.n
    s = scheme.partial_sums
    e1 = e2 = 0
    z = 0
    value = 1 if alg.exact else 1.0
    for j, (m_j, y_j) in enumerate(zip(scheme.sizes, y)):
        z += y_j
        e1 += (n - z - s[j]) * (m_j - y_j)
        e2 += (k - s[j] - n + z + 1) * y_j
        value *= deformed_binomial(alg, m_j, y_j)
    return tau_monomial(alg, e1, e2) * value


def _grouped_marginal_closed_weight(
    params: FirstKindParams, scheme: GroupingScheme, prefix: SupportPoint
) -> Scalar:
    # tau2 exponent re-derived from the within-group occupancy sums; the
    # grouped one-step statement of it fails the oracle already at
    # k=3, n=2, sizes=(1,2). The form below is the one enumeration confirms.
    alg, k, n = params.alg, params.k, params.n
    s = scheme.partial_sums
    nu = len(prefix)
    z_nu = sum(prefix)
    e1 = e2 = 0
    z = 0
    value = 1 if alg.exact else 1.0
    for j in range(nu):
        m_j, y_j = scheme.sizes[j], prefix[j]
        z += y_j
        e1 += (n - z - s[j]) * (m_j - y_j)
        e2 += (k - s[j] - n + z_nu + 1) * y_j + comb(y_j, 2)
        value *= deformed_binomial(alg, m_j, y_j)
    e2 -= comb(z_nu, 2)
    tail = binomial_or_zero(alg, k - s[nu - 1] + 1, n - z_nu)
    return tau_monomial(alg, e1, e2) * value * tail


def grouped_pmf(params: FirstKindParams, scheme: GroupingScheme) -> PmfTable:
    """Law of the block sums (Y_1..Y_r), as the pushforward of the joint.

    The closed form (per-block binomials with tau monomials) is attached as
    a cross-check; it matches the pushforward exactly when tau1 = 1.
    """
    scheme.validate_for(params.k)
    support, masses = block_masses(params, scheme)
    table_params = params.describe()
    table_params.update({"table": "grouped", "scheme": list(scheme.sizes)})
    return make_table(
        kind=f"{KIND}-grouped",
        params=table_params,
        coord_labels=tuple(f"y{j}" for j in range(1, len(scheme.sizes) + 1)),
        support=support,
        weights=masses,
        alg=params.alg,
        z_closed_form=deformed_binomial(params.alg, params.k + 1, params.n),
        fit_bound=(params.k + 1) * max(params.n, 1),
        closed_values=[_grouped_closed_weight(params, scheme, y) for y in support],
    )


def grouped_marginal_pmf(params: FirstKindParams, scheme: GroupingScheme, nu: int) -> PmfTable:
    """Law of the leading blocks (Y_1..Y_nu), 1 <= nu < r."""
    scheme.validate_for(params.k)
    if not 1 <= nu < len(scheme.sizes):
        raise ValidationError(f"nu: need 1 <= nu < {len(scheme.sizes)}, got {nu}")
    blocks, masses = block_masses(params, scheme)
    support, masses = _accumulate(blocks, masses, lambda y: y[:nu], params.alg.exact)
    table_params = params.describe()
    table_params.update({"table": "grouped-marginal", "scheme": list(scheme.sizes), "nu": nu})
    return make_table(
        kind=f"{KIND}-grouped-marginal",
        params=table_params,
        coord_labels=tuple(f"y{j}" for j in range(1, nu + 1)),
        support=support,
        weights=masses,
        alg=params.alg,
        z_closed_form=deformed_binomial(params.alg, params.k + 1, params.n),
        fit_bound=(params.k + 1) * max(params.n, 1),
        closed_values=[_grouped_marginal_closed_weight(params, scheme, p) for p in support],
    )


def grouped_conditional_pmf(
    params: FirstKindParams, scheme: GroupingScheme, given: Sequence[int]
) -> PmfTable:
    """Law of the trailing blocks given the leading block counts."""
    scheme.validate_for(params.k)
    given = tuple(given)
    nu = len(given)
    if not 1 <= nu < len(scheme.sizes):
        raise ValidationError(f"given: need 1 <= len(given) < {len(scheme.sizes)}, got {nu}")
    support, masses, _ = _given_block(*block_masses(params, scheme), given)
    prefix_weight = _grouped_marginal_closed_weight(params, scheme, given)
    closed = [
        _grouped_closed_weight(params, scheme, given + suffix) / prefix_weight
        for suffix in support
    ]
    table_params = params.describe()
    table_params.update(
        {"table": "grouped-conditional", "scheme": list(scheme.sizes), "given": list(given)}
    )
    return make_table(
        kind=f"{KIND}-grouped-conditional",
        params=table_params,
        coord_labels=tuple(f"y{j}" for j in range(nu + 1, len(scheme.sizes) + 1)),
        support=support,
        weights=masses,
        alg=params.alg,
        closed_values=closed,
    )


@dataclass(frozen=True)
class ConstructionReport:
    """Pointwise comparison of a conditional trials construction with the
    urn-model law of the inverse-parameter algebra."""

    construction: str
    theta: Scalar
    support: Tuple[SupportPoint, ...]
    construction_probs: Tuple[Scalar, ...]
    model_probs: Tuple[Scalar, ...]
    match: bool
    note: str = ""


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
    outcomes = enumerate_points(ConstraintSet(upper=(1,) * (k + 1), sum_min=n, sum_max=n))
    masses = []
    for x in outcomes:
        mass = 1 if alg.exact else 1.0
        for i, x_i in enumerate(x):
            mass *= theta**x_i * alg.tau2 ** (i * x_i) * alg.tau1 ** (i * (1 - x_i))
        masses.append(mass)
    total = sum(masses)
    support = tuple(x[:k] for x in outcomes)
    construction = tuple(m / total for m in masses)
    model = joint_pmf(FirstKindParams(inverse_algebra(alg), k, n))
    if model.support != support:
        return ConstructionReport(
            "bernoulli", theta, support, construction, model.probabilities, False,
            note="support mismatch",
        )
    match = all(alg.close(a, b) for a, b in zip(construction, model.probabilities))
    return ConstructionReport("bernoulli", theta, support, construction, model.probabilities, match)


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


def bivariate_table(params: FirstKindParams) -> PmfTable:
    """Oracle law of (X_1, X_2): the joint itself at k = 2, else the
    exact 2-prefix marginal."""
    if params.k < 2:
        raise ValidationError(f"k: bivariate table needs k >= 2, got {params.k}")
    if params.k == 2:
        return joint_pmf(params)
    return marginal_pmf(params, 2)


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
