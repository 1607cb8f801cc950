"""One occupancy-model core for both kinds of (p,q)-deformed occupancy law.

n indistinguishable balls land in k+1 distinguishable urns; the last urn
absorbs what the first k leave over.  The law of the first k occupancy
counts (X_1..X_k) has joint weights that depend on x only through its area
E(x) = sum_j (k - j + 1) x_j, normalized by their enumerated sum.  The
first kind (capacity one) and the second kind (unlimited capacity) run the
same construction: one support, one weight per area class, and derived
tables (marginals, conditionals, grouped laws) that carry the measure the
joint induces, with closed forms attached as cross-checks.  The joint is
normalized once, from its area-class counts (`joint_stream`), which
`tabulate` writes as `lattice.walk` lists its rows and `joint_pmf` lists
as a `PmfTable`.  Derived laws read the masses of prefix and block classes
(`classes.PrefixClasses`), never the joint table, and `make_table`
normalizes them once per class, in both modes as integers over the joint's
one denominator, with their closed values as unreduced integer pairs (a
float factor read as the rational it is) and a conditional's divisor
applied once; a decimal value is rounded once, at the end.  Each first
takes the joint's 10^7-point guard and checks, from its memoised class law,
so it refuses what it refused when it summed the joint; so does
`rpq sample`, whose draws descend the same classes and list no joint.
One memo, `_joint_law`, keeps the 32 most recent class laws, and each law
all that is its joint's: its stream, per class a mass and a step, its
suffix boxes' count rows, and, while they hold 2^14 points (`_kept`), the
tables it returned by call (`joint_pmf`'s too) and its schemes' walks
(`PrefixClasses.blocks`).  A table's closed pairs are built with it, from
its kind's terms.  An evicted law takes them along.
What the kinds differ in lives on their params classes (`OccupancyParams`),
which `rpq.first_kind` and `rpq.second_kind` define; they re-export these
functions.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple

from .algebra import AlgebraSpec, _closed_pair, coerce_scalar, inverse_algebra
from .errors import ModeMixError, ValidationError, ZeroProbabilityEventError
from .classes import PrefixClasses, area_counts
from .lattice import ConstraintSet, SupportPoint, area, check_dimension, count_points, enumerate_points, point_cells
from .pmf import PmfStream, PmfTable, make_stream, make_table
from .records import Record
from .scalars import Scalar, integer_ratios, over_lcm, ratio


class OccupancyParams(Record):
    """k+1 urns, n balls, under a given deformation.

    Each kind subclasses this with what it adds to the shared construction:

    - `check_n(k, n)` (a staticmethod), its check on n;
    - `kind`, its name, and `cap`, the bound of each coordinate (None: no
      bound below n), which also decides which `given` prefixes a
      conditional accepts;
    - `sum_window()`, the least and the greatest occupancy sum;
    - `area_weight(e)`, the joint weight of area class e;
    - `normalizer(alg, k, n)` (a staticmethod), the closed normalizer of
      k+1 urns and n balls, read again by the closed forms for the urns and
      balls a prefix leaves over, and `fit_bound()`, its discrepancy-fit
      bound;
    - closed weights, each as its terms: the exponents of tau1 and tau2
      and the factors `algebra._closed_pair` multiplies, exactly.  For the
      marginal, per r-prefix class key (y, E) (`marginal_terms(r, key)`);
      for the conditional, per class key (y_m, t, E(s)) of the suffix s
      that follows a prefix up to m, before the divisor
      `prefix_normalizer(given)` (`conditional_terms(m, key)`); and for the
      grouped law the factor of block j of m_j urns with count y_j, z the
      count of blocks 1..j and s_j their urns (`block_factor(m_j, y_j, z,
      s_j)`: exponents of tau1 and tau2, and a binomial), which
      `grouped_terms` collects.

    Equality sees the subclass, so equal fields of two kinds are two cache
    keys.  A k beyond the dimension guard (`lattice.check_dimension`) is
    refused here, after the checks on k and n, before any support is built.
    """

    _fields = ("alg", "k", "n")
    kind: ClassVar[str]
    cap: ClassVar[Optional[int]]

    def __init__(self, alg: AlgebraSpec, k: int, n: int) -> None:
        if k < 1:
            raise ValidationError(f"k: need k >= 1, got {k}")
        self.check_n(k, n)
        check_dimension(k)
        super().__init__(alg, k, n)

    @property
    def occupancy_bound(self) -> int:
        """The most balls one urn holds: the cap, or n when there is none."""
        return self.n if self.cap is None else self.cap

    def describe(self) -> dict:
        out = {"kind": self.kind, "k": self.k, "n": self.n}
        out.update(self.alg.describe())
        return out

    def prefix_normalizer(self, given: SupportPoint) -> Scalar:
        """The closed normalizer of the urns and balls the prefix `given`
        leaves over: the divisor of a conditional's closed values."""
        return self.normalizer(self.alg, self.k - len(given), self.n - sum(given))

    def grouped_terms(self, scheme: "GroupingScheme", y: SupportPoint) -> Tuple[int, int, Tuple[Scalar, ...]]:
        """The exponents of tau1 and tau2 and the factors of the closed
        weight of the leading block counts `y`: the binomial of each block,
        then the closed normalizer of the urns and balls the blocks leave
        over (for all the blocks, [1 over 0 or 1] or [n' over n'], the
        mode's 1)."""
        z, factors = 0, []
        for m_j, y_j, s_j in zip(scheme.sizes, y, scheme.partial_sums):
            z += y_j
            factors.append(self.block_factor(m_j, y_j, z, s_j))
        e1, e2, binomials = zip(*factors)
        return sum(e1), sum(e2), (*binomials, self.normalizer(self.alg, self.k - s_j, self.n - z))


def support_constraints(params: OccupancyParams) -> ConstraintSet:
    sum_min, sum_max = params.sum_window()
    return ConstraintSet(upper=(params.occupancy_bound,) * params.k, sum_min=sum_min, sum_max=sum_max)


def _labels(prefix: str, first: int, last: int) -> Tuple[str, ...]:
    return tuple(f"{prefix}{j}" for j in range(first, last + 1))


def _integers(name: str, values: Iterable) -> Tuple[int, ...]:
    """`values` as ints (`operator.index`: a bool is its int), else ValidationError naming `name`."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise ValidationError(f"{name}: {exc}") from None


def joint_weight(params: OccupancyParams, x: SupportPoint) -> Scalar:
    return params.area_weight(area(x))


def joint_stream(params: OccupancyParams) -> PmfStream:
    """The joint law of (X_1..X_k), one weight and one probability per area
    class, normalized from the class counts (`make_stream`) with the joint's
    checks and fit, as a stream: the support is counted (the points guard),
    not listed.  It is memoised with its class law (`_joint_law`)."""
    return _joint_law(params).law


# Bounded: a long-lived process keeps the class laws of at most 32 params,
# each with what its joint has made, tables and walks within 2^14 points.
@lru_cache(maxsize=32)
def _joint_law(params: OccupancyParams) -> PrefixClasses:
    """The joint law of `params` as a stream and the memos of its prefix
    classes, both read from its class weights as integers over their lcm:
    what every derived law and the sequential sampler read, after the
    joint's guard and checks."""
    constraints = support_constraints(params)
    count_points(constraints)
    counts = area_counts(constraints)
    weights = {e: params.area_weight(e) for e in counts}
    numerators, denominator = over_lcm(weights.values())
    z_closed = params.normalizer(params.alg, params.k, params.n)
    if not params.alg.exact:  # a decimal inf or nan has no exact ratio: OverflowError
        integer_ratios([z_closed])
    stream = make_stream(
        kind=params.kind,
        params=params.describe(),
        coord_labels=_labels("x", 1, params.k),
        constraints=constraints,
        counts=counts,
        weights=weights,
        alg=params.alg,
        numerators=numerators,
        denominator=denominator,
        z_closed_form=z_closed,
        fit_bound=params.fit_bound(),
    )
    return PrefixClasses(stream, numerators, denominator, params)


def _listed(params: OccupancyParams) -> PmfTable:
    """The table of `joint_stream(params)`: each point its `rows` list, which
    checks the listing against the counts, with its class's weight and
    probability objects."""
    law = _joint_law(params).law
    support, areas = [], []
    for points, chunk in law.rows(point_cells(law.constraints), ()):
        support += points
        areas += chunk
    weights, probabilities = (tuple(map(by_class.__getitem__, areas)) for by_class in (law.weights, law.probabilities))
    return PmfTable(law.kind, law.params, law.coord_labels, tuple(support), weights, law.z_enumerated, probabilities,
                    params.alg.exact, params.alg.tol, law.z_closed_form, law.z_discrepancy, None)


def joint_pmf(params: OccupancyParams) -> PmfTable:
    """The joint law of (X_1..X_k) as a table (`_listed`), kept on its class
    law (`_kept`): one of more than 2^14 points is listed by every call."""
    return _kept(params, _listed)


# The class laws': clearing them frees the tables kept on them.
joint_pmf.cache_info, joint_pmf.cache_clear = _joint_law.cache_info, _joint_law.cache_clear


def _derived_table(
    params: OccupancyParams, law: PrefixClasses, table: str, coords: Tuple[str, int, int],
    support: Sequence[SupportPoint], masses: Sequence[int], index: Iterable[int], closed: Iterable[tuple],
    closed_divisor: Optional[Scalar] = None, **extra,
) -> PmfTable:
    """A law derived from the joint of `params`: kind "<kind>-<table>",
    params with `table` and `extra`, coordinates labelled `coords` (prefix,
    first index, last index), a mass over the one denominator of the
    joint's class law `law` and a closed value per class (over
    `closed_divisor`), `index` the class of each point.  Closed values are
    unreduced pairs (`algebra._closed_pair`).  Summed joint masses keep the
    joint's normalizer, so every table but a conditional carries its closed
    form and fit (the stream's)."""
    conditional = table.endswith("conditional")
    described = params.describe()
    described.update(table=table, **extra)
    return make_table(
        kind=f"{params.kind}-{table}",
        params=described,
        coord_labels=_labels(*coords),
        support=support,
        weights=[ratio(mass, law.denominator, params.alg.exact) for mass in masses],
        index=index,
        alg=params.alg,
        **({} if conditional else {"z_closed_form": law.law.z_closed_form, "z_discrepancy": law.law.z_discrepancy}),
        closed_values=closed,
        numerators=masses,
        denominator=law.denominator,
        closed_divisor=closed_divisor,
    )


def _kept(params: OccupancyParams, build: Callable, *args):
    """`build(params, *args)` after the joint's guard, kept on the joint's
    class law by (build, *args) (`PrefixClasses.tables`): a repeated call
    returns the table or walk it returned before; a call that raises keeps
    none of its own."""
    return _joint_law(params).tables((build, *args))


def marginal_pmf(params: OccupancyParams, r: int) -> PmfTable:
    """Law of the prefix (X_1..X_r), 1 <= r < k, by exact summation.

    Weights are the masses of the prefixes' classes (sum, E), so the
    enumerated normalizer coincides with the joint one.  The kind's closed
    marginal weights, one per class, ride along as a cross-check.
    """
    (r,) = _integers("r", (r,))
    if not 1 <= r < params.k:
        raise ValidationError(f"r: marginal needs 1 <= r < k, got r={r}, k={params.k}")
    return _kept(params, _marginal, r)


def _marginal(params: OccupancyParams, r: int) -> PmfTable:
    law = _joint_law(params)
    support, keys, index, masses = law.prefixes((), r)
    closed = [_closed_pair(params.alg, *params.marginal_terms(r, key)) for key in keys]
    return _derived_table(params, law, "marginal", ("x", 1, r), support, masses, index, closed, r=r)


def conditional_pmf(params: OccupancyParams, given: Sequence[int], m: int) -> PmfTable:
    """Law of (X_{r+1}..X_m) given (X_1..X_r) = `given`, via the chain rule.

    Weights are the masses of the m-prefixes that extend `given`, the
    normalizer is the mass of the conditioning event; a zero-probability
    event is an error, not an empty table.  A closed value reads the key
    (y_m, t, E(s)) of each class of suffixes s (y_m the sum of the
    m-prefix, t of s), and `make_table` divides them by their common
    divisor (`prefix_normalizer`).
    """
    given, (m,) = _integers("given", given), _integers("m", (m,))
    r = len(given)
    if not 1 <= r < m <= params.k:
        raise ValidationError(f"conditional needs 1 <= r < m <= k, got r={r}, m={m}, k={params.k}")
    if params.cap == 1 and not 0 <= min(given) <= max(given) <= 1:
        raise ValidationError(f"given: capacity-one occupancies are 0/1, got {given}")
    if min(given) < 0:
        raise ValidationError(f"given: occupancies are nonnegative, got {given}")
    if sum(given) > params.n:
        raise ZeroProbabilityEventError(f"given: prefix places {sum(given)} > n = {params.n} balls")
    return _kept(params, _conditional, given, m)


def _conditional(params: OccupancyParams, given: SupportPoint, m: int) -> PmfTable:
    law = _joint_law(params)
    support, keys, index, masses = law.prefixes(given, m)
    if not support:
        raise ZeroProbabilityEventError(f"conditioning event {given} has probability zero")
    y = sum(given)
    closed = [_closed_pair(params.alg, *params.conditional_terms(m, (y + t, t, e))) for t, e in keys]
    return _derived_table(params, law, "conditional", ("x", len(given) + 1, m), support, masses, index, closed,
                          params.prefix_normalizer(given), given=list(given), m=m)


class GroupingScheme(Record):
    """Consecutive urn blocks of sizes m_1..m_r covering all k leading urns."""

    _fields = ("sizes",)

    def __init__(self, sizes: Tuple[int, ...]) -> None:
        sizes = _integers("scheme", sizes)
        if not sizes or any(m < 1 for m in sizes):
            raise ValidationError(f"scheme: group sizes must be positive, got {sizes}")
        super().__init__(sizes)

    def validate_for(self, k: int) -> None:
        if sum(self.sizes) != k:
            raise ValidationError(f"scheme: group sizes {self.sizes} must sum to k={k}")

    @property
    def partial_sums(self) -> Tuple[int, ...]:
        return tuple(accumulate(self.sizes))


def _walk(params: OccupancyParams, sizes: Tuple[int, ...]) -> List[Dict[SupportPoint, int]]:
    """The masses of the leading block sums y[:d] of the scheme `sizes`, by
    depth d (`PrefixClasses.blocks`), kept as tables are (`_kept`)."""
    return _joint_law(params).blocks(sizes)


def _block_closed(params: OccupancyParams, sizes: Tuple[int, ...], ys: Iterable[SupportPoint]) -> list:
    """The closed pair of each of the leading block counts `ys` (`grouped_terms`)."""
    scheme = GroupingScheme(sizes)
    return [_closed_pair(params.alg, *params.grouped_terms(scheme, y)) for y in ys]


def grouped_pmf(params: OccupancyParams, scheme: GroupingScheme) -> PmfTable:
    """Law of the block sums (Y_1..Y_r), as the pushforward of the joint.

    The kind's closed form (per-block binomials with tau monomials) is
    attached as a cross-check.
    """
    scheme.validate_for(params.k)
    return _kept(params, _grouped, scheme.sizes, len(scheme.sizes))


def grouped_marginal_pmf(params: OccupancyParams, scheme: GroupingScheme, nu: int) -> PmfTable:
    """Law of the leading blocks (Y_1..Y_nu), 1 <= nu < r."""
    scheme.validate_for(params.k)
    (nu,) = _integers("nu", (nu,))
    if not 1 <= nu < len(scheme.sizes):
        raise ValidationError(f"nu: need 1 <= nu < {len(scheme.sizes)}, got {nu}")
    return _kept(params, _grouped, scheme.sizes, nu)


def _grouped(params: OccupancyParams, sizes: Tuple[int, ...], nu: int) -> PmfTable:
    """The law of the leading nu blocks of `sizes`: the grouped law at nu = r."""
    level = _kept(params, _walk, sizes)[nu - 1]
    support, extra = tuple(level), {} if nu == len(sizes) else {"nu": nu}
    return _derived_table(params, _joint_law(params), "grouped-marginal" if extra else "grouped", ("y", 1, nu),
                          support, list(level.values()), range(len(support)), _block_closed(params, sizes, support),
                          scheme=list(sizes), **extra)


def grouped_conditional_pmf(
    params: OccupancyParams, scheme: GroupingScheme, given: Sequence[int]
) -> PmfTable:
    """Law of the trailing blocks given the leading block counts: the
    closed values of the whole block counts, over that of `given`."""
    scheme.validate_for(params.k)
    given = _integers("given", given)
    nu = len(given)
    if not 1 <= nu < len(scheme.sizes):
        raise ValidationError(f"given: need 1 <= len(given) < {len(scheme.sizes)}, got {nu}")
    return _kept(params, _grouped_conditional, scheme.sizes, given)


def _grouped_conditional(params: OccupancyParams, sizes: Tuple[int, ...], given: SupportPoint) -> PmfTable:
    nu = len(given)
    walk = _kept(params, _walk, sizes)
    if given not in walk[nu - 1]:
        raise ZeroProbabilityEventError(f"conditioning event {given} has probability zero")
    ys, masses = zip(*((y, mass) for y, mass in walk[-1].items() if y[:nu] == given))
    *closed, divisor = _block_closed(params, sizes, (*ys, given))
    return _derived_table(params, _joint_law(params), "grouped-conditional", ("y", nu + 1, len(sizes)),
                          [y[nu:] for y in ys], masses, range(len(ys)), closed, divisor,
                          scheme=list(sizes), given=list(given))


def bivariate_table(params: OccupancyParams) -> PmfTable:
    """Oracle law of (X_1, X_2): the joint itself at k = 2 (listed from
    its class law, not read from `joint_pmf`), else the exact 2-prefix
    marginal."""
    if params.k < 2:
        raise ValidationError(f"k: bivariate table needs k >= 2, got {params.k}")
    if params.k == 2:
        return _listed(params)
    return marginal_pmf(params, 2)


class ConstructionReport(Record):
    """Pointwise comparison of a conditional trials construction with the
    urn-model law of the inverse-parameter algebra."""

    _fields = ("construction", "theta", "support", "construction_probs", "model_probs", "match", "note")
    _defaults = {"note": ""}


def coerce_theta(theta, alg: AlgebraSpec) -> Scalar:
    """Validate a trial parameter theta in (0, 1) in the algebra's mode
    (`algebra.coerce_scalar`)."""
    try:
        theta = coerce_scalar(theta, not alg.exact)
    except (ValidationError, ModeMixError) as exc:
        raise type(exc)(f"theta: {exc}") from None
    if not 0 < theta < 1:
        raise ValidationError(f"theta: need 0 < theta < 1, got {theta}")
    return theta


def construction_report(name: str, params: OccupancyParams, theta: Scalar, mass) -> ConstructionReport:
    """Condition k+1 independent trial counts, of joint mass `mass(x)`, on
    n in total, and compare the law of the first k pointwise with the joint
    law of `params` under the inverse-parameter algebra."""
    alg, k, n = params.alg, params.k, params.n
    upper = (params.occupancy_bound,) * (k + 1)
    outcomes = enumerate_points(ConstraintSet(upper=upper, sum_min=n, sum_max=n))
    masses, _ = over_lcm(mass(x) for x in outcomes)
    total = sum(masses)
    support = tuple(x[:k] for x in outcomes)
    construction = tuple(ratio(m, total, alg.exact) for m in masses)
    model = joint_pmf(params.replace(alg=inverse_algebra(alg)))
    if model.support != support:
        return ConstructionReport(
            name, theta, support, construction, model.probabilities, False, note="support mismatch",
        )
    match = all(alg.close(a, b) for a, b in zip(construction, model.probabilities))
    return ConstructionReport(name, theta, support, construction, model.probabilities, match)
