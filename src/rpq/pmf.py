"""Probability tables over enumerated supports, and moment reports.

A table's probabilities are always weight / (enumerated sum of weights);
closed-form normalizers and closed-form probability values ride along as
cross-check records, never as the source of truth.  A `PmfStream` is the
same law listed by `lattice.walk` rather than held: one weight and one
probability per area class, normalized from the class counts in exact
mode and from passes over the areas in support order in approximate mode.
It is the one normalization of a joint law, which `occupancy` memoises as
the class law that derived laws and sequential draws read; `joint_pmf`
lists it as a table.  A table keeps one memo, its inverse-CDF thresholds.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, chain
from math import lcm
from operator import add, lt, mul
from typing import Callable, ClassVar, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .algebra import AlgebraSpec, MonomialFit, fit_monomial
from .errors import ModeMixError, UnderflowError, ValidationError
from .lattice import ConstraintSet, SupportPoint, area, point_cells, walk
from .scalars import Scalar, scalars_close

# A sampler variate is a CDF_BITS-bit mantissa over 2^CDF_BITS (see
# `sampler`), so CDF thresholds are kept on that integer scale.
CDF_BITS = 53
CDF_SCALE = 1 << CDF_BITS


def _over_lcm(values: Iterable[Scalar]) -> Tuple[List[int], int]:
    """Each of `values` (ints or Fractions) as a numerator over the lcm of
    their denominators, and that lcm."""
    values = list(values)
    denominators = [v.denominator for v in values]
    denominator = lcm(*denominators)
    return [v.numerator * (denominator // d) for v, d in zip(values, denominators)], denominator


def _class_quotients(
    values: Sequence[Scalar], counts: Sequence[int], z: Optional[Scalar], nonpositive: str
) -> Tuple[Scalar, List[Scalar], Optional[int]]:
    """The normalizer of classes of value `values[i]` and multiplicity
    `counts[i]`, value / normalizer per class, and the integer sum S below
    (None in approximate mode).

    Exact mode (z None): the values are brought to the lcm of their
    denominators as integers s_i; with S the sum of count times s_i, the
    normalizer is Fraction(S, lcm) and each quotient Fraction(s_i, S): the
    same rationals as a point-by-point sum and division.  Approximate mode
    passes z, the values of every point added left to right in support
    order, as a point-by-point sum rounds.  A normalizer that is not
    positive raises ValidationError(f"{nonpositive} {z}").
    """
    total = None
    if z is None:
        scaled, denominator = _over_lcm(values)
        total = sum(map(mul, counts, scaled))
        z = Fraction(total, denominator)
    if z <= 0:
        raise ValidationError(f"{nonpositive} {z}")
    if total is not None:
        return z, [Fraction(s, total) for s in scaled], total
    return z, [v / z for v in values], None


def _normalized(
    values: Sequence[Scalar], exact: bool, nonpositive: str
) -> Tuple[Scalar, Dict[int, Scalar], Counter, Optional[int]]:
    """`_class_quotients` of `values` (at least one), one class per
    distinct value object: the normalizer, value / normalizer per object
    keyed by its id, each object's multiplicity, both in first-seen order,
    and S.  Points of one class share one value object, so each quotient is
    computed once per class."""
    counts = Counter(map(id, values))
    objects = dict(zip(map(id, values), values))
    z, quotients, total = _class_quotients(
        list(objects.values()), list(counts.values()), None if exact else reduce(add, values), nonpositive
    )
    return z, dict(zip(objects, quotients)), counts, total


def _check_exact_probabilities(kind: str, probabilities: Iterable[Fraction], counts: Iterable[int],
                               total: int) -> None:
    """Refuse a negative class probability, or classes whose probabilities
    (times their counts) do not sum to 1.  Each probability a/b is some
    s / S in lowest terms, so b divides S and the sum is 1 exactly when the
    integers count * a * (S // b) add up to S; the Fraction of the sum is
    built only for the message."""
    scaled = 0
    for prob, count in zip(probabilities, counts):
        if prob.numerator < 0:
            raise ValidationError(f"{kind} table: negative probability {prob}")
        scaled += count * prob.numerator * (total // prob.denominator)
    if scaled != total:
        raise ValidationError(f"{kind} table: probabilities sum to {Fraction(scaled, total)}, not 1")


def _check_approximate_sum(kind: str, total: float, tol: float) -> None:
    """Refuse float probabilities whose sum in support order is not 1
    within `tol`."""
    if not scalars_close(total, 1, False, tol):
        raise ValidationError(f"{kind} table: probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class ClosedFormCheck:
    """Closed-form distribution (normalized) compared point-by-point."""

    probabilities: Tuple[Scalar, ...]
    pointwise_equal: bool


@dataclass(frozen=True)
class PmfTable:
    """A normalized law over a strictly increasing (lexicographic) support.
    Its inverse-CDF thresholds (`cdf`) are kept once read; they are no
    field, so equality, repr and `replace()` do not see them."""

    kind: str
    params: Mapping[str, object]
    coord_labels: Tuple[str, ...]
    support: Tuple[SupportPoint, ...]
    weights: Tuple[Scalar, ...]
    z_enumerated: Scalar
    probabilities: Tuple[Scalar, ...]
    exact: bool
    tol: float
    z_closed_form: Optional[Scalar] = None
    z_discrepancy: Optional[MonomialFit] = None
    closed_form_check: Optional[ClosedFormCheck] = None

    def probability(self, point: SupportPoint) -> Scalar:
        i = bisect_left(self.support, point)
        if i < len(self.support) and self.support[i] == point:
            return self.probabilities[i]
        return Fraction(0) if self.exact else 0.0

    def as_mapping(self) -> dict:
        return dict(zip(self.support, self.probabilities))

    @cached_property
    def cdf(self) -> List[Scalar]:
        """The inverse-CDF thresholds of the support: `cdf_thresholds` of
        the weights over the normalizer."""
        return cdf_thresholds(self.weights, self.z_enumerated, self.exact)


def cdf_thresholds(masses: Sequence[Scalar], mass: Optional[Scalar], exact: bool) -> List[Scalar]:
    """The cumulative masses / `mass` (their total) of `masses` but the
    last, times 2^53: a variate u takes the index bisect_right(thresholds,
    u), so one past a float CDF that ends below 1 takes the last.  Exact
    mode brings the masses to integers over a common denominator and rounds
    each threshold up to an int; approximate mode adds the quotients
    m / mass left to right."""
    if exact:
        scaled, _ = _over_lcm(masses)
        total = sum(scaled)
        return [-(-(c << CDF_BITS) // total) for c in accumulate(scaled[:-1])]
    return [f * CDF_SCALE for f in accumulate(m / mass for m in masses[:-1])]


def _refuse_approximate(kind: str, prob: float, point: SupportPoint) -> None:
    """Refuse a float probability that is not positive, of the first point
    of its class.  Every support point of an rpq law has positive exact
    mass, so a weight or probability that is 0.0 (its probability then is
    too) has underflowed."""
    if prob < 0:
        raise ValidationError(f"{kind} table: negative probability {prob}")
    raise UnderflowError(f"{kind} table: the probability of {point} is 0.0")


@lru_cache(maxsize=64, typed=True)
def _normalizer_fit(alg: AlgebraSpec, z: Scalar, z_closed_form: Scalar, bound: int) -> MonomialFit:
    """`fit_monomial` of a table normalizer, memoised: an exact joint's
    marginal and grouped tables share its normalizer and closed form, so
    they take its fit.  Typed, because an exact and a decimal algebra with
    the same dyadic parameters compare equal."""
    return fit_monomial(alg, z, z_closed_form, bound)


def make_table(
    *,
    kind: str,
    params: Mapping[str, object],
    coord_labels: Sequence[str],
    support: Sequence[SupportPoint],
    weights: Sequence[Scalar],
    alg: AlgebraSpec,
    z_closed_form: Optional[Scalar] = None,
    fit_bound: int = 0,
    closed_values: Optional[Sequence[Scalar]] = None,
) -> PmfTable:
    """Normalize weights into a table and attach the cross-check records."""
    support = tuple(support)
    weights = tuple(weights)
    if not support:
        raise ValidationError(f"{kind} table: empty support")
    if len(support) != len(weights):
        raise ValidationError(f"{kind} table: {len(support)} points vs {len(weights)} weights")
    if not all(map(lt, support, support[1:])):
        raise ValidationError(f"{kind} table: support is not strictly increasing")
    z, quotient, counts, total = _normalized(weights, alg.exact, f"{kind} table: nonpositive normalizer")
    if alg.exact:
        _check_exact_probabilities(kind, quotient.values(), counts.values(), total)
    else:
        for i, prob in quotient.items():
            if prob <= 0:
                _refuse_approximate(kind, prob, next(x for x, w in zip(support, weights) if id(w) == i))
    probabilities = tuple(map(quotient.__getitem__, map(id, weights)))
    if not alg.exact:
        _check_approximate_sum(kind, reduce(add, probabilities), alg.tol)
    z_fit = None if z_closed_form is None else _normalizer_fit(alg, z, z_closed_form, fit_bound)

    check = None
    if closed_values is not None:
        closed_values = tuple(closed_values)
        if len(closed_values) != len(support):
            raise ValidationError(f"{kind} table: closed-form values mismatch support size")
        # As for the weights: one quotient per distinct closed-value object,
        # and one comparison per distinct (closed, probability) pair.
        _, closed_quotient, _, _ = _normalized(
            closed_values, alg.exact, f"{kind} table: closed form sums to"
        )
        closed_probs = tuple(map(closed_quotient.__getitem__, map(id, closed_values)))
        pairs = dict(zip(
            zip(map(id, closed_probs), map(id, probabilities)), zip(closed_probs, probabilities)
        ))
        equal = all(scalars_close(a, b, alg.exact, alg.tol) for a, b in pairs.values())
        check = ClosedFormCheck(closed_probs, equal)

    return PmfTable(
        kind=kind,
        params=dict(params),
        coord_labels=tuple(coord_labels),
        support=support,
        weights=weights,
        z_enumerated=z,
        probabilities=probabilities,
        exact=alg.exact,
        tol=alg.tol,
        z_closed_form=z_closed_form,
        z_discrepancy=z_fit,
        closed_form_check=check,
    )


@dataclass(frozen=True)
class PmfStream:
    """A normalized law over the points of `constraints`, listed in order by
    `rows` and never held.  A point's weight and probability are those of
    its area class: `weights` and `probabilities` map each area to one
    object, and `counts` to its number of points.  The other fields are
    those of a `PmfTable` of the same law (`make_stream`)."""

    kind: str
    params: Mapping[str, object]
    coord_labels: Tuple[str, ...]
    constraints: ConstraintSet
    counts: Mapping[int, int]
    weights: Mapping[int, Scalar]
    z_enumerated: Scalar
    probabilities: Mapping[int, Scalar]
    z_closed_form: Optional[Scalar] = None
    z_discrepancy: Optional[MonomialFit] = None
    # A joint carries no closed-form probabilities.
    closed_form_check: ClassVar[None] = None

    def probability(self, point: SupportPoint) -> Scalar:
        """The probability of `point`, 0 off the support."""
        box = self.constraints
        if len(point) == box.dim and box.sum_min <= sum(point) <= box.sum_max and all(
                0 <= v <= up for v, up in zip(point, box.upper)):
            return self.probabilities[area(point)]
        return 0 * self.z_enumerated

    def rows(self, cells: Sequence[Sequence], start) -> Iterator[Tuple[List, List[int]]]:
        """The chunks (prefixes, areas) of `lattice.walk`, counting the
        points of each class; after the last chunk the counts must equal
        `counts`, or the listing raises AssertionError."""
        listed: Counter = Counter()
        for prefixes, areas in walk(self.constraints, cells, start):
            listed.update(areas)
            yield prefixes, areas
        if listed != Counter(self.counts):
            raise AssertionError(f"{self.kind} stream self-check failed: {sorted(listed.items())} "
                                 f"points listed per area class, {sorted(self.counts.items())} counted")


def make_stream(
    *,
    kind: str,
    params: Mapping[str, object],
    coord_labels: Sequence[str],
    constraints: ConstraintSet,
    counts: Mapping[int, int],
    weights: Mapping[int, Scalar],
    alg: AlgebraSpec,
    z_closed_form: Optional[Scalar] = None,
    fit_bound: int = 0,
) -> PmfStream:
    """Normalize the area-class weights of the points of `constraints`
    (`counts` of them per class) with the checks of `make_table`, in its
    order and with its messages, and attach the normalizer's fit.

    Exact mode reads the counts.  Approximate mode keeps the float sums of
    `make_table`: z and the sum of the probabilities are taken in support
    order, each by one pass over the areas of `lattice.walk`; a probability
    that is not positive is refused at the first point of its class.
    """
    if not counts:
        raise ValidationError(f"{kind} table: empty support")
    classes = list(weights)
    values, sizes = [weights[e] for e in classes], [counts[e] for e in classes]

    nonpositive = f"{kind} table: nonpositive normalizer"
    if alg.exact:
        z, quotients, total = _class_quotients(values, sizes, None, nonpositive)
        _check_exact_probabilities(kind, quotients, sizes, total)
    else:
        z_sum = reduce(add, map(weights.__getitem__, chain.from_iterable(a for _, a in walk(constraints))))
        z, quotients, _ = _class_quotients(values, sizes, z_sum, nonpositive)
    probabilities = dict(zip(classes, quotients))
    if not alg.exact:
        refused = {e for e, prob in probabilities.items() if prob <= 0}
        if refused:
            point, e = next((x, e) for points, areas in walk(constraints, point_cells(constraints))
                            for x, e in zip(points, areas) if e in refused)
            _refuse_approximate(kind, probabilities[e], point)
        areas = chain.from_iterable(a for _, a in walk(constraints))
        _check_approximate_sum(kind, reduce(add, map(probabilities.__getitem__, areas)), alg.tol)
    return PmfStream(
        kind=kind,
        params=dict(params),
        coord_labels=tuple(coord_labels),
        constraints=constraints,
        counts=dict(counts),
        weights=dict(weights),
        z_enumerated=z,
        probabilities=probabilities,
        z_closed_form=z_closed_form,
        z_discrepancy=None if z_closed_form is None else _normalizer_fit(alg, z, z_closed_form, fit_bound),
    )


def oracle_expectation(table: PmfTable, functional: Callable[[SupportPoint], Scalar]) -> Scalar:
    """Exact expectation of an arbitrary functional over a table."""
    total: Scalar = 0
    for point, prob in zip(table.support, table.probabilities):
        value = functional(point)
        if table.exact and isinstance(value, float):
            raise ModeMixError("float functional value on an exact table")
        if not table.exact and isinstance(value, Fraction):
            raise ModeMixError("Fraction functional value on an approximate table")
        total += value * prob
    return total


@dataclass(frozen=True)
class MomentReport:
    """One closed-form-vs-oracle comparison for a named moment."""

    quantity: str
    oracle_value: Scalar
    closed_form: Optional[Scalar]
    match: Optional[bool]
    note: str = ""


def compare_moment(
    quantity: str,
    oracle_value: Scalar,
    closed_form: Optional[Scalar],
    alg: AlgebraSpec,
    note: str = "",
) -> MomentReport:
    match = None if closed_form is None else alg.close(oracle_value, closed_form)
    return MomentReport(quantity, oracle_value, closed_form, match, note)
