"""Probability tables over enumerated supports, and moment reports.

A table's probabilities are always weight / (enumerated sum of weights);
closed-form normalizers and closed-form probability values ride along as
cross-check records, never as the source of truth.  `make_table`
normalizes them once per class of points, in both modes from integers over
one denominator (the joint's, for a derived law; a float is the dyadic
rational it is): the sums are exact, and the mode decides only how a
public value is built, a Fraction reduced once per class for each column
it holds, or a float rounded once (a decimal normalizer is the correctly
rounded exact sum of its float terms, a decimal probability the correctly
rounded quotient of its class weight by that sum, whatever their order).
A `PmfStream` is the same law listed by `lattice.walk` rather than held:
one weight and one probability per area class, normalized from the class
counts.  It is the one normalization of a joint law, with its fit, which
`occupancy` memoises as the class law that derived laws and sequential
draws read; `joint_pmf` lists it as a table.  A table keeps two memos, its
inverse-CDF thresholds and their bucket guide; this module keeps none.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import ulp
from operator import is_, lt, mul, truediv
from typing import Callable, ClassVar, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .algebra import AlgebraSpec, MonomialFit, fit_monomial
from .errors import ModeMixError, UnderflowError, ValidationError
from .lattice import ConstraintSet, SupportPoint, area, point_cells, walk
from .records import Record
from .scalars import Scalar, integer_ratios, over_lcm, ratio, scalars_close

# A sampler variate is a CDF_BITS-bit mantissa over 2^CDF_BITS (see
# `sampler`), so CDF thresholds are kept on that integer scale.
CDF_BITS = 53


def _class_quotients(
    scaled: Sequence[int], denominator: int, counts: Sequence[int], exact: bool, nonpositive: str,
    like: Optional[tuple] = None, divisor: Optional[Scalar] = None,
) -> Tuple[Tuple[int, int], List[Scalar], int]:
    """The normalizer of classes of value `scaled[i]` / `denominator` and
    multiplicity `counts[i]`, as a (numerator, denominator) pair of ints,
    value / normalizer per class, and S, the sum of count times scaled[i]:
    S / denominator (over `divisor`, a factor common to every value, when
    given) and s_i / S, exact whatever the order of the values.  Exact mode
    builds Fractions, one reduction per class; approximate mode divides the
    ints, which rounds each result once (correctly, half to even).  `like`,
    the integers (t_i, T) and the quotients of another normalization of the
    same classes in the same mode, lends its quotient object to each class
    whose quotient equals it (s_i T == t_i S), which then builds none.  A
    normalizer that is not positive, its sign read from the integers,
    raises ValidationError(f"{nonpositive} {z}"), or UnderflowError for a
    decimal sum that is not negative: the weights of a support are
    positive, so theirs underflowed.  The normalizer is built as a scalar
    only by a caller that reads it (`_normalize_classes`)."""
    total = numerator = sum(map(mul, counts, scaled))
    if divisor is not None:
        (over,), under = over_lcm([divisor])
        numerator, denominator = total * under, denominator * over
    if numerator * denominator <= 0:
        raise (UnderflowError if not exact and numerator >= 0 else ValidationError)(
            f"{nonpositive} {ratio(numerator, denominator, exact)}")
    quotient = Fraction if exact else truediv
    if like is None:
        return (numerator, denominator), [quotient(s, total) for s in scaled], total
    others, other_total, quotients = like
    return (numerator, denominator), [q if s * other_total == t * total else quotient(s, total)
                                      for s, t, q in zip(scaled, others, quotients)], total


def _check_exact_probabilities(kind: str, probabilities: Iterable[Fraction], counts: Iterable[int],
                               total: int) -> None:
    """Refuse a negative class probability, or classes whose probabilities
    (times their counts) do not sum to 1.  Each probability a/b is some
    s / S in lowest terms, so b divides S and the sum is 1 exactly when the
    integers count * a * (S // b) add up to S; the Fraction of the sum is
    built only for the message."""
    scaled = 0
    for prob, count in zip(probabilities, counts):
        numerator = prob.numerator
        if numerator < 0:
            raise ValidationError(f"{kind} table: negative probability {prob}")
        scaled += count * numerator * (total // prob.denominator)
    if scaled != total:
        raise ValidationError(f"{kind} table: probabilities sum to {Fraction(scaled, total)}, not 1")


def _check_decimal_probabilities(kind: str, probabilities: Sequence[float], counts: Sequence[int], tol) -> None:
    """Refuse classes whose probabilities (times their counts) do not sum
    to 1 within the rounding they were promised and `tol` besides: each is
    its class's exact quotient rounded once, within half its ulp.  The sum
    and the bound are exact."""
    numerators, common = over_lcm(probabilities)
    scaled = sum(map(mul, counts, numerators))
    halves, unit = over_lcm(map(ulp, probabilities))
    if Fraction(abs(scaled - common), common) > Fraction(sum(map(mul, counts, halves)), 2 * unit) + Fraction(tol):
        raise ValidationError(f"{kind} table: probabilities sum to {scaled / common}, not 1")


def _normalize_classes(kind: str, scaled: Sequence[int], denominator: int, sizes: Sequence[int], alg: AlgebraSpec,
                       first_point: Callable[[set], Tuple[SupportPoint, int]]) -> Tuple[Scalar, List[Scalar], int]:
    """`_class_quotients` of classes of weight `scaled[i]` / `denominator`
    and `sizes[i]` points, with a table's checks and its normalizer z built
    once: a decimal z of 0.0 raises UnderflowError.  Approximate mode
    refuses a probability that is not positive at the first point of its
    class, (point, class) = `first_point(refused classes)` (every support
    point has positive exact mass, so a 0.0 has underflowed), and
    probabilities whose exact sum is not 1 within their rounding and
    `tol`."""
    nonpositive = f"{kind} table: nonpositive normalizer"
    normalizer, quotients, total = _class_quotients(scaled, denominator, sizes, alg.exact, nonpositive)
    z = ratio(*normalizer, alg.exact)
    if z == 0:  # a decimal 0.0 of a positive sum
        raise UnderflowError(f"{nonpositive} {z}")
    if alg.exact:
        _check_exact_probabilities(kind, quotients, sizes, total)
        return z, quotients, total
    refused = {c for c, prob in enumerate(quotients) if prob <= 0}
    if refused:
        point, c = first_point(refused)
        if quotients[c] < 0:
            raise ValidationError(f"{kind} table: negative probability {quotients[c]}")
        raise UnderflowError(f"{kind} table: the probability of {point} is 0.0")
    _check_decimal_probabilities(kind, quotients, sizes, alg.tol)
    return z, quotients, total


class ClosedFormCheck(Record):
    """Closed-form distribution (normalized) compared point-by-point."""

    _fields = ("probabilities", "pointwise_equal")


class PmfTable(Record):
    """A normalized law over a strictly increasing (lexicographic) support.
    Its inverse-CDF thresholds (`cdf`) and their bucket guide (`guide`),
    which `sampler.sample` reads, are kept once read; they are no field, so
    equality, repr and `replace()` do not see them."""

    _fields = ("kind", "params", "coord_labels", "support", "weights", "z_enumerated", "probabilities", "exact",
               "tol", "z_closed_form", "z_discrepancy", "closed_form_check")
    _defaults = {"z_closed_form": None, "z_discrepancy": None, "closed_form_check": None}

    def probability(self, point: SupportPoint) -> Scalar:
        i = bisect_left(self.support, point)
        if i < len(self.support) and self.support[i] == point:
            return self.probabilities[i]
        return Fraction(0) if self.exact else 0.0

    def as_mapping(self) -> dict:
        return dict(zip(self.support, self.probabilities))

    @cached_property
    def cdf(self) -> List[int]:
        """The inverse-CDF thresholds of the support: `cdf_thresholds` of
        the weights over the lcm of their denominators, in both modes (a
        float weight is the dyadic rational it is), read once per weight
        object: the points of a class share theirs."""
        distinct = list({id(w): w for w in self.weights}.values())
        scaled = dict(zip(map(id, distinct), over_lcm(distinct)[0]))
        return cdf_thresholds([scaled[id(w)] for w in self.weights])

    @cached_property
    def guide(self) -> Tuple[int, List[int]]:
        """The bucket guide of `cdf` (`sampler.bucket_guide`): a variate's
        bucket gives its support index, unless a threshold splits it."""
        from .sampler import bucket_guide
        return bucket_guide(self.cdf)


def cdf_thresholds(masses: Sequence[int]) -> List[int]:
    """The cumulative masses of `masses` (integer numerators over one
    denominator) but the last, over their total, times 2^53 and rounded up
    to an int: a variate u takes the index bisect_right(thresholds, u), so
    no boundary is misassigned and no zero mass is drawn."""
    total = sum(masses)
    return [-(-(c << CDF_BITS) // total) for c in accumulate(masses[:-1])]


def make_table(
    *,
    kind: str,
    params: Mapping[str, object],
    coord_labels: Sequence[str],
    support: Sequence[SupportPoint],
    weights: Sequence[Scalar],
    index: Iterable[int],
    alg: AlgebraSpec,
    z_closed_form: Optional[Scalar] = None,
    fit_bound: int = 0,
    z_discrepancy: Optional[MonomialFit] = None,
    closed_values: Optional[Sequence] = None,
    numerators: Optional[Sequence[int]] = None,
    denominator: Optional[int] = None,
    closed_divisor: Optional[Scalar] = None,
) -> PmfTable:
    """Normalize weights into a table and attach the cross-check records.
    `weights` and `closed_values` hold one value per class of points, and
    `index` each point's class (range(len(support)): a class per point).
    Each class is normalized, checked and compared once, in both modes from
    integers over one denominator (`_class_quotients`): the weights as
    `numerators` over `denominator`, given together (a rounded float weight
    cannot give back the exact sum it was rounded from), or else read over
    the lcm of their denominators, and the closed values, rationals, floats
    or unreduced (numerator, denominator) pairs, over the lcm of theirs
    (`scalars.over_lcm`).  `closed_divisor`, a scalar or such a pair common to
    every closed value, divides their total once (the quotients do not see
    it; a zero divisor raises that division's ZeroDivisionError).
    `z_closed_form` is fitted within `fit_bound` (`fit_monomial`) unless
    its fit `z_discrepancy` is given, a derived law's from its joint."""
    support, weights, index = tuple(support), list(weights), list(index)
    if not support:
        raise ValidationError(f"{kind} table: empty support")
    if len(support) != len(index):
        raise ValidationError(f"{kind} table: {len(support)} points vs {len(index)} class indices")
    if not all(map(lt, support, support[1:])):
        raise ValidationError(f"{kind} table: support is not strictly increasing")
    sizes = list(map(Counter(index).__getitem__, range(len(weights))))
    if numerators is None:
        numerators, denominator = over_lcm(weights)
    z, quotients, total = _normalize_classes(kind, numerators, denominator, sizes, alg,
                                             lambda refused: next((x, c) for x, c in zip(support, index)
                                                                  if c in refused))
    point_weights, probabilities = tuple(map(weights.__getitem__, index)), tuple(map(quotients.__getitem__, index))
    z_fit = z_discrepancy or (None if z_closed_form is None else fit_monomial(alg, z, z_closed_form, fit_bound))

    check = None
    if closed_values is not None:
        closed_values = list(closed_values)
        if len(closed_values) != len(weights):
            raise ValidationError(f"{kind} table: {len(weights)} weight classes vs {len(closed_values)} closed values")
        # An exact closed probability equal to the class's probability is
        # that object, so the classes agree exactly when every one is shared.
        _, closed_quotients, _ = _class_quotients(
            *over_lcm(closed_values), sizes, alg.exact, f"{kind} table: closed form sums to",
            like=(numerators, total, quotients), divisor=closed_divisor)
        equal = (all(map(is_, closed_quotients, quotients)) if alg.exact else
                 all(scalars_close(a, b, False, alg.tol) for a, b in zip(closed_quotients, quotients)))
        check = ClosedFormCheck(tuple(map(closed_quotients.__getitem__, index)), equal)

    return PmfTable(kind, dict(params), tuple(coord_labels), support, point_weights, z, probabilities, alg.exact,
                    alg.tol, z_closed_form, z_fit, check)


class PmfStream(Record):
    """A normalized law over the points of `constraints`, listed in order by
    `rows` and never held.  A point's weight and probability are those of
    its area class: `weights` and `probabilities` map each area to one
    object, and `counts` to its number of points.  The other fields are
    those of a `PmfTable` of the same law (`make_stream`)."""

    _fields = ("kind", "params", "coord_labels", "constraints", "counts", "weights", "z_enumerated",
               "probabilities", "z_closed_form", "z_discrepancy")
    _defaults = {"z_closed_form": None, "z_discrepancy": None}
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
    numerators: Sequence[int],
    denominator: int,
    z_closed_form: Optional[Scalar] = None,
    fit_bound: int = 0,
) -> PmfStream:
    """Normalize the area-class weights of the points of `constraints`
    (`counts` of them per class) as `make_table` does, from the counts and
    the weights as `numerators` over `denominator` (`scalars.over_lcm`), and
    attach the normalizer's fit.  No point is listed, but to name the
    first point of a refused class."""
    if not counts:
        raise ValidationError(f"{kind} table: empty support")
    classes = list(weights)

    def first_point(refused: set) -> Tuple[SupportPoint, int]:
        by_area = {classes[c]: c for c in refused}
        return next((x, by_area[e]) for points, areas in walk(constraints, point_cells(constraints))
                    for x, e in zip(points, areas) if e in by_area)

    z, quotients, _ = _normalize_classes(kind, numerators, denominator, [counts[e] for e in classes], alg,
                                         first_point)
    z_fit = None if z_closed_form is None else fit_monomial(alg, z, z_closed_form, fit_bound)
    return PmfStream(kind, dict(params), tuple(coord_labels), constraints, dict(counts), dict(weights), z,
                     dict(zip(classes, quotients)), z_closed_form, z_fit)


def oracle_expectation(table: PmfTable, functional: Callable[[SupportPoint], Scalar]) -> Scalar:
    """Exact expectation of an arbitrary functional over a table: the
    products of value and probability numerators over the lcm of their
    denominators, in both modes (a float is the dyadic rational it is),
    built once as one Fraction or as one float rounded once."""
    values = []
    for point in table.support:
        value = functional(point)
        if table.exact and isinstance(value, float):
            raise ModeMixError("float functional value on an exact table")
        if not table.exact and isinstance(value, Fraction):
            raise ModeMixError("Fraction functional value on an approximate table")
        values.append(value)
    numerators, denominator = over_lcm((v * p, w * q) for (v, w), (p, q) in
                                       zip(integer_ratios(values), integer_ratios(table.probabilities)))
    return ratio(sum(numerators), denominator, table.exact)


class MomentReport(Record):
    """One closed-form-vs-oracle comparison for a named moment."""

    _fields = ("quantity", "oracle_value", "closed_form", "match", "note")
    _defaults = {"note": ""}


def compare_moment(
    quantity: str,
    oracle_value: Scalar,
    closed_form: Optional[Scalar],
    alg: AlgebraSpec,
    note: str = "",
) -> MomentReport:
    match = None if closed_form is None else alg.close(oracle_value, closed_form)
    return MomentReport(quantity, oracle_value, closed_form, match, note)
