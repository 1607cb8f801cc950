"""Probability tables over enumerated supports, and moment reports.

A table's probabilities are always weight / (enumerated sum of weights);
closed-form normalizers and closed-form probability values ride along as
cross-check records, never as the source of truth.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import inf, lcm
from operator import add, lt, mul
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import AlgebraSpec, MonomialFit, fit_monomial
from .errors import ModeMixError, UnderflowError, ValidationError
from .lattice import SupportPoint, area
from .scalars import Scalar, scalars_close

# A sampler variate is a CDF_BITS-bit mantissa over 2^CDF_BITS (see
# `sampler`), so CDF thresholds are kept on that integer scale.
CDF_BITS = 53
CDF_SCALE = 1 << CDF_BITS

# Pushforward mass entries a table keeps (`PmfTable.cut_masses`,
# `PmfTable.block_masses`): the most recently used.
MASS_MEMO_SIZE = 32

# Distinct projected points, sorted, and their summed weights.
Masses = Tuple[Tuple[SupportPoint, ...], Tuple[Scalar, ...]]


def _over_lcm(values: Iterable[Scalar]) -> Tuple[List[int], int]:
    """Each of `values` (ints or Fractions) as a numerator over the lcm of
    their denominators, and that lcm."""
    values = list(values)
    denominators = [v.denominator for v in values]
    denominator = lcm(*denominators)
    return [v.numerator * (denominator // d) for v, d in zip(values, denominators)], denominator


def _normalized(
    values: Sequence[Scalar], exact: bool, nonpositive: str
) -> Tuple[Scalar, Dict[int, Scalar], Counter]:
    """The sum of `values` (at least one), value / sum per distinct value
    object keyed by its id, and each object's multiplicity, both in
    first-seen order.

    Points of one class share one value object, so each quotient is
    computed once per class.  In exact mode the distinct values are brought
    to the lcm of their denominators as integers; the sum is one Fraction of
    the multiplicity-weighted numerators, and each quotient the Fraction
    (scaled numerator, that integer sum): the same rationals as a
    point-by-point sum and division.  In approximate mode the values are
    added left to right, as a point-by-point sum rounds.  A sum that is not
    positive raises ValidationError(f"{nonpositive} {sum}").
    """
    counts = Counter(map(id, values))
    objects = dict(zip(map(id, values), values))
    if exact:
        scaled, denominator = _over_lcm(objects.values())
        total = sum(map(mul, counts.values(), scaled))
        z = Fraction(total, denominator)
    else:
        z = reduce(add, values)
    if z <= 0:
        raise ValidationError(f"{nonpositive} {z}")
    if exact:
        quotient = dict(zip(objects, [Fraction(s, total) for s in scaled]))
    else:
        quotient = {i: v / z for i, v in objects.items()}
    return z, quotient, counts


def grouped_sums(
    pairs: Iterable[Tuple[Hashable, Scalar]], exact: bool
) -> Dict[Hashable, Scalar]:
    """The sum of the values of each key over (key, value) pairs, keys in
    first-seen order; in approximate mode each key adds its values left to
    right.

    Many keys hold a few values each, so in exact mode each distinct value
    object is brought once to a denominator common to all the values, and a
    key adds integers and builds one Fraction; a key with one value keeps
    that object.
    """
    groups: Dict[Hashable, List[Scalar]] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    if not exact:
        return {key: reduce(add, group) for key, group in groups.items()}
    distinct = {id(v): v for group in groups.values() for v in group}
    numerators, denominator = _over_lcm(distinct.values())
    scaled = dict(zip(distinct, numerators))
    return {
        key: group[0] if len(group) == 1
        else Fraction(sum([scaled[id(v)] for v in group]), denominator)
        for key, group in groups.items()
    }


@dataclass(frozen=True)
class ClosedFormCheck:
    """Closed-form distribution (normalized) compared point-by-point."""

    probabilities: Tuple[Scalar, ...]
    pointwise_equal: bool


@dataclass(frozen=True)
class PmfTable:
    """A normalized law over a strictly increasing (lexicographic) support.

    What repeated queries read is memoised on the table on first use: the
    sampler's steps, the prefix classes of each cut (prefix length), and
    the masses of each cut and block scheme, the MASS_MEMO_SIZE most
    recently used.  The memos take no part in equality or repr, so
    `replace()` starts fresh ones; they are freed with the table.
    """

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
    _masses: OrderedDict = field(default_factory=OrderedDict, init=False, repr=False, compare=False)
    _cut_classes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def probability(self, point: SupportPoint) -> Scalar:
        i = bisect_left(self.support, point)
        if i < len(self.support) and self.support[i] == point:
            return self.probabilities[i]
        return Fraction(0) if self.exact else 0.0

    def as_mapping(self) -> dict:
        return dict(zip(self.support, self.probabilities))

    def _pushforward(self, key: Union[int, Tuple[int, ...]]) -> Masses:
        """The support's distinct projections, sorted, and their weights
        summed in support order (`grouped_sums`): an int key r projects x
        to x[:r], a tuple of block sizes to the sums of x's consecutive
        blocks.  Memoised per key, the MASS_MEMO_SIZE most recently used."""
        entry = self._masses.get(key)
        if entry is not None:
            self._masses.move_to_end(key)
            return entry
        if isinstance(key, int):
            keys = (x[:key] for x in self.support)
        else:
            spans = list(zip(accumulate(key, initial=0), accumulate(key)))
            keys = (tuple([sum(x[a:b]) for a, b in spans]) for x in self.support)
        sums = sorted(grouped_sums(zip(keys, self.weights), self.exact).items())
        entry = self._masses[key] = (tuple(k for k, _ in sums), tuple(m for _, m in sums))
        if len(self._masses) > MASS_MEMO_SIZE:
            self._masses.popitem(last=False)
        return entry

    def cut_masses(self, cut: int) -> Masses:
        """The distinct prefixes of length `cut`, in support (so sorted)
        order, and their summed weights: at the full length, the support and
        the weights themselves."""
        if cut == len(self.support[0]):
            return self.support, self.weights
        return self._pushforward(cut)

    def block_masses(self, sizes: Tuple[int, ...]) -> Masses:
        """The distinct block-sum vectors of the consecutive blocks of
        `sizes`, sorted, and their summed weights."""
        dim = len(self.support[0])
        if sum(sizes) != dim:
            raise ValidationError(f"block sizes {sizes} must sum to the dimension {dim}")
        return self._pushforward(tuple(sizes))

    def cut_classes(self, cut: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The sums and the `lattice.area`s of the prefixes `cut_masses(cut)`
        lists, in its order: the class key (sum, area) a closed-form
        marginal or conditional value reads.  Two tuples of small ints, not
        one of pairs, to keep the memo small.  Memoised per cut."""
        entry = self._cut_classes.get(cut)
        if entry is None:
            prefixes = self.cut_masses(cut)[0]
            entry = self._cut_classes[cut] = (tuple(map(sum, prefixes)), tuple(map(area, prefixes)))
        return entry

    def steps(self, cut: int, to: int) -> Steps:
        """The sampler's steps from the prefixes of length `cut` to their
        extensions of length `to`; memoised per (cut, to)."""
        entry = self._steps.get((cut, to))
        if entry is None:
            entry = self._steps[cut, to] = Steps(self.cut_masses(cut), self.cut_masses(to), self.exact)
        return entry


def extensions(points: Sequence[SupportPoint], prefix: SupportPoint) -> slice:
    """The slice of the strictly increasing `points` that extend `prefix`,
    by two bisections: from `prefix` up to (*prefix, inf)."""
    lo = bisect_left(points, prefix)
    return slice(lo, bisect_left(points, (*prefix, inf), lo))


class Steps(dict):
    """The step from each prefix of one cut to its extensions in a longer
    cut, by the prefix's index, computed on first read: (lo, thresholds),
    where lo indexes the first extension and thresholds are the cumulative
    mass / prefix mass of the extensions but the last, times 2^53 (rounded
    up, an int, in exact mode).  A variate u takes the extension
    lo + bisect_right(thresholds, u), so one past a float CDF that ends
    below 1 takes the last."""

    def __init__(self, prefixes: Masses, extended: Masses, exact: bool) -> None:
        super().__init__()
        self._prefixes, self._extended, self._exact = prefixes, extended, exact

    def __missing__(self, i: int) -> Tuple[int, List[Scalar]]:
        (prefixes, masses), (points, extension_masses) = self._prefixes, self._extended
        block = extensions(points, prefixes[i])
        if self._exact:
            # The masses over a common denominator are integers whose total
            # stands for the prefix mass: each threshold is
            # ceil(cumulative * 2^53 / total), with no Fraction built.
            scaled, _ = _over_lcm(extension_masses[block])
            total = sum(scaled)
            thresholds = [-(-(c << CDF_BITS) // total) for c in accumulate(scaled[:-1])]
        else:
            mass = masses[i]
            cumulative = accumulate(m / mass for m in extension_masses[block.start:block.stop - 1])
            thresholds = [f * CDF_SCALE for f in cumulative]
        step = self[i] = (block.start, thresholds)
        return step


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
    z, quotient, counts = _normalized(weights, alg.exact, f"{kind} table: nonpositive normalizer")
    if alg.exact:
        for prob in quotient.values():
            if prob.numerator < 0:
                raise ValidationError(f"{kind} table: negative probability {prob}")
        # The probabilities themselves, summed over their own lcm.
        scaled, denominator = _over_lcm(quotient.values())
        total = Fraction(sum(map(mul, counts.values(), scaled)), denominator)
    else:
        # Every support point of an rpq law has positive exact mass, so a
        # weight or probability that is 0.0 (its probability then is too)
        # has underflowed.
        for i, prob in quotient.items():
            if prob < 0:
                raise ValidationError(f"{kind} table: negative probability {prob}")
            if prob == 0:
                point = next(x for x, w in zip(support, weights) if id(w) == i)
                raise UnderflowError(f"{kind} table: the probability of {point} is 0.0")
    probabilities = tuple(map(quotient.__getitem__, map(id, weights)))
    if not alg.exact:
        total = reduce(add, probabilities)
    if not scalars_close(total, 1, alg.exact, alg.tol):
        raise ValidationError(f"{kind} table: probabilities sum to {total}, not 1")

    z_fit = None
    if z_closed_form is not None:
        z_fit = _normalizer_fit(alg, z, z_closed_form, fit_bound)

    check = None
    if closed_values is not None:
        closed_values = tuple(closed_values)
        if len(closed_values) != len(support):
            raise ValidationError(f"{kind} table: closed-form values mismatch support size")
        # As for the weights: one quotient per distinct closed-value object,
        # and one comparison per distinct (closed, probability) pair.
        _, closed_quotient, _ = _normalized(
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
