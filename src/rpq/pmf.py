"""Probability tables over enumerated supports, and moment reports.

A table's probabilities are always weight / (enumerated sum of weights);
closed-form normalizers and closed-form probability values ride along as
cross-check records, never as the source of truth.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm
from operator import add, lt
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from .algebra import AlgebraSpec, MonomialFit, fit_monomial
from .errors import ModeMixError, ValidationError
from .lattice import SupportPoint, area
from .scalars import Scalar, scalars_close

# A sampler variate is a CDF_BITS-bit mantissa over 2^CDF_BITS (see
# `sampler`), so CDF thresholds are kept on that integer scale.
CDF_BITS = 53
CDF_SCALE = 1 << CDF_BITS


def class_sum(values: Sequence[Scalar], exact: bool) -> Scalar:
    """Sum of `values` (at least one).

    Points of one weight class share one weight object, and so do sums and
    quotients built from it.  In exact mode the values are grouped by object
    identity and each class adds multiplicity * value, over a common
    denominator in integers: one term per class, the same rational as the
    point-by-point sum.  A lone value is returned as is, and two are simply
    added.  In approximate mode the values are added left to right, so the
    float rounds as the point-by-point sum does.
    """
    if not exact or len(values) < 3:
        return reduce(add, values)
    counts = Counter(map(id, values))
    value_of = dict(zip(map(id, values), values))
    classes = [(value_of[i], m) for i, m in counts.items()]
    denominator = lcm(*[v.denominator for v, _ in classes])
    numerator = sum(m * v.numerator * (denominator // v.denominator) for v, m in classes)
    return Fraction(numerator, denominator)


def grouped_sums(
    pairs: Iterable[Tuple[Hashable, Scalar]], exact: bool
) -> Dict[Hashable, Scalar]:
    """`class_sum` of the values of each key over (key, value) pairs, keys in
    first-seen order.

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
    denominator = lcm(*[v.denominator for v in distinct.values()])
    scaled = {i: v.numerator * (denominator // v.denominator) for i, v in distinct.items()}
    return {
        key: group[0] if len(group) == 1
        else Fraction(sum([scaled[id(v)] for v in group]), denominator)
        for key, group in groups.items()
    }


def class_quotients(values: Sequence[Scalar], total: Scalar, exact: bool) -> Dict[int, Scalar]:
    """value / total per distinct value object, keyed by its id: one quotient
    shared by the points of a class.  In exact mode the quotient is built
    from integers, Fraction(num(v) den(t), den(v) num(t)), so it is a
    Fraction even when the values are ints; `total` is nonzero."""
    distinct = dict(zip(map(id, values), values))
    if exact:
        tn, td = total.numerator, total.denominator
        return {i: Fraction(v.numerator * td, v.denominator * tn) for i, v in distinct.items()}
    return {i: v / total for i, v in distinct.items()}


@dataclass(frozen=True)
class ClosedFormCheck:
    """Closed-form distribution (normalized) compared point-by-point."""

    probabilities: Tuple[Scalar, ...]
    pointwise_equal: bool


@dataclass(frozen=True)
class PmfTable:
    """A normalized law over a strictly increasing (lexicographic) support.

    The CDF thresholds and the prefix masses and classes that repeated
    queries read are memoised on the table on first use, the masses and
    classes one cut (prefix length) at a time.  They take no part in
    equality or repr, so `replace()` starts fresh ones, and they are freed
    with the table.
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
    _thresholds: list = field(default_factory=list, init=False, repr=False, compare=False)
    _cut_masses: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _cut_classes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _zero_bounds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def probability(self, point: SupportPoint) -> Scalar:
        i = bisect_left(self.support, point)
        if i < len(self.support) and self.support[i] == point:
            return self.probabilities[i]
        return Fraction(0) if self.exact else 0.0

    def as_mapping(self) -> dict:
        return dict(zip(self.support, self.probabilities))

    def cdf_thresholds(self) -> list:
        """ceil(F_i * 2^53) per cumulative probability F_i in exact mode,
        F_i * 2^53 in approximate mode; non-decreasing."""
        if not self._thresholds:
            thresholds = []
            cumulative: Scalar = 0
            for prob in self.probabilities:
                cumulative += prob
                if self.exact:
                    frac = Fraction(cumulative) * CDF_SCALE
                    thresholds.append(-(-frac.numerator // frac.denominator))
                else:
                    thresholds.append(cumulative * CDF_SCALE)
            self._thresholds.extend(thresholds)
        return self._thresholds

    def cut_masses(self, cut: int) -> Tuple[Tuple[SupportPoint, ...], Tuple[Scalar, ...]]:
        """The distinct prefixes of length `cut`, in support (so sorted)
        order, and their summed weights, each sum taken in support order.
        One pass over the support per cut, memoised."""
        entry = self._cut_masses.get(cut)
        if entry is None:
            pairs = ((point[:cut], weight) for point, weight in zip(self.support, self.weights))
            sums = grouped_sums(pairs, self.exact)
            entry = self._cut_masses[cut] = (tuple(sums), tuple(sums.values()))
        return entry

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

    def prefix_mass(self, prefix: SupportPoint) -> Scalar:
        """Summed weight of the support points extending `prefix`, 0 if none."""
        prefixes, masses = self.cut_masses(len(prefix))
        i = bisect_left(prefixes, prefix)
        return masses[i] if i < len(prefixes) and prefixes[i] == prefix else 0

    def prefix_masses(self) -> Dict[SupportPoint, Scalar]:
        """Summed weight of every support-point prefix, the empty one
        included: a new dict over the per-cut memo."""
        out: Dict[SupportPoint, Scalar] = {}
        for cut in range(len(self.support[0]) + 1):
            out.update(zip(*self.cut_masses(cut)))
        return out

    def zero_bound(self, prefix: SupportPoint) -> Scalar:
        """Threshold on a 53-bit mantissa below which the point extending
        `prefix` takes the value 0 next: ceil(m0 / m * 2^53) in exact mode,
        m0 / m * 2^53 in approximate mode, where m is the prefix mass and m0
        the mass of prefix + (0,).  Memoised per prefix."""
        bound = self._zero_bounds.get(prefix)
        if bound is None:
            zero_mass = self.prefix_mass(prefix + (0,))
            total = self.prefix_mass(prefix)
            if self.exact:
                frac = Fraction(zero_mass) / total * CDF_SCALE
                bound = -(-frac.numerator // frac.denominator)
            else:
                bound = (zero_mass / total) * CDF_SCALE
            self._zero_bounds[prefix] = bound
        return bound


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
    z = class_sum(weights, alg.exact)
    if alg.exact:
        z = Fraction(z)
    if z <= 0:
        raise ValidationError(f"{kind} table: nonpositive normalizer {z}")
    quotient = class_quotients(weights, z, alg.exact)
    for prob in quotient.values():
        if prob < 0:
            raise ValidationError(f"{kind} table: negative probability {prob}")
    probabilities = tuple(map(quotient.__getitem__, map(id, weights)))
    total = class_sum(probabilities, alg.exact)
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
        closed_total = class_sum(closed_values, alg.exact)
        if closed_total <= 0:
            raise ValidationError(f"{kind} table: closed form sums to {closed_total}")
        # As for the weights: one quotient per distinct closed-value object,
        # and one comparison per distinct (closed, probability) pair.
        closed_quotient = class_quotients(closed_values, closed_total, alg.exact)
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
