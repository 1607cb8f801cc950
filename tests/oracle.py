"""References that tests compare the package's public results with, and the
desk-scale grid they compare them on.

`joint_table` is the joint law by the per-point route: the points of
`enumerate_points`, each weighed by `joint_weight`, normalized by
`make_table` from those weights, one class per point.  The package
normalizes a joint once, from its area-class counts
(`occupancy.joint_stream`, which `joint_pmf` also reads), so this table
shares no step of that normalization.

The other references scan such a table point by point in support order:
`scan` sums the weights of a projection (prefixes, block sums, suffixes
given a prefix), `prefix_masses` the weight of every prefix, and the
samplers are replayed over a variate stream (`mantissas`, the SplitMix64
stream written out here) with a linear threshold scan and uncached prefix
masses.

Every sum is exact: a float is the dyadic rational it is (`exact`), so
the sums of a decimal law are Fractions of its float weights, whatever
their order.  The decimal contract is one rounding at the end: a decimal
normalizer is the correctly rounded exact sum of its float terms, a
decimal weight the correctly rounded exact mass of its class, and a
decimal probability (or chain-rule factor) the correctly rounded quotient
of that exact mass by the exact sum (`normalized`; `float` of a Fraction
rounds correctly, half to even).  A decimal closed value is the exact
product of its float factors, and a sequential step compares a variate
with exact thresholds in both modes.  An identity lhs (`identity_lhs`) is
the exact sum, over the points of its box, of the exact product of each
point's float factors, rounded once; the factors are split as the library
splits them, a tau monomial with no n in it per group and one monomial for
the summand's n part.  So tests compare with `==`: the library must
reproduce these bit for bit.
"""

from fractions import Fraction
from itertools import product

from conftest import ALL_PRESETS
from rpq import first_kind, jagannathan_srinivasa, occupancy, second_kind
from rpq.algebra import binomial_or_zero, deformed_binomial, tau_monomial
from rpq.first_kind import FirstKindParams
from rpq.lattice import ConstraintSet, enumerate_points
from rpq.pmf import make_table
from rpq.second_kind import SecondKindParams

PRESETS = ALL_PRESETS + (jagannathan_srinivasa(0.9, 0.5),)

KINDS = [(first_kind, alg) for alg in PRESETS] + [(second_kind, alg) for alg in PRESETS]

DENOM = 1 << 53


def kind_id(case):
    module, alg = case
    return f"{module.KIND}-{alg.name}-{'exact' if alg.exact else 'approx'}"


def grid(module, alg, first_k, second_k, second_n):
    """The params of every k <= first_k and every n for the first kind, of
    k <= second_k and n <= second_n for the second."""
    if module is first_kind:
        return [FirstKindParams(alg, k, n) for k in range(1, first_k + 1) for n in range(k + 2)]
    return [SecondKindParams(alg, k, n) for k in range(1, second_k + 1) for n in range(second_n + 1)]


def exact(value):
    """A float as the rational it is; other values as they are."""
    return Fraction(value) if isinstance(value, float) else value


def normalized(masses, exact_mode):
    """The weights, the normalizer and the probabilities of a table of the
    exact masses `masses`, one per point: in exact mode the masses, their
    sum and each mass over the sum; in approximate mode the same values,
    each rounded once to a float."""
    total = sum(masses)
    probabilities = tuple(mass / total for mass in masses)
    if exact_mode:
        return tuple(masses), total, probabilities
    return tuple(map(float, masses)), float(total), tuple(map(float, probabilities))


def joint_table(params):
    """The joint law of `params` as a table normalized point by point, with
    the closed normalizer and fit bound of the kind; its checks run in the
    order of the package's joint: guards, weights, closed normalizer."""
    support = enumerate_points(occupancy.support_constraints(params))
    weights = [occupancy.joint_weight(params, x) for x in support]
    try:
        # Each float weight, then the closed normalizer, as the rational it
        # is: inf and nan have none, an overflow.
        for value in (*weights, params.normalizer(params.alg, params.k, params.n)):
            exact(value)
    except (ValueError, OverflowError) as exc:
        raise OverflowError(str(exc)) from None
    return make_table(
        kind=params.kind,
        params=params.describe(),
        coord_labels=[f"x{j}" for j in range(1, params.k + 1)],
        support=support,
        weights=weights,
        index=range(len(support)),
        alg=params.alg,
        z_closed_form=params.normalizer(params.alg, params.k, params.n),
        fit_bound=params.fit_bound(),
    )


def fraction_route(masses, closed):
    """The records of a derived table by the per-class Fraction route: each
    class's mass and closed value a reduced Fraction (a closed value with
    its divisor or scale), their sums over the points as the normalizer and
    the closed total, and Fraction quotients.  `masses` and `closed` hold
    each point's values (a class's, repeated over its points); returns the
    normalizer, the probabilities, the closed probabilities and whether
    these two agree point by point."""
    z, closed_total = sum(masses), sum(closed)
    probabilities = tuple(mass / z for mass in masses)
    closed_probabilities = tuple(value / closed_total for value in closed)
    return z, probabilities, closed_probabilities, probabilities == closed_probabilities


def prefixes(module, params, r):
    """Every r-vector a conditional of `params` may be given: coordinates
    0/1 for the first kind, at most n for the second, summing to at most n."""
    top = 1 if module is first_kind else params.n
    return [g for g in product(range(top + 1), repeat=r) if sum(g) <= params.n]


def refuse_joint_tables(monkeypatch):
    """Make `joint_pmf` raise, in every module that holds it."""
    def refuse(params):
        raise AssertionError("the joint table was built")

    for module in (occupancy, first_kind, second_kind):
        monkeypatch.setattr(module, "joint_pmf", refuse)


def scan(points, masses, keep, project):
    """The sorted distinct projections of the kept points and their masses,
    each summed exactly."""
    acc = {}
    for point, mass in zip(points, masses):
        if keep(point):
            key = project(point)
            acc[key] = acc.get(key, 0) + exact(mass)
    support = tuple(sorted(acc))
    return support, tuple(acc[p] for p in support)


def block_sums(sizes):
    """The projection of a point to the sums of its consecutive blocks of
    `sizes`."""
    def project(x):
        out, start = [], 0
        for size in sizes:
            out.append(sum(x[start:start + size]))
            start += size
        return tuple(out)
    return project


def compositions(k):
    """Every scheme of at least two consecutive blocks covering k urns."""
    for cuts in product((0, 1), repeat=k - 1):
        sizes, run = [], 1
        for cut in cuts:
            if cut:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        if len(sizes) > 1:
            yield tuple(sizes)


def prefix_masses(joint):
    """Summed weight of every support-point prefix, the empty one included,
    by an exact scan."""
    masses = {}
    for point, weight in zip(joint.support, joint.weights):
        for cut in range(len(point) + 1):
            key = point[:cut]
            masses[key] = masses.get(key, 0) + exact(weight)
    return masses


def children(masses):
    """Each prefix's one-coordinate extensions, sorted."""
    out = {}
    for prefix in sorted(masses):
        if prefix:
            out.setdefault(prefix[:-1], []).append(prefix)
    return out


def path_probabilities(joint):
    """Each support point's product of chain-rule conditionals, prefix mass
    over parent prefix mass (each rounded once in approximate mode), from
    the empty prefix on."""
    masses = prefix_masses(joint)
    out = {}
    for point in joint.support:
        prob = 1 if joint.exact else 1.0
        for cut in range(1, len(point) + 1):
            ratio = masses[point[:cut]] / masses[point[:cut - 1]]
            prob *= ratio if joint.exact else float(ratio)
        out[point] = prob
    return out


def mantissas(seed):
    """The sampler's variates, written out: SplitMix64 outputs from `seed`,
    top 53 bits each."""
    mask = (1 << 64) - 1
    state = seed % (1 << 64)
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield (z ^ (z >> 31)) >> 11


def frequencies(draws):
    """(point, c / count) per drawn point in sorted order, c its count."""
    counts = {}
    for point in draws:
        counts[point] = counts.get(point, 0) + 1
    return tuple((point, Fraction(c, len(draws))) for point, c in sorted(counts.items()))


def on_scale(cumulative):
    """A cumulative probability, a rational, as a threshold on the 53-bit
    scale, rounded up."""
    frac = Fraction(cumulative) * DENOM
    return -(-frac.numerator // frac.denominator)


def scan_step(masses, prefix, extended):
    """The thresholds of the extensions `extended` of `prefix` but the
    last: their exact cumulative mass / prefix mass."""
    thresholds, cumulative = [], 0
    for point in extended[:-1]:
        cumulative += masses[point] / masses[prefix]
        thresholds.append(on_scale(cumulative))
    return thresholds


def scan_sample(table, variates, count):
    """Inverse-CDF draws: each variate takes the first point whose
    cumulative weight over the total weight, exact in both modes (a float
    weight read as the rational it is), on the 53-bit scale, exceeds it,
    else the last point."""
    weights = [exact(weight) for weight in table.weights]
    total = Fraction(sum(weights))
    thresholds = []
    cumulative = 0
    for weight in weights:
        cumulative += weight
        thresholds.append(on_scale(cumulative / total))
    draws = []
    for _ in range(count):
        u = next(variates)
        for i, bound in enumerate(thresholds):
            if u < bound:
                draws.append(table.support[i])
                break
        else:
            draws.append(table.support[-1])
    return tuple(draws)


def scan_sequential(joint, variates, count):
    """Draws one coordinate at a time: a variate picks the first extension
    of the prefix whose exact cumulative conditional probability, by a
    linear scan over uncached prefix masses, exceeds it, else the last
    one."""
    masses = prefix_masses(joint)
    kids = children(masses)
    draws = []
    for _ in range(count):
        prefix = ()
        for _coord in range(len(joint.support[0])):
            u = next(variates)
            cumulative = 0
            for child in kids[prefix]:
                cumulative += masses[child] / masses[prefix]
                if u < on_scale(cumulative):
                    break
            prefix = child
        draws.append(prefix)
    return tuple(draws)


def _point_factors(alg, identity, k, n, groups, point):
    """The factors of one point's summand, as the library splits them: per
    group (unit groups for hs1 and hs2) its tau monomial with no n in it,
    which reads the balls after the group, and its binomial, then the n
    part: one tau monomial for hs1 and hsa, n - S copies of tau1^(k-g) for
    hs2 and hsb (g = k for hs2); each as the library returns it (a float in
    approximate mode)."""
    groups = (1,) * k if groups is None else groups
    total = sum(point)
    factors, big_m, s = [], 0, 0
    for m_j, r_j in zip(groups, point):
        big_m += m_j
        s += r_j
        rest = total - s
        if identity == "hsa":
            factors += [tau_monomial(alg, rest * (m_j - r_j), (k + 1 - big_m - rest) * r_j),
                        deformed_binomial(alg, m_j, r_j)]
        elif identity == "hsb":
            factors += [tau_monomial(alg, rest * (m_j - 1), (k + 1 - big_m) * r_j),
                        binomial_or_zero(alg, m_j + r_j - 1, r_j)]
        else:
            factors.append(tau_monomial(alg, -big_m * r_j, big_m * r_j))
    c2 = n * (n - 1) // 2
    if identity in ("hs1", "hsa"):
        n_part = (c2, -c2) if identity == "hs1" else ((n - total) * (k - total), -(n - total) * total)
        return factors + [tau_monomial(alg, *n_part)]
    return factors + [tau_monomial(alg, k - len(groups), 0)] * (n - total)


def identity_box(identity, k, n, groups, literal_window=False):
    """The box of an hs1, hs2, hsa or hsb tuple, with its sum window."""
    if identity in ("hs1", "hsa"):
        return ConstraintSet((1,) * k if groups is None else groups, 0 if literal_window else max(0, n - 1),
                             min(n, k))
    return ConstraintSet((n,) * (k if groups is None else len(groups)), 0, n)


def identity_lhs(alg, report, literal_window=False):
    """The lhs of an identity report by enumeration: the exact sum, over
    the points of the tuple's box (over r = 0..n for cauchy), of the exact
    product of each point's factors (`exact`), as a Fraction in exact mode
    and rounded once to a float in approximate mode."""
    identity, k, n, m = report.identity, report.k, report.n, report.m
    if identity == "cauchy":
        terms = [[tau_monomial(alg, (m - k) * r, (k - m) * r), binomial_or_zero(alg, m + r, r),
                  binomial_or_zero(alg, k - m + n - r - 1, n - r)] for r in range(n + 1)]
    else:
        box = identity_box(identity, k, n, report.groups, literal_window)
        terms = [_point_factors(alg, identity, k, n, report.groups, x) for x in enumerate_points(box)]
    total = Fraction(0)
    for factors in terms:
        value = Fraction(1)
        for factor in factors:
            value *= exact(factor)
        total += value
    return total if alg.exact else float(total)
