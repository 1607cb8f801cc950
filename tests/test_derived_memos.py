"""Derived tables read masses memoised per prefix class and closed values
shared per class; these tests rebuild them point by point and cold.

Masses are summed here by an exact scan over the per-point joint
(`oracle.joint_table`), and every closed-form
record (`closed_form_check.probabilities`, `pointwise_equal`,
`z_discrepancy`) is recomputed with one closed value, one division and one
comparison per point.  The closed values come from the formulas below,
written out per point with their tau1^a * tau2^b powers, not from the
library's per-class terms: the exact product of the factors, a float
read as the rational it is, which a decimal table rounds once
(`oracle.normalized`).  Floats are compared with `==`: sharing must not
move a single bit.
"""

import gc
import weakref
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import comb

import pytest

from conftest import ALL_PRESETS, JS
from oracle import (KINDS, block_sums, compositions, exact, grid, joint_table, kind_id, mantissas, normalized, prefixes,
                    refuse_joint_tables, scan, scan_sample, scan_sequential)
from rpq import (ValidationError, ZeroProbabilityEventError, chakrabarty_jagannathan,
                 jagannathan_srinivasa, q_deformation, quesne, sample, sequential_sample)
from rpq import classes, first_kind, occupancy, pmf, second_kind
from rpq.algebra import AlgebraSpec, _closed_pair, binomial_or_zero, deformed_binomial, fit_monomial
from rpq.classes import PrefixClasses
from rpq.first_kind import FirstKindParams, GroupingScheme
from rpq.lattice import ConstraintSet, area
from rpq.pmf import make_table
from rpq.scalars import scalars_close
from rpq.second_kind import SecondKindParams

# Every n for the first kind at k <= 5, n <= 3 for the second at k <= 4.
_params = partial(grid, first_k=5, second_k=4, second_n=3)


def _z_reference(module, params):
    """(closed normalizer, fit bound) a joint-normalized derived table carries."""
    alg, k, n = params.alg, params.k, params.n
    if module is first_kind:
        return deformed_binomial(alg, k + 1, n), (k + 1) * max(n, 1)
    return deformed_binomial(alg, k + n, n), second_kind._phi_constant_exponent(k, n) + k * n


def _closed(alg, e1, e2, factors, scale=None, divisor=None):
    """tau1^e1 tau2^e2 * prod(factors) [* scale] [/ divisor], the exact
    product of these values (a float read as the rational it is)."""
    value = 1
    for factor in [alg.tau1**e1 * alg.tau2**e2, *factors] + ([] if scale is None else [scale]):
        value *= exact(factor)
    return value if divisor is None else value / exact(divisor)


def _first_marginal(params, prefix):
    alg, k, n = params.alg, params.k, params.n
    r, y = len(prefix), sum(prefix)
    g = sum((k - j - n + y) * prefix[j] for j in range(r))
    c2 = comb(y, 2)
    tail = binomial_or_zero(alg, k - r + 1, n - y)
    return _closed(alg, c2 + k * n - g, g - c2, [tail])


def _first_conditional(params, given, suffix):
    alg, k, n = params.alg, params.k, params.n
    r, m = len(given), len(given) + len(suffix)
    y_r = sum(given)
    y_m = y_r + sum(suffix)
    h = sum((k - (r + j + 1) - n + y_m + 1) * suffix[j] for j in range(len(suffix)))
    c2 = comb(y_m - y_r, 2)
    numerator = binomial_or_zero(alg, k - m + 1, n - y_m)
    denominator = deformed_binomial(alg, k - r + 1, n - y_r)
    return _closed(alg, c2 + k * n - h, h - c2, [numerator], divisor=denominator)


def _first_grouped(params, scheme, y):
    alg, k, n = params.alg, params.k, params.n
    s = scheme.partial_sums
    e1 = e2 = z = 0
    binomials = []
    for j, (m_j, y_j) in enumerate(zip(scheme.sizes, y)):
        z += y_j
        e1 += (n - z - s[j]) * (m_j - y_j)
        e2 += (k - s[j] - n + z + 1) * y_j
        binomials.append(deformed_binomial(alg, m_j, y_j))
    return _closed(alg, e1, e2, binomials)


def _first_grouped_marginal(params, scheme, prefix):
    alg, k, n = params.alg, params.k, params.n
    s = scheme.partial_sums
    nu, z_nu = len(prefix), sum(prefix)
    e1 = e2 = z = 0
    binomials = []
    for j in range(nu):
        m_j, y_j = scheme.sizes[j], prefix[j]
        z += y_j
        e1 += (n - z - s[j]) * (m_j - y_j)
        e2 += (k - s[j] - n + z_nu + 1) * y_j + comb(y_j, 2)
        binomials.append(deformed_binomial(alg, m_j, y_j))
    e2 -= comb(z_nu, 2)
    tail = binomial_or_zero(alg, k - s[nu - 1] + 1, n - z_nu)
    return _closed(alg, e1, e2, binomials, tail)


def _second_marginal(params, prefix):
    alg, k, n = params.alg, params.k, params.n
    r, y = len(prefix), sum(prefix)
    e = sum((k - j) * prefix[j] for j in range(r))
    tail = binomial_or_zero(alg, k - r + n - y, n - y)
    return _closed(alg, second_kind._phi_constant_exponent(k, n) - e, e, [tail])


def _second_conditional(params, given, suffix):
    alg, k, n = params.alg, params.k, params.n
    r, m = len(given), len(given) + len(suffix)
    y_r = sum(given)
    y_m = y_r + sum(suffix)
    e = sum((k - (r + j)) * suffix[j] for j in range(len(suffix)))
    numerator = binomial_or_zero(alg, k - m + n - y_m, n - y_m)
    denominator = deformed_binomial(alg, k - r + n - y_r, n - y_r)
    return _closed(alg, -e, e, [numerator], divisor=denominator)


def _second_grouped(params, scheme, y):
    alg, k, n = params.alg, params.k, params.n
    s = scheme.partial_sums
    e1 = e2 = z = 0
    binomials = []
    for j, (m_j, y_j) in enumerate(zip(scheme.sizes, y)):
        z += y_j
        e1 += (n - z - s[j]) * (m_j - 1)
        e2 += (k - s[j] + 1) * y_j
        binomials.append(binomial_or_zero(alg, m_j + y_j - 1, y_j))
    return _closed(alg, e1, e2, binomials)


def _second_grouped_marginal(params, scheme, prefix):
    alg, k, n = params.alg, params.k, params.n
    s = scheme.partial_sums
    nu, z_nu = len(prefix), sum(prefix)
    e1 = e2 = z = 0
    binomials = []
    for j in range(nu):
        m_j, y_j = scheme.sizes[j], prefix[j]
        z += y_j
        e1 += (n - z - s[j]) * (m_j - 1)
        e2 += (k - s[j] + 1) * y_j
        binomials.append(binomial_or_zero(alg, m_j + y_j - 1, y_j))
    tail = binomial_or_zero(alg, k - s[nu - 1] + n - z_nu, n - z_nu)
    return _closed(alg, e1, e2, binomials, tail)


# Per kind: closed values of a marginal, a conditional, a grouped and a
# grouped-marginal point.
CLOSED = {
    first_kind: (_first_marginal, _first_conditional, _first_grouped, _first_grouped_marginal),
    second_kind: (_second_marginal, _second_conditional, _second_grouped, _second_grouped_marginal),
}


# Most tables of one joint share z, so the reference fits are memoised.
_fit = lru_cache(maxsize=None)(fit_monomial)


def _assert_records(table, params, support, masses, closed, z_reference=None):
    """`table` against masses scanned from the joint and per-point exact
    closed values: probabilities, closed-form check and normalizer fit."""
    alg = params.alg
    assert table.support == support
    weights, z, probabilities = normalized(masses, alg.exact)
    assert (table.weights, table.z_enumerated, table.probabilities) == (weights, z, probabilities)
    closed_probs = normalized(closed, alg.exact)[2]
    check = table.closed_form_check
    assert check.probabilities == closed_probs
    # `==` takes 1/2 for 0.5: the mode's type is checked apart.
    scalar = Fraction if alg.exact else float
    assert all(type(v) is scalar for v in (table.z_enumerated, *table.probabilities, *check.probabilities))
    assert check.pointwise_equal == all(
        scalars_close(a, b, alg.exact, alg.tol) for a, b in zip(closed_probs, table.probabilities)
    )
    if z_reference is None:
        assert table.z_discrepancy is None
    else:
        z_closed, bound = z_reference
        assert table.z_closed_form == z_closed
        assert table.z_discrepancy == _fit(alg, z, z_closed, bound)


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_marginal_and_conditional_records_equal_per_point(case):
    module = case[0]
    marginal, conditional = CLOSED[module][:2]
    for params in _params(*case):
        joint = joint_table(params)
        k = params.k
        for r in range(1, k):
            support, masses = scan(joint.support, joint.weights, lambda x: True, lambda x: x[:r])
            closed = [marginal(params, p) for p in support]
            table = module.marginal_pmf(params, r)
            _assert_records(table, params, support, masses, closed, _z_reference(module, params))
            # One closed value per (sum, area) class, shared by its points.
            classes = {(sum(p), area(p)) for p in support}
            assert len({id(v) for v in table.closed_form_check.probabilities}) == len(classes)
            for given in prefixes(module, params, r):
                for m in range(r + 1, k + 1):
                    support, masses = scan(
                        joint.support, joint.weights, lambda x: x[:r] == given, lambda x: x[r:m]
                    )
                    if not support:
                        continue
                    closed = [conditional(params, given, s) for s in support]
                    _assert_records(
                        module.conditional_pmf(params, given, m), params, support, masses, closed
                    )


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_grouped_records_equal_per_point(case):
    module = case[0]
    grouped, grouped_marginal = CLOSED[module][2:]
    for params in _params(*case):
        joint = joint_table(params)
        z_reference = _z_reference(module, params)
        for sizes in compositions(params.k):
            scheme = GroupingScheme(sizes)
            blocks, block_masses = scan(
                joint.support, joint.weights, lambda x: True, block_sums(sizes)
            )
            closed = [grouped(params, scheme, y) for y in blocks]
            _assert_records(
                module.grouped_pmf(params, scheme), params, blocks, block_masses, closed, z_reference
            )
            for nu in range(1, len(sizes)):
                support, masses = scan(blocks, block_masses, lambda y: True, lambda y: y[:nu])
                closed = [grouped_marginal(params, scheme, p) for p in support]
                table = module.grouped_marginal_pmf(params, scheme, nu)
                _assert_records(table, params, support, masses, closed, z_reference)
                for given in support:
                    suffixes, masses = scan(
                        blocks, block_masses, lambda y: y[:nu] == given, lambda y: y[nu:]
                    )
                    prefix_weight = grouped_marginal(params, scheme, given)
                    closed = [grouped(params, scheme, given + s) / prefix_weight for s in suffixes]
                    table = module.grouped_conditional_pmf(params, scheme, given)
                    _assert_records(table, params, suffixes, masses, closed)


DECIMAL_PRESETS = (jagannathan_srinivasa(0.9, 0.5), q_deformation(0.5), quesne(0.9, 0.5),
                   chakrabarty_jagannathan(0.9, 0.5))


def _same(value, reference):
    assert value == reference
    assert type(value) is type(reference)
    assert repr(value) == repr(reference)


@pytest.mark.parametrize(
    "case",
    [(module, alg) for module in (first_kind, second_kind) for alg in ALL_PRESETS + DECIMAL_PRESETS],
    ids=kind_id,
)
def test_closed_terms_equal_per_point_products(case):
    """Each kind's closed-value terms, multiplied by `algebra._closed_pair`,
    against the per-point formulas above, exact products in both modes:
    tau1^a * tau2^b times the normalizer, times the numerator and over the
    denominator (`prefix_normalizer`, as `make_table` divides by it), or
    times the binomials of each block.  Value, type and repr, k <= 6."""
    module, alg = case
    marginal, conditional, grouped, grouped_marginal = CLOSED[module]
    if module is first_kind:
        cases = [FirstKindParams(alg, k, n) for k in range(1, 7) for n in range(k + 2)]
    else:
        cases = [SecondKindParams(alg, k, n) for k in range(1, 7) for n in range(4)]

    def closed(terms):
        return Fraction(*_closed_pair(alg, *terms))

    for params in cases:
        joint = joint_table(params)
        k = params.k
        for m in range(1, k):
            for x in scan(joint.support, joint.weights, lambda x: True, lambda x: x[:m])[0]:
                _same(closed(params.marginal_terms(m, (sum(x), area(x)))), marginal(params, x))
                for r in range(1, m):
                    suffix_key = (sum(x), sum(x[r:]), area(x[r:]))
                    _same(closed(params.conditional_terms(m, suffix_key)) / exact(params.prefix_normalizer(x[:r])),
                          conditional(params, x[:r], x[r:]))
        for sizes in compositions(k):
            scheme = GroupingScheme(sizes)
            for y in scan(joint.support, joint.weights, lambda x: True, block_sums(sizes))[0]:
                _same(closed(params.grouped_terms(scheme, y)), grouped(params, scheme, y))
                for prefix in (y[:nu] for nu in range(1, len(sizes))):
                    _same(closed(params.grouped_terms(scheme, prefix)),
                          grouped_marginal(params, scheme, prefix))


def _clear_caches():
    # The class laws hold every memo of a joint: its tables, walks and count rows.
    occupancy._joint_law.cache_clear()


CORE_NAMES = (
    "joint_pmf", "joint_weight", "marginal_pmf", "conditional_pmf", "grouped_pmf",
    "grouped_marginal_pmf", "grouped_conditional_pmf", "bivariate_table", "GroupingScheme",
    "ConstructionReport",
)


def test_both_kinds_share_one_core_and_keep_their_own_joints():
    for name in CORE_NAMES:
        assert getattr(first_kind, name) is getattr(second_kind, name) is getattr(occupancy, name)
    first, second = FirstKindParams(JS, 3, 2), SecondKindParams(JS, 3, 2)
    assert first != second and hash(first) == hash(second)
    _clear_caches()
    assert occupancy.joint_pmf(first).params["kind"] == "first"
    assert occupancy.joint_pmf(second).params["kind"] == "second"
    assert len(occupancy.joint_pmf(second).support) == 10
    assert occupancy.joint_pmf.cache_info().currsize == 2


def _derived_calls(module, params):
    """Every marginal, conditional and grouped call at `params`, as thunks."""
    k = params.k
    calls = [lambda r=r: module.marginal_pmf(params, r) for r in range(1, k)]
    for r in range(1, k):
        for given in prefixes(module, params, r):
            calls.extend(
                lambda g=given, m=m: module.conditional_pmf(params, g, m) for m in range(r + 1, k + 1)
            )
    for sizes in compositions(k):
        scheme = GroupingScheme(sizes)
        calls.append(lambda s=scheme: module.grouped_pmf(params, s))
        for nu in range(1, len(sizes)):
            calls.append(lambda s=scheme, nu=nu: module.grouped_marginal_pmf(params, s, nu))
            for given in product(range(params.n + 1), repeat=nu):
                calls.append(lambda s=scheme, g=given: module.grouped_conditional_pmf(params, s, g))
    return calls


def _outcome(call):
    try:
        table = call()
    except ZeroProbabilityEventError as exc:
        return str(exc)
    return table, repr(table)


@pytest.mark.parametrize(
    "params",
    [FirstKindParams(JS, 5, 3), FirstKindParams(jagannathan_srinivasa(0.9, 0.5), 4, 2),
     SecondKindParams(JS, 4, 3), SecondKindParams(jagannathan_srinivasa(0.9, 0.5), 3, 3)],
    ids=lambda p: f"{type(p).__name__}-{p.alg.name}-{p.k}-{p.n}",
)
def test_warm_calls_equal_cold_calls(params):
    module = first_kind if isinstance(params, FirstKindParams) else second_kind
    calls = _derived_calls(module, params)
    cold = []
    for call in calls:
        _clear_caches()
        cold.append(_outcome(call))
    _clear_caches()
    # Warm: every call after the first shares a cut or a scheme with an
    # earlier one.
    assert [_outcome(call) for call in calls] == cold
    assert [_outcome(call) for call in calls] == cold


def test_cold_derived_calls_read_one_class_law_and_one_scheme(monkeypatch):
    params = FirstKindParams(JS, 6, 3)
    _clear_caches()
    refuse_joint_tables(monkeypatch)
    joint = joint_table(params)
    first_kind.marginal_pmf(params, 2)
    first_kind.conditional_pmf(params, (0, 1), 5)
    first_kind.conditional_pmf(params, (1, 0, 1), 5)
    scheme = GroupingScheme((2, 3, 1))
    first_kind.grouped_pmf(params, scheme)
    first_kind.grouped_marginal_pmf(params, scheme, 2)
    table = first_kind.grouped_conditional_pmf(params, scheme, (1,))
    assert occupancy._joint_law.cache_info().currsize == 1
    walks = [key for key in occupancy._joint_law(params).tables if key[0] is occupancy._walk]
    assert walks == [(occupancy._walk, (2, 3, 1))]
    blocks, masses = scan(joint.support, joint.weights, lambda x: True, block_sums((2, 3, 1)))
    assert table.weights == scan(blocks, masses, lambda y: y[:1] == (1,), lambda y: y[1:])[1]


def test_grouped_law_needs_blocks_covering_the_point():
    params = FirstKindParams(JS, 5, 3)
    for sizes in ((2, 2), (3, 3), (5, 1)):
        with pytest.raises(ValidationError, match="must sum to k=5"):
            first_kind.grouped_pmf(params, GroupingScheme(sizes))
    # One block: the law of the total, by sum.
    joint = joint_table(params)
    table = first_kind.grouped_pmf(params, GroupingScheme((5,)))
    assert (table.support, table.weights) == scan(joint.support, joint.weights, lambda x: True, lambda x: (sum(x),))


@pytest.mark.parametrize("law, leading, message", [
    (first_kind.grouped_marginal_pmf, 0, "nu: need 1 <= nu < 2, got 0"),
    (first_kind.grouped_marginal_pmf, 2, "nu: need 1 <= nu < 2, got 2"),
    (first_kind.grouped_conditional_pmf, (), "given: need 1 <= len(given) < 2, got 0"),
    (first_kind.grouped_conditional_pmf, (1, 0), "given: need 1 <= len(given) < 2, got 2"),
], ids=("nu-0", "nu-r", "given-empty", "given-of-r"))
def test_grouped_laws_refuse_leading_blocks_outside_the_scheme(law, leading, message):
    with pytest.raises(ValidationError) as raised:
        law(FirstKindParams(JS, 3, 2), GroupingScheme((1, 2)), leading)
    assert str(raised.value) == message


def test_replace_copies_a_table_that_samples_alike():
    params = SecondKindParams(JS, 4, 3)
    _clear_caches()
    joint, reference = second_kind.joint_pmf(params), joint_table(params)
    expected = scan_sample(reference, mantissas(1), 20)
    copy = joint.replace()
    assert sample(copy, 1, 20).draws == expected
    assert sequential_sample(params, 1, 20).draws == scan_sequential(reference, mantissas(1), 20)
    assert sample(joint, 1, 20).draws == expected
    # A copy of a table that has sampled: equal, with the same repr, and
    # drawing alike.
    copy = joint.replace()
    assert copy == joint and repr(copy) == repr(joint)
    assert sample(copy, 1, 20).draws == expected


@pytest.mark.parametrize("module", (first_kind, second_kind), ids=("first", "second"))
def test_exact_and_decimal_algebras_of_equal_values_keep_their_own_tables(module):
    exact, decimal = q_deformation(Fraction(1, 2)), q_deformation(0.5)
    assert exact != decimal
    make = FirstKindParams if module is first_kind else SecondKindParams
    exact_params, decimal_params = make(exact, 3, 2), make(decimal, 3, 2)
    assert exact_params != decimal_params
    scheme = GroupingScheme((2, 1))
    _clear_caches()
    # Both joints, then both grouped laws in the other order, in one process.
    exact_joint = module.joint_pmf(exact_params)
    decimal_joint = module.joint_pmf(decimal_params)
    decimal_masses = module.grouped_pmf(decimal_params, scheme).weights
    exact_masses = module.grouped_pmf(exact_params, scheme).weights
    assert decimal_joint is not exact_joint
    assert all(type(v) is Fraction for v in exact_joint.probabilities + exact_masses)
    assert all(type(v) is float for v in decimal_joint.probabilities + decimal_masses)
    assert module.joint_pmf(exact_params) is exact_joint
    assert module.joint_pmf(decimal_params) is decimal_joint


@pytest.mark.parametrize(
    "module, params",
    [(first_kind, FirstKindParams(JS, 7, 3)), (second_kind, SecondKindParams(JS, 7, 2))],
    ids=("first", "second"),
)
def test_class_memos_stay_bounded(module, params):
    """A long-lived process keeps at most 32 class laws.  Each class law
    keeps the count rows of its suffix boxes, and the tables it returned
    and the walks of the schemes it read while they hold at most a budget
    of points; what a law keeps goes with it, and what was evicted is
    recomputed to equal tables."""
    schemes = [GroupingScheme(sizes) for sizes in compositions(7)][:40]
    assert len(set(schemes)) == 40
    _clear_caches()
    first = module.grouped_pmf(params, schemes[0])
    module.marginal_pmf(params, 2)
    module.conditional_pmf(params, (0, 1), 4)
    law = occupancy._joint_law(params)
    tables = law.tables
    # The grouped law, its scheme's walk, the marginal and the conditional,
    # each sized by its points (a walk by its block vectors at every depth).
    assert tables.budget == 1 << 14 and len(tables) == 4
    walk = tables[(occupancy._walk, schemes[0].sizes)]
    assert tables.size(walk) == sum(map(len, walk)) and tables.size(first) == len(first.support)
    assert law.rows.cache_info().currsize and all(map(len, walk))
    # A walk, a list of levels, has no weak reference: it goes with its law.
    memos = [weakref.ref(memo) for memo in (law, law.rows, *tables.values()) if memo is not first and memo is not walk]
    # Many distinct conditionals and schemes on one law: its kept tables and
    # walks stay within its budget of points (2^14, made small here), the
    # most recently read kept.
    tables.budget, returned = 20, 0
    for r in range(1, params.k):
        for given, m in product(prefixes(module, params, r), range(r + 1, params.k + 1)):
            returned += type(_outcome(partial(module.conditional_pmf, params, given, m))) is tuple
            assert tables.points == sum(map(tables.size, tables.values())) <= tables.budget
    assert returned > 100 and len(tables) < returned
    for scheme in schemes:
        module.grouped_pmf(params, scheme)
        assert tables.points == sum(map(tables.size, tables.values())) <= tables.budget
    # A table past the budget is returned but not kept.
    large = module.marginal_pmf(params, params.k - 1)
    assert len(large.support) > tables.budget and all(t is not large for t in tables.values())
    again = module.marginal_pmf(params, params.k - 1)
    assert again is not large and (again, repr(again)) == (large, repr(large))
    del law, tables, walk
    make = type(params)
    for j in range(40):
        other = make(jagannathan_srinivasa(Fraction(j + 2, j + 3), Fraction(1, 3)), 3 + j % 4, 2)
        module.marginal_pmf(other, 2)
        sequential_sample(other, j, 5)
        assert occupancy._joint_law.cache_info().currsize <= 32
    # A listing gives its class partition: the distinct (sum, area) keys
    # in first-seen order and each point's key, one index per point.
    points, keys, index = classes._listing(ConstraintSet((2,) * 4, 1, 5))
    assert len(points) > len(keys) > 1
    assert keys == tuple(dict.fromkeys((sum(x), area(x)) for x in points))
    assert [keys[c] for c in index] == [(sum(x), area(x)) for x in points]
    assert occupancy._joint_law.cache_info().currsize == 32
    gc.collect()
    assert [memo() for memo in memos] == [None] * len(memos)
    # An evicted law and scheme are summed again, to an equal table.
    again = module.grouped_pmf(params, schemes[0])
    assert (again, repr(again)) == (first, repr(first))
    joint = joint_table(params)
    support, masses = scan(joint.support, joint.weights, lambda x: True, block_sums(schemes[0].sizes))
    assert (again.support, again.weights) == (support, masses)


def _live(kind):
    """The number of live objects of type `kind`, after a collection."""
    gc.collect()
    return sum(type(o) is kind for o in gc.get_objects())


def test_nothing_outlives_its_class_law():
    """Every memo of a joint lives on its class law: once derived laws of
    40 other models have evicted a law, its algebra, the law with the walk
    of its scheme, and its joint table are gone, and the algebras made
    meanwhile never outnumber the live class laws."""
    _clear_caches()
    base = _live(AlgebraSpec)

    def first_model():
        params = FirstKindParams(jagannathan_srinivasa(Fraction(9, 10), Fraction(1, 2)), 5, 3)
        first_kind.grouped_pmf(params, GroupingScheme((2, 3)))
        first_kind.marginal_pmf(params, 2)
        joint = first_kind.joint_pmf(params)
        law = occupancy._joint_law(params)
        assert (occupancy._walk, (2, 3)) in law.tables
        return [weakref.ref(memo) for memo in (params.alg, law, joint)]

    memos = first_model()
    for j in range(40):
        params = SecondKindParams(jagannathan_srinivasa(Fraction(9, 10), Fraction(1, j + 3)), 3 + j % 3, 3)
        second_kind.marginal_pmf(params, 2)
        second_kind.grouped_pmf(params, GroupingScheme((1, params.k - 1)))
        if j % 10 == 9:
            del params
            assert _live(AlgebraSpec) - base <= _live(PrefixClasses)
    assert [memo() for memo in memos] == [None] * 3


def test_derived_arguments_are_read_as_integers():
    """r, m, nu, given and a scheme's sizes are read through
    `operator.index` before they are checked: a bool is its int, so a call
    equal to an earlier one returns the table the earlier one kept, and it
    records ints; any other non-integer is refused, naming its field."""
    params = SecondKindParams(JS, 3, 2)
    _clear_caches()
    table = second_kind.conditional_pmf(params, (True, 0), 3)
    assert second_kind.conditional_pmf(params, (1, 0), 3) is table
    marginal = second_kind.marginal_pmf(params, True)
    assert second_kind.marginal_pmf(params, 1) is marginal
    scheme = GroupingScheme((True, 2))
    grouped = second_kind.grouped_marginal_pmf(params, scheme, True)
    conditional = second_kind.grouped_conditional_pmf(params, scheme, (True,))
    assert second_kind.grouped_conditional_pmf(params, GroupingScheme((1, 2)), (1,)) is conditional
    recorded = [*table.params["given"], table.params["m"], marginal.params["r"], *scheme.sizes,
                *grouped.params["scheme"], grouped.params["nu"], *conditional.params["given"]]
    assert recorded == [1, 0, 3, 1, 1, 2, 1, 2, 1, 1] and {type(v) for v in recorded} == {int}
    pair = GroupingScheme((1, 2))
    refused = [
        ("r", lambda: second_kind.marginal_pmf(params, 1.0)),
        ("given", lambda: second_kind.conditional_pmf(params, (1.0, 0), 3)),
        ("m", lambda: second_kind.conditional_pmf(params, (1, 0), 3.0)),
        ("scheme", lambda: GroupingScheme((1.0, 2))),
        ("nu", lambda: second_kind.grouped_marginal_pmf(params, pair, 1.0)),
        ("given", lambda: second_kind.grouped_conditional_pmf(params, pair, (Fraction(1),))),
    ]
    for field, call in refused:
        with pytest.raises(ValidationError, match=f"^{field}: '.+' object cannot be interpreted as an integer$"):
            call()


def test_moment_arguments_are_read_as_integers():
    """i1 and i2 are read through `operator.index` before they are checked,
    in both kinds: a bool is its int, so its reports, labels included, are
    those of the int, and any other non-integer is refused, naming its
    field."""
    for module, params in ((first_kind, FirstKindParams(JS, 3, 2)), (second_kind, SecondKindParams(JS, 3, 2))):
        _clear_caches()
        reports = module.bivariate_moments(params, True, 2)
        assert reports == module.bivariate_moments(params, 1, 2)
        assert [r.quantity for r in reports if "[" in r.quantity] == [
            "mean[i1=1]" if module is first_kind else "factorial-moment[i1=1]", "mixed[i2=2]"]
        _clear_caches()
        assert module.bivariate_moments(params, 1, True) == module.bivariate_moments(params, 1, 1)
        for field, args in (("i1", (1.0, 1)), ("i2", (1, 2.0)), ("i1", (Fraction(1), 1))):
            with pytest.raises(ValidationError, match=f"^{field}: '.+' object cannot be interpreted as an integer$"):
                module.bivariate_moments(params, *args)
        with pytest.raises(ValidationError, match="^moment orders must be >= 1, got i1=0, i2=1$"):
            module.bivariate_moments(params, False, 1)


@pytest.mark.parametrize("alg", (JS, jagannathan_srinivasa(0.9, 0.5)), ids=("exact", "decimal"))
@pytest.mark.parametrize("module", (first_kind, second_kind), ids=("first", "second"))
def test_warm_moments_are_kept_reports(module, alg, monkeypatch):
    """`bivariate_moments` keeps its reports on the joint's class law, by
    (i1, i2): a warm call computes no oracle expectation and returns equal
    reports in a new list, which a caller may change without changing the
    next call's; the kept reports count toward the law's point budget."""
    for params in grid(module, alg, first_k=5, second_k=4, second_n=3):
        if params.k < 2:
            continue
        _clear_caches()
        cold = module.bivariate_moments(params, 1, 2)
        tables = occupancy._joint_law(params).tables
        kept = tables[(module._moments, 1, 2)]
        assert type(kept) is tuple and list(kept) == cold
        assert tables.points == sum(map(tables.size, tables.values())) and tables.size(kept) == len(cold) == 4
        expectations = []
        monkeypatch.setattr(module, "oracle_expectation", lambda *args: expectations.append(args))
        warm = module.bivariate_moments(params, 1, 2)
        assert warm == cold and warm is not cold and not expectations
        warm.clear()
        warm = module.bivariate_moments(params, True, 2)
        assert warm == cold and all(a is b for a, b in zip(warm, kept)) and not expectations
        monkeypatch.undo()
        # Other orders are other reports, computed once.
        other = module.bivariate_moments(params, 2, 1)
        assert tables[(module._moments, 2, 1)] == tuple(other)
        assert tables.points == sum(map(tables.size, tables.values()))


def _one_of_each(module, params):
    """Calls of each of the five derived laws at `params`, k >= 2, by name."""
    k, n = params.k, params.n
    calls = [("marginal", lambda r=r: module.marginal_pmf(params, r)) for r in range(1, k)]
    calls += [("conditional", lambda g=given: module.conditional_pmf(params, g, k))
              for given in prefixes(module, params, 1)]
    for sizes in [sizes for sizes in compositions(k) if len(sizes) > 1][:3]:
        scheme = GroupingScheme(sizes)
        calls += [("grouped", lambda s=scheme: module.grouped_pmf(params, s)),
                  ("grouped_marginal", lambda s=scheme: module.grouped_marginal_pmf(params, s, 1))]
        calls += [("grouped_conditional", lambda s=scheme, g=g: module.grouped_conditional_pmf(params, s, (g,)))
                  for g in range(n + 1)]
    return calls


@pytest.mark.parametrize("alg", (JS, jagannathan_srinivasa(0.9, 0.5)), ids=("exact", "decimal"))
@pytest.mark.parametrize("module", (first_kind, second_kind), ids=("first", "second"))
def test_a_warm_derived_call_returns_the_table_it_returned(module, alg):
    """Each derived table is kept on its joint's class law, by call: a
    repeated call returns the object its first call returned, with no new
    normalization; after the memos are cleared a call gives an equal table
    again."""
    names = set()
    for params in grid(module, alg, first_k=5, second_k=4, second_n=3):
        if params.k < 2:
            continue
        calls = _one_of_each(module, params)
        _clear_caches()
        cold = [_outcome(call) for _, call in calls]
        assert [_outcome(call) for _, call in calls] == cold
        for (name, call), first in zip(calls, cold):
            if type(first) is tuple:
                assert call() is first[0], (params, name)
                names.add(name)
        _clear_caches()
        again = [_outcome(call) for _, call in calls]
        assert again == cold
        assert all(a[0] is not c[0] for a, c in zip(again, cold) if type(c) is tuple)
    assert names == {"marginal", "conditional", "grouped", "grouped_marginal", "grouped_conditional"}


@pytest.mark.parametrize("call", [
    lambda params: first_kind.conditional_pmf(params, (0, 0), 3),
    lambda params: first_kind.grouped_conditional_pmf(params, GroupingScheme((2, 1)), (0,)),
], ids=("conditional", "grouped-conditional"))
def test_a_refused_derived_call_raises_again_and_keeps_nothing(call):
    """A zero-probability event found after the joint's guard (every point
    of first kind k3 n3 has sum 2 or 3): the call raises again when
    repeated, and the class law keeps no table for it (a grouped
    conditional keeps the walk of its scheme, which it read)."""
    params = FirstKindParams(JS, 3, 3)
    _clear_caches()
    kept = first_kind.marginal_pmf(params, 1)
    tables = occupancy._joint_law(params).tables
    for _ in range(2):
        with pytest.raises(ZeroProbabilityEventError, match="has probability zero"):
            call(params)
        assert [id(t) for key, t in tables.items() if key[0] is not occupancy._walk] == [id(kept)]
        assert tables.points == sum(map(tables.size, tables.values()))


@pytest.mark.parametrize("alg", (JS, jagannathan_srinivasa(0.9, 0.5)), ids=("exact", "decimal"))
@pytest.mark.parametrize("module", (first_kind, second_kind), ids=("first", "second"))
def test_a_warm_call_hashes_its_params_once(module, alg, monkeypatch):
    """A warm call of each derived law and of `joint_pmf` hashes its params
    once, to find its class law, whose kept tables are keyed by call alone:
    every table a law keeps belongs to its own params."""
    params = (FirstKindParams if module is first_kind else SecondKindParams)(alg, 5, 3)
    scheme = GroupingScheme((2, 2, 1))
    calls = {
        "joint": lambda: module.joint_pmf(params),
        "marginal": lambda: module.marginal_pmf(params, 2),
        "conditional": lambda: module.conditional_pmf(params, (1, 0), 4),
        "grouped": lambda: module.grouped_pmf(params, scheme),
        "grouped_marginal": lambda: module.grouped_marginal_pmf(params, scheme, 2),
        "grouped_conditional": lambda: module.grouped_conditional_pmf(params, scheme, (1,)),
    }
    _clear_caches()
    cold = {name: call() for name, call in calls.items()}
    hashes, record_hash = [0], occupancy.OccupancyParams.__hash__

    def counting(self):
        hashes[0] += 1
        return record_hash(self)

    monkeypatch.setattr(occupancy.OccupancyParams, "__hash__", counting)
    for name, call in calls.items():
        before = hashes[0]
        assert call() is cold[name] and hashes[0] - before == 1, name


def test_joint_tables_stay_within_their_point_budget(monkeypatch):
    """`joint_pmf` keeps its table on its class law, within the law's budget
    of points with the derived tables: a repeated call returns the same
    object, an evicted table is listed again to an equal one, and a table
    larger than the budget is returned but not kept."""
    _clear_caches()
    params = FirstKindParams(JS, 6, 3)
    tables = occupancy._joint_law(params).tables
    monkeypatch.setattr(tables, "budget", 50)
    first = occupancy.joint_pmf(params)
    assert len(first.support) == 35 and occupancy.joint_pmf(params) is first
    # A derived table read after the joint evicts it, the least recently read.
    marginal = occupancy.marginal_pmf(params, 5)
    assert len(marginal.support) + 35 > 50 and list(tables.values()) == [marginal]
    again = occupancy.joint_pmf(params)
    assert again is not first and (again, repr(again)) == (first, repr(first))
    assert list(tables.values()) == [again] and tables.points == 35
    tables.cache_clear()
    monkeypatch.setattr(tables, "budget", 30)
    large = occupancy.joint_pmf(params)
    assert occupancy.joint_pmf(params) is not large and not tables and tables.points == 0


def test_joint_pmf_reports_and_clears_its_memo_as_an_lru_cache_does():
    """Each kind's `joint_pmf` has the `cache_info()` and `cache_clear()`
    of the class laws (`_joint_law`), which keep the joint tables:
    profiling and reference scripts call them, and clearing the laws frees
    their tables."""
    first_kind.joint_pmf.cache_clear()
    assert tuple(first_kind.joint_pmf.cache_info()) == (0, 0, 32, 0)
    params = FirstKindParams(JS, 3, 3)
    table = first_kind.joint_pmf(params)
    assert first_kind.joint_pmf(params) is table
    info = second_kind.joint_pmf.cache_info()
    assert info == occupancy._joint_law.cache_info() and info.hits > 0 and (info.misses, info.currsize) == (1, 1)
    table = weakref.ref(table)
    second_kind.joint_pmf.cache_clear()
    assert tuple(first_kind.joint_pmf.cache_info()) == (0, 0, 32, 0)
    gc.collect()
    assert table() is None


def test_shared_closed_value_is_compared_with_every_probability():
    # One closed-value object at every point, and the last point's
    # probability equals its closed probability: only the other pairs differ.
    shared = Fraction(1)
    table = make_table(kind="t", params={}, coord_labels=("x",),
                       support=((0,), (1,), (2,), (3,)),
                       weights=(Fraction(3), Fraction(2), Fraction(1), Fraction(2)),
                       index=range(4), alg=JS, closed_values=[shared] * 4)
    assert table.closed_form_check.probabilities == (Fraction(1, 4),) * 4
    assert table.probabilities[-1] == Fraction(1, 4)
    assert table.closed_form_check.pointwise_equal is False


@pytest.mark.parametrize("module", (first_kind, second_kind), ids=("first", "second"))
@pytest.mark.parametrize("alg", ALL_PRESETS, ids=lambda alg: alg.name)
def test_exact_derived_tables_reuse_the_joint_fit(module, alg, monkeypatch):
    fits = []
    monkeypatch.setattr(pmf, "fit_monomial", lambda *args: fits.append(args) or fit_monomial(*args))
    for params in _params(module, alg):
        if params.k < 2:
            continue
        _clear_caches()
        fits.clear()
        module.joint_pmf(params)
        z_closed, bound = _z_reference(module, params)
        tables = [module.marginal_pmf(params, r) for r in range(1, params.k)]
        for sizes in compositions(params.k):
            scheme = GroupingScheme(sizes)
            tables.append(module.grouped_pmf(params, scheme))
            tables.extend(module.grouped_marginal_pmf(params, scheme, nu) for nu in range(1, len(sizes)))
        tables.append(module.bivariate_table(params))
        # The joint's fit is the only one computed.
        assert len(fits) == 1
        for table in tables:
            assert table.z_discrepancy == fit_monomial(alg, table.z_enumerated, z_closed, bound)
