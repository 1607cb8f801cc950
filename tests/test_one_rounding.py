"""Decimal laws take the exact class route and round once.

A decimal float is an exact dyadic rational, so a decimal law is summed as
integers over one denominator, as an exact law is, and each public value
is rounded once at the end (`oracle.normalized` states the contract).  Two
consequences are checked here:

- no decimal class computation lists more points than the law it builds:
  `lattice.walk` is counted while the joint stream, the derived laws and
  the sequential draws are computed from cold memos;
- every decimal probability of the joint, marginal, conditional and
  grouped laws over the desk-scale grid lies within ULP_BOUND units in the
  last place of the exact-rational law at the float parameters
  (`Fraction(0.9)`, `Fraction(0.5)`): what is left is the rounding of the
  float weights themselves, not of their sums;
- a decimal table's probabilities must sum to 1 exactly within half an
  ulp per class, their promised rounding, and the tolerance besides;
- every decimal identity lhs is the correctly rounded exact sum of the
  exact products of its points' float factors (`oracle.identity_lhs`), and
  every decimal expectation the correctly rounded exact sum of value times
  probability.  The reference splits each summand as the library does;
  `test_identity_sums` checks in exact mode that its sums are the
  definitions'.
"""

import sys
from fractions import Fraction
from math import ulp

import pytest

from oracle import compositions, identity_lhs
from test_cli import run_cli
from rpq import ValidationError, deformed_number, first_kind, jagannathan_srinivasa, lattice, occupancy, \
    oracle_expectation, second_kind, sequential_sample, verify_identity
from rpq.first_kind import FirstKindParams, GroupingScheme
from rpq.pmf import _check_decimal_probabilities
from rpq.second_kind import SecondKindParams

DECIMAL = jagannathan_srinivasa(0.9, 0.5)
# The same law in exact arithmetic, at the rationals the floats are.
AT_THE_FLOATS = jagannathan_srinivasa(Fraction(0.9), Fraction(0.5))

# The worst distance over the grid below is 1.36 ulp: the float weights'
# own rounding, carried through sums that add none.
ULP_BOUND = 2


def _counted_walks(monkeypatch):
    """Make every module that holds `lattice.walk` count the points it
    lists; returns the running count."""
    listed = [0]
    walk = lattice.walk

    def counting(*args, **kwargs):
        for prefixes, areas in walk(*args, **kwargs):
            listed[0] += len(areas)
            yield prefixes, areas

    for name, module in list(sys.modules.items()):
        if name.startswith("rpq") and getattr(module, "walk", None) is walk:
            monkeypatch.setattr(module, "walk", counting)
    return listed


def _cold():
    # The class laws hold every memo of a joint.
    occupancy._joint_law.cache_clear()


def _listed_by(listed, call):
    """The value of `call()` from cold memos, and the points it listed."""
    _cold()
    before = listed[0]
    value = call()
    return value, listed[0] - before


@pytest.mark.parametrize("params", [FirstKindParams(DECIMAL, 9, 4), SecondKindParams(DECIMAL, 5, 5)],
                         ids=("first", "second"))
def test_decimal_class_work_lists_no_more_than_its_law(params, monkeypatch):
    module = first_kind if params.kind == "first" else second_kind
    listed = _counted_walks(monkeypatch)
    k = params.k
    _, count = _listed_by(listed, lambda: module.joint_stream(params))
    assert count == 0
    _, count = _listed_by(listed, lambda: sequential_sample(params, 3, 200))
    assert count == 0
    for r in range(1, k):
        table, count = _listed_by(listed, lambda: module.marginal_pmf(params, r))
        assert count <= len(table.support)
    for given in ((0,), (1, 0), (0, 1, 1)):
        table, count = _listed_by(listed, lambda: module.conditional_pmf(params, given, k))
        assert count <= len(table.support)
    for sizes in ((2, k - 2), (1, 2, k - 3), (2, 1, 1, k - 4)):
        scheme = GroupingScheme(sizes)
        blocks, count = _listed_by(listed, lambda: module.grouped_pmf(params, scheme))
        assert count <= len(blocks.support)
        _, count = _listed_by(listed, lambda: module.grouped_marginal_pmf(params, scheme, 1))
        assert count <= len(blocks.support)
        _, count = _listed_by(listed, lambda: module.grouped_conditional_pmf(params, scheme, (1,)))
        assert count <= len(blocks.support)
    _cold()


def _laws(module, params):
    """The joint, every marginal, every conditional given a prefix up to
    the last coordinate, and the grouped laws of at most three blocks."""
    k = params.k
    yield module.joint_pmf(params)
    for r in range(1, k):
        yield module.marginal_pmf(params, r)
    for r in range(1, k):
        for given in sorted({x[:r] for x in module.joint_pmf(params).support}):
            yield module.conditional_pmf(params, given, k)
    for sizes in compositions(k):
        if len(sizes) <= 3:
            yield module.grouped_pmf(params, GroupingScheme(sizes))


@pytest.mark.parametrize("module", (first_kind, second_kind), ids=("first", "second"))
def test_decimal_probabilities_are_within_the_ulp_bound_of_the_law_at_the_floats(module):
    if module is first_kind:
        grid = [FirstKindParams(alg, k, n) for alg in (DECIMAL, AT_THE_FLOATS) for k in range(1, 9)
                for n in range(k + 2)]
    else:
        grid = [SecondKindParams(alg, k, n) for alg in (DECIMAL, AT_THE_FLOATS) for k in range(1, 7)
                for n in range(7)]
    half = len(grid) // 2
    worst = 0
    for decimal, exact in zip(grid[:half], grid[half:]):
        for table, reference in zip(_laws(module, decimal), _laws(module, exact)):
            assert table.support == reference.support
            for p, q in zip(table.probabilities, reference.probabilities):
                worst = max(worst, float(abs(Fraction(p) - q) / Fraction(ulp(float(q)))))
    assert worst <= ULP_BOUND


def test_decimal_sums_may_miss_one_by_their_rounding_and_no_more():
    # Three thirds rounded once sum to 1 - 2^-54: within half an ulp each.
    _check_decimal_probabilities("t", [1 / 3], [3], 0)
    half = ulp(0.5)
    # 1 + 2^-53: half an ulp of each class, exactly.
    _check_decimal_probabilities("t", [0.5, 0.5 + half], [1, 1], 0)
    # A probability two ulps off: beyond its rounding, and taken only
    # within a tolerance that covers the rest.
    off = [0.5, 0.5 + 2 * half]
    for tol in (0, half / 2):
        with pytest.raises(ValidationError, match=r"t table: probabilities sum to 1\.0000000000000002, not 1"):
            _check_decimal_probabilities("t", off, [1, 1], tol)
    _check_decimal_probabilities("t", off, [1, 1], half)
    # Counts weigh each class's rounding as they weigh its probability.
    with pytest.raises(ValidationError):
        _check_decimal_probabilities("t", [0.25 + ulp(0.25)], [4], 0)
    _check_decimal_probabilities("t", [0.25 + ulp(0.25)], [4], 2 * ulp(0.25))


@pytest.mark.parametrize("p, q", [(0.9, 0.5), (0.7, 0.4)])
def test_decimal_identity_sums_are_their_exact_sums_rounded_once(p, q):
    alg = jagannathan_srinivasa(p, q)
    runs = [(suite, False) for suite in ("hs1", "hs2", "hsa", "hsb", "cauchy")] + [("hs1", True), ("hsa", True)]
    for suite, literal in runs:
        for rep in verify_identity(suite, alg, 6, literal_window=literal):
            want = identity_lhs(alg, rep, literal)
            assert repr(rep.lhs) == repr(want), (suite, literal, rep.k, rep.n, rep.m, rep.groups)


@pytest.mark.parametrize("params", [FirstKindParams(DECIMAL, 5, 3), SecondKindParams(DECIMAL, 3, 4)],
                         ids=("first", "second"))
def test_decimal_expectations_are_their_exact_sums_rounded_once(params):
    module = first_kind if params.kind == "first" else second_kind
    table = module.joint_pmf(params)
    alg = params.alg
    for functional in (lambda x: float(x[0]), lambda x: deformed_number(alg, x[0]) ** 2,
                       lambda x: alg.tau2 ** -x[-1] * deformed_number(alg, x[1])):
        want = sum(Fraction(functional(x)) * Fraction(p) for x, p in zip(table.support, table.probabilities))
        assert repr(oracle_expectation(table, functional)) == repr(float(want))


@pytest.mark.parametrize("model", [
    # Weights that are nan.
    ("--kind", "first", "--k", "3", "--n", "2", "--preset", "quesne", "--p", "1e-300", "--q", "1e-310"),
    # Finite weights, and closed values that overflow to inf.
    ("--kind", "second", "--k", "3", "--n", "10", "--preset", "quesne", "--p", "0.9", "--q", "1e-10"),
], ids=("nan-weights", "overflowed-closed-values"))
@pytest.mark.parametrize("command", [("marginal", "--r", "1"), ("conditional", "--given", "1"),
                                     ("grouped", "--groups", "1,2")], ids=lambda c: c[0])
def test_a_float_with_no_exact_ratio_is_an_overflow(model, command):
    """A decimal sum reads each float as the rational it is; inf and nan
    have none, so the command exits 2 as a float overflow, never 1."""
    code, out, err = run_cli(*command, *model)
    assert (code, out) == (2, "")
    assert "approximate-mode arithmetic overflowed a float" in err and "integer ratio" in err
