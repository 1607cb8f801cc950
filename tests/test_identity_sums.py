"""The identity sums against their enumeration reference.

Each `hs*_lhs` sums over a constrained box without listing its points.  The
per-point weights below are the sums' definitions; `weighted_sum` lists the
box and adds them up, which is the independent oracle.
"""

import math
from math import comb

import pytest

from conftest import ALL_PRESETS
from rpq import (
    ConstraintSet,
    compositions,
    deformed_binomial,
    fit_monomial,
    hs1_lhs,
    hs2_lhs,
    hsa_lhs,
    hsb_lhs,
    jagannathan_srinivasa,
    verify_identity,
    weighted_sum,
)
from rpq.algebra import binomial_or_zero

KMAX = 5
JS_DECIMAL = jagannathan_srinivasa(0.9, 0.5)
ALGEBRAS = ALL_PRESETS + (JS_DECIMAL,)


def _occupancy_exponent(point):
    return sum((j + 1) * r for j, r in enumerate(point))


def hs1_reference(alg, k, n, literal_window):
    lo = 0 if literal_window else max(0, n - 1)
    c2 = comb(n, 2)
    t1, t2 = alg.tau1, alg.tau2

    def weight(point):
        s = _occupancy_exponent(point)
        return t1 ** (c2 - s) * t2 ** (s - c2)

    return weighted_sum(ConstraintSet(upper=(1,) * k, sum_min=lo, sum_max=min(n, k)), weight)


def hs2_reference(alg, k, n):
    t1, t2 = alg.tau1, alg.tau2

    def weight(point):
        s = _occupancy_exponent(point)
        return t1 ** (-s) * t2**s

    return weighted_sum(ConstraintSet(upper=(n,) * k, sum_min=0, sum_max=n), weight)


def hsa_reference(alg, k, n, groups, literal_window):
    lo = 0 if literal_window else max(0, n - 1)
    t1, t2 = alg.tau1, alg.tau2

    def weight(point):
        e1 = e2 = big_m = s = 0
        value = 1
        for m_j, r_j in zip(groups, point):
            big_m += m_j
            s += r_j
            e1 += (n - s) * (m_j - r_j)
            e2 += (k + 1 - big_m - n + s) * r_j
            value *= deformed_binomial(alg, m_j, r_j)
        return t1**e1 * t2**e2 * value

    return weighted_sum(ConstraintSet(upper=groups, sum_min=lo, sum_max=min(n, k)), weight)


def hsb_reference(alg, k, n, groups, sign=1):
    t1, t2 = alg.tau1, alg.tau2

    def weight(point):
        e1 = e2 = big_m = s = 0
        value = 1
        for m_j, r_j in zip(groups, point):
            big_m += m_j
            s += r_j
            e1 += (n - s) * (m_j - 1)
            e2 += (k + 1 - big_m) * r_j
            value *= binomial_or_zero(alg, m_j + r_j - 1, r_j)
        return t1**e1 * t2 ** (sign * e2) * value

    return weighted_sum(ConstraintSet(upper=(n,) * len(groups), sum_min=0, sum_max=n), weight)


def _same(alg, got, want):
    if alg.exact:
        return got == want
    return math.isclose(got, want, rel_tol=alg.tol)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda alg: f"{alg.name}-{alg.describe()['mode']}")
def test_sums_match_enumeration(alg):
    for k in range(0, KMAX + 1):
        for n in range(1, k + 2):
            for literal in (False, True):
                got, want = hs1_lhs(alg, k, n, literal_window=literal), hs1_reference(alg, k, n, literal)
                assert _same(alg, got, want), ("hs1", k, n, literal, got, want)
    for k in range(1, KMAX + 1):
        for n in range(0, KMAX + 1):
            assert _same(alg, hs2_lhs(alg, k, n), hs2_reference(alg, k, n)), ("hs2", k, n)
        for groups in compositions(k):
            for n in range(1, k + 2):
                for literal in (False, True):
                    got = hsa_lhs(alg, k, n, groups, literal_window=literal)
                    want = hsa_reference(alg, k, n, groups, literal)
                    assert _same(alg, got, want), ("hsa", k, n, groups, literal, got, want)
            for n in range(0, KMAX + 1):
                got, want = hsb_lhs(alg, k, n, groups), hsb_reference(alg, k, n, groups)
                assert _same(alg, got, want), ("hsb", k, n, groups, got, want)


@pytest.mark.parametrize("alg", ALL_PRESETS, ids=lambda alg: alg.name)
def test_mirrored_hsb_sign_never_fits(alg):
    # The mirrored tau2 sign convention (tau2^-e2 in place of tau2^e2) fits
    # no report that the stated sign leaves without a monomial, so
    # verify_identity does not retry with it.
    for rep in verify_identity("hsb", alg, KMAX):
        if rep.monomial_found:
            continue
        mirrored = hsb_reference(alg, rep.k, rep.n, rep.groups, sign=-1)
        assert not fit_monomial(alg, mirrored, rep.rhs, (rep.k + 1) * rep.n).found, (rep.k, rep.n, rep.groups)


FIT_FIELDS = ("exact_match", "monomial_found", "a", "b")


@pytest.mark.parametrize("p, q", [("9/10", "1/2"), ("4/5", "2/5"), ("7/10", "1/2")])
def test_decimal_fits_match_exact_twin(p, q):
    exact = jagannathan_srinivasa(p, q)
    twin = jagannathan_srinivasa(float(exact.p), float(exact.q))
    for suite in ("hs1", "hs2", "hsa", "hsb", "cauchy"):
        for want, got in zip(verify_identity(suite, exact, KMAX), verify_identity(suite, twin, KMAX)):
            key = (suite, want.k, want.n, want.m, want.groups)
            assert [getattr(got, f) for f in FIT_FIELDS] == [getattr(want, f) for f in FIT_FIELDS], key
            assert math.isclose(got.lhs, want.lhs, rel_tol=twin.tol), key
