"""The identity sums against their enumeration reference.

Each `hs*_lhs` sums over a constrained box without listing its points.  The
per-point weights below are the sums' definitions; `weighted_sum` lists the
box and adds them up, which is the independent oracle.
"""

import math
from fractions import Fraction
from math import comb

import pytest

from conftest import ALL_PRESETS
from oracle import identity_lhs
from rpq import (
    ConstraintSet,
    arik_coon,
    compositions,
    custom_algebra,
    deformed_binomial,
    fit_monomial,
    hs1_lhs,
    hs2_lhs,
    hsa_lhs,
    hsb_lhs,
    jagannathan_srinivasa,
    q_deformation,
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


def test_decimal_hsb_factors_stay_in_the_float_range_of_the_summands():
    # One group of 9 at tau1 = 0.99: a factor tau1^(-S (m - 1)) would pass
    # the float range at S = 8,825, though the summands' own factors
    # tau1^((n - S)(m - 1)) are at most 1.  The sum, about 1.7e-303, is a
    # normal float, and the walk must give it as the definition does.
    alg = jagannathan_srinivasa(0.99, 0.98)
    got, want = hsb_lhs(alg, 9, 9000, (9,)), hsb_reference(alg, 9, 9000, (9,))
    assert want > 1e-305 and math.isclose(got, want, rel_tol=1e-9)


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


def _per_tuple_lhs(alg, rep, literal):
    if rep.identity == "hs1":
        return hs1_lhs(alg, rep.k, rep.n, literal_window=literal)
    if rep.identity == "hs2":
        return hs2_lhs(alg, rep.k, rep.n)
    if rep.identity == "hsa":
        return hsa_lhs(alg, rep.k, rep.n, rep.groups, literal_window=literal)
    return hsb_lhs(alg, rep.k, rep.n, rep.groups)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda alg: f"{alg.name}-{alg.describe()['mode']}")
def test_walked_sums_equal_per_tuple_sums(alg):
    # verify_identity walks each family once per k (over the unit path for
    # hs1 and hs2, over every group-size suffix for hsa and hsb); each lhs
    # must be the per-tuple sum, a run for one n down one path, to the last
    # bit in approximate mode.
    runs = [(suite, literal, nmax)
            for suite in ("hs1", "hsa") for literal in (False, True) for nmax in (None, 3)]
    runs += [("hs2", False, nmax) for nmax in (None, 2, 9)]
    runs += [("hsb", False, nmax) for nmax in (None, 3)]
    for suite, literal, nmax in runs:
        reports = verify_identity(suite, alg, 6, nmax, literal_window=literal)
        assert reports
        for rep in reports:
            want = _per_tuple_lhs(alg, rep, literal)
            key = (suite, rep.k, rep.n, rep.groups, literal)
            assert rep.lhs == want and type(rep.lhs) is type(want), key


def _reference(alg, rep, literal):
    if rep.identity == "hs1":
        return hs1_reference(alg, rep.k, rep.n, literal)
    if rep.identity == "hs2":
        return hs2_reference(alg, rep.k, rep.n)
    if rep.identity == "hsa":
        return hsa_reference(alg, rep.k, rep.n, rep.groups, literal)
    return hsb_reference(alg, rep.k, rep.n, rep.groups)


@pytest.mark.parametrize("alg", ALL_PRESETS, ids=lambda alg: alg.name)
def test_split_reference_sums_to_the_definitions(alg):
    # `oracle.identity_lhs`, the decimal reference, sums each point's
    # factors as the library splits them (n-free factors and an n part).
    # In exact mode its sum over every box at kmax 6 is the definition's,
    # so that reference cannot drift from the identities.
    runs = [("hs1", False), ("hs1", True), ("hs2", False), ("hsa", False), ("hsa", True), ("hsb", False)]
    for suite, literal in runs:
        for rep in verify_identity(suite, alg, 6, literal_window=literal):
            assert identity_lhs(alg, rep, literal) == _reference(alg, rep, literal), \
                (suite, literal, rep.k, rep.n, rep.groups)


def fit_reference(alg, lhs, rhs, bound):
    """The exhaustive monomial search: every a in order of |a| (positive
    first), with a dict of tau2 powers in exact mode and the three neighbours
    of round(log(need) / log(tau2)) in approximate mode."""
    if alg.exact:
        close = lhs == rhs
    else:
        close = math.isclose(lhs, rhs, rel_tol=alg.tol)
    if close:
        return (True, True, 0, 0)
    if not alg.tau_structured and (alg.tau1 is None or alg.tau2 is None):
        return (False, False, 0, 0)
    if lhs == 0:
        return (False, False, 0, 0)
    bound = max(0, bound)
    t1, t2 = alg.tau1, alg.tau2
    ratio = rhs / lhs
    offsets = [0]
    for step in range(1, bound + 1):
        offsets.extend((step, -step))
    if alg.exact:
        t2_pow = {}
        for b in offsets:
            t2_pow.setdefault(t2**b, b)
        for a in offsets:
            need = ratio / t1**a
            if need in t2_pow:
                return (False, True, a, t2_pow[need])
    else:
        log_t2 = None if t2 == 1 else math.log(t2)
        for a in offsets:
            need = ratio / t1**a
            if log_t2 is None:
                candidates = (0,)
            elif 0 < need < math.inf:
                b0 = round(math.log(need) / log_t2)
                step = 1 if b0 >= 0 else -1
                candidates = (0, 1, -1) if b0 == 0 else (b0 - step, b0, b0 + step)
            else:
                continue
            for b in candidates:
                if abs(b) <= bound and math.isclose(t2**b, need, rel_tol=alg.tol):
                    return (False, True, a, b)
    return (False, False, 0, 0)


def _fit_algebras():
    out = list(ALGEBRAS)
    for tol in (1e-10, 1e-3, 0.5, 0.95):  # 0.95 >= 0.9: the unscreened search
        out.append(jagannathan_srinivasa(0.9, 0.5, tol=tol))
        out.append(q_deformation(0.5, tol=tol))
        out.append(custom_algebra("tau2-one", tau1=0.8, tau2=1.0, tol=tol))
        out.append(custom_algebra("tau2-square", tau1=0.75, tau2=0.5625, tol=tol))
        out.append(arik_coon(0.5, tol=tol))
    out += [
        custom_algebra("tau2-one", tau1=Fraction(4, 5), tau2=Fraction(1)),
        custom_algebra("tau2-square", tau1=Fraction(3, 4), tau2=Fraction(9, 16)),
        custom_algebra("tau-equal", tau1=Fraction(2, 3), tau2=Fraction(2, 3)),
        arik_coon(Fraction(1, 2)),
        arik_coon(Fraction(2, 3)),
    ]
    return out


@pytest.mark.parametrize("alg", _fit_algebras(), ids=lambda alg: f"{alg.name}-{alg.describe()['mode']}-{alg.tol}")
def test_screened_fit_equals_exhaustive_search(alg):
    cases = []
    for suite in ("hs1", "hs2", "hsa", "hsb", "cauchy"):
        for rep in verify_identity(suite, alg, KMAX):
            bound = (rep.k + 1) * rep.n
            cases.append((rep.lhs, rep.rhs, bound))
            cases.append((rep.rhs, rep.lhs, bound))
            # Known monomial quotients, inside and just outside the bound.
            for a, b in ((1, -1), (-2, 3), (bound, -bound), (bound + 1, 0), (0, -bound - 1)):
                cases.append((rep.lhs, rep.lhs * alg.tau1**a * alg.tau2**b, bound))
    found = 0
    for lhs, rhs, bound in cases:
        fit = fit_monomial(alg, lhs, rhs, bound)
        want = fit_reference(alg, lhs, rhs, bound)
        assert (fit.exact, fit.found, fit.a, fit.b) == want, (lhs, rhs, bound)
        found += want[1]
    assert found
