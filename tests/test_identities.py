import csv
import io
import json
import math
from fractions import Fraction

import pytest

from conftest import JS, Q_HALF, TAU1_ONE_PRESETS
from oracle import identity_box
from rpq import (
    CapacityError,
    ValidationError,
    cauchy_lhs,
    compositions,
    count_points,
    deformed_binomial,
    fit_monomial,
    hs1_lhs,
    hs2_lhs,
    hsa_lhs,
    hsb_lhs,
    make_preset,
    q_deformation,
    verify_identity,
)
from rpq import identities
from rpq.identities import reports_to_csv, reports_to_json_obj
from test_cli import run_cli


def test_hs1_values():
    assert hs1_lhs(Q_HALF, 2, 2) == Fraction(7, 4)
    assert hs1_lhs(Q_HALF, 2, 2) == deformed_binomial(Q_HALF, 3, 2)
    assert hs1_lhs(Q_HALF, 0, 1) == 1
    with pytest.raises(ValidationError):
        hs1_lhs(Q_HALF, 2, 4)


def test_hs2_values():
    assert hs2_lhs(Q_HALF, 1, 2) == Fraction(7, 4)
    assert hs2_lhs(Q_HALF, 1, 1) == Fraction(3, 2)
    assert hs2_lhs(Q_HALF, 1, 0) == 1


def test_hsa_values():
    # single group reduces to a one-binomial sum equal to [k+1 over n]
    for k in range(1, 5):
        for n in range(1, k + 2):
            assert hsa_lhs(Q_HALF, k, n, (k,)) == deformed_binomial(Q_HALF, k + 1, n)
    assert hsa_lhs(Q_HALF, 2, 1, (1, 1)) == Fraction(7, 4)
    with pytest.raises(ValidationError):
        hsa_lhs(Q_HALF, 3, 1, (1, 1))


def test_hsb_values():
    assert hsb_lhs(Q_HALF, 2, 1, (1, 1)) == Fraction(7, 4)
    assert hsb_lhs(Q_HALF, 2, 0, (1, 1)) == 1
    assert hsb_lhs(Q_HALF, 2, 0, (2,)) == 1


def test_cauchy_values():
    assert cauchy_lhs(Q_HALF, 1, 1, 0) == Fraction(3, 2)
    assert cauchy_lhs(Q_HALF, 1, 0, 0) == 1
    # m = k telescopes to the single r = n term
    for k in range(1, 5):
        for n in range(0, 5):
            assert cauchy_lhs(Q_HALF, k, n, k) == deformed_binomial(Q_HALF, k + n, n)


def test_exactness_for_tau1_one():
    for alg in TAU1_ONE_PRESETS:
        for rep in verify_identity("hs1", alg, 6, 6):
            assert rep.exact_match, (rep.k, rep.n)
        for rep in verify_identity("hs2", alg, 6, 6):
            assert rep.exact_match, (rep.k, rep.n)
        for rep in verify_identity("cauchy", alg, 8, 8):
            assert rep.exact_match, (rep.k, rep.n, rep.m)


def test_grouped_sums_exact_for_tau1_one():
    for rep in verify_identity("hsa", Q_HALF, 4, 5):
        assert rep.exact_match, (rep.k, rep.n, rep.groups)
    for rep in verify_identity("hsb", Q_HALF, 4, 4):
        assert rep.exact_match, (rep.k, rep.n, rep.groups)


def test_decimal_binomials_do_not_build_a_float_factorial():
    # At q = 0.5, [1026]! overflows a float, while [m over n] stays below 2
    # for every m: each decimal hs2 report up to n = 1100 holds (tau1 = 1).
    assert math.isfinite(deformed_binomial(q_deformation(0.5), 1100, 1099))
    code, out, err = run_cli("verify", "--suite", "hs2", "--preset", "q", "--q", "0.5", "--kmax", "1",
                             "--nmax", "1100")
    rows = list(csv.DictReader(line for line in io.StringIO(out) if not line.startswith("#")))
    assert code == 0 and len(rows) == 1101
    assert [row["n"] for row in rows if row["exact"] != "true"] == []


def test_decimal_sums_whose_group_factors_leave_the_float_range_as_powers():
    # At k = 2 hs1's group factor tau1^-2 tau2^2 is 1e-200, though tau1^-2
    # overflows a float: each decimal sum is its exact twin's to a few ulps.
    decimal = make_preset("js", p="1e-200", q="1e-300")
    exact = make_preset("js", p=Fraction(decimal.p), q=Fraction(decimal.q))
    for n in (1, 2, 3):
        assert math.isclose(hs1_lhs(decimal, 2, n), hs1_lhs(exact, 2, n), rel_tol=1e-15)


def test_js_discrepancy_monomials():
    # p=9/10, q=1/2: hs1 discrepancy tau1^(n(k+1-n)), hs2 discrepancy tau1^(nk)
    for rep in verify_identity("hs1", JS, 6, 6):
        assert rep.monomial_found
        assert (rep.a, rep.b) == (rep.n * (rep.k + 1 - rep.n), 0)
    for rep in verify_identity("hs2", JS, 6, 6):
        assert rep.monomial_found
        assert (rep.a, rep.b) == (rep.n * rep.k, 0)


def test_js_single_cases():
    lhs = hs1_lhs(JS, 1, 1)
    assert lhs == 1 + Fraction(1, 2) / Fraction(9, 10)
    assert lhs * JS.tau1 == deformed_binomial(JS, 2, 1)
    fit = fit_monomial(JS, hs2_lhs(JS, 1, 1), deformed_binomial(JS, 2, 1), 2)
    assert (fit.a, fit.b) == (1, 0)


def test_literal_window_overshoots():
    # dropping the capacity cap adds positive terms, so the sum exceeds the
    # binomial whenever the window actually widens (n >= 2)
    for alg in TAU1_ONE_PRESETS:
        for k in range(2, 6):
            for n in range(2, k + 2):
                wide = hs1_lhs(alg, k, n, literal_window=True)
                assert wide > deformed_binomial(alg, k + 1, n)


def test_cauchy_m_invariance_tau1_one():
    for alg in TAU1_ONE_PRESETS:
        for k in range(1, 5):
            for n in range(0, 5):
                values = {cauchy_lhs(alg, k, n, m) for m in range(k + 1)}
                assert values == {deformed_binomial(alg, k + n, n)}


def test_hsb_sign_conventions_recorded():
    # the stated tau2 sign verifies wherever tau1 = 1, and the report
    # carries an empty note
    for rep in verify_identity("hsb", Q_HALF, 4, 4):
        assert rep.exact_match and rep.note == ""
    # for general tau the grouped sum needs per-term tau1 corrections, so no
    # constant monomial exists under either sign; the report carries that
    reports = verify_identity("hsb", JS, 2, 2)
    assert any(not r.monomial_found for r in reports)
    assert all(not r.exact_match or r.n == 0 for r in reports)


def test_compositions():
    assert set(compositions(3)) == {(3,), (1, 2), (2, 1), (1, 1, 1)}
    assert sum(1 for _ in compositions(6)) == 32


def test_report_order_and_serialization():
    reports = verify_identity("hs1", Q_HALF, 3, 3)
    keys = [(r.k, r.n) for r in reports]
    assert keys == sorted(keys)
    csv_text = reports_to_csv(reports)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "identity,k,n,m,groups,exact,a,b"
    assert len(lines) == len(reports) + 1
    obj = reports_to_json_obj(reports)
    assert json.loads(json.dumps(obj)) == obj
    assert all(row["exact"] for row in obj)


def test_capacity_guard_refuses_before_any_walk(monkeypatch):
    # hsb at kmax 9, nmax 20 is refused at k = 9, n = 20; the boxes of every
    # k are counted before the first k is walked, so the refusal costs no
    # walk.  A kmax past the dimension guard, or a grid of more reports than
    # the report guard, is refused before any box is counted.
    walks = []
    original = identities._walk
    monkeypatch.setattr(identities, "_walk",
                        lambda *args: walks.append(args) or original(*args))
    with pytest.raises(CapacityError, match="10015005 lattice points"):
        verify_identity("hsb", Q_HALF, 9, 20)
    with pytest.raises(CapacityError, match="dimension 21"):
        verify_identity("hsb", Q_HALF, 21)
    with pytest.raises(CapacityError, match=r"2097150 identity reports exceed the guard \(100000\)"):
        verify_identity("hsb", Q_HALF, 20, 1)
    assert walks == []


@pytest.mark.parametrize("identity, steps", [("hs1", 15), ("hs2", 15), ("hsa", 57), ("hsb", 57)])
def test_one_layer_step_per_group_size_suffix_per_k(identity, steps, monkeypatch):
    # One walk per k serves every n: k steps down the unit path of hs1 and
    # hs2, and 2^k - 1 over the group-size suffixes of hsa and hsb, so
    # kmax 5 takes 15 and 57 steps whatever nmax is.
    calls = []
    original = identities.layer_step
    monkeypatch.setattr(identities, "layer_step", lambda *args: calls.append(args) or original(*args))
    for nmax in (0, 1, 5, 7) if identity in ("hs2", "hsb") else (1, 5, 7):
        calls.clear()
        verify_identity(identity, JS, 5, nmax)
        assert len(calls) == steps, nmax


def test_box_sizes_are_the_counted_points():
    # The guard sizes each box by counts alone: one count per capacity-one
    # grouping for every n, and C(n + g, g) points in an unbounded box
    # (n,)^g with sums <= n.
    for identity in ("hs1", "hs2", "hsa", "hsb"):
        for k in range(1, 7):
            ns = range(1, k + 2) if identity in ("hs1", "hsa") else range(0, 8)
            for groups in (None,) if identity in ("hs1", "hs2") else compositions(k):
                path = (1,) * k if groups is None else groups
                for literal in (False, True):
                    want = [count_points(identity_box(identity, k, n, groups, literal)) for n in ns]
                    assert identities._box_sizes(identity, path, ns, literal) == want, (identity, groups, literal)


@pytest.mark.parametrize("identity", identities.IDENTITY_IDS)
def test_report_count_is_the_number_of_reports(identity):
    for kmax in range(1, 6):
        for nmax in (None, 0, 1, 2, 4, 7):
            expected = len(verify_identity(identity, Q_HALF, kmax, nmax))
            assert identities.report_count(identity, kmax, nmax) == expected, (kmax, nmax)


@pytest.mark.parametrize("call, message", [
    (lambda: hs2_lhs(Q_HALF, 0, 1), "hs2 needs k >= 1 and n >= 0, got k=0, n=1"),
    (lambda: hs2_lhs(Q_HALF, 2, -1), "hs2 needs k >= 1 and n >= 0, got k=2, n=-1"),
    (lambda: hsa_lhs(Q_HALF, 2, 0, (1, 1)), "n: hsa needs 1 <= n <= k+1, got k=2, n=0"),
    (lambda: hsa_lhs(Q_HALF, 2, 4, (1, 1)), "n: hsa needs 1 <= n <= k+1, got k=2, n=4"),
    (lambda: hsa_lhs(Q_HALF, 2, 1, (2, 0)), "groups: sizes must be positive, got (2, 0)"),
    (lambda: hsb_lhs(Q_HALF, 2, -1, (1, 1)), "n: hsb needs n >= 0, got -1"),
    (lambda: hsb_lhs(Q_HALF, 2, 1, (0, 2)), "groups: sizes must be positive, got (0, 2)"),
    (lambda: cauchy_lhs(Q_HALF, 2, 1, 3), "m: cauchy needs 0 <= m <= k, got m=3, k=2"),
    (lambda: cauchy_lhs(Q_HALF, 2, 1, -1), "m: cauchy needs 0 <= m <= k, got m=-1, k=2"),
    (lambda: cauchy_lhs(Q_HALF, 2, -1, 1), "n: cauchy needs n >= 0, got -1"),
    (lambda: verify_identity("hs3", Q_HALF, 2), "identity: unknown suite 'hs3'"),
    (lambda: verify_identity("hs1", Q_HALF, 0), "kmax: need kmax >= 1, got 0"),
    (lambda: verify_identity("hs2", Q_HALF, 2, -1), "nmax: need nmax >= 0, got -1"),
    (lambda: list(compositions(0)), "k: compositions need k >= 1, got 0"),
], ids=("hs2-k-0", "hs2-n-negative", "hsa-n-0", "hsa-n-past-k-plus-1", "hsa-group-0", "hsb-n-negative",
        "hsb-group-0", "cauchy-m-past-k", "cauchy-m-negative", "cauchy-n-negative", "verify-unknown-suite",
        "verify-kmax-0", "verify-nmax-negative", "compositions-0"))
def test_refusal_messages(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
