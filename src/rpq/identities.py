"""Hypergeometric-sum identities and their exact left-hand sides.

Five families of lattice sums, each claimed equal to a single deformed
binomial coefficient:

  hs1     capacity-one occupancy sum        = [k+1 over n]
  hs2     unbounded occupancy sum           = [k+n over n]
  hsa     grouped capacity-one sum          = [k+1 over n]
  hsb     grouped unbounded sum             = [k+n over n]
  cauchy  Vandermonde-style convolution     = [k+n over n]

For tau1 = 1 the equalities are exact.  For general structure constants the
summed side can differ from the binomial by a monomial tau1^a tau2^b;
`verify_identity` computes both sides exactly and fits that monomial rather
than asserting the raw equality.

The summands of hs1, hs2, hsa and hsb factor over the coordinates once the
running occupancy sum S_j = r_1 + ... + r_j is known, so these sums come
from `lattice.partial_sum_total`, a recursion over (coordinate, running
sum) that lists no lattice point.  The tests check each of them against the
listing sum `lattice.weighted_sum` of its per-point weight.

Window note: in the capacity-one model the overflow urn also holds at most
one ball, so admissible occupancy sums are n-1 and n, never less.  The
unwindowed sum over all occupancies <= n fails the cross-check already at
k = n = 2; `literal_window=True` keeps that variant available for
diagnostics.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Optional, Sequence, Tuple

from .algebra import (
    AlgebraSpec,
    binomial_or_zero,
    compositions,
    deformed_binomial,
    fit_monomial,
)
from .errors import ValidationError
from .lattice import ConstraintSet, partial_sum_total
from .scalars import Scalar, scalar_str

IDENTITY_IDS = ("hs1", "hs2", "hsa", "hsb", "cauchy")


def _require_taus(alg: AlgebraSpec) -> None:
    if alg.tau1 is None or alg.tau2 is None:
        raise ValidationError(f"algebra {alg.name!r}: identity sums need structure constants")


def _position_factor(alg: AlgebraSpec):
    """Per-coordinate factor tau1^(-(j+1) r_j) tau2^((j+1) r_j) of the
    weight tau1^(-s) tau2^s, s = sum((j+1) r_j), shared by hs1 and hs2."""
    t1, t2 = alg.tau1, alg.tau2

    def factor(j, r_j, s_j):
        return t1 ** (-(j + 1) * r_j) * t2 ** ((j + 1) * r_j)

    return factor


def hs1_lhs(alg: AlgebraSpec, k: int, n: int, *, literal_window: bool = False) -> Scalar:
    """Sum of tau1^(C(n,2)-s) tau2^(s-C(n,2)) with s = sum(j*r_j) over
    r in {0,1}^k, occupancy sum in {max(0, n-1), n}."""
    _require_taus(alg)
    if not 1 <= n <= k + 1:
        raise ValidationError(f"n: hs1 needs 1 <= n <= k+1, got k={k}, n={n}")
    lo = 0 if literal_window else max(0, n - 1)
    constraints = ConstraintSet(upper=(1,) * k, sum_min=lo, sum_max=min(n, k))
    c2 = comb(n, 2)
    return alg.tau1**c2 * alg.tau2 ** (-c2) * partial_sum_total(constraints, _position_factor(alg))


def hs2_lhs(alg: AlgebraSpec, k: int, n: int) -> Scalar:
    """Sum of tau1^(-s) tau2^s with s = sum(j*r_j) over r in {0..n}^k,
    sum(r) <= n."""
    _require_taus(alg)
    if k < 1 or n < 0:
        raise ValidationError(f"hs2 needs k >= 1 and n >= 0, got k={k}, n={n}")
    constraints = ConstraintSet(upper=(n,) * k, sum_min=0, sum_max=n)
    return partial_sum_total(constraints, _position_factor(alg))


def _check_groups(k: int, groups: Sequence[int]) -> Tuple[int, ...]:
    groups = tuple(groups)
    if not groups or any(m < 1 for m in groups):
        raise ValidationError(f"groups: sizes must be positive, got {groups}")
    if sum(groups) != k:
        raise ValidationError(f"groups: sizes must sum to k={k}, got {groups}")
    return groups


def hsa_lhs(
    alg: AlgebraSpec, k: int, n: int, groups: Sequence[int], *, literal_window: bool = False
) -> Scalar:
    """Grouped capacity-one sum: per-group binomials [m_j over r_j] weighted
    by tau1^((n-S_j)(m_j-r_j)) tau2^((k+1-M_j-n+S_j) r_j), where M and S are
    the partial sums of the group sizes and of r."""
    _require_taus(alg)
    groups = _check_groups(k, groups)
    if not 1 <= n <= k + 1:
        raise ValidationError(f"n: hsa needs 1 <= n <= k+1, got k={k}, n={n}")
    lo = 0 if literal_window else max(0, n - 1)
    constraints = ConstraintSet(upper=groups, sum_min=lo, sum_max=min(n, k))
    t1, t2 = alg.tau1, alg.tau2
    big_m = list(accumulate(groups))

    def factor(j, r_j, s_j):
        m_j = groups[j]
        return (t1 ** ((n - s_j) * (m_j - r_j)) * t2 ** ((k + 1 - big_m[j] - n + s_j) * r_j)
                * deformed_binomial(alg, m_j, r_j))

    return partial_sum_total(constraints, factor)


def hsb_lhs(alg: AlgebraSpec, k: int, n: int, groups: Sequence[int]) -> Scalar:
    """Grouped unbounded sum: per-group coefficients [m_j+r_j-1 over r_j]
    weighted by tau1^((n-S_j)(m_j-1)) tau2^((k+1-M_j) r_j)."""
    _require_taus(alg)
    groups = _check_groups(k, groups)
    if n < 0:
        raise ValidationError(f"n: hsb needs n >= 0, got {n}")
    constraints = ConstraintSet(upper=(n,) * len(groups), sum_min=0, sum_max=n)
    t1, t2 = alg.tau1, alg.tau2
    big_m = list(accumulate(groups))

    def factor(j, r_j, s_j):
        m_j = groups[j]
        return (t1 ** ((n - s_j) * (m_j - 1)) * t2 ** ((k + 1 - big_m[j]) * r_j)
                * binomial_or_zero(alg, m_j + r_j - 1, r_j))

    return partial_sum_total(constraints, factor)


def cauchy_lhs(alg: AlgebraSpec, k: int, n: int, m: int) -> Scalar:
    """Convolution sum_{r=0..n} tau1^((m-k)r) tau2^((k-m)r)
    [m+r over r] [k-m+n-r-1 over n-r]."""
    _require_taus(alg)
    if not 0 <= m <= k:
        raise ValidationError(f"m: cauchy needs 0 <= m <= k, got m={m}, k={k}")
    if n < 0:
        raise ValidationError(f"n: cauchy needs n >= 0, got {n}")
    t1, t2 = alg.tau1, alg.tau2
    total: Scalar = 0
    for r in range(n + 1):
        term = t1 ** ((m - k) * r) * t2 ** ((k - m) * r)
        term *= binomial_or_zero(alg, m + r, r)
        term *= binomial_or_zero(alg, k - m + n - r - 1, n - r)
        total += term
    return total


@dataclass(frozen=True)
class IdentityReport:
    """Enumerated lhs vs closed-form rhs for one parameter tuple."""

    identity: str
    k: int
    n: int
    m: Optional[int]
    groups: Optional[Tuple[int, ...]]
    lhs: Scalar
    rhs: Scalar
    exact_match: bool
    monomial_found: bool
    a: Optional[int]
    b: Optional[int]
    note: str = ""  # always empty; kept so the report schema does not change


def _report(alg: AlgebraSpec, identity: str, k: int, n: int, lhs: Scalar, rhs: Scalar,
            m: Optional[int] = None, groups: Optional[Tuple[int, ...]] = None) -> IdentityReport:
    fit = fit_monomial(alg, lhs, rhs, (k + 1) * n)
    return IdentityReport(
        identity=identity,
        k=k,
        n=n,
        m=m,
        groups=groups,
        lhs=lhs,
        rhs=rhs,
        exact_match=fit.exact,
        monomial_found=fit.found,
        a=fit.a if fit.found else None,
        b=fit.b if fit.found else None,
    )


def verify_identity(
    identity: str,
    alg: AlgebraSpec,
    kmax: int,
    nmax: Optional[int] = None,
    *,
    literal_window: bool = False,
    all_groupings: bool = True,
) -> list:
    """One report per parameter tuple, sorted by (k, n, m, groups).

    Failures are data: a report with exact_match False and the fitted
    discrepancy monomial when one exists within |a|, |b| <= (k+1)*n.
    """
    if identity not in IDENTITY_IDS:
        raise ValidationError(f"identity: unknown suite {identity!r}")
    if kmax < 1:
        raise ValidationError(f"kmax: need kmax >= 1, got {kmax}")
    if nmax is not None and nmax < 0:
        raise ValidationError(f"nmax: need nmax >= 0, got {nmax}")
    nmax = kmax if nmax is None else nmax
    reports = []
    for k in range(1, kmax + 1):
        if identity == "hs1":
            for n in range(1, min(k + 1, nmax) + 1):
                lhs = hs1_lhs(alg, k, n, literal_window=literal_window)
                reports.append(_report(alg, "hs1", k, n, lhs, deformed_binomial(alg, k + 1, n)))
        elif identity == "hs2":
            for n in range(0, nmax + 1):
                lhs = hs2_lhs(alg, k, n)
                reports.append(_report(alg, "hs2", k, n, lhs, deformed_binomial(alg, k + n, n)))
        elif identity == "hsa":
            schemes = compositions(k) if all_groupings else [(k,)]
            for groups in schemes:
                for n in range(1, min(k + 1, nmax) + 1):
                    lhs = hsa_lhs(alg, k, n, groups, literal_window=literal_window)
                    rhs = deformed_binomial(alg, k + 1, n)
                    reports.append(_report(alg, "hsa", k, n, lhs, rhs, groups=groups))
        elif identity == "hsb":
            schemes = compositions(k) if all_groupings else [(k,)]
            for groups in schemes:
                for n in range(0, nmax + 1):
                    lhs = hsb_lhs(alg, k, n, groups)
                    rhs = deformed_binomial(alg, k + n, n)
                    reports.append(_report(alg, "hsb", k, n, lhs, rhs, groups=groups))
        else:  # cauchy
            for n in range(0, nmax + 1):
                for m in range(0, k + 1):
                    lhs = cauchy_lhs(alg, k, n, m)
                    rhs = deformed_binomial(alg, k + n, n)
                    reports.append(_report(alg, "cauchy", k, n, lhs, rhs, m=m))
    return reports


def reports_to_csv(reports: Sequence[IdentityReport]) -> str:
    """One CSV record per tuple: identity, k, n, m, groups, exact, a, b."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["identity", "k", "n", "m", "groups", "exact", "a", "b"])
    for r in reports:
        writer.writerow([
            r.identity,
            r.k,
            r.n,
            "" if r.m is None else r.m,
            "" if r.groups is None else "+".join(map(str, r.groups)),
            str(r.exact_match).lower(),
            "" if r.a is None else r.a,
            "" if r.b is None else r.b,
        ])
    return out.getvalue()


def reports_to_json_obj(reports: Sequence[IdentityReport]) -> list:
    rows = []
    for r in reports:
        rows.append({
            "identity": r.identity,
            "k": r.k,
            "n": r.n,
            "m": r.m,
            "groups": None if r.groups is None else list(r.groups),
            "lhs": scalar_str(r.lhs),
            "rhs": scalar_str(r.rhs),
            "exact": r.exact_match,
            "monomial_found": r.monomial_found,
            "a": r.a,
            "b": r.b,
            "note": r.note,
        })
    return rows
