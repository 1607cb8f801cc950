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
from a recursion over (coordinate, running sum) that lists no lattice
point: one `lattice.layer_step` per coordinate.  The tests check each sum
against the listing sum `lattice.weighted_sum` of its per-point weight.

`verify_identity` walks each family once.  The hs1 and hs2 factors do not
depend on n, so one recursion per k serves every n, each n summing its own
window at the end.  An hsa or hsb layer depends only on the group sizes so
far, so one depth-first walk per (k, n) over the tree of group-size
prefixes steps each prefix once (31 steps for the 16 groupings of k = 5, in
place of 48).  Every factor is an unreduced (numerator, denominator) pair
of ints (`algebra._closed_pair`; a float factor is the dyadic rational it
is), a layer holds integers over one common denominator in both modes, and
each lhs is built once from its exact sum: one Fraction, or one float
rounded once, the correctly rounded sum of the exact products of its
float factors.  `hs1_lhs`, `hs2_lhs`, `hsa_lhs`
and `hsb_lhs` run the same walks for one tuple: one n, or the single path
of one grouping.

Window note: in the capacity-one model the overflow urn also holds at most
one ball, so admissible occupancy sums are n-1 and n, never less.  The
unwindowed sum over all occupancies <= n fails the cross-check already at
k = n = 2; `literal_window=True` keeps that variant available for
diagnostics.
"""

from __future__ import annotations

import io
from itertools import accumulate
from math import comb
from typing import Optional, Sequence, Tuple

from .algebra import (
    IDENTITY_IDS,
    AlgebraSpec,
    _closed_pair,
    binomial_or_zero,
    compositions,
    deformed_binomial,
    fit_monomial,
)
from .errors import CapacityError, ValidationError
from .lattice import (
    FIRST_LAYER,
    ConstraintSet,
    check_dimension,
    check_points,
    count_points,
    final_layer,
    layer_step,
    sum_counts,
    window_total,
)
from .records import Record
from .scalars import Scalar, over_lcm, ratio, scalar_str


def _require_taus(alg: AlgebraSpec) -> None:
    if alg.tau1 is None or alg.tau2 is None:
        raise ValidationError(f"algebra {alg.name!r}: identity sums need structure constants")


def _position_factor(alg: AlgebraSpec):
    """Per-coordinate factor tau1^(-(j+1) r_j) tau2^((j+1) r_j) of the
    weight tau1^(-s) tau2^s, s = sum((j+1) r_j), shared by hs1 and hs2."""

    def factor(j, r_j, s_j):
        return _closed_pair(alg, -(j + 1) * r_j, (j + 1) * r_j, ())

    return factor


def _hsa_term(alg: AlgebraSpec, k: int, n: int, m_j: int, big_m_j: int, r_j: int, s_j: int) -> Tuple[int, int]:
    return _closed_pair(alg, (n - s_j) * (m_j - r_j), (k + 1 - big_m_j - n + s_j) * r_j,
                        (deformed_binomial(alg, m_j, r_j),))


def _hsb_term(alg: AlgebraSpec, k: int, n: int, m_j: int, big_m_j: int, r_j: int, s_j: int) -> Tuple[int, int]:
    return _closed_pair(alg, (n - s_j) * (m_j - 1), (k + 1 - big_m_j) * r_j,
                        (binomial_or_zero(alg, m_j + r_j - 1, r_j),))


_GROUP_TERMS = {"hsa": _hsa_term, "hsb": _hsb_term}


def _window_lo(n: int, literal_window: bool) -> int:
    """Least occupancy sum of an hs1 or hsa tuple."""
    return 0 if literal_window else max(0, n - 1)


def _constraints(identity: str, k: int, n: int, groups: Optional[Tuple[int, ...]],
                 literal_window: bool) -> ConstraintSet:
    """The box and sum window of one hs1, hs2, hsa or hsb tuple."""
    if identity in ("hs1", "hsa"):
        upper = (1,) * k if groups is None else groups
        return ConstraintSet(upper=upper, sum_min=_window_lo(n, literal_window), sum_max=min(n, k))
    width = k if groups is None else len(groups)
    return ConstraintSet(upper=(n,) * width, sum_min=0, sum_max=n)


def hs1_lhs(alg: AlgebraSpec, k: int, n: int, *, literal_window: bool = False) -> Scalar:
    """Sum of tau1^(C(n,2)-s) tau2^(s-C(n,2)) with s = sum(j*r_j) over
    r in {0,1}^k, occupancy sum in {max(0, n-1), n}."""
    _require_taus(alg)
    if not 1 <= n <= k + 1:
        raise ValidationError(f"n: hs1 needs 1 <= n <= k+1, got k={k}, n={n}")
    count_points(_constraints("hs1", k, n, None, literal_window))
    return _walk_positions("hs1", alg, k, (n,), literal_window)[n, None]


def hs2_lhs(alg: AlgebraSpec, k: int, n: int) -> Scalar:
    """Sum of tau1^(-s) tau2^s with s = sum(j*r_j) over r in {0..n}^k,
    sum(r) <= n."""
    _require_taus(alg)
    if k < 1 or n < 0:
        raise ValidationError(f"hs2 needs k >= 1 and n >= 0, got k={k}, n={n}")
    count_points(_constraints("hs2", k, n, None, False))
    return _walk_positions("hs2", alg, k, (n,), False)[n, None]


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
    count_points(_constraints("hsa", k, n, groups, literal_window))
    return _walk_groupings("hsa", alg, k, n, groups, literal_window)[n, groups]


def hsb_lhs(alg: AlgebraSpec, k: int, n: int, groups: Sequence[int]) -> Scalar:
    """Grouped unbounded sum: per-group coefficients [m_j+r_j-1 over r_j]
    weighted by tau1^((n-S_j)(m_j-1)) tau2^((k+1-M_j) r_j)."""
    _require_taus(alg)
    groups = _check_groups(k, groups)
    if n < 0:
        raise ValidationError(f"n: hsb needs n >= 0, got {n}")
    count_points(_constraints("hsb", k, n, groups, False))
    return _walk_groupings("hsb", alg, k, n, groups, False)[n, groups]


def cauchy_lhs(alg: AlgebraSpec, k: int, n: int, m: int) -> Scalar:
    """Convolution sum_{r=0..n} tau1^((m-k)r) tau2^((k-m)r)
    [m+r over r] [k-m+n-r-1 over n-r]."""
    _require_taus(alg)
    if not 0 <= m <= k:
        raise ValidationError(f"m: cauchy needs 0 <= m <= k, got m={m}, k={k}")
    if n < 0:
        raise ValidationError(f"n: cauchy needs n >= 0, got {n}")
    numerators, denominator = over_lcm(
        _closed_pair(alg, (m - k) * r, (k - m) * r,
                     (binomial_or_zero(alg, m + r, r), binomial_or_zero(alg, k - m + n - r - 1, n - r)))
        for r in range(n + 1))
    return ratio(sum(numerators), denominator, alg.exact)


class IdentityReport(Record):
    """Enumerated lhs vs closed-form rhs for one parameter tuple.  `note` is
    always empty; it is kept so the report schema does not change."""

    _fields = ("identity", "k", "n", "m", "groups", "lhs", "rhs", "exact_match", "monomial_found", "a", "b",
               "note")
    _defaults = {"note": ""}


def _report(alg: AlgebraSpec, identity: str, k: int, n: int, lhs: Scalar, rhs: Scalar,
            m: Optional[int] = None, groups: Optional[Tuple[int, ...]] = None) -> IdentityReport:
    fit = fit_monomial(alg, lhs, rhs, (k + 1) * n)
    found = fit.found
    return IdentityReport(identity, k, n, m, groups, lhs, rhs, fit.exact, found, fit.a if found else None,
                          fit.b if found else None, "")


def _walk_positions(identity: str, alg: AlgebraSpec, k: int, ns: Sequence[int],
                    literal_window: bool) -> dict:
    """hs1 or hs2 lhs of each (n, None): one recursion over k coordinates
    whose factor does not depend on n, summed over each n's window at the
    end.

    The recursion runs to the largest sum any n needs.  The value at each
    running sum does not depend on how far the recursion runs, and its sums
    are exact, so each window's lhs is that of a run for that n alone
    (`hs1_lhs`, `hs2_lhs`).  The hs2 windows [0, n] are the running sums of
    the layer, which is keyed by every sum 0..max(ns): one pass for every
    n.  An hs1 window takes the scale tau1^C(n,2) tau2^-C(n,2) as a pair.
    """
    factor = _position_factor(alg)
    if identity == "hs2":
        top = max(ns)
        partial, denominator = final_layer((top,) * k, top, factor)
        totals = list(accumulate(partial.values()))
        return {(n, None): ratio(totals[n], denominator, alg.exact) for n in ns}
    layer = final_layer((1,) * k, k, factor)
    out = {}
    for n in ns:
        c2 = comb(n, 2)
        total, denominator = window_total(layer, _window_lo(n, literal_window), min(n, k))
        top, bottom = _closed_pair(alg, c2, -c2, ())
        out[n, None] = ratio(total * top, denominator * bottom, alg.exact)
    return out


def _walk_groupings(identity: str, alg: AlgebraSpec, k: int, n: int,
                    groups: Optional[Tuple[int, ...]], literal_window: bool) -> dict:
    """hsa or hsb lhs of (n, groups) for every grouping (groups None), or
    for `groups` alone.

    Coordinate j of a grouping has a factor that reads only m_j and
    M_j = m_1 + ... + m_j, and its window reads only M_j, so the layer after
    j depends on the first j + 1 group sizes alone.  A depth-first walk over
    the tree of group-size prefixes steps each prefix once.
    """
    term = _GROUP_TERMS[identity]
    if identity == "hsa":
        lo, hi = _window_lo(n, literal_window), min(n, k)
    else:
        lo, hi = 0, n
    out = {}
    factors = {}  # (m_j, M_j) -> {(r_j, S_j): factor}, shared by the prefixes

    def visit(prefix: Tuple[int, ...], big_m: int, layer) -> None:
        if big_m == k:
            out[n, prefix] = ratio(*window_total(layer, lo, hi), alg.exact)
            return
        for m_j in range(1, k - big_m + 1) if groups is None else (groups[len(prefix)],):
            big_m_j = big_m + m_j
            upper = m_j if identity == "hsa" else n
            # hsa keeps the prefixes that can still reach lo; hsb has lo = 0.
            t_lo = lo - (k - big_m_j) if identity == "hsa" else 0

            memo = factors.setdefault((m_j, big_m_j), {})

            def factor(j, r_j, s_j, m_j=m_j, big_m_j=big_m_j, memo=memo):
                value = memo.get((r_j, s_j))
                if value is None:
                    value = memo[r_j, s_j] = term(alg, k, n, m_j, big_m_j, r_j, s_j)
                return value

            visit(prefix + (m_j,), big_m_j, layer_step(layer, len(prefix), upper, t_lo, hi, factor))

    visit((), 0, FIRST_LAYER)
    return out


# The most reports one `verify` run may ask for.  At the bound the reports
# take about 25 MB, and their JSON output peaks near 250 MB of RSS.
MAX_REPORTS = 100_000


def report_count(identity: str, kmax: int, nmax: Optional[int] = None) -> int:
    """The number of reports `verify_identity(identity, alg, kmax, nmax)`
    returns, from the sizes of its parameter grid: per k, the n of each
    tuple (1..min(k+1, nmax) for hs1 and hsa, 0..nmax otherwise), times
    the 2^(k-1) groupings for hsa and hsb, or the k+1 values of m for
    cauchy."""
    nmax = kmax if nmax is None else nmax
    total = 0
    for k in range(1, kmax + 1):
        ns = min(k + 1, nmax) if identity in ("hs1", "hsa") else nmax + 1
        if identity in ("hsa", "hsb"):
            ns <<= k - 1
        elif identity == "cauchy":
            ns *= k + 1
        total += ns
    return total


def check_report_count(suites: Sequence[str], kmax: int, nmax: Optional[int] = None) -> None:
    """Refuse (CapacityError) a kmax beyond the dimension guard
    (`lattice.check_dimension`), then more than MAX_REPORTS reports of
    `suites` together, before any is planned."""
    check_dimension(kmax)
    count = sum(report_count(suite, kmax, nmax) for suite in suites)
    if count > MAX_REPORTS:
        raise CapacityError(f"{count} identity reports exceed the guard ({MAX_REPORTS})")


def verify_identity(
    identity: str,
    alg: AlgebraSpec,
    kmax: int,
    nmax: Optional[int] = None,
    *,
    literal_window: bool = False,
) -> list:
    """One report per parameter tuple, sorted by (k, n, m, groups).

    Failures are data: a report with exact_match False and the fitted
    discrepancy monomial when one exists within |a|, |b| <= (k+1)*n.

    The run first passes the report guard (`check_report_count`), which
    checks kmax against the dimension guard, so nothing is listed for a
    run it refuses.  Every tuple's box, for every k, then passes the
    capacity guard (`count_points`) before any family is walked: hs1 and
    hs2 run one recursion per k, hsa and hsb one walk per (k, n) over the
    group-size prefixes.  Cauchy lists no points.  The sums equal those of
    `hs1_lhs`, `hs2_lhs`, `hsa_lhs` and `hsb_lhs`, to the last bit in
    approximate mode, as each is exact until it is rounded once.
    """
    if identity not in IDENTITY_IDS:
        raise ValidationError(f"identity: unknown suite {identity!r}")
    if kmax < 1:
        raise ValidationError(f"kmax: need kmax >= 1, got {kmax}")
    if nmax is not None and nmax < 0:
        raise ValidationError(f"nmax: need nmax >= 0, got {nmax}")
    check_report_count((identity,), kmax, nmax)
    nmax = kmax if nmax is None else nmax
    reports = []
    if identity == "cauchy":
        _require_taus(alg)
        for k in range(1, kmax + 1):
            for n in range(0, nmax + 1):
                for m in range(0, k + 1):
                    lhs = cauchy_lhs(alg, k, n, m)
                    rhs = deformed_binomial(alg, k + n, n)
                    reports.append(_report(alg, "cauchy", k, n, lhs, rhs, m=m))
        return reports
    capacity_one = identity in ("hs1", "hsa")
    # Every tuple's box passes the guard, in report order, before any walk:
    # a run the guard refuses does no smaller work first.
    plan = []
    for k in range(1, kmax + 1):
        ns = range(1, min(k + 1, nmax) + 1) if capacity_one else range(0, nmax + 1)
        if identity in ("hs1", "hs2"):
            tuples = [(n, None) for n in ns]
        else:
            tuples = [(n, groups) for groups in compositions(k) for n in ns]
        if not tuples:
            continue
        _require_taus(alg)
        if identity == "hs2":
            # The box of n, (n,)^k with sums <= n, holds the points of sum
            # <= n of the box (nmax,)^k: one count per k serves every n.
            # The report guard keeps nmax below the sum guard.
            totals = list(accumulate(sum_counts((nmax,) * k, nmax)))
            for n in ns:
                check_points(totals[n])
        else:
            for n, groups in tuples:
                count_points(_constraints(identity, k, n, groups, literal_window))
        plan.append((k, ns, tuples))
    for k, ns, tuples in plan:
        if identity in ("hs1", "hs2"):
            sums = _walk_positions(identity, alg, k, ns, literal_window)
        else:
            sums = {}
            for n in ns:
                sums.update(_walk_groupings(identity, alg, k, n, None, literal_window))
        for n, groups in tuples:
            rhs = deformed_binomial(alg, k + 1 if capacity_one else k + n, n)
            reports.append(_report(alg, identity, k, n, sums[n, groups], rhs, groups=groups))
    return reports


def reports_to_csv(reports: Sequence[IdentityReport]) -> str:
    """One CSV record per tuple: identity, k, n, m, groups, exact, a, b."""
    import csv  # CSV output alone loads `csv`

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
