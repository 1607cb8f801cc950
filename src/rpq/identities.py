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

Each summand is a product of group factors that hold no n (`_term`) and
one n part taken out at the end: hs1 and hs2 run on the single path of
unit groups, hsa and hsb on a grouping's group sizes m_j.  A group factor
reads the balls after its group in place of n - S_j, so the walk adds
groups from the last, and one depth-first walk per k over the tree of
group-size suffixes (`_walk`) serves every n of every family, stepping
each suffix once (31 steps for the 16 groupings of k = 5); each leaf
finishes every n.  Each exponent of a group factor lies between 0 and
the summand's own per-group exponent, hsa's tau2 exponent aside, which
exceeds it by (n - S) r_j (at most m_j in the standard window); so the
factors stay in the float range where the summand's own do, up to that
tau2^((n-S) r_j).
Every factor is an unreduced (numerator, denominator) pair of ints
(`algebra._closed_pair`; a float factor is the dyadic rational it is), a
layer holds integers over one common denominator in both modes, and each
lhs is built once from its exact sum: one Fraction, or one float rounded
once, the correctly rounded sum of the exact products of its float
factors.  `hs1_lhs`, `hs2_lhs`, `hsa_lhs` and `hsb_lhs` run the same walk
for one n down one path.

Window note: in the capacity-one model the overflow urn also holds at most
one ball, so admissible occupancy sums are n-1 and n, never less.  The
unwindowed sum over all occupancies <= n fails the cross-check already at
k = n = 2; `literal_window=True` keeps that variant available for
diagnostics.
"""

from __future__ import annotations

from math import comb
from typing import List, Optional, Sequence, Tuple, Union

from . import serialize
from .algebra import (
    IDENTITY_IDS,
    AlgebraSpec,
    _closed_pair,
    binomial_or_zero,
    compositions,
    deformed_binomial,
    fit_monomial,
)
from .errors import CapacityError, UnderflowError, ValidationError
from .lattice import (
    FIRST_LAYER,
    ConstraintSet,
    check_dimension,
    check_points,
    count_points,
    layer_step,
    sum_counts,
)
from .records import Record
from .scalars import Scalar, over_lcm, ratio, scalar_str
from .serialize import SCHEMA_VERSION, csv_text


def _require_taus(alg: AlgebraSpec) -> None:
    if alg.tau1 is None or alg.tau2 is None:
        raise ValidationError(f"algebra {alg.name!r}: identity sums need structure constants")


def _term(identity: str, alg: AlgebraSpec, k: int, m_j: int, big_m_j: int, r_j: int, rest: int) -> Tuple[int, int]:
    """The factor of group j of a term with its n part taken out, for a
    group of size m_j ending at M_j = m_1 + ... + m_j, with r_j balls and
    `rest` = r_{j+1} + ... + r_g balls after it; hs1 and hs2 run on unit
    groups (m_j = 1, M_j = j + 1)."""
    if identity == "hsa":
        return _closed_pair(alg, rest * (m_j - r_j), (k + 1 - big_m_j - rest) * r_j,
                            (deformed_binomial(alg, m_j, r_j),))
    if identity == "hsb":
        return _closed_pair(alg, rest * (m_j - 1), (k + 1 - big_m_j) * r_j,
                            (binomial_or_zero(alg, m_j + r_j - 1, r_j),))
    return _closed_pair(alg, -big_m_j * r_j, big_m_j * r_j, ())


def _n_part(identity: str, alg: AlgebraSpec, k: int, n: int, s: int) -> Tuple[int, int]:
    """The rest of an hs1 or hsa term of final sum S = s, the one part that
    reads n: tau1^C(n,2) tau2^-C(n,2) for hs1, tau1^((n-S)(k-S))
    tau2^(-(n-S)S) for hsa.  (The n part of an hs2 or hsb term of g groups
    is x^(n-S), x = tau1^(k-g), which `_walk` builds by a recurrence.)"""
    c2 = comb(n, 2)
    return _closed_pair(alg, *((c2, -c2) if identity == "hs1" else ((n - s) * (k - s), -(n - s) * s)), ())


def _window_lo(n: int, literal_window: bool) -> int:
    """Least occupancy sum of an hs1 or hsa tuple."""
    return 0 if literal_window else max(0, n - 1)


def _box_sizes(identity: str, path: Tuple[int, ...], ns: Sequence[int], literal_window: bool) -> List[int]:
    """The number of points of the box of each (n, path), n in `ns`, for
    hs1, hs2, hsa or hsb, by counts alone: one `sum_counts` of the
    capacity-one box `path` serves the window of every n, and an unbounded
    box (n,)^g with sums <= n, g = len(path), holds C(n + g, g) points."""
    if identity in ("hs1", "hsa"):
        k = sum(path)
        counts = sum_counts(path, k)
        return [sum(counts[_window_lo(n, literal_window):min(n, k) + 1]) for n in ns]
    return [comb(n + len(path), len(path)) for n in ns]


def _tuple_lhs(identity: str, alg: AlgebraSpec, k: int, n: int, path: Tuple[int, ...],
               literal_window: bool) -> Scalar:
    """The lhs of one tuple, down the one path of group sizes `path`, after
    its box passes the capacity guard (`count_points`)."""
    if identity in ("hs1", "hsa"):
        box = ConstraintSet(upper=path, sum_min=_window_lo(n, literal_window), sum_max=min(n, k))
    else:
        box = ConstraintSet(upper=(n,) * len(path), sum_min=0, sum_max=n)
    count_points(box)
    return _walk(identity, alg, k, (n,), path, literal_window)[n, path]


def hs1_lhs(alg: AlgebraSpec, k: int, n: int, *, literal_window: bool = False) -> Scalar:
    """Sum of tau1^(C(n,2)-s) tau2^(s-C(n,2)) with s = sum(j*r_j) over
    r in {0,1}^k, occupancy sum in {max(0, n-1), n}."""
    _require_taus(alg)
    if not 1 <= n <= k + 1:
        raise ValidationError(f"n: hs1 needs 1 <= n <= k+1, got k={k}, n={n}")
    return _tuple_lhs("hs1", alg, k, n, (1,) * k, literal_window)


def hs2_lhs(alg: AlgebraSpec, k: int, n: int) -> Scalar:
    """Sum of tau1^(-s) tau2^s with s = sum(j*r_j) over r in {0..n}^k,
    sum(r) <= n."""
    _require_taus(alg)
    if k < 1 or n < 0:
        raise ValidationError(f"hs2 needs k >= 1 and n >= 0, got k={k}, n={n}")
    return _tuple_lhs("hs2", alg, k, n, (1,) * k, False)


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
    return _tuple_lhs("hsa", alg, k, n, groups, literal_window)


def hsb_lhs(alg: AlgebraSpec, k: int, n: int, groups: Sequence[int]) -> Scalar:
    """Grouped unbounded sum: per-group coefficients [m_j+r_j-1 over r_j]
    weighted by tau1^((n-S_j)(m_j-1)) tau2^((k+1-M_j) r_j)."""
    _require_taus(alg)
    groups = _check_groups(k, groups)
    if n < 0:
        raise ValidationError(f"n: hsb needs n >= 0, got {n}")
    return _tuple_lhs("hsb", alg, k, n, groups, False)


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
    if not (alg.exact or lhs and rhs):  # both sides are positive sums: a decimal 0.0 underflowed
        raise UnderflowError(f"{identity} k={k} n={n}: the {'rhs' if lhs else 'lhs'} is 0.0")
    fit = fit_monomial(alg, lhs, rhs, (k + 1) * n)
    found = fit.found
    return IdentityReport(identity, k, n, m, groups, lhs, rhs, fit.exact, found, fit.a if found else None,
                          fit.b if found else None, "")


def _walk(identity: str, alg: AlgebraSpec, k: int, ns: Sequence[int], groups: Optional[Tuple[int, ...]],
          literal_window: bool) -> dict:
    """The hs1, hs2, hsa or hsb lhs of (n, path) for each n of `ns` and each
    path of group sizes summing to k: `groups` alone (the unit path (1,)*k
    for hs1 and hs2), or every composition of k (groups None).

    A term is the product of its n-free group factors (`_term`) and its n
    part.  Group j's factor reads m_j, M_j, r_j and the balls after it, so
    the walk adds groups from the last: the layer after group j, over the
    running sum of r_j..r_g, depends on the last group sizes alone, for
    every n, and a depth-first walk over the tree of group-size suffixes
    steps each suffix once, with cap m_j (capacity one) or the largest n
    (unbounded), up to the largest sum any n needs.  The value at each
    running sum does not depend on how far the walk runs, so each leaf
    finishes every n.  A capacity-one window, at most k + 1 sums wide,
    takes the n part of each final sum S (`_n_part`); an unbounded lhs
    A(n) = sum over S <= n of L[S] x^(n-S), L the leaf's layer and
    x = tau1^(k-g), is A(n) = x A(n-1) + L[n], so hs2 and hsb stay linear
    in nmax (x = 1 for hs2).

    As n - S_j is the balls after group j plus n - S, the exponents of a
    group factor stay between 0 and the summand's own (see the module
    docstring), and x^(n-S) is taken exactly.
    """
    capacity_one = identity in ("hs1", "hsa")
    top = min(max(ns), k) if capacity_one else max(ns)
    out = {}
    # (m_j, M_j) -> {(r_j, r_j + ... + r_g): factor}, shared by the suffixes
    # of the tree; a single path meets each (m_j, M_j) once, so it keeps none.
    factors = {}

    def finish(path: Tuple[int, ...], layer) -> None:
        partial, denominator = layer
        if capacity_one:
            for n in ns:
                window = range(_window_lo(n, literal_window), min(n, k) + 1)
                tops, scale = over_lcm(_n_part(identity, alg, k, n, s) for s in window)
                total = sum(partial.get(s, 0) * top_s for s, top_s in zip(window, tops))
                out[n, path] = ratio(total, denominator * scale, alg.exact)
            return
        top_x, bottom_x = _closed_pair(alg, k - len(path), 0, ())
        total, scale = 0, 1
        for n in range(top + 1):
            total = total * top_x + partial.get(n, 0) * scale
            if n in ns:
                out[n, path] = ratio(total, denominator * scale, alg.exact)
            scale *= bottom_x

    def visit(suffix: Tuple[int, ...], after: int, layer) -> None:
        if after == k:
            finish(suffix, layer)
            return
        big_m_j = k - after
        for m_j in range(1, big_m_j + 1) if groups is None else (groups[-1 - len(suffix)],):
            memo = factors.setdefault((m_j, big_m_j), {}) if groups is None else {}

            def factor(r_j, t_j, m_j=m_j, memo=memo):
                value = memo.get((r_j, t_j))
                if value is None:
                    value = memo[r_j, t_j] = _term(identity, alg, k, m_j, big_m_j, r_j, t_j - r_j)
                return value

            cap = m_j if capacity_one else top
            visit((m_j,) + suffix, after + m_j, layer_step(layer, cap, top, factor))

    visit((), 0, FIRST_LAYER)
    return out


# The most reports one `verify` run may ask for.  Near the bound, `--suite
# all --kmax 12` (101,754 reports at JS 9/10, 1/2, the guard lifted) peaks
# at 90 MB of RSS for 48 MB of JSON, and at 42 MB for its CSV.
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
    """One report per parameter tuple, by k, then for hsa and hsb by
    grouping (in `compositions` order) and n, for cauchy by n and m.

    Failures are data: a report with exact_match False and the fitted
    discrepancy monomial when one exists within |a|, |b| <= (k+1)*n.

    The run first passes the report guard (`check_report_count`), which
    checks kmax against the dimension guard, so nothing is listed for a
    run it refuses.  Every tuple's box, for every k, then passes the
    capacity guard (`check_points`, each size taken once from
    `_box_sizes`) before any family is walked: one walk per k over the
    group-size prefixes serves every n (`_walk`).  Cauchy lists no points.
    The sums equal those of `hs1_lhs`, `hs2_lhs`, `hsa_lhs` and `hsb_lhs`,
    to the last bit in approximate mode, as each is exact until it is
    rounded once; a decimal side that rounds to 0.0 has underflowed, and
    raises UnderflowError.
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
    capacity_one, unit = identity in ("hs1", "hsa"), identity in ("hs1", "hs2")
    plan = []
    for k in range(1, kmax + 1):
        ns = range(1, min(k + 1, nmax) + 1) if capacity_one else range(0, nmax + 1)
        if ns:
            plan.append((k, ns, [(1,) * k] if unit else list(compositions(k))))
    if plan:
        _require_taus(alg)
    # Every tuple's box passes the guard, in report order, before any walk:
    # a run the guard refuses does no smaller work first.  The boxes of an
    # unbounded path read only its number of groups, so each is sized once.
    sized = set()
    for k, ns, paths in plan:
        for path in paths:
            key = path if capacity_one else len(path)
            if key not in sized:
                sized.add(key)
                for size in _box_sizes(identity, path, ns, literal_window):
                    check_points(size)
    for k, ns, paths in plan:
        sums = _walk(identity, alg, k, ns, paths[0] if unit else None, literal_window)
        for path in paths:
            for n in ns:
                rhs = deformed_binomial(alg, k + 1 if capacity_one else k + n, n)
                reports.append(_report(alg, identity, k, n, sums[n, path], rhs, groups=None if unit else path))
    return reports


def reports_to_csv(reports: Sequence[IdentityReport], head: bool = True) -> str:
    """One CSV record per tuple: identity, k, n, m, groups, exact, a, b,
    after the header row when `head`.  No field needs quoting."""
    header = csv_text(["identity", "k", "n", "m", "groups", "exact", "a", "b"]) if head else ""
    return header + "".join(
        f"{r.identity},{r.k},{r.n},{'' if r.m is None else r.m},"
        f"{'' if r.groups is None else '+'.join(map(str, r.groups))},{'true' if r.exact_match else 'false'},"
        f"{'' if r.a is None else r.a},{'' if r.b is None else r.b}\n" for r in reports)


def _json_body(r: IdentityReport) -> str:
    """The text between the braces of `r`'s object in a `verify` document,
    as `dumps_json` lays it out at that depth: no string needs an escape,
    and `note` is always empty."""
    groups = "null" if r.groups is None else "[\n        " + ",\n        ".join(map(str, r.groups)) + "\n      ]"
    return (f'\n      "a": {"null" if r.a is None else r.a},\n      "b": {"null" if r.b is None else r.b},\n'
            f'      "exact": {"true" if r.exact_match else "false"},\n      "groups": {groups},\n'
            f'      "identity": "{r.identity}",\n      "k": {r.k},\n      "lhs": "{scalar_str(r.lhs)}",\n'
            f'      "m": {"null" if r.m is None else r.m},\n'
            f'      "monomial_found": {"true" if r.monomial_found else "false"},\n      "n": {r.n},\n'
            f'      "note": "",\n      "rhs": "{scalar_str(r.rhs)}"\n    ')


def reports_to_json_obj(reports: Sequence[IdentityReport], text: bool = False, head: bool = True) -> Union[list, str]:
    """The JSON object of each report.  With `text`, their text in a
    `verify` document instead: the objects' bodies (`_json_body`) joined by
    the text between two objects, which also leads unless `head`."""
    if text:
        sep = "},\n    {"
        return ("" if head else sep) + sep.join(map(_json_body, reports))
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


def verify_chunks(suites: Sequence[str], alg: AlgebraSpec, kmax: int, nmax: Optional[int], config: dict,
                  json_format: bool, *, literal_window: bool = False) -> List[str]:
    """`dumps_json` of {"config": config, "reports": reports_to_json_obj(R),
    "schema_version": SCHEMA_VERSION} (`json_format`), or `config_header(config)
    + reports_to_csv(R)`, in chunks with the same bytes, R the reports of each
    suite in turn, after the report guard on all; `config` gains exact_count
    and fitted_count.  Each suite's reports become text, CHUNK_ROWS per chunk,
    as it returns.  The JSON head and tail are `dumps_json` with one empty
    object as the reports, cut between its braces.  Every byte comes from a
    function the benchmark's tracer wraps, so it sees the whole document."""
    check_report_count(suites, kmax, nmax)
    chunks, exact, fitted, total = [], 0, 0, 0
    for suite in suites:
        reports = verify_identity(suite, alg, kmax, nmax, literal_window=literal_window)
        exact += sum(r.exact_match for r in reports)
        fitted += sum(r.monomial_found for r in reports)
        total += len(reports)
        for start in range(0, len(reports), serialize.CHUNK_ROWS):
            part = reports[start:start + serialize.CHUNK_ROWS]
            chunks.append(reports_to_json_obj(part, text=True, head=not chunks) if json_format
                          else reports_to_csv(part, head=False))
        del reports  # not held while the next suite runs
    config["exact_count"], config["fitted_count"] = f"{exact}/{total}", f"{fitted}/{total}"
    if not json_format:
        return [serialize.config_header(config) + reports_to_csv(()), *chunks]
    doc = serialize.dumps_json({"config": serialize._plain(config), "reports": [{}] if chunks else [],
                                "schema_version": SCHEMA_VERSION})
    if not chunks:
        return [doc]
    cut = doc.rindex("{}") + 1  # only schema_version's number follows the reports
    return [doc[:cut], *chunks, doc[cut:]]
