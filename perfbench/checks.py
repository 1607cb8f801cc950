"""Output checks for the benchmark ops.

Exact-mode content is compared by a digest of the parsed data rows or
reports: `#` header lines and the JSON `config` object are skipped, so a new
header line or config field is not a failure.  Every op also checks
invariants: exact probabilities sum to exactly 1, and row or report counts
equal counts derived independently of the package.  Approximate-mode outputs
are compared with their exact twin within the algebra's tolerance.

Nothing here calls into rpq, so checks made while the tracer is installed
add no spans.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from bisect import bisect_right
from fractions import Fraction

from workloads import block_sums, first_kind_rows, second_kind_rows

TOL = 1e-10  # the CLI's default --tol, which the approximate ops run with


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


# Tables --------------------------------------------------------------------

def table_digest(support, weights, probabilities):
    """Digest of exact rows (point, weight, probability)."""
    return _digest(
        f"{','.join(map(str, point))};{Fraction(w)};{Fraction(p)}"
        for point, w, p in zip(support, weights, probabilities)
    )


def parse_table(text, fmt):
    """(support, weight strings, probability strings) of a CLI table."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return ([tuple(r["point"]) for r in rows], [r["weight"] for r in rows],
                [r["probability"] for r in rows])
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    records = list(csv.reader(lines[1:]))
    return ([tuple(int(v) for v in r[:-2]) for r in records], [r[-2] for r in records],
            [r[-1] for r in records])


def check_exact_table(text, fmt, check, reference):
    support, weights, probs = parse_table(text, fmt)
    require(len(support) == check["count"], f"{len(support)} rows, expected {check['count']}")
    exact = [Fraction(p) for p in probs]
    require(sum(exact) == 1, "probabilities do not sum to exactly 1")
    expected = reference.get(check["ref"])
    require(expected is not None, f"no reference digest for {check['ref']}")
    require(table_digest(support, weights, exact) == expected, f"digest differs from {check['ref']}")


def second_kind_twin(p, q, k, n):
    """Exact second-kind probabilities by weight class, as floats.

    Every weight is tau1^(c-e) tau2^e with e = sum_j (k-j) x_j, so the law
    depends on a point only through e: P(e) = r^e / sum_e' N(e') r^e' with
    r = tau2/tau1 and N counted by a dynamic program over the coordinates.
    """
    r = Fraction(q) / Fraction(p)
    classes = {(0, 0): 1}  # (balls used, e) -> number of prefixes
    for j in range(k):
        nxt = {}
        for (used, e), ways in classes.items():
            for x in range(n - used + 1):
                key = (used + x, e + (k - j) * x)
                nxt[key] = nxt.get(key, 0) + ways
        classes = nxt
    counts = {}
    for (_, e), ways in classes.items():
        counts[e] = counts.get(e, 0) + ways
    z = sum(ways * r**e for e, ways in counts.items())
    return {e: float(r**e / z) for e in counts}


def check_approx_table(text, fmt, check):
    support, _, probs = parse_table(text, fmt)
    k, n = check["k"], check["n"]
    require(len(support) == check["count"], f"{len(support)} rows, expected {check['count']}")
    values = [float(p) for p in probs]
    require(math.isclose(math.fsum(values), 1.0, rel_tol=TOL), "probabilities do not sum to 1")
    twin = second_kind_twin(check["p"], check["q"], k, n)
    for point, value in zip(support, values):
        e = sum((k - j) * x for j, x in enumerate(point))
        require(math.isclose(value, twin[e], rel_tol=TOL), f"{point}: {value} vs exact {twin[e]}")


# Identity reports ----------------------------------------------------------

FIT_FIELDS = ("exact", "monomial_found", "a", "b", "note")
REPORT_FIELDS = ("identity", "k", "n", "m", "groups", "exact", "monomial_found", "a", "b", "lhs", "rhs")


def report_digest(records):
    """Digest of report records (dicts with REPORT_FIELDS)."""
    return _digest(json.dumps([r[f] for f in REPORT_FIELDS]) for r in records)


def parse_reports(text):
    records = json.loads(text)["reports"]
    for r in records:
        r["groups"] = None if r["groups"] is None else list(r["groups"])
    return records


def check_exact_reports(text, check, reference):
    records = parse_reports(text)
    require(len(records) == check["count"], f"{len(records)} reports, expected {check['count']}")
    expected = reference.get(check["ref"])
    require(expected is not None, f"no reference digest for {check['ref']}")
    require(report_digest(records) == expected, f"digest differs from {check['ref']}")
    return records


def check_approx_reports(text, check, twin):
    """Compare with the exact twin's reports; return the number of fits that
    disagree with it.  Disagreements are recorded, not failures: they are the
    approximate fit's own defect, not a wrong output."""
    require(twin is not None, "exact twin report unavailable")
    records = parse_reports(text)
    require(len(records) == check["count"], f"{len(records)} reports, expected {check['count']}")
    disagreements = 0
    for got, exact in zip(records, twin):
        key = [got[f] for f in ("identity", "k", "n", "m", "groups")]
        require(key == [exact[f] for f in ("identity", "k", "n", "m", "groups")], f"report order {key}")
        # A fit through the mirrored sign convention reports the mirrored lhs,
        # so lhs is comparable only when both reports used the same convention.
        sides = ("lhs", "rhs") if got["note"] == exact["note"] else ("rhs",)
        for side in sides:
            want = float(Fraction(exact[side]))
            require(math.isclose(float(got[side]), want, rel_tol=TOL), f"{key} {side}: {got[side]} vs {want}")
        if [got[f] for f in FIT_FIELDS] != [exact[f] for f in FIT_FIELDS]:
            disagreements += 1
    return disagreements


def check_cli_output(op, text, reference, twin):
    """Check one CLI op's output; return (parsed reports or None, disagreements)."""
    check = op["check"]
    fmt = op["argv"][op["argv"].index("--format") + 1]
    if check["type"] == "table":
        check_exact_table(text, fmt, check, reference)
    elif check["type"] == "table_approx":
        check_approx_table(text, fmt, check)
    elif check["type"] == "reports":
        return check_exact_reports(text, check, reference), 0
    else:
        return None, check_approx_reports(text, check, twin)
    return None, 0


# Library queries ----------------------------------------------------------

def law(joint, select, project):
    """Exact law of project(x) given select(x), summed from a joint table."""
    acc = {}
    for x, w in zip(joint.support, joint.weights):
        if select(x):
            key = project(x)
            acc[key] = acc.get(key, 0) + w
    total = sum(acc.values())
    return {key: Fraction(w) / total for key, w in acc.items()}


def check_table_against(table, expected):
    require(sorted(expected) == list(table.support), "support differs from the joint's law")
    probs = [Fraction(p) for p in table.probabilities]
    require(sum(probs) == 1, "probabilities do not sum to exactly 1")
    require(all(expected[x] == p for x, p in zip(table.support, probs)), "probabilities differ")


_MASK64 = (1 << 64) - 1


def _mantissas(seed):
    """SplitMix64 stream, top 53 bits per output, as the sampler specifies."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield (z ^ (z >> 31)) >> 11


def _ceil_scaled(value):
    frac = Fraction(value) * (1 << 53)
    return -(-frac.numerator // frac.denominator)


def expected_draws(joint, seed, count):
    thresholds, cumulative = [], Fraction(0)
    for p in joint.probabilities:
        cumulative += p
        thresholds.append(_ceil_scaled(cumulative))
    stream = _mantissas(seed)
    return tuple(joint.support[bisect_right(thresholds, next(stream))] for _ in range(count))


def prefix_masses(joint):
    masses = {}
    for point, w in zip(joint.support, joint.weights):
        for cut in range(len(point) + 1):
            masses[point[:cut]] = masses.get(point[:cut], 0) + w
    return masses


def expected_sequential(masses, k, seed, count):
    stream = _mantissas(seed)
    draws = []
    for _ in range(count):
        prefix = ()
        for _ in range(k):
            bound = _ceil_scaled(Fraction(masses.get(prefix + (0,), 0)) / masses[prefix])
            prefix += (0 if next(stream) < bound else 1,)
        draws.append(prefix)
    return tuple(draws)


def _number(tau1, tau2, x):
    return x * tau1 ** (x - 1) if tau1 == tau2 else (tau1**x - tau2**x) / (tau1 - tau2)


class QueryChecker:
    """Checks library query results against laws summed from the joints.

    The joints themselves are checked against the reference digests when
    the checker is built.
    """

    def __init__(self, joints, specs, reference):
        self.joints = joints
        self.joint_ok = []
        for table, (key, kind, preset, p, q, k, n) in zip(joints, specs):
            ok = (reference.get(key) == table_digest(table.support, table.weights, table.probabilities)
                  and len(table.support) == (first_kind_rows(k, n) if kind == "first" else second_kind_rows(k, n)))
            self.joint_ok.append(ok)
        self.specs = specs
        self._masses = {}

    def check(self, op, result):
        j = op["joint"]
        require(self.joint_ok[j], "joint law differs from its reference")
        joint = self.joints[j]
        name = op["fn"]
        if name == "conditional":
            r, given = len(op["given"]), tuple(op["given"])
            check_table_against(result, law(joint, lambda x: x[:r] == given, lambda x: x[r:op["m"]]))
        elif name == "marginal":
            check_table_against(result, law(joint, lambda x: True, lambda x: x[:op["r"]]))
        elif name == "grouped":
            check_table_against(result, law(joint, lambda x: True, lambda x: block_sums(op["scheme"], x)))
        elif name == "grouped_marginal":
            nu = op["nu"]
            check_table_against(result, law(joint, lambda x: True, lambda x: block_sums(op["scheme"], x)[:nu]))
        elif name == "grouped_conditional":
            nu, given = len(op["given"]), tuple(op["given"])
            check_table_against(result, law(
                joint, lambda x: block_sums(op["scheme"], x)[:nu] == given,
                lambda x: block_sums(op["scheme"], x)[nu:]))
        elif name == "moments":
            self._check_moments(op, joint, result)
        elif name == "sample":
            require(result.draws == expected_draws(joint, op["seed"], op["count"]), "draws differ")
            require(sum(f for _, f in result.empirical) == 1, "empirical law does not sum to 1")
        else:
            masses = self._masses.setdefault(j, prefix_masses(joint))
            k = len(joint.support[0])
            require(result.draws == expected_sequential(masses, k, op["seed"], op["count"]), "draws differ")
            require(sum(f for _, f in result.empirical) == 1, "empirical law does not sum to 1")

    def _check_moments(self, op, joint, reports):
        require(len(reports) == 4, f"{len(reports)} moment reports, expected 4")
        _, kind, preset, p, q, _, _ = self.specs[op["joint"]]
        tau1, tau2 = Fraction(p), Fraction(q)
        x1 = law(joint, lambda x: True, lambda x: x[0])
        if kind == "first":
            mean = x1.get(1, 0)
            var = mean - mean**2
        else:
            mean = sum(P * _number(tau1, tau2, x) for x, P in x1.items())
            var = sum(P * _number(tau1, tau2, x) ** 2 for x, P in x1.items()) - mean**2
        (variance,) = [r for r in reports if r.quantity == "variance"]
        require(variance.oracle_value == var, "variance oracle differs from the joint's")
        if tau1 == 1:
            require(all(r.match for r in reports), "closed-form moments must match at tau1 = 1")


def result_digest(result):
    """Digest of a query result, used to check later passes against the first."""
    if isinstance(result, list):
        data = [(r.quantity, r.oracle_value, r.closed_form, r.match) for r in result]
    elif hasattr(result, "draws"):
        data = result.draws
    else:
        data = (result.support, result.probabilities)
    return hashlib.sha256(repr(data).encode("utf-8")).hexdigest()
