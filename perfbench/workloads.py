"""Seeded inputs for the three benchmark workloads.

The seed picks the (p, q) grid point, the group schemes, the conditioning
prefixes and the sampler seeds.  Sizes stay fixed per workload so runs are
comparable; `TINY` is a small variant used by the benchmark's own tests.
The program receives only what is generated here: an argv per CLI op, or
the arguments of one library call per query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, Tuple

# Small-denominator grid with terminating decimals, so every exact point has
# a decimal twin that parses to the nearest float.  tau1 = p != 1 here, so
# the identity fits search and most of them fail.  The points were kept
# whose exact arithmetic costs about the same (within 5 % on verify and
# tabulate), so the seed changes the inputs but not the amount of work.
JS_GRID = (("9/10", "1/2"), ("4/5", "1/2"), ("7/10", "1/2"), ("4/5", "2/5"), ("7/10", "2/5"))
# q-deformation (tau1 = 1): every closed form matches exactly.
Q_GRID = ("1/2", "2/5", "3/5")
# A query pass costs about 10 % more at p = 9/10 or 7/10 than at p = 4/5,
# so query draws from the p = 4/5 points; verify and tabulate use them all.
QUERY_JS_GRID = (("4/5", "1/2"), ("4/5", "2/5"))

QUERY_KINDS = (
    "conditional", "marginal", "grouped", "grouped_marginal",
    "grouped_conditional", "moments", "sample", "sequential",
)


@dataclass(frozen=True)
class Sizes:
    kmax: int
    first: Tuple[int, int]
    second: Tuple[int, int]
    second_decimal: Tuple[int, int]
    grouped: Tuple[int, int]
    schemes: Tuple[Tuple[int, ...], ...]
    query_first: Tuple[int, int]
    query_second: Tuple[int, int]
    query_mix: Dict[str, int] = field(hash=False)
    sample_draws: int
    sequential_draws: int


FULL = Sizes(
    kmax=5,
    first=(14, 7),
    second=(8, 7),
    second_decimal=(9, 8),
    grouped=(14, 7),
    schemes=((4, 3, 4, 3), (3, 4, 3, 4), (2, 5, 5, 2), (5, 2, 2, 5), (3, 4, 4, 3), (4, 3, 3, 4)),
    query_first=(12, 6),
    query_second=(6, 8),
    query_mix={
        "conditional": 180, "marginal": 21, "grouped": 18, "grouped_marginal": 18,
        "grouped_conditional": 18, "moments": 18, "sample": 18, "sequential": 12,
    },
    sample_draws=1000,
    sequential_draws=200,
)

TINY = Sizes(
    kmax=3,
    first=(6, 3),
    second=(4, 3),
    second_decimal=(4, 4),
    grouped=(6, 3),
    schemes=((1, 2, 2, 1), (2, 1, 1, 2), (1, 1, 2, 2)),
    query_first=(5, 3),
    query_second=(3, 3),
    query_mix={kind: 4 for kind in QUERY_KINDS},
    sample_draws=50,
    sequential_draws=20,
)


def decimal(text: str) -> str:
    """Decimal twin of a rational with a terminating expansion."""
    return repr(float(Fraction(text)))


def first_kind_rows(k: int, n: int) -> int:
    return comb(k, n) + (comb(k, n - 1) if n >= 1 else 0)


def second_kind_rows(k: int, n: int) -> int:
    return comb(n + k, k)


def grouped_rows(sizes, n: int) -> int:
    """Block-sum vectors with 0 <= y_j <= m_j and sum in {n-1, n}."""
    ways = {0: 1}
    for m in sizes:
        nxt = {}
        for s, w in ways.items():
            for y in range(m + 1):
                nxt[s + y] = nxt.get(s + y, 0) + w
        ways = nxt
    return sum(ways.get(s, 0) for s in {max(0, n - 1), n})


def verify_reports(kmax: int) -> int:
    """Report count of `verify --suite all` from the parameter-tuple grid."""
    total = 0
    for k in range(1, kmax + 1):
        capped = min(k + 1, kmax)
        schemes = 2 ** (k - 1)
        total += capped + (kmax + 1) + schemes * capped + schemes * (kmax + 1) + (kmax + 1) * (k + 1)
    return total


def table_key(kind, preset, p, q, k, n, scheme=None):
    """Reference-digest key of an exact table."""
    key = f"table|{kind}|{preset}|{p}|{q}|{k}|{n}"
    return key if scheme is None else f"{key}|{'+'.join(map(str, scheme))}"


def verify_key(preset, p, q, kmax):
    return f"verify|{preset}|{p}|{q}|{kmax}"


def verify_ops(seed: int, sizes: Sizes = FULL):
    rng = random.Random(seed)
    p, q = rng.choice(JS_GRID)
    qq = rng.choice(Q_GRID)
    kmax = str(sizes.kmax)
    reports = verify_reports(sizes.kmax)
    base = ["verify", "--suite", "all", "--kmax", kmax, "--format", "json"]
    return [
        {"label": "verify-js-exact", "argv": base + ["--preset", "js", "--p", p, "--q", q],
         "units": reports, "check": {"type": "reports", "ref": verify_key("js", p, q, kmax), "count": reports}},
        {"label": "verify-q-exact", "argv": base + ["--preset", "q", "--q", qq],
         "units": reports, "check": {"type": "reports", "ref": verify_key("q", "1", qq, kmax), "count": reports}},
        {"label": "verify-js-decimal", "argv": base + ["--preset", "js", "--p", decimal(p), "--q", decimal(q)],
         "units": reports, "check": {"type": "reports_approx", "twin": 0, "count": reports}},
    ]


def tabulate_ops(seed: int, outdir: str, sizes: Sizes = FULL):
    rng = random.Random(seed)
    p, q = rng.choice(JS_GRID)
    scheme = rng.choice(sizes.schemes)
    js = ["--preset", "js", "--p", p, "--q", q]
    ops = []

    def add(label, argv, fmt, units, check):
        path = f"{outdir}/{label}.{fmt}"
        ops.append({"label": label, "argv": argv + ["--format", fmt, "--output", path],
                    "output": path, "units": units, "check": check})

    k, n = sizes.first
    rows = first_kind_rows(k, n)
    first = ["tabulate", "--kind", "first", *js, "--k", str(k), "--n", str(n)]
    check = {"type": "table", "ref": table_key("first", "js", p, q, k, n), "count": rows}
    add("first-js-exact-csv", first, "csv", rows, check)
    add("first-js-exact-json", first, "json", rows, check)
    k, n = sizes.second
    rows = second_kind_rows(k, n)
    add("second-js-exact-json", ["tabulate", "--kind", "second", *js, "--k", str(k), "--n", str(n)], "json",
        rows, {"type": "table", "ref": table_key("second", "js", p, q, k, n), "count": rows})
    k, n = sizes.second_decimal
    rows = second_kind_rows(k, n)
    add("second-js-decimal-csv",
        ["tabulate", "--kind", "second", "--preset", "js", "--p", decimal(p), "--q", decimal(q),
         "--k", str(k), "--n", str(n)], "csv",
        rows, {"type": "table_approx", "p": p, "q": q, "k": k, "n": n, "count": rows})
    k, n = sizes.grouped
    rows = grouped_rows(scheme, n)
    add("grouped-js-exact-csv",
        ["grouped", "--kind", "first", *js, "--k", str(k), "--n", str(n),
         "--groups", ",".join(map(str, scheme))], "csv",
        rows, {"type": "table", "ref": table_key("grouped-first", "js", p, q, k, n, scheme), "count": rows})
    return ops


def query_joints(seed: int, sizes: Sizes = FULL):
    """(key, kind, preset, p, q, k, n) of the three joint laws a query run reads."""
    rng = random.Random(seed)
    p, q = rng.choice(QUERY_JS_GRID)
    qq = rng.choice(Q_GRID)
    (k1, n1), (k2, n2) = sizes.query_first, sizes.query_second
    return [
        (table_key("first", "js", p, q, k1, n1), "first", "js", p, q, k1, n1),
        (table_key("second", "js", p, q, k2, n2), "second", "js", p, q, k2, n2),
        (table_key("first", "q", "1", qq, k1, n1), "first", "q", "1", qq, k1, n1),
    ]


def block_sums(scheme, x):
    """Occupancy of each block of consecutive urns."""
    out, start = [], 0
    for size in scheme:
        out.append(sum(x[start:start + size]))
        start += size
    return tuple(out)


def _scheme(rng, k: int):
    """Three blocks of fixed sizes in a seeded order."""
    a = max(1, k // 3 - 1)
    sizes = [a, k // 3, k - a - k // 3]
    rng.shuffle(sizes)
    return tuple(sizes)


def query_ops(seed: int, supports, sizes: Sizes = FULL):
    """About three hundred seeded library calls against the joints.

    `supports[j]` is the support of joint j, so every conditioning prefix is
    cut from a support point and has positive probability.  The seed picks
    the points, block orders and sampler seeds; the kinds of call, the
    joints they read and the prefix lengths cycle in a fixed pattern, so the
    amount of work in a pass does not depend on the seed.  The ops are
    shuffled so no kind of call runs in one block.

    A conditional call scans the joint and keeps the points that match its
    prefix; how many match depends only on the prefix's length and sum.  So
    each prefix sum comes from a stream that ignores the seed, and the seed
    picks a prefix among the support points with that sum.
    """
    rng = random.Random(seed ^ 0x5EED)
    shape = random.Random(0x5EED)
    with_prefix_sum = {}  # (joint, r, sum) -> support points whose r-prefix has that sum
    kinds = {0: "first", 1: "second", 2: "first"}
    ops = []
    for name, count in sizes.query_mix.items():
        targets = (0, 2) if name == "sequential" else (0, 1, 2)  # the sampler is first-kind only
        for i in range(count):
            j = targets[i % len(targets)]
            turn = i // len(targets)  # how many calls of this kind joint j has had
            support = supports[j]
            k = len(support[0])
            op = {"fn": name, "joint": j}
            if name == "conditional":
                pairs = [(r, m) for r in range(1, k) for m in range(r + 1, k + 1)]
                r, m = pairs[turn % len(pairs)]
                key = (j, r, sum(shape.choice(support)[:r]))
                if key not in with_prefix_sum:
                    with_prefix_sum[key] = [x for x in support if sum(x[:r]) == key[2]]
                op.update(given=list(rng.choice(with_prefix_sum[key])[:r]), m=m)
            elif name == "marginal":
                op.update(r=1 + turn % (k - 1))
            elif name.startswith("grouped"):
                scheme = _scheme(rng, k)
                op.update(scheme=list(scheme))
                if name == "grouped_marginal":
                    op.update(nu=1 + turn % 2)
                elif name == "grouped_conditional":
                    ys = block_sums(scheme, rng.choice(support))
                    op.update(given=list(ys[:1 + turn % 2]))
            elif name == "moments":
                op.update(i1=1 + turn % 2, i2=1 + turn // 2 % 2)
            elif name == "sample":
                op.update(seed=rng.getrandbits(32), count=sizes.sample_draws)
            else:
                op.update(seed=rng.getrandbits(32), count=sizes.sequential_draws)
            op["kind"] = kinds[j]
            ops.append(op)
    rng.shuffle(ops)
    return ops
