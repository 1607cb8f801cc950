"""The exit-code contract under random command lines.

README promises that every run ends with exit 0 (success), 2 (validation
error) or 3 (capacity guard), never with a traceback, and that output is
byte-deterministic.  Hypothesis drives `cli.main()` in-process with random
subcommands, presets, small (k, n), groupings, prefixes, tolerances and
rational or decimal p, q, valid or not.  A failed run must print nothing
on stdout, and a successful one, repeated in the same process (so from warm
caches), must print the same bytes.  A tolerance that is not finite and
non-negative always fails.  Examples are derandomized so the suite is
repeatable; argparse rejections count as exit 2.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rpq import cli

PRESETS = ("js", "q", "quesne", "cj", "arik-coon", "none")
SUITES = ("hs1", "hs2", "hsa", "hsb", "cauchy", "triangular", "all")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _int_list(values):
    return ",".join(map(str, values))


def _mostly(valid, invalid):
    """Draws from `valid` nine times in ten."""
    return st.sampled_from((valid,) * 9 + (invalid,)).flatmap(lambda strategy: strategy)


# Valid (p, q) pairs have 0 < q < p < 1, both rational (exact mode) or both
# decimal (approximate mode); now and then the decimals are so small that
# approximate-mode floats underflow.  Now and then p and q are anything at
# all: zero denominators, 0, 1, negatives, tiny decimals, mixed modes,
# rationals with about as many digits as an int read from text may have
# (LONG_DIGITS), or missing.
unit_points = st.lists(st.integers(1, 99), min_size=2, max_size=2, unique=True).map(sorted)
TINY = ("1e-200", "1e-300", "1e-310")
unit_pairs = st.tuples(unit_points, st.booleans()).map(
    lambda drawn: tuple(f"{v}/100" if drawn[1] else repr(v / 100) for v in reversed(drawn[0]))
)
tiny_pairs = st.sampled_from((("1e-200", "1e-300"), ("0.5", "1e-300"), ("1e-300", "1e-310")))
valid_pairs = st.sampled_from((unit_pairs,) * 3 + (tiny_pairs,)).flatmap(lambda strategy: strategy)
LONG_DIGITS = 4300
long_rationals = st.builds(lambda lead, nines: f"1/{lead}{'9' * nines}", st.sampled_from(("", "1")),
                           st.integers(LONG_DIGITS - 2, LONG_DIGITS + 1))
any_scalar = st.none() | st.builds(
    lambda a, b: f"{a}/{b}", st.integers(-1, 12), st.integers(0, 12)
) | st.floats(-0.5, 1.5, allow_nan=False).map(lambda v: repr(round(v, 3))) | st.sampled_from(TINY) | long_rationals
pairs = _mostly(valid_pairs, st.tuples(any_scalar, any_scalar))
# --tol must be finite and >= 0; argparse itself rejects non-numbers.
BAD_TOLERANCES = ("-1", "-1e-12", "nan", "inf", "-inf", "abc")
tolerances = st.sampled_from(("1e-10", "1e-6", "0.5", "0", "-0.0")) | st.sampled_from(BAD_TOLERANCES)


@st.composite
def compositions(draw, k):
    """Block sizes summing to k, in at least two blocks when k > 1."""
    cuts = sorted(draw(st.sets(st.integers(1, k - 1), min_size=1))) if k > 1 else []
    bounds = [0] + cuts + [k]
    return [b - a for a, b in zip(bounds, bounds[1:])]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(
        ("tabulate", "marginal", "conditional", "grouped", "moments", "sample", "verify")))
    preset = draw(_mostly(st.sampled_from(PRESETS[:-1]), st.just(PRESETS[-1])))
    argv = [command, "--preset", preset]
    p, q = draw(pairs)
    if preset in ("q", "arik-coon") and draw(_mostly(st.just(True), st.just(False))):
        p = None
    argv += [] if p is None else ["--p", p]
    argv += [] if q is None else ["--q", q]
    argv += ["--format", draw(st.sampled_from(("csv", "json")))]
    if draw(st.booleans()):
        argv += ["--tol", draw(tolerances)]
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(SUITES))]
        argv += ["--kmax", str(draw(_mostly(st.integers(1, 3), st.integers(-1, 0))))]
        if draw(st.booleans()):
            argv += ["--nmax", str(draw(st.integers(-1, 3)))]
        return argv
    kind = draw(st.sampled_from(("first", "second")))
    k = draw(_mostly(st.integers(2, 5), st.integers(-1, 1)))
    n = draw(_mostly(st.integers(0, min(4, k + 1) if kind == "first" else 4), st.integers(-1, 7)))
    argv += ["--kind", kind, "--k", str(k), "--n", str(n)]
    top = max(k, 1)
    if command == "marginal":
        argv += ["--r", str(draw(_mostly(st.integers(1, max(top - 1, 1)), st.integers(-1, top))))]
    elif command == "conditional":
        values = st.integers(0, 1 if kind == "first" else 2)
        given = draw(_mostly(st.lists(values, min_size=1, max_size=max(top - 1, 1)),
                             st.lists(st.integers(-1, 3), max_size=top + 1)))
        argv += ["--given", _int_list(given)]
        if draw(st.booleans()):
            argv += ["--m", str(draw(st.integers(len(given), top + 1)))]
    elif command == "grouped":
        sizes = draw(_mostly(compositions(top), st.lists(st.integers(-1, 5), max_size=4)))
        argv += ["--groups", _int_list(sizes)]
    elif command == "moments":
        for option in ("--i1", "--i2"):
            if draw(st.booleans()):
                argv += [option, str(draw(_mostly(st.integers(1, 3), st.integers(-1, 0))))]
    elif command == "sample":
        argv += ["--seed", str(draw(st.integers(0, 99)))]
        argv += ["--count", str(draw(_mostly(st.integers(1, 20), st.integers(-1, 0))))]
        if draw(st.booleans()):
            argv.append("--sequential")
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_exit_code_contract_and_deterministic_stdout(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, err)
    if "--tol" in argv and argv[argv.index("--tol") + 1] in BAD_TOLERANCES:
        assert code == 2, argv
    if any(len(word) > LONG_DIGITS + 2 for word in argv):
        assert code == 2 and "is too long" in err, argv
    if code == 0:
        assert err == ""
        assert _run(argv) == (code, out, err)
    else:
        assert out == ""
