"""`rpq tabulate` streams the joint from its area classes.

The class counts are checked against a Counter of `lattice.area` over the
enumerated points.  The stream and `joint_pmf`, which share one
normalization, are each checked against the per-point table of
`oracle.joint_table` on the desk-scale grid (both kinds, the four presets,
exact and decimal): z and every probability in value, type and repr, and
the streamed rows against the table writers, byte for byte.  Refusals go
through `rpq.cli.main` and must match what the per-point route prints.
"""

import io
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb

import pytest

import rpq
from oracle import grid, joint_table, mantissas, path_probabilities, prefix_masses, scan_sequential
from rpq import (ValidationError, chakrabarty_jagannathan, classes, first_kind, jagannathan_srinivasa, occupancy,
                 q_deformation, quesne, sampler, second_kind, serialize)
from rpq.classes import area_counts, sum_rows
from rpq.cli import main
from rpq.first_kind import FirstKindParams
from rpq.lattice import ConstraintSet, area, enumerate_points, sum_counts
from rpq.pmf import _check_exact_probabilities
from rpq.second_kind import SecondKindParams

PRESETS = {
    "js": jagannathan_srinivasa,
    "q": lambda p, q: q_deformation(q),
    "quesne": quesne,
    "cj": chakrabarty_jagannathan,
}


def _alg(preset, exact):
    """The preset at (p, q) = (9/10, 1/2), or at its decimal twin."""
    return PRESETS[preset](Fraction(9, 10), Fraction(1, 2)) if exact else PRESETS[preset](0.9, 0.5)


MODULES = {"first": first_kind, "second": second_kind}


def _grid(kind, alg):
    """The desk-scale grid: first kind k <= 8 with every n in 0..k+1,
    second kind k, n <= 6."""
    return grid(MODULES[kind], alg, first_k=8, second_k=6, second_n=6)


@pytest.mark.parametrize("kind", ("first", "second"))
def test_class_counts_equal_enumerated_areas(kind):
    for params in _grid(kind, _alg("q", True)):
        constraints = occupancy.support_constraints(params)
        counts = area_counts(constraints)
        assert counts == Counter(map(area, enumerate_points(constraints))), params
        assert list(counts) == sorted(counts)


@pytest.mark.parametrize("constraints", [
    ConstraintSet((600, 600), 0, 600),
    ConstraintSet((400, 400), 150, 380),
    ConstraintSet((200000,), 0, 200000),
    ConstraintSet((3, 70, 5), 20, 60),
    ConstraintSet((1,) * 20, 9, 11),
    ConstraintSet((9,) * 6, 0, 9),
], ids=str)
def test_class_counts_on_wide_boxes(constraints):
    """One decode of the window's summed polynomials: wide coordinates,
    counts of several bytes and one-coordinate boxes, against a Counter of
    the enumerated areas; and the per-sum rows add up to it."""
    counts = area_counts(constraints)
    assert counts == Counter(map(area, enumerate_points(constraints)))
    assert list(counts) == sorted(counts)
    by_sum = Counter()
    for t, row in enumerate(sum_rows(constraints.upper, constraints.sum_max)):
        if t >= constraints.sum_min:
            by_sum.update({t + i: c for i, c in enumerate(row) if c})
    assert by_sum == counts


def test_class_counts_of_nine_byte_coefficients():
    """C(90, 20) vectors of 20 coordinates with sums <= 70 take 9 bytes a
    coefficient, a width `_decode` reads byte by byte: their areas are 0 to
    20 * 70, the classes of each sum add up to its count (`sum_counts`) and
    agree with its row, and all of them to C(90, 20)."""
    upper = (70,) * 20
    assert classes._width(20, 70) == 9
    counts, rows = area_counts(ConstraintSet(upper, 0, 70)), sum_rows(upper, 70)
    assert list(counts) == list(range(1401)) and sum(counts.values()) == comb(90, 20)
    for t, total in enumerate(sum_counts(upper, 70)):
        by_area = area_counts(ConstraintSet(upper, t, t))
        assert by_area == {t + i: c for i, c in enumerate(rows[t]) if c} and sum(by_area.values()) == total


def _same(values, reference):
    """Equal in value, type and repr, one by one."""
    assert [(v, type(v), repr(v)) for v in values] == [(v, type(v), repr(v)) for v in reference]


@pytest.mark.parametrize("exact", (True, False), ids=("exact", "decimal"))
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("kind", ("first", "second"))
def test_stream_matches_table_writers(kind, preset, exact):
    config = {"a": 1}
    module = MODULES[kind]
    for params in _grid(kind, _alg(preset, exact)):
        reference, table, stream = joint_table(params), module.joint_pmf(params), module.joint_stream(params)
        for law in (table, stream):
            _same([law.z_enumerated], [reference.z_enumerated])
            assert law.z_discrepancy == reference.z_discrepancy
            assert law.params == reference.params and law.coord_labels == reference.coord_labels
        assert table.support == reference.support
        _same(table.weights, reference.weights)
        _same(table.probabilities, reference.probabilities)
        _same([stream.weights[area(x)] for x in reference.support], reference.weights)
        _same([stream.probabilities[area(x)] for x in reference.support], reference.probabilities)
        assert "".join(serialize.table_csv_chunks(stream)) == "".join(serialize.table_csv_chunks(reference)), params
        assert ("".join(serialize.table_json_chunks(stream, config))
                == "".join(serialize.table_json_chunks(reference, config))), params


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _table_route(monkeypatch):
    """Make `tabulate` write the joint's per-point table (`joint_table`)."""
    for module in (first_kind, second_kind):
        monkeypatch.setattr(module, "joint_stream", joint_table)


JS = ("--preset", "js", "--p", "9/10", "--q", "1/2")
REFUSALS = [
    # The closed normalizer divides by a float that underflowed, before the
    # weights are summed.
    ("--kind", "first", "--k", "4", "--n", "2", "--preset", "js", "--p", "1e-200", "--q", "1e-300"),
    ("--kind", "second", "--k", "4", "--n", "2", "--preset", "js", "--p", "1e-200", "--q", "1e-300"),
    # Positive weights whose probabilities round to 0.0: the first point of
    # the first such class is named.
    ("--kind", "first", "--k", "4", "--n", "4", "--preset", "q", "--q", "1e-310"),
    ("--kind", "second", "--k", "3", "--n", "3", "--preset", "q", "--q", "1e-200"),
    # Float overflow, and a weight that is nan (inf times 0), which has no
    # exact ratio either.
    ("--kind", "second", "--k", "6", "--n", "30", "--preset", "cj", "--p", "0.1", "--q", "0.05"),
    # Finite weights and a closed normalizer that overflowed to inf, which
    # every derived law of this model refuses too.
    ("--kind", "second", "--k", "3", "--n", "10", "--preset", "quesne", "--p", "0.9", "--q", "1e-10"),
    ("--kind", "first", "--k", "3", "--n", "2", "--preset", "quesne", "--p", "1e-300", "--q", "1e-310"),
    # The 10^7-point guard and the dimension guard.
    ("--kind", "second", "--k", "20", "--n", "20") + JS,
    ("--kind", "second", "--k", "21", "--n", "3") + JS,
    ("--kind", "first", "--k", "21", "--n", "3") + JS,
    # Invalid k and n.
    ("--kind", "first", "--k", "3", "--n", "5") + JS,
    ("--kind", "second", "--k", "0", "--n", "1") + JS,
]


@pytest.mark.parametrize("argv", REFUSALS, ids=" ".join)
@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_refusals_match_the_table_route(argv, fmt, monkeypatch, tmp_path):
    argv = ("tabulate",) + argv + ("--format", fmt)
    streamed = _run(argv)
    target = tmp_path / "table.out"
    assert _run(argv + ("--output", str(target))) == (streamed[0], "", streamed[2])
    assert not target.exists()
    _table_route(monkeypatch)
    assert streamed == _run(argv)
    assert streamed[0] in (2, 3) and streamed[1] == ""


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_tol_zero_takes_correctly_rounded_probabilities(fmt, monkeypatch):
    """Decimal probabilities, each rounded once, whose exact sum misses 1
    by less than half an ulp per class (0.9999999999999999 here) make a
    table at --tol 0, on both routes; `test_one_rounding` refuses more."""
    argv = ("tabulate", "--kind", "first", "--k", "2", "--n", "1", "--preset", "js", "--p", "0.9", "--q", "0.5",
            "--tol", "0", "--format", fmt)
    streamed = _run(argv)
    assert streamed[0] == 0 and streamed[2] == ""
    _table_route(monkeypatch)
    assert _run(argv) == streamed


def test_refusal_messages():
    code, _, err = _run(("tabulate", "--kind", "second", "--k", "20", "--n", "20") + JS)
    assert code == 3 and "lattice points exceed the guard" in err
    code, _, err = _run(("tabulate", "--kind", "first", "--k", "21", "--n", "3") + JS)
    assert code == 3 and "dimension 21 exceeds the guard" in err
    code, _, err = _run(("tabulate", "--kind", "second", "--k", "3", "--n", "3", "--preset", "q", "--q", "1e-200"))
    assert code == 2 and "the probability of (0, 0, 2) is 0.0" in err


@pytest.mark.parametrize("argv", [
    ("--kind", "first", "--k", "7", "--n", "3") + JS,
    ("--kind", "second", "--k", "4", "--n", "5", "--preset", "quesne", "--p", "0.9", "--q", "0.5"),
], ids=" ".join)
@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_tabulate_never_builds_the_joint_table(argv, fmt, monkeypatch):
    def refuse(params):
        raise AssertionError("tabulate built a joint PmfTable")

    expected = _run(("tabulate",) + argv + ("--format", fmt))
    _table_route(monkeypatch)
    assert _run(("tabulate",) + argv + ("--format", fmt)) == expected
    monkeypatch.undo()
    for module in (occupancy, first_kind, second_kind):
        monkeypatch.setattr(module, "joint_pmf", refuse)
    assert _run(("tabulate",) + argv + ("--format", fmt)) == expected


@pytest.mark.parametrize("decimal", (False, True))
def test_miscounted_class_fails_and_removes_the_output(decimal, monkeypatch, tmp_path):
    def miscounted(constraints):
        counts = dict(area_counts(constraints))
        counts[next(iter(counts))] += 1
        return counts

    # The stream is memoised with its class law: build it afresh from the
    # miscount, and drop it after.
    occupancy._joint_law.cache_clear()
    monkeypatch.setattr(occupancy, "area_counts", miscounted)
    target = tmp_path / "table.csv"
    p, q = ("0.9", "0.5") if decimal else ("9/10", "1/2")
    with pytest.raises(AssertionError, match="self-check"):
        main(["tabulate", "--kind", "first", "--preset", "js", "--p", p, "--q", q, "--k", "6", "--n", "3",
              "--output", str(target)])
    assert not target.exists()
    occupancy._joint_law.cache_clear()


def test_exact_sum_check_refuses_a_miscount():
    probabilities = [Fraction(1, 4), Fraction(1, 2)]
    _check_exact_probabilities("t", probabilities, [2, 1], 4)
    with pytest.raises(ValidationError, match="probabilities sum to 5/4, not 1"):
        _check_exact_probabilities("t", probabilities, [3, 1], 4)
    with pytest.raises(ValidationError, match="negative probability -1/4"):
        _check_exact_probabilities("t", [Fraction(-1, 4)], [1], 4)


@pytest.mark.parametrize("exact", (True, False), ids=("exact", "decimal"))
def test_empty_prefix_mass_is_the_normalizer(exact):
    """The normalizer is the empty prefix's mass (rounded once in decimal
    mode) that the chain-rule products and the first step of a sequential
    draw read."""
    alg = _alg("js", exact)
    for params in (FirstKindParams(alg, 6, 3), SecondKindParams(alg, 4, 3), FirstKindParams(alg, 1, 2)):
        reference = joint_table(params)
        mass = prefix_masses(reference)[()]
        if not exact:
            mass = float(mass)
        _same([occupancy.joint_pmf(params).z_enumerated, occupancy.joint_stream(params).z_enumerated], [mass] * 2)
        expected = path_probabilities(reference)
        paths = sampler.path_probabilities(params)
        assert list(paths) == list(expected)
        _same(paths.values(), expected.values())
        assert sampler.sequential_sample(params, 9, 200).draws == scan_sequential(reference, mantissas(9), 200)


K18 = ("tabulate", "--kind", "first", "--preset", "js", "--p", "9/10", "--q", "1/2", "--k", "18", "--n", "9")
# Peak RSS of the whole child interpreter.  Holding the joint table took
# 37 MB on CPython 3.11 (Linux x86-64); the stream takes about 19 MB.
K18_RSS_BOUND_MB = 30

# A child's peak RSS counts the memory of the process it was forked from,
# so a small interpreter forks the command and reports what os.wait4 says.
_RSS_OF_CHILD = """
import os, sys
pid = os.spawnv(os.P_NOWAIT, sys.executable, [sys.executable, "-m", "rpq.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_large_table_is_written_in_bounded_memory(tmp_path):
    target = tmp_path / "k18.csv"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rpq.__file__)))
    proc = subprocess.run([sys.executable, "-c", _RSS_OF_CHILD, *K18, "--output", str(target)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    code, rss_kb = map(int, proc.stdout.split())
    assert code == 0
    assert rss_kb / 1024 < K18_RSS_BOUND_MB
    with open(target, encoding="utf-8") as handle:
        rows = sum(1 for line in handle if not line.startswith("#")) - 1
    assert rows == 48_620 + 43_758  # C(18, 9) + C(18, 8)
