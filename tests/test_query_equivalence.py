"""Derived laws and draws against scan-and-sum references over the joint.

Conditionals, grouped marginals and grouped conditionals are summed from
the per-point joint (`oracle.joint_table`) exactly, the way the
straightforward scan does it, and the samplers are replayed with a linear
threshold scan and uncached prefix masses (`oracle`).  Floats are compared
with `==`: the library must round the scan's exact values once, bit for
bit, not just within tolerance.
"""

import json
from fractions import Fraction
from functools import partial
from math import ceil

import pytest

from conftest import Q_HALF
from oracle import (DENOM, KINDS, block_sums, children, compositions, frequencies, grid, joint_table, kind_id,
                    mantissas, normalized, on_scale, path_probabilities, prefix_masses, prefixes, refuse_joint_tables,
                    scan, scan_sample, scan_sequential, scan_step)
from rpq import (
    ValidationError,
    ZeroProbabilityEventError,
    jagannathan_srinivasa,
    sample,
    sequential_sample,
)
from rpq import first_kind, occupancy, sampler, second_kind
from rpq.first_kind import FirstKindParams, GroupingScheme
from rpq.pmf import PmfTable, make_table
from rpq.scalars import scalar_str
from rpq.second_kind import SecondKindParams
from test_cli import run_cli

# Every small (k, n): k <= 4 for the first kind, k, n <= 3 for the second.
_params = partial(grid, first_k=4, second_k=3, second_n=3)


def _assert_same(table, support, masses):
    assert table.support == support
    assert (table.weights, table.z_enumerated, table.probabilities) == normalized(masses, table.exact)


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_conditionals_equal_scan(case):
    for params in _params(*case):
        _check_conditionals(case[0], params)


def _check_conditionals(module, params):
    joint = joint_table(params)
    for r in range(1, params.k):
        for given in prefixes(module, params, r):
            for m in range(r + 1, params.k + 1):
                support, masses = scan(
                    joint.support, joint.weights, lambda x: x[:r] == given, lambda x: x[r:m]
                )
                if not support:
                    with pytest.raises(ZeroProbabilityEventError, match="has probability zero"):
                        module.conditional_pmf(params, given, m)
                    continue
                table = module.conditional_pmf(params, given, m)
                _assert_same(table, support, masses)
                again = module.conditional_pmf(params, given, m)
                assert (again.support, again.weights) == (table.support, table.weights)


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_grouped_marginals_and_conditionals_equal_scan(case):
    for params in _params(*case):
        _check_grouped(case[0], params)


def _check_grouped(module, params):
    joint = joint_table(params)
    for sizes in compositions(params.k):
        scheme = GroupingScheme(sizes)
        blocks, block_masses = scan(
            joint.support, joint.weights, lambda x: True, block_sums(sizes)
        )
        for nu in range(1, len(sizes)):
            support, masses = scan(blocks, block_masses, lambda y: True, lambda y: y[:nu])
            _assert_same(module.grouped_marginal_pmf(params, scheme, nu), support, masses)
            for given in set(y[:nu] for y in blocks) | {tuple(params.n + 1 for _ in range(nu))}:
                support, masses = scan(
                    blocks, block_masses, lambda y: y[:nu] == given, lambda y: y[nu:]
                )
                if not support:
                    with pytest.raises(ZeroProbabilityEventError, match="has probability zero"):
                        module.grouped_conditional_pmf(params, scheme, given)
                    continue
                _assert_same(module.grouped_conditional_pmf(params, scheme, given), support, masses)


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_draws_equal_linear_scan(case):
    module = case[0]
    for params in _params(*case):
        table, reference = module.joint_pmf(params), joint_table(params)
        batches = []
        for seed in (1, 2):
            expected = scan_sample(reference, mantissas(seed), 300)
            for _ in range(2):
                batches.append((sample(table, seed, 300), expected))
        expected = scan_sequential(reference, mantissas(3), 300)
        for _ in range(2):
            batches.append((sequential_sample(params, 3, 300), expected))
        for batch, expected in batches:
            assert batch.draws == expected
            assert batch.empirical == frequencies(expected)
            assert all(type(freq) is Fraction for _, freq in batch.empirical)
        paths = sampler.path_probabilities(params)
        expected = path_probabilities(reference)
        assert list(paths) == list(expected)
        assert [(v, type(v), repr(v)) for v in paths.values()] == [(v, type(v), repr(v)) for v in expected.values()]


def _either_side(bound):
    """The variates just below and at a threshold, on the 53-bit scale."""
    top = ceil(bound)
    return [u for u in (top - 1, top) if 0 <= u < DENOM]


def _fed(monkeypatch, variates):
    """Make the sampler read `variates` as its mantissas, whatever the seed:
    the draws ask for all of them in one list."""
    def fed(seed, count):
        assert count == len(variates)
        return list(variates)
    monkeypatch.setattr(sampler, "_variates", fed)


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_steps_equal_uncached_on_either_side_of_every_threshold(case, monkeypatch):
    """Each step's thresholds, pinned by draws: for every prefix, variates
    that walk to it and then fall just below and at each threshold of its
    extensions (the inverse-CDF step too), against the linear scan fed the
    same variates."""
    module = case[0]
    for params in _params(*case):
        reference, k = joint_table(params), params.k
        masses = prefix_masses(reference)
        kids = children(masses)

        def lead(prefix):
            # Variates that take the walk from the empty prefix to `prefix`.
            out = []
            for cut in range(len(prefix)):
                siblings = kids[prefix[:cut]]
                i = siblings.index(prefix[:cut + 1])
                out.append(0 if i == 0 else ceil(scan_step(masses, prefix[:cut], siblings)[i - 1]))
            return out

        walks = [lead(prefix) + [u] + [0] * (k - len(prefix) - 1)
                 for prefix, extended in kids.items()
                 for bound in scan_step(masses, prefix, extended)
                 for u in _either_side(bound)]
        variates = [u for walk in walks for u in walk] + [0, DENOM - 1] * k
        count = len(variates) // k
        _fed(monkeypatch, variates)
        assert sequential_sample(params, 0, count).draws == scan_sequential(reference, iter(variates), count)
        support = list(reference.support)
        variates = [0, DENOM - 1] + [u for bound in scan_step(masses, (), support)
                                     for u in _either_side(bound)]
        _fed(monkeypatch, variates)
        table, expected = module.joint_pmf(params), scan_sample(reference, iter(variates), len(variates))
        assert sample(table, 0, len(variates)).draws == sampler._descent(params, 0, len(variates)).draws == expected
        monkeypatch.undo()


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_draws_at_the_edges_of_every_split_guide_bucket_equal_scan(case, monkeypatch):
    """The guide's buckets, pinned by draws: for every bucket of the joint
    table's guide that holds a threshold, the variates just below and at
    its start, against the linear scan fed the same variates."""
    module = case[0]
    for params in _params(*case):
        table, reference = module.joint_pmf(params), joint_table(params)
        shift, _ = table.guide
        starts = sorted({t >> shift << shift for t in table.cdf if t < DENOM})
        variates = [u for start in starts for u in (start - 1, start) if u >= 0] + [0, DENOM - 1]
        _fed(monkeypatch, variates)
        assert sample(table, 0, len(variates)).draws == scan_sample(reference, iter(variates), len(variates))
        monkeypatch.undo()


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_cold_warm_and_copied_walks_equal_scan(case):
    module = case[0]
    for params in _params(*case):
        reference = joint_table(params)
        module.joint_pmf.cache_clear()
        for draw, scan_draw in ((sequential_sample, scan_sequential), (sampler._descent, scan_sample)):
            occupancy._joint_law.cache_clear()
            # The first seed walks fresh class memos, the others warm ones.
            for seed in (1, 7, 12345, (1 << 64) - 1):
                expected = scan_draw(reference, mantissas(seed), 150)
                batch = draw(params, seed, 150)
                assert batch.draws == expected
                assert batch.empirical == frequencies(expected)
        # A copy of a table samples alike, before and after the original
        # has sampled.
        joint = module.joint_pmf(params)
        copy = joint.replace()
        assert copy == joint and repr(copy) == repr(joint)
        expected = scan_sample(reference, mantissas(5), 150)
        assert sample(copy, 5, 150).draws == sample(joint, 5, 150).draws == expected
        assert sample(joint.replace(), 5, 150).draws == expected


def test_approximate_draw_past_last_threshold_takes_last_point(monkeypatch):
    params = FirstKindParams(jagannathan_srinivasa(0.9, 0.5), 3, 1)
    joint = first_kind.joint_pmf(params)
    # The thresholds are exact, each cumulative float weight over the total
    # rounded up, so the last lies below 2^53: the largest variate,
    # 2^53 - 1, falls past it and takes the last point.
    top = DENOM - 1
    weights = list(map(Fraction, joint.weights))
    assert joint.cdf == [on_scale(sum(weights[:i]) / sum(weights)) for i in range(1, len(weights))]
    assert joint.cdf[-1] <= top
    _fed(monkeypatch, [top] * 3)
    assert sample(joint, 4, 3).draws == (joint.support[-1],) * 3
    monkeypatch.undo()
    assert sample(joint, 4, 400).draws == scan_sample(joint_table(params), mantissas(4), 400)


def test_table_lookup_and_support_order():
    joint = first_kind.joint_pmf(FirstKindParams(Q_HALF, 3, 2))
    stream = first_kind.joint_stream(FirstKindParams(Q_HALF, 3, 2))
    for point, prob in zip(joint.support, joint.probabilities):
        assert joint.probability(point) == prob
        assert (stream.probability(point), type(stream.probability(point))) == (prob, Fraction)
    for absent in ((), (0, 0, 0), (0, 1, 0, 0), (1, 1, 1), (2,), (2, 0, 0), (-1, 1, 1)):
        assert joint.probability(absent) == stream.probability(absent) == 0
        assert type(stream.probability(absent)) is Fraction
    assert second_kind.joint_stream(second_kind.SecondKindParams(jagannathan_srinivasa(0.9, 0.5), 2, 2)
                                    ).probability((3, 0)) == 0.0
    for support in (((1,), (0,)), ((0,), (0,))):
        with pytest.raises(ValidationError, match="strictly increasing"):
            make_table(kind="t", params={}, coord_labels=("x",), support=support,
                       weights=(Fraction(1), Fraction(1)), index=range(2), alg=Q_HALF)


def _same(values, reference):
    assert [(v, type(v), repr(v)) for v in values] == [(v, type(v), repr(v)) for v in reference]


def _reports(reports):
    return [(r.quantity, r.oracle_value, type(r.oracle_value), repr(r.oracle_value), r.closed_form, r.match, r.note)
            for r in reports]


@pytest.mark.parametrize("case", KINDS, ids=kind_id)
def test_derived_work_never_builds_the_joint_table(case, monkeypatch):
    """With `joint_pmf` refused: every derived law, the moments at k >= 3,
    the sequential draws and the chain-rule products against the scans of
    the per-point joint, in value, type and repr."""
    module = case[0]
    for params in grid(*case, first_k=5, second_k=4, second_n=3):
        reference, k = joint_table(params), params.k
        bivariate = None
        if k >= 3:
            support, masses = scan(reference.support, reference.weights, lambda x: True, lambda x: x[:2])
            bivariate = PmfTable("t", {}, ("x1", "x2"), support, *normalized(masses, params.alg.exact),
                                 params.alg.exact, params.alg.tol)
            monkeypatch.setattr(module, "bivariate_table", lambda params: bivariate)
            expected_moments = _reports(module.bivariate_moments(params, 1, 2))
            monkeypatch.undo()
        refuse_joint_tables(monkeypatch)
        joint = (reference.support, reference.weights)
        # (table, the points and masses it is summed from, kept, projected)
        laws = [(module.marginal_pmf(params, r), joint, lambda x: True, lambda x, r=r: x[:r]) for r in range(1, k)]
        for r in range(1, k):
            for given in sorted({x[:r] for x in reference.support}):
                laws += [(module.conditional_pmf(params, given, m), joint, lambda x, g=given: x[:len(g)] == g,
                          lambda x, r=r, m=m: x[r:m]) for m in range(r + 1, k + 1)]
        for sizes in compositions(k):
            scheme = GroupingScheme(sizes)
            blocks = scan(*joint, lambda x: True, block_sums(sizes))
            laws.append((module.grouped_pmf(params, scheme), joint, lambda x: True, block_sums(sizes)))
            for nu in range(1, len(sizes)):
                laws.append((module.grouped_marginal_pmf(params, scheme, nu), blocks, lambda y: True,
                             lambda y, nu=nu: y[:nu]))
                laws += [(module.grouped_conditional_pmf(params, scheme, given), blocks,
                          lambda y, g=given: y[:len(g)] == g, lambda y, nu=nu: y[nu:])
                         for given in sorted({y[:nu] for y in blocks[0]})]
        for table, (points, weights), keep, project in laws:
            support, masses = scan(points, weights, keep, project)
            assert table.support == support
            weights, z, probabilities = normalized(masses, params.alg.exact)
            _same(table.weights, weights)
            _same([table.z_enumerated], [z])
            _same(table.probabilities, probabilities)
        if bivariate is not None:
            assert _reports(module.bivariate_moments(params, 1, 2)) == expected_moments
        assert sequential_sample(params, 11, 300).draws == scan_sequential(reference, mantissas(11), 300)
        paths = sampler.path_probabilities(params)
        expected = path_probabilities(reference)
        assert list(paths) == list(expected)
        _same(paths.values(), expected.values())
        monkeypatch.undo()


@pytest.mark.parametrize("params", [
    FirstKindParams(jagannathan_srinivasa(Fraction(9, 10), Fraction(1, 2)), 7, 3),
    SecondKindParams(jagannathan_srinivasa(0.9, 0.5), 4, 5),
], ids=("first-exact", "second-decimal"))
@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_cli_sequential_sample_never_builds_the_joint_table(params, fmt, monkeypatch):
    """`rpq sample`, with `--sequential` or by inverse CDF, lists no joint
    table; its draws are the scans', and the expected value of each drawn
    point is its probability in the joint table, as before."""
    alg, reference = params.alg, joint_table(params)
    for flags, scan_draw in ((("--sequential",), scan_sequential), ((), scan_sample)):
        argv = ("sample", *flags, "--kind", params.kind, "--preset", "js", "--p", str(alg.p), "--q", str(alg.q),
                "--k", str(params.k), "--n", str(params.n), "--seed", "5", "--count", "300", "--format", fmt)
        refuse_joint_tables(monkeypatch)
        code, out, err = run_cli(*argv)
        monkeypatch.undo()
        assert code == 0 and err == ""
        expected = scan_draw(reference, mantissas(5), 300)
        if fmt == "csv":
            rows = [line for line in out.splitlines() if not line.startswith("#")]
            assert rows[1:] == [",".join(map(str, x)) for x in expected]
        else:
            drawn = json.loads(out)["frequencies"]
            assert [(tuple(f["point"]), f["empirical"]) for f in drawn] == [
                (x, scalar_str(freq)) for x, freq in frequencies(expected)]
            assert all(f["expected"] == scalar_str(reference.probability(tuple(f["point"]))) for f in drawn)
