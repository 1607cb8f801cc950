"""The value objects of every module are frozen records (`rpq.records`):
equality within one class, hashing over the same fields, a fixed repr,
no assignment, and `replace` through the class's own checks."""

from fractions import Fraction
from functools import cached_property

import pytest

from rpq import algebra, first_kind, identities, lattice, occupancy, pmf, sampler, second_kind, serialize
from rpq.errors import CapacityError, ValidationError
from rpq.records import Record

Q = algebra.q_deformation("1/2")
Q_REPR = ("AlgebraSpec(name='q-deformation', p=Fraction(1, 1), q=Fraction(1, 2), tau1=Fraction(1, 1), "
          "tau2=Fraction(1, 2), number_rule=None, tol=1e-10)")
QD_REPR = "AlgebraSpec(name='q-deformation', p=1.0, q=0.5, tau1=1.0, tau2=0.5, number_rule=None, tol=1e-10)"
Q_PARAMS = "'kind': 'first', 'k': 2, 'n': 1, 'algebra': 'q-deformation', 'mode': 'exact', 'p': '1', 'q': '1/2', "


def _records():
    """One object of each record class, built through the public functions."""
    qd = algebra.q_deformation(0.5)
    first = first_kind.FirstKindParams(Q, 2, 1)
    return {
        "AlgebraSpec": Q,
        "AlgebraSpec-decimal": qd,
        "MonomialFit": algebra.MonomialFit(exact=False, found=True, a=1, b=-2),
        "TriangularRecurrenceReport": algebra.check_triangular_recurrence(Q, 1),
        "RecurrenceEntry": algebra.check_triangular_recurrence(Q, 2).entries[1],
        "ConstraintSet": lattice.ConstraintSet(upper=(1, 2), sum_min=0, sum_max=2),
        "FirstKindParams": first,
        "SecondKindParams": second_kind.SecondKindParams(qd, 1, 1),
        "GroupingScheme": occupancy.GroupingScheme([2, 1]),
        "ConstructionReport": first_kind.bernoulli_construction_check(Q, 1, 1, Fraction(1, 3)),
        "PmfTable": first_kind.marginal_pmf(first, 1),
        "ClosedFormCheck": first_kind.marginal_pmf(first, 1).closed_form_check,
        "PmfTable-decimal": second_kind.joint_pmf(second_kind.SecondKindParams(qd, 1, 1)),
        "PmfStream": first_kind.joint_stream(first),
        "MomentReport": first_kind.bivariate_moments(first)[0],
        "SampleBatch": sampler.sample(first_kind.joint_pmf(first), 7, 3),
        "IdentityReport": identities.verify_identity("hs1", Q, 1)[0],
        "_Layout": serialize._Layout("a", ",", ";", str.__add__),
    }


# Recorded from the dataclass versions of these classes.
REPRS = {
    "AlgebraSpec": Q_REPR,
    "AlgebraSpec-decimal": QD_REPR,
    "MonomialFit": "MonomialFit(exact=False, found=True, a=1, b=-2)",
    "TriangularRecurrenceReport": "TriangularRecurrenceReport(algebra='q-deformation', mmax=1, entries=("
                                  "RecurrenceEntry(m=1, n=1, variant_a=True, variant_b=True),), "
                                  "variant_a_holds=True, variant_b_holds=True)",
    "RecurrenceEntry": "RecurrenceEntry(m=2, n=1, variant_a=True, variant_b=True)",
    "ConstraintSet": "ConstraintSet(upper=(1, 2), sum_min=0, sum_max=2)",
    "FirstKindParams": f"FirstKindParams(alg={Q_REPR}, k=2, n=1)",
    "SecondKindParams": f"SecondKindParams(alg={QD_REPR}, k=1, n=1)",
    "GroupingScheme": "GroupingScheme(sizes=(2, 1))",
    "ConstructionReport": "ConstructionReport(construction='bernoulli', theta=Fraction(1, 3), support=((0,), (1,)), "
                          "construction_probs=(Fraction(1, 3), Fraction(2, 3)), model_probs=(Fraction(1, 3), "
                          "Fraction(2, 3)), match=True, note='')",
    "PmfTable": "PmfTable(kind='first-marginal', params={" + Q_PARAMS + "'tau1': '1', 'tau2': '1/2', "
                "'table': 'marginal', 'r': 1}, coord_labels=('x1',), support=((0,), (1,)), weights=(Fraction(3, 2), "
                "Fraction(1, 4)), z_enumerated=Fraction(7, 4), probabilities=(Fraction(6, 7), Fraction(1, 7)), "
                "exact=True, tol=1e-10, z_closed_form=Fraction(7, 4), z_discrepancy=MonomialFit(exact=True, "
                "found=True, a=0, b=0), closed_form_check=ClosedFormCheck(probabilities=(Fraction(6, 7), "
                "Fraction(1, 7)), pointwise_equal=True))",
    "ClosedFormCheck": "ClosedFormCheck(probabilities=(Fraction(6, 7), Fraction(1, 7)), pointwise_equal=True)",
    "PmfTable-decimal": "PmfTable(kind='second', params={'kind': 'second', 'k': 1, 'n': 1, 'algebra': "
                        "'q-deformation', 'mode': 'approximate', 'p': '1.0', 'q': '0.5', 'tau1': '1.0', 'tau2': "
                        "'0.5', 'tol': '1e-10'}, coord_labels=('x1',), support=((0,), (1,)), weights=(1.0, 0.5), "
                        "z_enumerated=1.5, probabilities=(0.6666666666666666, 0.3333333333333333), exact=False, "
                        "tol=1e-10, z_closed_form=1.5, z_discrepancy=MonomialFit(exact=True, found=True, a=0, b=0), "
                        "closed_form_check=None)",
    "PmfStream": "PmfStream(kind='first', params={" + Q_PARAMS + "'tau1': '1', 'tau2': '1/2'}, coord_labels=("
                 "'x1', 'x2'), constraints=ConstraintSet(upper=(1, 1), sum_min=0, sum_max=1), counts={0: 1, 1: 1, "
                 "2: 1}, weights={0: Fraction(1, 1), 1: Fraction(1, 2), 2: Fraction(1, 4)}, z_enumerated=Fraction("
                 "7, 4), probabilities={0: Fraction(4, 7), 1: Fraction(2, 7), 2: Fraction(1, 7)}, "
                 "z_closed_form=Fraction(7, 4), z_discrepancy=MonomialFit(exact=True, found=True, a=0, b=0))",
    "MomentReport": "MomentReport(quantity='mean[i1=1]', oracle_value=Fraction(1, 7), closed_form=Fraction(1, 7), "
                    "match=True, note='')",
    "SampleBatch": "SampleBatch(params={" + Q_PARAMS + "'tau1': '1', 'tau2': '1/2'}, seed=7, count=3, draws=("
                   "(0, 0), (0, 0), (1, 0)), empirical=(((0, 0), Fraction(2, 3)), ((1, 0), Fraction(1, 3))))",
    "IdentityReport": "IdentityReport(identity='hs1', k=1, n=1, m=None, groups=None, lhs=Fraction(3, 2), "
                      "rhs=Fraction(3, 2), exact_match=True, monomial_found=True, a=0, b=0, note='')",
    "_Layout": "_Layout(head='a', sep=',', end=';', suffix=<slot wrapper '__add__' of 'str' objects>)",
}

# A dict field makes a record unhashable, as it made the dataclass.
UNHASHABLE = {"PmfTable", "PmfTable-decimal", "PmfStream", "SampleBatch"}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_is_the_dataclass_repr(name):
    assert repr(_records()[name]) == REPRS[name]


@pytest.mark.parametrize("name", sorted(REPRS))
def test_equal_fields_of_one_class_are_equal_with_equal_hashes(name):
    record, again = _records()[name], _records()[name]
    copy = record.replace()
    assert isinstance(record, Record) and copy is not record
    for other in (again, copy):
        assert record == other and not record != other and repr(other) == repr(record)
        if name in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(other)
        else:
            assert hash(other) == hash(record)
    assert record != tuple(getattr(record, field) for field in record._fields)


@pytest.mark.parametrize("name", sorted(REPRS))
def test_the_constructor_binds_its_arguments_as_a_call_does(name):
    """Positional and keyword construction give equal records, with the
    fields stored in field order; `_defaults` fill the trailing fields
    left out; too many, unknown, repeated and missing arguments raise
    TypeError."""
    record = _records()[name]
    cls, fields = type(record), record._fields
    values = [getattr(record, field) for field in fields]
    by_name = dict(zip(fields, values))
    for built in (cls(*values), cls(**by_name), cls(*values[:2], **dict(list(by_name.items())[2:]))):
        assert built == record and repr(built) == repr(record)
        assert list(vars(built))[:len(fields)] == list(fields)
    defaults = cls._defaults
    assert tuple(defaults) == fields[len(fields) - len(defaults):]
    required = len(fields) - len(defaults)
    with_defaults = record.replace(**defaults)
    assert cls(*values[:required]) == cls(**dict(list(by_name.items())[:required])) == with_defaults
    for args, kwargs, message in (
        ((*values, None), {}, r"arguments but \d+ were given"),
        ((), {**by_name, "no_such_field": 1}, "unexpected keyword argument 'no_such_field'"),
        ((values[0],), by_name, f"multiple values for argument '{fields[0]}'"),
        ((), dict(list(by_name.items())[1:]), f"missing .*'{fields[0]}'"),
    ):
        with pytest.raises(TypeError, match=message):
            cls(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(REPRS))
def test_a_record_is_frozen(name):
    record = _records()[name]
    field = record._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)


def test_equality_sees_the_class_and_the_mode():
    first, second = first_kind.FirstKindParams(Q, 2, 1), second_kind.SecondKindParams(Q, 2, 1)
    assert first != second and first.replace(n=1) == first
    exact, decimal = algebra.q_deformation(Fraction(1, 2)), algebra.q_deformation(0.5)
    assert (exact.p, exact.q) == (decimal.p, decimal.q)
    assert exact != decimal and decimal.replace(q=0.5) == decimal
    assert algebra.MonomialFit(True, True) != pmf.ClosedFormCheck((), True)
    assert len({first, second, first.replace()}) == 2


def test_replace_drops_the_memos_and_runs_the_checks_again():
    alg = algebra.jagannathan_srinivasa("9/10", "1/2")
    algebra.deformed_binomial(alg, 6, 3)
    alg.describe()
    copy = alg.replace()
    assert copy == alg and hash(copy) == hash(alg) and repr(copy) == repr(alg)
    assert alg._binomials and alg._described
    assert not (copy._numbers or copy._factorials or copy._binomials or copy._described)
    assert algebra.inverse_algebra(alg) == algebra.inverse_algebra(copy)
    assert algebra.inverse_algebra(alg) is not algebra.inverse_algebra(copy)
    with pytest.raises(ValidationError, match="tol"):
        alg.replace(tol=-1.0)
    with pytest.raises(ValidationError, match="positive"):
        alg.replace(q=Fraction(-1, 2))
    assert alg.replace(q=1, tau2=1).q == Fraction(1) and type(alg.replace(q=1).q) is Fraction

    table = first_kind.joint_pmf(first_kind.FirstKindParams(alg, 3, 2))
    assert type(pmf.PmfTable.__dict__["cdf"]) is cached_property
    assert table.cdf is table.cdf and "cdf" in vars(table)
    assert "cdf" not in vars(table.replace()) and table.replace().cdf == table.cdf

    params = first_kind.FirstKindParams(alg, 3, 2)
    with pytest.raises(ValidationError, match="first kind needs"):
        params.replace(n=5)
    with pytest.raises(CapacityError, match=r"dimension 21 exceeds the guard \(20\)"):
        params.replace(k=21)
    with pytest.raises(ValidationError, match="inverted"):
        lattice.ConstraintSet((1, 1), 0, 2).replace(sum_min=3)
    with pytest.raises(ValidationError, match="group sizes"):
        occupancy.GroupingScheme((2, 1)).replace(sizes=(2, 0))


def test_an_algebra_memoises_its_hash_from_the_first_hash():
    alg, twin = algebra.jagannathan_srinivasa("9/10", "1/2"), algebra.jagannathan_srinivasa("9/10", "1/2")
    assert alg._hash is None
    assert hash(alg) == hash(twin) == hash(alg._key(alg)) and alg == twin
    assert alg._hash == hash(alg) and alg.replace()._hash is None
    assert hash(alg.replace()) == hash(alg)
    exact, decimal = algebra.q_deformation(Fraction(1, 2)), algebra.q_deformation(0.5)
    hash(exact), hash(decimal)
    assert exact != decimal and len({exact, decimal, algebra.q_deformation(Fraction(1, 2))}) == 2

    class Unhashable:
        __hash__ = None

        def __call__(self, n):
            return Fraction(n)

    # Built without a hash; every hash raises, as the record's own would.
    custom = algebra.AlgebraSpec("custom", None, None, None, None, number_rule=Unhashable())
    for _ in range(2):
        with pytest.raises(TypeError, match="unhashable"):
            hash(custom)
    assert custom._hash is None


def test_params_refuse_a_dimension_past_the_guard_before_building_a_support():
    for cls in (first_kind.FirstKindParams, second_kind.SecondKindParams):
        with pytest.raises(CapacityError, match=r"dimension 99999999999 exceeds the guard \(20\)"):
            cls(Q, 99_999_999_999, 1)
        # The checks on k and n come first, as before.
        with pytest.raises(ValidationError, match="k: need k >= 1"):
            cls(Q, 0, 1)
        with pytest.raises(ValidationError, match="n: "):
            cls(Q, 99_999_999_999, -1)
