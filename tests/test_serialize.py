"""The streamed table writers against whole-document references.

The references are the writers as they were before streaming: the csv
module over `str` of every field, and `json.dumps(sort_keys=True,
indent=2)` of the full table object.  Chunk sizes that divide the row count
and ones that do not are both covered.
"""

import csv
import io
import json
import sys
from fractions import Fraction

import pytest

import oracle
from conftest import ALL_PRESETS
from rpq import first_kind, jagannathan_srinivasa, second_kind, serialize
from rpq.first_kind import FirstKindParams, GroupingScheme
from rpq.scalars import scalar_str
from rpq.second_kind import SecondKindParams

PRESETS = ALL_PRESETS + (jagannathan_srinivasa(0.9, 0.5),)


def _tables(alg):
    out = []
    for module, params in ((first_kind, FirstKindParams(alg, 5, 3)), (second_kind, SecondKindParams(alg, 3, 3))):
        out += [
            module.joint_pmf(params),
            module.marginal_pmf(params, 2),
            module.conditional_pmf(params, (0,), 3),
            module.grouped_pmf(params, GroupingScheme((2, params.k - 2))),
        ]
    return out


def _csv_reference(table):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(table.coord_labels) + ["weight", "probability"])
    for point, weight, prob in zip(table.support, table.weights, table.probabilities):
        writer.writerow([*point, scalar_str(weight), scalar_str(prob)])
    return out.getvalue()


def _json_reference(table, config):
    obj = serialize.table_to_json_obj(table)
    if config is not None:
        obj["config"] = config
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("alg", PRESETS, ids=lambda alg: f"{alg.name}-{'exact' if alg.exact else 'approx'}")
@pytest.mark.parametrize("chunk_rows", (1, 2, 3, serialize.CHUNK_ROWS))
def test_streamed_tables_equal_whole_documents(alg, chunk_rows, monkeypatch):
    monkeypatch.setattr(serialize, "CHUNK_ROWS", chunk_rows)
    for table in _tables(alg):
        csv_chunks = list(serialize.table_csv_chunks(table))
        assert serialize.table_to_csv(table) == "".join(csv_chunks) == _csv_reference(table)
        assert len(csv_chunks) == -(-len(table.support) // chunk_rows)
        for config in (None, {"k": 5, "q": "1/2", "scheme": [2, 3]}):
            chunks = list(serialize.table_json_chunks(table, config))
            assert "".join(chunks) == _json_reference(table, config)
            # Header, one chunk per CHUNK_ROWS rows, trailer.
            assert len(chunks) == 2 + -(-len(table.support) // chunk_rows)


@pytest.mark.parametrize("writer", (serialize.table_csv_chunks, serialize.table_json_chunks))
def test_rows_share_one_suffix_per_weight_class(writer, monkeypatch):
    """Each distinct (weight, probability) object pair is formatted once for
    the whole table, however many chunks its points fall in."""
    table = first_kind.joint_pmf(FirstKindParams(ALL_PRESETS[0], 8, 4))
    monkeypatch.setattr(serialize, "CHUNK_ROWS", 1)
    calls = []
    monkeypatch.setattr(serialize, "scalar_str", lambda value: calls.append(value) or scalar_str(value))
    chunks = writer(table)
    if writer is serialize.table_json_chunks:
        next(chunks)  # the object without its rows formats z and the closed form
        calls.clear()
    assert len(list(chunks)) >= len(table.support)
    pairs = {(id(w), id(p)) for w, p in zip(table.weights, table.probabilities)}
    assert len(calls) == 2 * len(pairs) < len(table.support)


@pytest.mark.parametrize("stream", (False, True), ids=("table", "stream"))
def test_csv_stream_is_made_of_table_to_csv_calls(stream, monkeypatch):
    """Each chunk is the return value of `table_to_csv`, so wrapping that
    one function sees every byte of a streamed CSV table, listed or
    streamed; `table_to_csv` of the whole table writes the same bytes."""
    params = FirstKindParams(ALL_PRESETS[0], 12, 6)  # 1716 rows, several chunks
    table = first_kind.joint_stream(params) if stream else first_kind.joint_pmf(params)
    returned = []
    original = serialize.table_to_csv
    monkeypatch.setattr(serialize, "table_to_csv", lambda *args: returned.append(original(*args)) or returned[-1])
    assert list(serialize.table_csv_chunks(table)) == returned
    assert len(returned) > 1
    assert "".join(returned) == original(table) == _csv_reference(first_kind.joint_pmf(params))


def _json_documents():
    from rpq import make_preset, verify_identity
    from rpq.identities import reports_to_json_obj
    from rpq.sampler import sample

    docs = []
    for alg in (ALL_PRESETS[0], jagannathan_srinivasa(0.9, 0.5)):
        reports = [r for suite in ("hs1", "hsb", "cauchy") for r in verify_identity(suite, alg, 3)]
        docs.append({"schema_version": 1, "config": {"kmax": 3, "note": "x"}, "reports": reports_to_json_obj(reports)})
        params = SecondKindParams(alg, 3, 2)
        table = second_kind.joint_pmf(params)
        head = serialize._table_head(table)
        head["rows"] = serialize._ROWS_MARK
        docs.append(head)
        docs.append(serialize.moments_to_json_obj(second_kind.bivariate_moments(params)))
        docs.append(serialize.batch_to_json_obj(sample(table, 5, 40), table))
    docs.append(make_preset("q", q="1/2").describe())
    docs += [
        {}, [], None, True, False, 0, -7, 10**40, 0.1, -0.0, 1e300, 5e-324,
        float("nan"), float("inf"), float("-inf"), [float("nan"), float("inf"), float("-inf")],
        {"": [], "a": {}, "b": [{}, [[]], None, True, False], "é\n\"\\": "\x00 \U0001f600"},
        {2: "x", 10: "y"}, {True: 1, False: 0}, {None: 1}, {1.5: "f"}, (1, (2, 3)),
    ]
    return docs


def test_dumps_json_equals_the_json_module():
    for doc in _json_documents():
        assert serialize.dumps_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n", doc


@pytest.mark.parametrize("doc", [object(), [set()], {(1, 2): 3}, {"a": 1, 2: 3}])
def test_dumps_json_refuses_what_the_json_module_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        serialize.dumps_json(doc)


def test_scalar_str_equals_the_decimal_route():
    # Just below and just past the default int-to-str digit limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        below, past = 10**4299 + 7, 10**4300 + 7
        values = [0, 1, -1, 12345, -(2**70), True, False, Fraction(4, 7), Fraction(-3, 4), Fraction(6, 3),
                  Fraction(-1, 2**80), 0.1, -2.5, 1e300, 5e-324, -0.0, float("inf"), float("nan"),
                  below, -below, past, -past, Fraction(below, 3), Fraction(1, below), Fraction(-past, 3),
                  Fraction(1, past), Fraction(past, below)]
        for value in values:
            assert scalar_str(value) == oracle.scalar_str(value), value
    finally:
        sys.set_int_max_str_digits(limit)
