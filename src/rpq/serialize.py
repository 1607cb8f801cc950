"""Byte-deterministic CSV and JSON forms of tables, reports and batches.

Exact scalars serialize as rational strings ("4/7"); approximate ones as
float reprs.  JSON objects are emitted with sorted keys and a schema
version so round-tripping is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .scalars import Scalar, scalar_str

if TYPE_CHECKING:  # annotations only: `rpq verify` loads neither module
    from .pmf import MomentReport, PmfTable
    from .sampler import SampleBatch

SCHEMA_VERSION = 1


def _csv_writer(out: io.StringIO) -> "csv.writer":
    return csv.writer(out, lineterminator="\n")


def config_header(config: Mapping[str, object]) -> str:
    """Comment block echoing the fully resolved configuration."""
    lines = [f"# {key}={config[key]}" for key in sorted(config)]
    return "\n".join(lines) + "\n"


def _strings(values: Sequence[Scalar]) -> List[str]:
    """`scalar_str` of each value, formatted once per distinct object (the
    points of a weight class share their weight and probability objects)."""
    text = {}
    for value in values:
        if id(value) not in text:
            text[id(value)] = scalar_str(value)
    return [text[id(value)] for value in values]


# Rows per chunk of streamed table text: at most a few hundred kB even for
# wide exact tables, so writing a table never holds the whole document.
CHUNK_ROWS = 512


def _rows(
    table: PmfTable,
    start: int,
    stop: Optional[int],
    point_format: str,
    suffix: Callable[[str, str], str],
    suffixes: Dict[Tuple[int, int], str],
) -> List[str]:
    """Text of the rows support[start:stop].  A row is `point_format % point`
    followed by `suffix(weight text, probability text)`, formatted once per
    distinct (weight, probability) object pair and kept in `suffixes`: the
    points of a weight class share both objects."""
    rows = []
    for point, weight, prob in zip(
        table.support[start:stop], table.weights[start:stop], table.probabilities[start:stop]
    ):
        key = (id(weight), id(prob))
        text = suffixes.get(key)
        if text is None:
            text = suffixes[key] = suffix(scalar_str(weight), scalar_str(prob))
        rows.append(point_format % point + text)
    return rows


def table_to_csv(table: PmfTable, start: int = 0, stop: Optional[int] = None) -> str:
    """CSV text of the rows support[start:stop], after the header row when
    `start` is 0.  Coordinates are ints and scalar strings hold no comma or
    quote, so the rows need no CSV quoting."""
    out = io.StringIO()
    if start == 0:
        _csv_writer(out).writerow(list(table.coord_labels) + ["weight", "probability"])
    point_format = ",".join(["%d"] * len(table.coord_labels))
    return out.getvalue() + "".join(_rows(table, start, stop, point_format, lambda w, p: f",{w},{p}\n", {}))


def table_csv_chunks(table: PmfTable) -> Iterator[str]:
    """`table_to_csv(table)` as a stream: one `table_to_csv` call per
    CHUNK_ROWS rows, the first with the header row."""
    for start in range(0, max(len(table.support), 1), CHUNK_ROWS):
        yield table_to_csv(table, start, start + CHUNK_ROWS)


def _table_head(table: PmfTable) -> dict:
    """`table_to_json_obj` without its rows."""
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": table.kind,
        "params": {k: _plain(v) for k, v in table.params.items()},
        "coords": list(table.coord_labels),
        "z_enumerated": scalar_str(table.z_enumerated),
        "z_closed_form": None if table.z_closed_form is None else scalar_str(table.z_closed_form),
        "discrepancy": None if table.z_discrepancy is None else table.z_discrepancy.describe(),
    }
    if table.closed_form_check is not None:
        obj["closed_form"] = {
            "probabilities": [scalar_str(v) for v in table.closed_form_check.probabilities],
            "pointwise_equal": table.closed_form_check.pointwise_equal,
        }
    return obj


def table_to_json_obj(table: PmfTable) -> dict:
    obj = _table_head(table)
    obj["rows"] = [
        {"point": list(p), "weight": w, "probability": pr}
        for p, w, pr in zip(table.support, _strings(table.weights), _strings(table.probabilities))
    ]
    return obj


# Stands in for the rows when the rest of a table object is encoded.
_ROWS_MARK = "\x00rows\x00"


def table_json_chunks(table: PmfTable, config: Optional[Mapping[str, object]] = None) -> Iterator[str]:
    """`dumps_json` of `table_to_json_obj(table)`, with `config` under
    "config" when given, as a stream of chunks with the same bytes.

    The object without its rows goes through `dumps_json` with a marker in
    place of the rows and is cut at the marker.  The keys after "rows" hold
    a number or a scalar string, so the last occurrence of the marker is the
    rows.  The rows are written as the encoder lays them out at that depth
    (indent 2, sorted keys).
    """
    obj = _table_head(table)
    if config is not None:
        obj["config"] = config
    obj["rows"] = _ROWS_MARK
    head, _, tail = dumps_json(obj).rpartition(json.dumps(_ROWS_MARK))
    yield head + "[\n"
    dim = len(table.coord_labels)
    point_format = '    {\n      "point": [\n        ' + ",\n        ".join(["%d"] * dim) + "\n      ],\n"

    def suffix(w, p):
        return f'      "probability": {json.dumps(p)},\n      "weight": {json.dumps(w)}\n    }}'

    suffixes: Dict[Tuple[int, int], str] = {}
    for start in range(0, len(table.support), CHUNK_ROWS):
        rows = _rows(table, start, start + CHUNK_ROWS, point_format, suffix, suffixes)
        yield (",\n" if start else "") + ",\n".join(rows)
    yield "\n  ]" + tail


def moments_to_csv(reports: Sequence[MomentReport]) -> str:
    out = io.StringIO()
    writer = _csv_writer(out)
    writer.writerow(["quantity", "oracle", "closed_form", "match", "note"])
    for r in reports:
        writer.writerow([
            r.quantity,
            scalar_str(r.oracle_value),
            "" if r.closed_form is None else scalar_str(r.closed_form),
            "" if r.match is None else str(r.match).lower(),
            r.note,
        ])
    return out.getvalue()


def moments_to_json_obj(reports: Sequence[MomentReport]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "moments": [
            {
                "quantity": r.quantity,
                "oracle": scalar_str(r.oracle_value),
                "closed_form": None if r.closed_form is None else scalar_str(r.closed_form),
                "match": r.match,
                "note": r.note,
            }
            for r in reports
        ],
    }


def batch_to_csv(batch: SampleBatch, coord_labels: Sequence[str]) -> str:
    out = io.StringIO()
    writer = _csv_writer(out)
    writer.writerow(list(coord_labels))
    for draw in batch.draws:
        writer.writerow(list(draw))
    return out.getvalue()


def batch_to_json_obj(batch: SampleBatch, table: PmfTable) -> dict:
    expected = {point: prob for point, prob in zip(table.support, table.probabilities)}
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": batch.seed,
        "count": batch.count,
        "params": {k: _plain(v) for k, v in batch.params.items()},
        "frequencies": [
            {
                "point": list(point),
                "empirical": scalar_str(freq),
                "expected": scalar_str(expected.get(point, 0)),
            }
            for point, freq in batch.empirical
        ],
    }


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return scalar_str(value)
