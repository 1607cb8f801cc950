"""Byte-deterministic CSV and JSON forms of tables, reports and batches.

Exact scalars serialize as rational strings ("4/7"); approximate ones as
float reprs.  JSON objects are emitted with sorted keys and a schema
version so round-tripping is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from typing import List, Mapping, Sequence

from .pmf import MomentReport, PmfTable
from .sampler import SampleBatch
from .scalars import Scalar, scalar_str

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


def table_to_csv(table: PmfTable) -> str:
    out = io.StringIO()
    writer = _csv_writer(out)
    writer.writerow(list(table.coord_labels) + ["weight", "probability"])
    rows = zip(table.support, _strings(table.weights), _strings(table.probabilities))
    writer.writerows([*point, weight, prob] for point, weight, prob in rows)
    return out.getvalue()


def table_to_json_obj(table: PmfTable) -> dict:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": table.kind,
        "params": {k: _plain(v) for k, v in table.params.items()},
        "coords": list(table.coord_labels),
        "rows": [
            {"point": list(p), "weight": w, "probability": pr}
            for p, w, pr in zip(
                table.support, _strings(table.weights), _strings(table.probabilities)
            )
        ],
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
