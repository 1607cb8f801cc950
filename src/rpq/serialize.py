"""Byte-deterministic CSV and JSON forms of tables, reports and batches.

Every document the CLI writes is laid out here, the identity reports'
rows aside (`identities.reports_to_csv`, `reports_to_json_obj`), and
`csv_text` writes every CSV body.  The rows of every table, a listed
`PmfTable` or a streamed `PmfStream`, become text through one generator,
`_row_chunks`, one chunk at a time; each CSV chunk is one `table_to_csv`
call.

Exact scalars serialize as rational strings ("4/7"); approximate ones as
float reprs.  JSON objects are emitted with sorted keys and a schema
version so round-tripping is byte-identical.
"""

from __future__ import annotations

import io
import math
from operator import add
from typing import TYPE_CHECKING, Iterable, Iterator, List, Mapping, Optional, Sequence, Union

from .records import Record
from .scalars import Scalar, scalar_str

if TYPE_CHECKING:  # annotations only: `rpq verify` loads neither module
    from .algebra import TriangularRecurrenceReport
    from .pmf import MomentReport, PmfStream, PmfTable
    from .sampler import SampleBatch

SCHEMA_VERSION = 1


def csv_text(header: Sequence, rows: Iterable[Sequence] = ()) -> str:
    """CSV text of the header row, then of each of `rows`, one line each."""
    import csv  # CSV output alone loads `csv`

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


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


class _Layout(Record):
    """The text of a table row: `head`, each coordinate followed by `sep`
    (the last by `end`), then `suffix(weight text, probability text)`."""

    _fields = ("head", "sep", "end", "suffix")

    def point_format(self, dim: int) -> str:
        """The %-format of a row's point, for a PmfTable's tuples."""
        return self.head + self.sep.join(["%d"] * dim) + self.end

    def cells(self, upper: Sequence[int]) -> List[List[str]]:
        """The text of each value of each coordinate, for a PmfStream's walk."""
        last = len(upper) - 1
        return [[f"{v}{self.end if j == last else self.sep}" for v in range(up + 1)]
                for j, up in enumerate(upper)]


# The one CSV and the one JSON row layout.  The JSON rows are laid out as
# the encoder lays them out at their depth (indent 2, sorted keys).  A
# scalar string holds no quote, backslash or non-ASCII character, so its
# JSON string is its text in quotes.
_CSV = _Layout("", ",", ",", lambda w, p: f"{w},{p}\n")
_JSON = _Layout('    {\n      "point": [\n        ', ",\n        ", "\n      ],\n",
                lambda w, p: f'      "probability": "{p}",\n      "weight": "{w}"\n    }}')


def _is_stream(table) -> bool:
    return hasattr(table, "constraints")


def _row_chunks(table: Union[PmfTable, PmfStream], layout: _Layout) -> Iterator[List[str]]:
    """The row texts of `table` in `layout`, one chunk at a time: CHUNK_ROWS
    rows of a PmfTable per chunk (one empty chunk for an empty table), or
    one chunk of `PmfStream.rows`.  A row is its point's text followed by
    `layout.suffix(weight text, probability text)`, formatted once per area
    class of a stream, and once per (weight, probability) object pair of a
    table for the whole table: the points of a weight class share both."""
    if _is_stream(table):
        suffixes = {e: layout.suffix(scalar_str(w), scalar_str(table.probabilities[e]))
                    for e, w in table.weights.items()}
        for prefixes, areas in table.rows(layout.cells(table.constraints.upper), layout.head):
            yield list(map(add, prefixes, map(suffixes.__getitem__, areas)))
        return
    point_format, suffixes = layout.point_format(len(table.coord_labels)), {}
    for start in range(0, max(len(table.support), 1), CHUNK_ROWS):
        stop, rows = start + CHUNK_ROWS, []
        for point, weight, prob in zip(
            table.support[start:stop], table.weights[start:stop], table.probabilities[start:stop]
        ):
            key = (id(weight), id(prob))
            text = suffixes.get(key)
            if text is None:
                text = suffixes[key] = layout.suffix(scalar_str(weight), scalar_str(prob))
            rows.append(point_format % point + text)
        yield rows


def table_to_csv(table: Union[PmfTable, PmfStream], rows: Optional[List[str]] = None, head: bool = True) -> str:
    """CSV text of `rows`, row texts of `table` from `_row_chunks`, after the
    header row when `head`; without `rows`, of the whole table.
    Coordinates are ints and scalar strings hold no comma or quote, so the
    rows need no CSV quoting."""
    if rows is None:
        rows = [row for chunk in _row_chunks(table, _CSV) for row in chunk]
    return (csv_text([*table.coord_labels, "weight", "probability"]) if head else "") + "".join(rows)


def table_csv_chunks(table: Union[PmfTable, PmfStream]) -> Iterator[str]:
    """`table_to_csv(table)` as a stream: one `table_to_csv` call per chunk
    of `_row_chunks`, the first with the header row.  Every byte passes
    through `table_to_csv`, so a wrapper of it (the benchmark's tracer)
    sees the whole document."""
    for i, rows in enumerate(_row_chunks(table, _CSV)):
        yield table_to_csv(table, rows, i == 0)


def _table_head(table: PmfTable) -> dict:
    """`table_to_json_obj` without its rows."""
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": table.kind,
        "params": _plain(table.params),
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


def table_json_chunks(
    table: Union[PmfTable, PmfStream], config: Optional[Mapping[str, object]] = None
) -> Iterator[str]:
    """`dumps_json` of `table_to_json_obj(table)`, with `config` under
    "config" when given, as a stream of chunks with the same bytes; a
    PmfStream gives the same bytes as a PmfTable of its law.

    The object without its rows goes through `dumps_json` with a marker in
    place of the rows and is cut at the marker.  The keys after "rows" hold
    a number or a scalar string, so the last occurrence of the marker is the
    rows.  The rows follow the JSON row layout, one chunk of `_row_chunks`
    at a time.
    """
    obj = _table_head(table)
    if config is not None:
        obj["config"] = config
    obj["rows"] = _ROWS_MARK
    head, _, tail = dumps_json(obj).rpartition(dumps_json(_ROWS_MARK)[:-1])
    yield head + "[\n"
    for i, rows in enumerate(_row_chunks(table, _JSON)):
        yield (",\n" if i else "") + ",\n".join(rows)
    yield "\n  ]" + tail


def moments_to_csv(reports: Sequence[MomentReport]) -> str:
    return csv_text(["quantity", "oracle", "closed_form", "match", "note"], (
        [r.quantity, scalar_str(r.oracle_value), "" if r.closed_form is None else scalar_str(r.closed_form),
         "" if r.match is None else str(r.match).lower(), r.note]
        for r in reports))


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
    return csv_text(coord_labels, batch.draws)


def batch_to_json_obj(batch: SampleBatch, law: Union[PmfTable, PmfStream]) -> dict:
    """The batch with the empirical and the expected frequency, the law's
    probability, of each drawn point."""
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": batch.seed,
        "count": batch.count,
        "params": _plain(batch.params),
        "frequencies": [
            {
                "point": list(point),
                "empirical": scalar_str(freq),
                "expected": scalar_str(law.probability(point)),
            }
            for point, freq in batch.empirical
        ],
    }


def triangular_to_csv(report: TriangularRecurrenceReport) -> str:
    return csv_text(["m", "n", "variant_a", "variant_b"], (
        [e.m, e.n, str(e.variant_a).lower(), str(e.variant_b).lower()] for e in report.entries))


def triangular_to_json_obj(report: TriangularRecurrenceReport) -> dict:
    entries = [{"m": e.m, "n": e.n, "variant_a": e.variant_a, "variant_b": e.variant_b} for e in report.entries]
    return {"schema_version": SCHEMA_VERSION, "variant_a_holds": report.variant_a_holds,
            "variant_b_holds": report.variant_b_holds, "entries": entries}


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


# JSON text of each atom type but str, as `json` writes it: `dumps_json`
# adds json's own str encoder, so only JSON output loads `json`.
_ATOM_TEXT = {
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _key_text(key, atoms: dict) -> str:
    """A key as `json` writes it: a number, bool or None as its text, quoted."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _text(key, "", atoms)
    return atoms[str](key)


def _text(obj, pad: str, atoms: dict) -> str:
    """The text of `obj` nested at indent `pad`, laid out as
    json.dumps(obj, sort_keys=True, indent=2) lays it out, with the text of
    each atom type from `atoms`."""
    atom = atoms.get(type(obj))
    if atom is not None:
        return atom(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = [_key_text(key, atoms) + ": " + _text(obj[key], inner, atoms) for key in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = [_text(value, inner, atoms) for value in obj]
        return "[\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "]"
    for base in (str, int, float):  # subclasses, read as `json` reads them
        if isinstance(obj, base):
            return atoms[base](obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) plus a newline, laid out
    here: the json module runs its pure-Python encoder whenever it indents.
    Two writers lay out text as this does, at its depth: the `_JSON` table
    rows and `identities._json_body`; a change of layout changes them too."""
    from json.encoder import encode_basestring_ascii

    return _text(obj, "", {**_ATOM_TEXT, str: encode_basestring_ascii}) + "\n"


def _plain(value):
    """`value` as JSON data, each Fraction in it, at any depth, as its `scalar_str`."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return scalar_str(value)
