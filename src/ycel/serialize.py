"""Deterministic CSV and JSON rendering of run results.

Every document embeds the full resolved parameter set, so any output can be
fed back through ``--config`` to reproduce the run.  Floats are printed with
12 significant digits in CSV; JSON keeps full repr precision for round
trips.  Identical inputs yield byte-identical text.

A table is rendered a column at a time.  In CSV, a column of floats goes
through the float-cell formatter that ``format_value`` also uses; every
other cell goes through ``format_value`` and the csv module's quoting, once
per distinct value.  In JSON, the document around the rows is
``json.dumps(indent=2)``, and each row is encoded by json's C encoder
(which runs only without ``indent``) with separators that lay it out as
``indent=2`` does, then spliced in.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Mapping, Sequence

from .errors import ConfigurationError

__all__ = ["format_value", "csv_document", "json_document", "table_document", "load_config"]


def _float_cells(values: Iterable[float]) -> list[str]:
    """CSV cells of floats at 12 significant digits.  Adding 0.0 prints
    -0.0 as "0"; "%.12g" prints "nan", "inf" and "-inf" itself."""
    return ["%.12g" % (v + 0.0) for v in values]


def format_value(value: object) -> str:
    """One CSV cell. Floats at 12 significant digits, bools lowercase."""
    if isinstance(value, float):  # the common cell, so tested first
        return _float_cells((value,))[0]
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _param_lines(command: str, params: Mapping[str, object]) -> list[str]:
    lines = [f"# ycel {command}"]
    for key, value in params.items():
        if isinstance(value, (list, tuple)):
            rendered = " ".join(format_value(v) for v in value)
        else:
            rendered = format_value(value)
        lines.append(f"# {key} = {rendered}")
    return lines


class _Records(list):
    """A file for csv.writer that keeps each record it writes."""

    write = list.append


def _csv_records(records: Iterable[Sequence[str]]) -> list[str]:
    """Each record as the csv module writes it, ending in "\\n"."""
    out = _Records()
    csv.writer(out, lineterminator="\n").writerows(records)
    return out


def _quoted(texts: Sequence[str], alone: bool) -> list[str]:
    """Each text as the csv module writes a field, alone in its record or
    beside an empty one: a record of one empty field is written '""'."""
    if alone:
        return [record[:-1] for record in _csv_records([t] for t in texts)]
    return [record[:-2] for record in _csv_records([t, ""] for t in texts)]


# A column of floats goes through _float_cells (a float subclass such as
# numpy.float64 takes format_value, which prints it alike).  Cells of the
# _DISTINCT_TEXT types are rendered once per distinct value: no two of them
# compare equal yet print differently, as True, 1 and 1.0 do.
_FLOAT = {float}
_DISTINCT_TEXT = {str, bool, type(None)}


def _column_cells(column: Sequence[object], alone: bool) -> list[str]:
    """The CSV cells of one column; ``alone`` if it is the table's only one."""
    kinds = set(map(type, column))
    if kinds <= _FLOAT:
        return _float_cells(column)  # never quoted
    keys = column if kinds <= _DISTINCT_TEXT else list(map(format_value, column))
    distinct = list(set(keys))
    cells = dict(zip(distinct, _quoted(list(map(format_value, distinct)), alone)))
    return list(map(cells.__getitem__, keys))


# Rows rendered per pass, which bounds the cell strings held at once.
_CSV_CHUNK = 4096


def _csv(command: str, params: Mapping[str, object], columns: Sequence[str],
         cells: Sequence[Sequence[object]], notes: Sequence[str]) -> str:
    lines = _param_lines(command, params)
    lines += [f"# {note}" for note in notes]
    lines.append(_csv_records([columns])[0][:-1])
    alone = len(cells) == 1
    for start in range(0, max(map(len, cells), default=0), _CSV_CHUNK):
        chunk = [_column_cells(c[start:start + _CSV_CHUNK], alone) for c in cells]
        lines += map(",".join, zip(*chunk, strict=True))
    return "\n".join(lines) + "\n"


def csv_document(
    command: str,
    params: Mapping[str, object],
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
) -> str:
    """Comment header ('#' lines with the parameter set), then plain CSV.

    Every row holds one cell per column, and there is at least one column.
    """
    return _csv(command, params, columns, list(zip(*rows, strict=True)), notes)


# Inside the table rows of an indent=2 document each value sits on its own
# line, six spaces in; the rows themselves sit four spaces in.
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))
_ROWS_KEY = '\n  "rows": '


def _json_row(row: Sequence[object]) -> str:
    text = _ROW_ENCODER.encode(row)
    return "[\n      " + text[1:-1] + "\n    ]" if row else text


def json_document(
    command: str,
    params: Mapping[str, object],
    payload: Mapping[str, object],
    notes: Sequence[str] = (),
) -> str:
    """The run as one JSON object: command, params, notes if any, then the
    payload's keys.  A payload's "rows", if present, is a sequence of flat
    rows of scalars."""
    doc: dict[str, object] = {"command": command, "params": dict(params)}
    if notes:
        doc["notes"] = list(notes)
    doc.update(payload)
    rows = doc.get("rows")
    if not rows:
        return json.dumps(doc, indent=2, allow_nan=True) + "\n"
    doc["rows"] = []
    # a string cannot hold a raw newline, so only the top-level key matches
    head, _, tail = json.dumps(doc, indent=2, allow_nan=True).partition(_ROWS_KEY + "[]")
    body = ",\n    ".join(map(_json_row, rows))
    return f"{head}{_ROWS_KEY}[\n    {body}\n  ]{tail}\n"


def table_document(
    fmt: str,
    command: str,
    params: Mapping[str, object],
    columns: Sequence[str],
    cells: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
) -> str:
    """A table given column by column, as a "csv" or "json" document.

    cells[j] holds the values of columns[j], one per row; there is at least
    one column.
    """
    if fmt == "json":
        rows = list(zip(*cells, strict=True))
        return json_document(command, params, {"columns": list(columns), "rows": rows}, notes)
    return _csv(command, params, columns, cells, notes)


def load_config(path: str) -> tuple[str | None, dict[str, object]]:
    """(command, parameter dict) from a JSON file.

    Accepts both a bare parameter object and a full output document from a
    previous run, whose ``params`` block is then extracted.  An unreadable
    file, malformed JSON or a non-object raises ConfigurationError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {path!r} must hold a JSON object")
    if "params" in doc and isinstance(doc["params"], dict):
        return doc.get("command"), dict(doc["params"])
    return doc.pop("command", None), doc
