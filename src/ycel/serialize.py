"""Deterministic CSV and JSON rendering of run results.

Every document embeds the full resolved parameter set, so any output can be
fed back through ``--config`` to reproduce the run.  Floats are printed with
12 significant digits in CSV; JSON keeps full repr precision for round
trips.  Identical inputs yield byte-identical text.

A table is rendered a column at a time.  In CSV, a column of floats takes
the float format of ``format_value``; every other cell takes
``format_value`` and the csv module's quoting, once per distinct value.
JSON is written directly, as ``json.dumps(indent=2, allow_nan=True)``
writes it: the document around the rows by a recursive writer, a column of
finite floats by one map of ``float.__repr__``, and every other cell by the
same writer.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Mapping, Sequence
from json.encoder import encode_basestring_ascii

from .errors import ConfigurationError

__all__ = ["format_value", "csv_document", "json_document", "table_document", "load_config"]


def format_value(value: object) -> str:
    """One CSV cell. Floats at 12 significant digits, bools lowercase."""
    if isinstance(value, float):  # the common cell, so tested first
        return "%.12g" % (value + 0.0)  # -0.0 + 0.0 prints "0"; nan and inf print themselves
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _param_lines(command: str, params: Mapping[str, object]) -> list[str]:
    lines = [f"# ycel {command}"]
    for key, value in params.items():
        if isinstance(value, (list, tuple)):
            rendered = " ".join(map(format_value, value))
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


# A column of floats is rendered by one float format (a float subclass such
# as numpy.float64 is rendered cell by cell, alike).  Cells of the
# _DISTINCT_TEXT types are rendered once per distinct value: no two of them
# compare equal yet print differently, as True, 1 and 1.0 do.
_FLOAT = {float}
_DISTINCT_TEXT = {str, bool, type(None)}


def _column_cells(column: Sequence[object], alone: bool) -> list[str]:
    """The CSV cells of one column; ``alone`` if it is the table's only one."""
    kinds = set(map(type, column))
    if kinds <= _FLOAT:
        return ["%.12g" % (v + 0.0) for v in column]  # never quoted
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


# The constants, and the float reprs, that JSON spells its own way
_SPELLED = {None: "null", True: "true", False: "false",
            "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(value: object, indent: str) -> str:
    """value as json.dumps(indent=2, allow_nan=True) writes it, where indent
    is a newline and the indentation of the line that value starts on.
    Every mapping key is a string."""
    if isinstance(value, float):  # the common value, so tested first
        text = float.__repr__(value)
        return _SPELLED.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _SPELLED[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        texts, ends = [_json(item, inner) for item in value], "[]"
    elif isinstance(value, dict):
        texts, ends = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                       for k, v in value.items()], "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(texts) + indent + ends[1] if texts else ends


def _json_cells(column: Sequence[object]) -> list[str]:
    """The JSON cells of one table column.  Finite floats take one map of
    float.__repr__, cells of the _DISTINCT_TEXT types one _json call per
    distinct value, and any other cell a _json call of its own."""
    kinds = set(map(type, column))
    if kinds <= _FLOAT and all(map(math.isfinite, column)):
        return list(map(float.__repr__, column))
    if kinds <= _DISTINCT_TEXT:
        spelled = {cell: _json(cell, "") for cell in set(column)}
        return list(map(spelled.__getitem__, column))
    return [_json(cell, "\n      ") for cell in column]


def _json_rows(cells: Sequence[Sequence[object]]) -> str:
    """The "rows" of a table given column by column."""
    rows = list(map(",\n      ".join, zip(*map(_json_cells, cells), strict=True)))
    return "[\n    [\n      " + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]" if rows else "[]"


def _json_document(command: str, params: Mapping[str, object], payload: Mapping[str, object],
                   notes: Sequence[str], cells: Sequence[Sequence[object]] | None) -> str:
    """json_document's document, its "rows" rendered from cells, their columns, if given."""
    doc: dict[str, object] = {"command": command, "params": dict(params)}
    if notes:
        doc["notes"] = list(notes)
    doc.update(payload)
    items = [encode_basestring_ascii(key) + ": " + (
        _json_rows(cells) if key == "rows" and cells is not None else _json(value, "\n  "))
        for key, value in doc.items()]
    return "{\n  " + ",\n  ".join(items) + "\n}\n"


def json_document(
    command: str,
    params: Mapping[str, object],
    payload: Mapping[str, object],
    notes: Sequence[str] = (),
) -> str:
    """The run as one JSON object: command, params, notes if any, then the
    payload's keys.  A table's document comes faster from table_document."""
    return _json_document(command, params, payload, notes, None)


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
        return _json_document(command, params, {"columns": list(columns), "rows": ()}, notes,
                              cells)
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
