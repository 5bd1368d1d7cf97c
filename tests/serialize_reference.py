"""Reference renderers: the cell-by-cell CSV and indent=2 JSON serializers.

These are the serializers ``ycel.serialize`` used before it rendered tables
a column at a time, kept verbatim.  The tests pin the columnar renderers
to them byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Mapping, Sequence


def format_value(value: Any) -> str:
    """One CSV cell. Floats at 12 significant digits, bools lowercase."""
    if isinstance(value, float):  # the common cell, so tested first
        if value != value:
            return "nan"
        return "%.12g" % value if value else "0"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _param_lines(command: str, params: Mapping[str, Any]) -> list[str]:
    lines = [f"# ycel {command}"]
    for key, value in params.items():
        if isinstance(value, (list, tuple)):
            rendered = " ".join(format_value(v) for v in value)
        else:
            rendered = format_value(value)
        lines.append(f"# {key} = {rendered}")
    return lines


def csv_document(
    command: str,
    params: Mapping[str, Any],
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    notes: Sequence[str] = (),
) -> str:
    """Comment header ('#' lines with the parameter set), then plain CSV."""
    buf = io.StringIO()
    for line in _param_lines(command, params):
        buf.write(line + "\n")
    for note in notes:
        buf.write(f"# {note}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(format_value, row) for row in rows)
    return buf.getvalue()


def json_document(
    command: str,
    params: Mapping[str, Any],
    payload: Mapping[str, Any],
    notes: Sequence[str] = (),
) -> str:
    doc: dict[str, Any] = {"command": command, "params": dict(params)}
    if notes:
        doc["notes"] = list(notes)
    doc.update(payload)
    return json.dumps(doc, indent=2, allow_nan=True) + "\n"
