"""Deterministic CSV and JSON rendering of run results.

Every document embeds the full resolved parameter set, so any output can be
fed back through ``--config`` to reproduce the run.  Floats are printed with
12 significant digits in CSV; JSON keeps full repr precision for round
trips.  Identical inputs yield byte-identical text.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Mapping, Sequence

from .errors import ConfigurationError

__all__ = ["format_value", "csv_document", "json_document", "load_config"]


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


def load_config(path: str) -> tuple[str | None, dict[str, Any]]:
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
