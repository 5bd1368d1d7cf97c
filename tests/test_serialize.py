"""The document renderers against the reference serializers, byte for byte."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import serialize_reference as reference
from ycel import cli, serialize
from ycel.serialize import csv_document, format_value, json_document, table_document

# characters that CSV quoting, JSON escaping or the JSON row splice treat specially
SPECIAL = st.text(alphabet=list('a0 ,"\'\r\n[]{}:\\-.é→ \x00\t'), max_size=8)
TEXT = st.one_of(st.text(max_size=12), SPECIAL, st.sampled_from(
    ["", "],", "],\n      [", '\n  "rows": []', "valid", "a, b", "nan", "-0"]))
FLOATS = st.one_of(st.floats(), st.just(-0.0), st.floats().map(np.float64))
CELLS = st.one_of(FLOATS, st.booleans(), st.none(), st.integers(), TEXT)
PARAMS = st.dictionaries(TEXT, st.one_of(
    CELLS, st.lists(st.one_of(CELLS, st.lists(CELLS, max_size=3)), max_size=4)), max_size=4)
NOTES = st.lists(TEXT, max_size=3)


@st.composite
def tables(draw):
    """(columns, rows): one to four columns, each all floats or of mixed cells."""
    width = draw(st.integers(1, 4))
    length = draw(st.integers(0, 6))
    cells = [draw(st.lists(draw(st.sampled_from([FLOATS, CELLS])),
                           min_size=length, max_size=length)) for _ in range(width)]
    columns = draw(st.lists(TEXT, min_size=width, max_size=width))
    return columns, [list(row) for row in zip(*cells)]


def reference_table_document(fmt, command, params, columns, cells, notes=()):
    """A table given column by column, rendered row by row by the reference."""
    rows = [list(row) for row in zip(*cells)]
    if fmt == "json":
        return reference.json_document(command, params, {"columns": list(columns), "rows": rows},
                                       notes)
    return reference.csv_document(command, params, columns, rows, notes)


@settings(max_examples=300, deadline=None)
@given(st.one_of(CELLS, st.floats().map(lambda v: -v)))
def test_format_value_matches_the_reference(value):
    assert format_value(value) == reference.format_value(value)


@settings(max_examples=200, deadline=None)
@given(TEXT, PARAMS, tables(), NOTES)
@example("sweep", {}, (["failure"], [[""]]), [])
@example("sweep", {}, (["failure"], [[None], ["x"]]), [])
@example("sweep", {"times": []}, (["a", "b"], []), [])
def test_csv_document_matches_the_reference(command, params, table, notes):
    columns, rows = table
    want = reference.csv_document(command, params, columns, rows, notes=notes)
    assert csv_document(command, params, columns, rows, notes=notes) == want
    with mock.patch.object(serialize, "_CSV_CHUNK", 2):  # rows rendered in several passes
        assert csv_document(command, params, columns, rows, notes=notes) == want


@settings(max_examples=200, deadline=None)
@given(TEXT, PARAMS, tables(), NOTES, PARAMS, PARAMS)
@example("sweep", {}, (["a"], []), [], {}, {})
@example("sweep", {}, (["a", "b"], [[1.0, "],"], [-0.0, '\n  "rows": []']]), ["n"], {}, {})
@example("sweep", {}, ([], [[], [1]]), [], {}, {})
def test_json_document_matches_the_reference(command, params, table, notes, before, after):
    columns, rows = table
    payload = {**before, "columns": columns, "rows": rows}
    payload.update((k, v) for k, v in after.items() if k != "rows")
    assert (json_document(command, params, payload, notes=notes)
            == reference.json_document(command, params, payload, notes=notes))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["csv", "json"]), TEXT, PARAMS, tables(), NOTES)
def test_table_document_matches_the_reference(fmt, command, params, table, notes):
    columns, rows = table
    cells = [list(column) for column in zip(*rows)] or [[] for _ in columns]
    assert (table_document(fmt, command, params, columns, cells, notes)
            == reference_table_document(fmt, command, params, columns, cells, notes))


@settings(max_examples=100, deadline=None)
@given(TEXT, PARAMS, PARAMS, NOTES)
def test_json_document_without_rows_matches_the_reference(command, params, payload, notes):
    payload.pop("rows", None)
    assert (json_document(command, params, payload, notes=notes)
            == reference.json_document(command, params, payload, notes=notes))


# Every command; a steady state with a warning note; sweeps whose invalid
# rows give failure reasons with commas, which CSV quotes.
CLI_CASES = {
    "prefactors": ["prefactors", "--eta1", "0.2", "--eta2=-0.3"],
    "evolve": ["evolve", "--eta1", "0.1", "--eta2", "0.1", "--t", "5"],
    "steady-warning": ["steady", "--eta1", "0.5", "--eta2", "0.5", "--backend", "paper-literal"],
    "oracle": ["oracle", "--eta1", "0", "--eta2", "0", "--nmax", "4", "--t", "0.5",
               "--samples", "3"],
    "sweep-unstable": ["sweep", "--eta-grid", "9x9", "--A", "2"],
    "sweep-overflow": ["sweep", "--eta-grid", "9x9", "--A", "3.5", "--at-time", "400",
                       "--backend", "paper-literal", "--no-optimize"],
}


def render(argv, tmp_path):
    out = tmp_path / "doc"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes().decode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_documents_match_the_reference_renderers(case, fmt, monkeypatch, tmp_path):
    argv = [*CLI_CASES[case], "--format", fmt]
    doc = render(argv, tmp_path)
    monkeypatch.setattr(cli, "csv_document", reference.csv_document)
    monkeypatch.setattr(cli, "json_document", reference.json_document)
    monkeypatch.setattr(cli, "table_document", reference_table_document)
    assert render(argv, tmp_path) == doc
    if case.startswith("sweep"):
        assert "eigenvalues -" in doc
    if case == "steady-warning":
        assert "warning: negative mean photon number" in doc
