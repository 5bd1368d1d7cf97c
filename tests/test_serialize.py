"""The document renderers against the reference serializers, byte for byte."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import serialize_reference as reference
from ycel import cli, serialize
from ycel.serialize import csv_document, format_value, json_document, table_document

# characters that CSV quoting or JSON escaping treat specially, and text
# beyond ASCII, which JSON escapes: a character beyond the BMP as a
# surrogate pair, a lone surrogate as itself
SPECIAL = st.text(alphabet=list('a0 ,"\'\r\n[]{}:\\-.é→ \x00\t'), max_size=8)
TEXT = st.one_of(st.text(max_size=12), SPECIAL, st.sampled_from(
    ["", "],", "],\n      [", '\n  "rows": []', "valid", "a, b", "nan", "-0",
     "η₁ → κ", "\U0001d702", "\ud800", "\u2028"]))
# the floats JSON spells its own way, and -0.0, which repr keeps signed
NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
FLOATS = st.one_of(st.floats(), st.just(-0.0), st.floats().map(np.float64), NONFINITE)
# a column of these alone takes the renderers' float path
EXACT_FLOATS = st.one_of(st.floats(), NONFINITE)
CELLS = st.one_of(FLOATS, st.booleans(), st.none(), st.integers(), TEXT)
PARAMS = st.dictionaries(TEXT, st.one_of(
    CELLS, st.lists(st.one_of(CELLS, st.lists(CELLS, max_size=3)), max_size=4)), max_size=4)
# payload entries nest lists, tuples and mappings, as the prefactors
# document's sections do
VALUES = st.recursive(CELLS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.tuples(inner, inner),
    st.dictionaries(TEXT, inner, max_size=3)), max_leaves=8)
PAYLOADS = st.dictionaries(TEXT, VALUES, max_size=4)
NOTES = st.lists(TEXT, max_size=3)

# columns of floats: every shape, NaN, both infinities, both zeros and a
# subnormal; finite ones only; and numpy's float among Python's
FLOAT_COLUMNS = [[math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 0.1],
                 [-0.0, 0.0, 5e-324, 0.1, 1e300, -2.5, 1 / 3],
                 [np.float64(0.1), math.nan, -0.0, math.inf, 2.0, np.float64(-math.inf), 0.5]]
FLOAT_TABLE = (["x", "y", "z"], [list(row) for row in zip(*FLOAT_COLUMNS)])
# the prefactors document's shape: mappings of floats, no rows
PREFACTORS = {"populations": {"rho00": 0.5, "rho22": -0.0},
              "prefactors": {"gain3": 1 / 3, "cross21": math.nan},
              "residues": {"residue_sum_rule": 5.551115123125783e-17}}
# non-ASCII command, keys, columns, cells and notes
NON_ASCII = ("η₁", {"κ→∞": ["é", "\U0001d702"]}, (["ρ₀₀", "\ud800"], [["\u2028", "λ"]]), ["→"])


@st.composite
def tables(draw):
    """(columns, rows): one to four columns, each all floats or of mixed cells."""
    width = draw(st.integers(1, 4))
    length = draw(st.integers(0, 6))
    cells = [draw(st.lists(draw(st.sampled_from([FLOATS, EXACT_FLOATS, CELLS])),
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
@given(TEXT, PARAMS, tables(), NOTES, PAYLOADS, PAYLOADS, st.none() | st.integers(0, 6))
@example("sweep", {}, (["a"], []), [], {}, {}, None)
@example("sweep", {}, (["a", "b"], [[1.0, "],"], [-0.0, '\n  "rows": []']]), ["n"], {}, {}, None)
@example("sweep", {}, ([], [[], [1]]), [], {}, {}, None)
@example("prefactors", {"A": 1.0}, (["a"], [[1.0]]), [], PREFACTORS, {"after": PREFACTORS}, None)
@example("evolve", {}, FLOAT_TABLE, [], {}, {}, None)
@example("sweep", {}, (["a", "b"], [[1.0, True], [None, "x"]]), [], {}, {}, 1)
@example(*NON_ASCII, {"ε": ["λ", {"μ": "ν"}]}, {}, None)
def test_json_document_matches_the_reference(command, params, table, notes, before, after,
                                             empty_row_at):
    # rows of one width, with an empty row put in at empty_row_at if given
    columns, rows = table[0], list(table[1])
    if empty_row_at is not None:
        rows.insert(min(empty_row_at, len(rows)), [])
    payload = {**before, "columns": columns, "rows": rows}
    payload.update((k, v) for k, v in after.items() if k != "rows")
    assert (json_document(command, params, payload, notes=notes)
            == reference.json_document(command, params, payload, notes=notes))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["csv", "json"]), TEXT, PARAMS, tables(), NOTES)
@example("json", "evolve", {}, FLOAT_TABLE, [])
@example("json", "sweep", {}, (["a"], [[True], [1], [False], [0], [None], ["1"]]), [])
@example("csv", "evolve", {}, FLOAT_TABLE, [])
@example("json", *NON_ASCII)
@example("csv", *NON_ASCII)
def test_table_document_matches_the_reference(fmt, command, params, table, notes):
    columns, rows = table
    cells = [list(column) for column in zip(*rows)] or [[] for _ in columns]
    assert (table_document(fmt, command, params, columns, cells, notes)
            == reference_table_document(fmt, command, params, columns, cells, notes))


@settings(max_examples=100, deadline=None)
@given(TEXT, PARAMS, PAYLOADS, NOTES)
@example("prefactors", {"eta1": 0.1, "A": 1.0}, PREFACTORS, ["warning: →"])
def test_json_document_without_rows_matches_the_reference(command, params, payload, notes):
    payload.pop("rows", None)
    assert (json_document(command, params, payload, notes=notes)
            == reference.json_document(command, params, payload, notes=notes))


@pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(1), b"x", [1, {"a": 1j}]])
def test_json_document_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        reference.json_document("x", {}, {"a": value})
    with pytest.raises(TypeError):
        json_document("x", {}, {"a": value})


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
