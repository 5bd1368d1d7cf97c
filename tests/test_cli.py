import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ycel
from document_corpus import FORMATS, manifest, render, stored_path, versions
from ycel import dynamics
from ycel.cli import (COMMANDS, PARAMETERS, _attach_negative_numbers, _parse_exact,
                      build_parser, main)
from ycel.errors import ConfigurationError, PreparationError, YcelError
from ycel.serialize import format_value


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments = [line for line in text.splitlines() if line.startswith("#")]
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    return comments, rows[0], rows[1:]


def column(header, rows, name):
    idx = header.index(name)
    return [row[idx] for row in rows]


def test_prefactors_balanced_point(capsys):
    code, out, _ = run_cli(capsys, "prefactors", "--eta1", "0", "--eta2", "0")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["quantity", "value"]
    table = dict(rows)
    for name in ("gain3", "gain2", "loss1", "cross32", "cross31", "cross21"):
        assert float(table[name]) == pytest.approx(1 / 6, abs=1e-12)
    assert float(table["residue_sum_rule"]) == 0.0


def test_prefactors_json_structure(capsys):
    code, out, _ = run_cli(
        capsys, "prefactors", "--eta1", "1", "--eta2", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "prefactors"
    assert doc["prefactors"]["loss1"] == pytest.approx(0.5)
    assert doc["prefactors"]["gain3"] == 0.0
    assert doc["params"]["eta1"] == 1.0


@pytest.mark.parametrize("point", [
    ("--eta1=0.1", "--eta2=0.25"), ("--eta1=0", "--eta2=-1"), ("--eta1=1", "--eta2=1"),
    # rho33 = 5e-324 halves to the weight gain3 = 0, and rho33 prints as 0
    ("--eta1=-5e-324", "--eta2=-1"),
], ids=["inside", "rho00=0", "rho00=1", "rho33-subnormal"])
def test_prefactors_prints_the_populations_of_its_weights(point, capsys):
    code, out, _ = run_cli(capsys, "prefactors", *point, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    weights = doc["prefactors"]
    assert doc["populations"] == {"rho00": 2.0 * weights["loss1"],
                                  "rho22": 2.0 * weights["gain2"],
                                  "rho33": 2.0 * weights["gain3"]}


def test_prefactors_at_a_subnormal_population_keep_every_product_rule(capsys):
    # rho33 = 5e-324 halves to gain3 = 0, and each cross coefficient is built
    # from the halved weights, so cross32 is 0 too
    code, out, _ = run_cli(capsys, "prefactors", "--eta1=-5e-324", "--eta2=-1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["prefactors"]["cross32"] == 0.0
    assert set(doc["residues"].values()) == {0.0}


def test_prefactors_invalid_preparation_names_population(capsys):
    code, _, err = run_cli(capsys, "prefactors", "--eta1", "2", "--eta2", "0")
    assert code == 2
    assert "rho33" in err


@pytest.mark.parametrize("eta1, detail", [
    ("2", "rho33=-1 < 0"),
    ("nan", "rho33=nan is not finite, rho22=nan is not finite, rho00=nan is not finite"),
])
def test_rate_trio_and_gain_refuse_a_preparation_alike(eta1, detail, capsys):
    argv = ("steady", "--eta1", eta1, "--eta2", "0")
    trio = run_cli(capsys, *argv, "--r-a", "1", "--g", "1", "--gamma", "20")
    gain = run_cli(capsys, *argv, "--A", "1")
    message = f"error: unphysical preparation eta1={float(eta1)!r}, eta2=0.0: {detail}\n"
    assert trio == gain == (2, "", message)


def test_evolve_time_zero_row_is_vacuum(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--eta1", "0", "--eta2", "0", "--times", "0"
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert rows == [["0", "0", "0", "0", "0", "0", "0"]]


def test_evolve_records_backend_and_route(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--eta1", "0", "--eta2", "0", "--t", "2",
        "--backend", "paper-literal", "--route", "ode",
    )
    assert code == 0
    comments, _, _ = parse_csv(out)
    assert "# backend = paper-literal" in comments
    assert "# route = ode" in comments


def test_evolve_swap_symmetry(capsys):
    _, out_a, _ = run_cli(
        capsys, "evolve", "--eta1", "0.3", "--eta2", "0.1", "--A", "0.5", "--t", "4"
    )
    _, out_b, _ = run_cli(
        capsys, "evolve", "--eta1", "0.1", "--eta2", "0.3", "--A", "0.5", "--t", "4"
    )
    _, header, rows_a = parse_csv(out_a)
    _, _, rows_b = parse_csv(out_b)
    for name_a, name_b in (("n2", "n3"), ("n3", "n2"), ("c21", "c31"), ("c31", "c21"),
                           ("n1", "n1"), ("c32", "c32")):
        va = [float(x) for x in column(header, rows_a, name_a)]
        vb = [float(x) for x in column(header, rows_b, name_b)]
        assert va == pytest.approx(vb, abs=1e-12)


def test_evolve_unstable_exits_with_eigenvalues(capsys):
    code, _, err = run_cli(
        capsys, "evolve", "--eta1", "0", "--eta2", "0", "--A", "40", "--t", "1000"
    )
    assert code == 3
    assert "eigenvalues" in err


def test_steady_fully_inverted_is_vacuum(capsys):
    code, out, _ = run_cli(capsys, "steady", "--eta1", "1", "--eta2", "1")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows == [["0", "0", "0", "0", "0", "0"]]


def test_steady_paper_literal_reports_negative_occupation(capsys):
    code, out, _ = run_cli(
        capsys, "steady", "--eta1", "1", "--eta2", "1", "--backend", "paper-literal"
    )
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert float(column(header, rows, "n1")[0]) == pytest.approx(-0.5)
    assert any("negative mean photon number" in c for c in comments)


@pytest.mark.parametrize("command", [("steady",), ("evolve", "--t", "3")])
def test_rate_trio_warning_comes_before_the_computations(command, capsys):
    code, out, err = run_cli(capsys, *command, "--eta1", "0.25", "--eta2", "0.25", "--r-a", "1",
                             "--g", "1", "--gamma", "0.5", "--backend", "paper-literal")
    assert (code, err) == (0, "")
    warnings_noted = [c for c in parse_csv(out)[0] if c.startswith("# warning: ")]
    assert "assumes a good cavity" in warnings_noted[0]
    assert len(warnings_noted) > 1
    assert all("negative mean photon number" in c for c in warnings_noted[1:])


def test_steady_unstable_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "steady", "--eta1", "0", "--eta2", "0", "--A", "3.5"
    )
    assert code == 3
    assert "margin" in err


# Exactly marginal mirror pairs: rho00 = 1/4 at A = 2 and rho00 = 1/3 at
# A = 1.5, so the margin kappa/2 + A (rho00 - 1/2) is 0.
MARGINAL_MIRRORS = [
    (("-0.375", "0.125"), ("0.125", "-0.375"), "2"),
    (("-0.5", "0"), ("0", "-0.5"), "1.5"),
]


@pytest.mark.parametrize("left, right, gain", MARGINAL_MIRRORS)
def test_marginal_mirror_points_refused_alike(left, right, gain, capsys):
    reasons = []
    for eta1, eta2 in (left, right):
        code, out, err = run_cli(capsys, "steady", "--eta1", eta1, "--eta2", eta2, "--A", gain)
        assert (code, out) == (3, "")
        assert err.startswith("error: no steady state: drift margin 0 <= 0 ")
        reasons.append(err)
    assert reasons[0] == reasons[1]


@pytest.mark.parametrize("left, right, gain", MARGINAL_MIRRORS)
def test_marginal_mirror_points_in_sweep(left, right, gain, capsys):
    code, out, _ = run_cli(capsys, "sweep", "--eta-grid", "9x9", "--eta1-range", "-0.5:0.5",
                           "--eta2-range", "-0.5:0.5", "--A", gain, "--no-optimize")
    assert code == 0
    _, header, rows = parse_csv(out)
    by_point = {(r[0], r[1]): dict(zip(header, r)) for r in rows}
    pair = [by_point[left], by_point[right]]
    for (eta1, eta2), row in zip((left, right), pair):
        assert row["status"] == "invalid"
        assert row["failure"].startswith("no steady state: drift margin 0 <= 0 ")
        # the margin column is the eigensolver's, a few ulps off the exact 0
        pref = ycel.prefactors_from_inversions(float(eta1), float(eta2), float(gain))
        assert row["margin"] == format_value(ycel.is_stable(ycel.drift_matrix(pref, 1.0)).margin)
    assert pair[0]["failure"] == pair[1]["failure"]


def test_default_sweep_rows_reproduce_steady_at_their_printed_points(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--no-optimize", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = [dict(zip(doc["columns"], r)) for r in doc["rows"]]
    assert len(rows) == 166
    for row in rows:
        eta1, eta2 = row["eta1"], row["eta2"]
        # the coordinate that ran is the one a CSV cell prints
        assert (float(format_value(eta1)), float(format_value(eta2))) == (eta1, eta2)
        code, out, err = run_cli(capsys, "steady", f"--eta1={eta1!r}", f"--eta2={eta2!r}",
                                 "--format", "json")
        if row["status"] == "valid":
            assert code == 0
            assert json.loads(out)["rows"][0] == [row[c] for c in doc["columns"][4:10]]
        else:
            assert (code, err) == (3, f"error: {row['failure']}\n")
        pref = ycel.prefactors_from_inversions(eta1, eta2, 1.0)
        assert row["margin"] == ycel.is_stable(ycel.drift_matrix(pref, 1.0)).margin
    # rho00 = 0 and A = 1 make the margin exactly 0
    edge = [r for r in rows if r["eta1"] + r["eta2"] == -1.0]
    assert len(edge) == 11
    for row in edge:
        assert row["status"] == "invalid"
        assert row["failure"].startswith("no steady state: drift margin 0 <= 0 ")


def test_sweep_without_a_physical_point_prints_no_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--eta-grid", "2x2", "--eta1-range=1:1",
                           "--eta2-range=-1:-1", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_oracle_repeated_time_repeats_its_row(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--eta1", "0", "--eta2", "0.5", "--A", "0.5",
                           "--nmax", "6", "--dt", "0.05", "--times", "1,1,2")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert column(header, rows, "time") == ["1", "1", "2"]
    assert rows[0] == rows[1] != rows[2]
    code, out, _ = run_cli(capsys, "oracle", "--eta1", "0", "--eta2", "0.5", "--A", "0.5",
                           "--nmax", "6", "--dt", "0.05", "--times", "2")
    assert rows[2] == parse_csv(out)[2][0]


def test_absolute_units_equivalence(capsys):
    _, out_kappa, _ = run_cli(
        capsys, "evolve", "--eta1", "0", "--eta2", "0", "--A", "1",
        "--kappa", "2", "--t", "5",
    )
    _, out_abs, _ = run_cli(
        capsys, "evolve", "--eta1", "0", "--eta2", "0", "--A", "2",
        "--kappa", "2", "--t", "2.5", "--absolute-units",
    )
    _, header, rows_k = parse_csv(out_kappa)
    _, _, rows_a = parse_csv(out_abs)
    for name in ("n1", "n2", "n3", "c32", "c31", "c21"):
        vk = [float(x) for x in column(header, rows_k, name)]
        va = [float(x) for x in column(header, rows_a, name)]
        assert vk == pytest.approx(va, rel=1e-10)


def test_json_config_round_trip(tmp_path, capsys):
    first = tmp_path / "run.json"
    code, out, _ = run_cli(
        capsys, "evolve", "--eta1", "0.25", "--eta2", "0.25", "--A", "0.5",
        "--t", "4", "--samples", "3", "--format", "json", "--out", str(first),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "evolve", "--config", str(first), "--format", "json"
    )
    assert code == 0
    assert out == first.read_text()


def test_config_command_mismatch_and_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    run_cli(
        capsys, "evolve", "--eta1", "0", "--eta2", "0", "--t", "1",
        "--format", "json", "--out", str(cfg),
    )
    code, _, err = run_cli(capsys, "steady", "--config", str(cfg))
    assert code == 2
    assert "evolve" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"eta1": 0, "eta2": 0, "bogus": 1}')
    code, _, err = run_cli(capsys, "steady", "--config", str(bad))
    assert code == 2
    assert "bogus" in err


def test_config_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    run_cli(
        capsys, "steady", "--eta1", "0", "--eta2", "0", "--A", "0.5",
        "--format", "json", "--out", str(cfg),
    )
    code, out, _ = run_cli(
        capsys, "steady", "--config", str(cfg), "--eta1", "1", "--eta2", "1"
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows == [["0", "0", "0", "0", "0", "0"]]


def test_sweep_determinism_and_grid_accounting(tmp_path, capsys):
    args = ("sweep", "--eta-grid", "5x5", "--A", "0.5")
    code, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    comments, header, rows = parse_csv(out1)
    # 25 candidate points minus those outside the physical triangle
    assert 0 < len(rows) < 25
    statuses = set(column(header, rows, "status"))
    assert statuses <= {"valid", "invalid"}
    # triangle vertices are all on this grid
    coords = {(r[0], r[1]) for r in rows}
    assert {("1", "1"), ("0", "-1"), ("-1", "0")} <= coords


def test_sweep_reports_unstable_rows_inline(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--eta-grid", "1x1", "--eta1-range", "0:0",
        "--eta2-range", "0:0", "--A", "3.5",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert len(rows) == 1
    assert column(header, rows, "status") == ["invalid"]
    assert float(column(header, rows, "margin")[0]) < 0
    assert column(header, rows, "n1") == ["nan"]
    assert column(header, rows, "failure")[0] != ""


def test_sweep_rejects_malformed_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--eta-grid", "5by5")
    assert code == 2
    assert "NxM" in err


@pytest.mark.parametrize("flag", ["--eta1-range", "--eta2-range"])
def test_sweep_rejects_non_numeric_range(capsys, flag):
    code, out, err = run_cli(capsys, "sweep", flag, "a:b")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: {flag} 'a:b'")


def assert_one_error_line(code, out, err, *named):
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    for name in named:
        assert name in err


@pytest.mark.parametrize("grid", ["100000x100000", "1001x1000", "1x1000001"])
def test_sweep_refuses_oversized_grid(grid, tmp_path, capsys):
    # refused from the grid size alone, before any grid array exists
    code, out, err = run_cli(capsys, "sweep", "--eta-grid", grid)
    assert_one_error_line(code, out, err, grid, "at most 1000000")
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"eta_grid": grid}))
    assert_one_error_line(*run_cli(capsys, "sweep", "--config", str(cfg)), grid)


@pytest.mark.parametrize("command", ["evolve", "oracle"])
def test_timed_commands_refuse_too_many_samples(command, tmp_path, capsys):
    point = (command, "--eta1", "0", "--eta2", "0", "--A", "1")
    code, out, err = run_cli(capsys, *point, "--t", "5", "--samples", "100000000")
    assert_one_error_line(code, out, err, "--samples 100000000", "10000")
    times = ",".join(str(i) for i in range(10_001))
    assert_one_error_line(*run_cli(capsys, *point, "--times", times), "--times", "10000")
    cfg = tmp_path / "times.json"
    cfg.write_text(json.dumps({"times": list(range(10_001))}))
    assert_one_error_line(*run_cli(capsys, *point, "--config", str(cfg)), "--times")


@pytest.mark.parametrize("command", ["evolve", "oracle"])
def test_timed_commands_refuse_an_empty_time_list(command, tmp_path, capsys):
    # an explicit empty list is refused, not read as "no --times given"
    point = (command, "--eta1", "0", "--eta2", "0")
    for times in ("", ","):
        code, out, err = run_cli(capsys, *point, "--t", "5", "--times", times)
        assert_one_error_line(code, out, err, "--times lists no times")
    cfg = tmp_path / "times.json"
    cfg.write_text(json.dumps({"times": []}))
    assert_one_error_line(*run_cli(capsys, *point, "--config", str(cfg)),
                          "--times lists no times")


def test_oracle_refuses_a_step_that_halving_moves(capsys):
    code, out, err = run_cli(capsys, "oracle", "--eta1", "0", "--eta2", "0", "--A", "0.5",
                             "--nmax", "6", "--dt", "0.15", "--times", "1,2",
                             "--edge-tol", "0.1")
    assert (code, out) == (3, "")
    assert err == ("error: halving dt moves tracked moments by 3.004e-04 "
                   "(tolerance 1.0e-06); reduce dt\n")


@pytest.mark.parametrize("dt", ["0.3", "1e300"])
def test_oracle_halves_a_step_longer_than_the_sample_spacing(dt, capsys):
    # samples 0.1 apart: at --dt 0.1 each span is one full step, and at 0.3 or
    # 1e300 one remainder step; the dt/2 run halves either, so all three refuse
    line = (*ORACLE_POINT, "--t", "1")
    want = run_cli(capsys, *line, "--dt", "0.1")
    assert want == (3, "", "error: halving dt moves tracked moments by 2.560e-06 "
                           "(tolerance 1.0e-06); reduce dt\n")
    assert run_cli(capsys, *line, "--dt", dt) == want


def test_oracle_refuses_too_many_steps(capsys):
    code, out, err = run_cli(capsys, "oracle", "--eta1", "0", "--eta2", "0", "--A", "1",
                             "--nmax", "3", "--dt", "1e-300", "--t", "1")
    assert_one_error_line(code, out, err, "steps exceeds the limit 1000000")


STEADY_ARGS = ("steady", "--eta1", "0", "--eta2", "0")
# (command line, config file text or None for no file, what the error names)
CONFIG_ERRORS = {
    "missing-file": (STEADY_ARGS, None, "cfg.json"),
    "invalid-json": (STEADY_ARGS, '{"eta1": 0,', "cfg.json"),
    "not-an-object": (STEADY_ARGS, "[0, 0]", "cfg.json"),
    "eta1_range": (("sweep",), '{"eta1_range": 5}', "eta1_range"),
    "eta2_range": (("sweep",), '{"eta2_range": [0, 1]}', "eta2_range"),
    "eta_grid": (("sweep",), '{"command": "sweep", "params": {"eta_grid": 21}}', "eta_grid"),
    "backend-choice": (STEADY_ARGS, '{"backend": "literal"}', "backend"),
    "route-choice": (("evolve", "--eta1", "0", "--eta2", "0", "--t", "1"),
                     '{"route": "euler"}', "route"),
    "eta1-string": (("evolve", "--eta2", "0", "--t", "1"), '{"eta1": "a"}', "'eta1'"),
    "eta1-null": (("evolve", "--eta2", "0", "--t", "1"), '{"eta1": null}', "'eta1'"),
    "t-string": (("evolve", "--eta1", "0", "--eta2", "0"), '{"t": "x"}', "'t'"),
    "kappa-bool": (STEADY_ARGS, '{"kappa": true}', "'kappa'"),
    "kappa-beyond-float": (STEADY_ARGS, '{"kappa": 1%s}' % ("0" * 400), "'kappa'"),
    "times-beyond-float": (("evolve", "--eta1", "0", "--eta2", "0"),
                           '{"times": [0, 1%s]}' % ("0" * 400), "'times'"),
    "samples-float": (("evolve", "--eta1", "0", "--eta2", "0", "--t", "1"),
                      '{"samples": 2.5}', "'samples'"),
    "times-entry": (("evolve", "--eta1", "0", "--eta2", "0"), '{"times": [0, "1"]}', "'times'"),
    "nmax-string": (("oracle", "--eta1", "0", "--eta2", "0", "--t", "1"),
                    '{"nmax": "6"}', "'nmax'"),
    "optimize-string": (("sweep",), '{"optimize": "no"}', "'optimize'"),
    "t-nan": (("evolve", "--eta1", "0", "--eta2", "0"), '{"t": NaN}', "--t must be"),
    "times-infinite": (("evolve", "--eta1", "0", "--eta2", "0"), '{"times": [0, Infinity]}',
                       "--times must be"),
    "at_time-negative": (("sweep",), '{"at_time": -1}', "--at-time must be"),
    "eta1_range-infinite": (("sweep",), '{"eta1_range": "0:inf"}', "--eta1-range"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_exits_2_with_one_line(case, tmp_path, capsys):
    argv, text, named = CONFIG_ERRORS[case]
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert_one_error_line(code, out, err, named)


@pytest.mark.parametrize("command", [STEADY_ARGS, ("sweep", "--eta-grid", "2x2")])
@pytest.mark.parametrize("flag", ["--kappa=0", "--A=-1", "--A=nan"])
def test_non_positive_rate_flag_exits_2(command, flag, capsys):
    code, out, err = run_cli(capsys, *command, flag)
    assert_one_error_line(code, out, err, flag.split("=")[0] + " must be")


@pytest.mark.parametrize("value", ["-8.2e-05", "-1E-3", "-0.5"])
def test_separate_negative_value_matches_attached_form(value, capsys):
    separate = run_cli(capsys, "steady", "--eta1", value, "--eta2", "0.1")
    attached = run_cli(capsys, "steady", f"--eta1={value}", "--eta2=0.1")
    assert separate == attached
    assert separate[0] == 0 and separate[1]


@pytest.mark.parametrize("flag", ["--eta1=nan", "--eta1=inf", "--eta1=-inf"])
def test_non_finite_inversion_exits_2(flag, capsys):
    code, out, err = run_cli(capsys, "steady", flag, "--eta2", "0")
    assert_one_error_line(code, out, err, "unphysical preparation")


@pytest.mark.parametrize("value", ["-0.5:1", "-.5:0.5"])
def test_separate_negative_range_matches_attached_form(value, capsys):
    argv = ("sweep", "--eta-grid", "3x3", "--format", "json")
    separate = run_cli(capsys, *argv, "--eta1-range", value)
    attached = run_cli(capsys, *argv, f"--eta1-range={value}")
    assert separate == attached
    assert separate[0] == 0
    assert json.loads(separate[1])["params"]["eta1_range"] == value


@pytest.mark.parametrize(
    "argv, point, computed",
    [
        pytest.param(("prefactors", "--eta1=-2.9e-12", "--eta2", "0.5"),
                     (-2.9e-12, 0.5), {"rho22": -0.96667e-12}, id="rho22-below-0"),
        # the exact rho33 = rho22 here is -1.0000149e-12, beyond BOUNDARY_TOL;
        # the tolerance applies to the populations as validate_physical
        # computes them, and its formula rounds them to -0.99994e-12
        pytest.param(("prefactors", "--eta1", "1.000000000003", "--eta2", "1.000000000003"),
                     (1.000000000003, 1.000000000003),
                     {"rho33": -0.99994e-12, "rho22": -0.99994e-12}, id="rho00-above-1"),
        pytest.param(("sweep", "--eta-grid", "5x5", "--eta1-range=0:1.000000000003",
                      "--eta2-range=0:1.000000000003"), (1.000000000003, 1.000000000003),
                     {"rho33": -0.99994e-12, "rho22": -0.99994e-12}, id="sweep-edge"),
    ],
)
def test_points_within_the_boundary_tolerance_run(argv, point, computed, capsys):
    verdict = ycel.validate_physical(*point)
    for name, value in computed.items():
        assert -1e-12 <= getattr(verdict, name) == pytest.approx(value, rel=1e-4)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


# Past a gain rate near 1.3e154 a product of the closed form overflows, and
# inf * 0 gives NaN: such moments are refused, never printed.  A time alone
# does not get there: past t near 1.3e154, t * t overflows only in a curve
# term whose decay has underflowed, and that term is taken as -0.0; or, on a
# marginal drift, whose decay stays 1, the term is formed from t * psi twice.
BEYOND_FLOAT_RANGE = {
    "steady-inf": (("steady", "--eta1", "0.5", "--eta2", "0.5", "--A", "1e155"),
                   "gain rate 1e+155 in the steady state"),
    "steady-nan": (("steady", "--eta1", "1", "--eta2", "1", "--A", "1e300"),
                   "gain rate 1e+300 in the steady state"),
    "evolve": (("evolve", "--eta1", "0.5", "--eta2", "0.5", "--A", "1e155", "--times", "1e10"),
               "gain rate 1e+155 by t=1e+10"),
}


@pytest.mark.parametrize("argv, named", BEYOND_FLOAT_RANGE.values(), ids=BEYOND_FLOAT_RANGE)
def test_moments_beyond_the_float_range_exit_3(argv, named, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: second moments at {named} leave the floating-point range\n"


@pytest.mark.parametrize("point, times", [
    pytest.param(("--eta1", "0", "--eta2", "0"), ("--times", "1e155"), id="times=1e155"),
    pytest.param(("--eta1", "0", "--eta2", "0"), ("--t", "1e308", "--samples", "2"),
                 id="t=1e308"),
    # the defective line eta1 + eta2 = 0.5
    pytest.param(("--eta1", "0.25", "--eta2", "0.25"), ("--times", "1e200"), id="defective"),
])
def test_a_stable_drift_at_a_huge_time_prints_its_steady_row(point, times, capsys):
    code, out, err = run_cli(capsys, "evolve", *point, *times)
    assert (code, err) == (0, "")
    _, header, rows = parse_csv(out)
    _, steady_header, (steady,) = parse_csv(run_cli(capsys, "steady", *point)[1])
    assert header[1:] == steady_header
    assert rows[-1][1:] == steady


def test_a_marginal_drift_at_a_huge_time_grows_linearly(capsys):
    # margin 0 at (-1, 0): n3 = t, on both sides of t near 1.3e154, where t * t overflows
    code, out, err = run_cli(capsys, "evolve", "--eta1", "-1", "--eta2", "0",
                             "--times", "1e154,1e155,1e300")
    assert (code, err) == (0, "")
    _, header, rows = parse_csv(out)
    assert column(header, rows, "n3") == ["1e+154", "1e+155", "1e+300"]


def test_a_sweep_at_a_huge_time_prints_the_steady_rows(capsys):
    code, out, err = run_cli(capsys, "sweep", "--eta-grid", "5x5", "--at-time", "1e300")
    assert (code, err) == (0, "")
    _, header, rows = parse_csv(out)
    _, _, steady = parse_csv(run_cli(capsys, "sweep", "--eta-grid", "5x5")[1])
    # every point, the three marginal ones with margin 0 included, is valid
    assert [row[2] for row in rows] == ["valid"] * len(rows)
    marginal = [row for row in rows if row[3] == "0"]
    assert [row[:2] for row in marginal] == [["-1", "0"], ["-0.5", "-0.5"], ["0", "-1"]]
    # every stable point prints its steady row
    assert [row for row in rows if row[3] != "0"] == [row for row in steady if row[2] == "valid"]


@pytest.mark.parametrize("argv", [("sweep", "--eta-grid", "3x3", "--A", "1e300"),
                                  ("sweep", "--eta-grid", "3x3", "--A", "1e300",
                                   "--at-time", "1")],
                         ids=["gain", "time"])
def test_sweep_records_moments_beyond_the_float_range(argv, capsys):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    rows = [dict(zip(json.loads(out)["columns"], r)) for r in json.loads(out)["rows"]]
    beyond = [r for r in rows if r["failure"].endswith("leave the floating-point range")]
    assert beyond
    for row in rows:
        moments = [row[c] for c in ("n1", "n2", "n3", "c32", "c31", "c21")]
        if row["status"] == "valid":
            assert all(math.isfinite(m) for m in moments)
        else:
            assert all(math.isnan(m) for m in moments) and row["failure"]


def test_sweep_over_coordinates_near_the_float_limit(capsys):
    # the population formulas overflow to inf there, which only makes a
    # point unphysical, as in Python floats
    code, out, err = run_cli(capsys, "sweep", "--eta-grid", "3x3", "--eta1-range=-1e308:1e308",
                             "--eta2-range=-1e308:1e308")
    assert (code, err) == (0, "")
    _, header, rows = parse_csv(out)
    assert [(r[0], r[1], r[2]) for r in rows] == [("0", "0", "valid")]


PREFACTOR_POINT = ("prefactors", "--eta1", "0", "--eta2", "0")
ORACLE_POINT = ("oracle", "--eta1", "0", "--eta2", "0")
# Command lines the parser refuses, and what their one error line names.
PARSER_ERRORS = {
    "no-command": ((), "command"),
    "unknown-command": (("bogus",), "bogus"),
    "unknown-flag": ((*STEADY_ARGS, "--bogus", "1"), "--bogus"),
    "prefactors-backend": ((*PREFACTOR_POINT, "--backend", "ehrenfest"), "--backend"),
    "oracle-backend": ((*ORACLE_POINT, "--backend", "ehrenfest"), "--backend"),
    "sweep-r-a": (("sweep", "--r-a", "1"), "--r-a"),
    "sweep-g": (("sweep", "--g", "5"), "--g"),
    "sweep-gamma": (("sweep", "--gamma", "1"), "--gamma"),
    "missing-value": (("steady", "--eta2", "0", "--eta1"), "--eta1"),
    "bad-format": ((*STEADY_ARGS, "--format", "xml"), "xml"),
    "bad-float": (("steady", "--eta1", "abc", "--eta2", "0"), "abc"),
    "bad-backend": ((*STEADY_ARGS, "--backend", "literal"), "literal"),
    "bad-times": (("evolve", "--eta1", "0", "--eta2", "0", "--times", "0,a"),
                  "--times: bad time list '0,a'"),
}


@pytest.mark.parametrize("case", sorted(PARSER_ERRORS))
def test_parser_error_exits_2_with_one_line(case, capsys):
    argv, named = PARSER_ERRORS[case]
    code, out, err = run_cli(capsys, *argv)
    assert_one_error_line(code, out, err, named)
    assert "_float_list" not in err


@pytest.mark.parametrize("argv", [("--help",), ("sweep", "--help")])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ycel")


# Command lines led by an option of a command, and the option each names.
OPTIONS_AHEAD = [
    (("--format", "json", *STEADY_ARGS), "--format"),
    (("--format=json", *STEADY_ARGS), "--format"),
    (("--out", "x.csv", *STEADY_ARGS), "--out"),
    (("--absolute-units", *STEADY_ARGS), "--absolute-units"),
    (("--eta1", "0", "steady", "--eta2", "0"), "--eta1"),
    (("--no-optimize", "sweep"), "--no-optimize"),  # an option of the last command only
]


@pytest.mark.parametrize("argv, flag", OPTIONS_AHEAD)
def test_option_ahead_of_the_command_is_named(argv, flag, capsys):
    message = f"error: option {flag} goes after the command name\n"
    assert run_cli(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize("argv, code, out, err", [
    ((), 2, "", "error: the following arguments are required: command\n"),
    (("-h",), 0, "usage: ycel [-h] {prefactors,", ""),
    (("bogus", "--format", "json"), 2, "",
     "error: argument command: invalid choice: 'bogus' (choose from "),
], ids=["no-command", "help", "unknown-command"])
def test_argv_not_led_by_an_option_of_a_command_is_parsed_as_before(argv, code, out, err,
                                                                    capsys):
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    for text, start in ((captured.out, out), (captured.err, err)):
        assert text.startswith(start) and bool(text) == bool(start)


# The parameters each command reads: its flags and its --config keys are
# exactly these, so a flag that does nothing cannot come back.
COMMAND_KEYS = {
    "prefactors": {"eta1", "eta2", "kappa", "units", "A", "r_a", "g", "gamma"},
    "evolve": {"eta1", "eta2", "kappa", "units", "A", "r_a", "g", "gamma",
               "backend", "route", "times", "t", "samples"},
    "steady": {"eta1", "eta2", "kappa", "units", "A", "r_a", "g", "gamma", "backend"},
    "oracle": {"eta1", "eta2", "kappa", "units", "A", "r_a", "g", "gamma",
               "times", "t", "samples", "nmax", "dt", "edge_tol", "check_convergence"},
    "sweep": {"kappa", "units", "A", "backend", "eta_grid", "eta1_range", "eta2_range",
              "at_time", "optimize"},
}


def flag_destinations(command):
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser = sub.choices[command]
    parser.flags  # a command's parser adds its arguments when its flags are first read
    return {a.dest for a in parser._actions} - {"help", "config", "out", "format"}


def config_keys(command, tmp_path):
    """The keys the command's --config takes, each probed with a value no key accepts."""
    accepted = set()
    cfg = tmp_path / "probe.json"
    for key in set().union(*COMMAND_KEYS.values()):
        cfg.write_text(json.dumps({key: {}}))
        code, out, err = run_quietly([command, "--config", str(cfg)])
        assert_one_error_line(code, out, err)
        if "unknown config key" not in err:
            accepted.add(key)
    return accepted


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_flags_and_config_keys_are_the_parameters_read(command, tmp_path):
    assert flag_destinations(command) == COMMAND_KEYS[command]
    assert config_keys(command, tmp_path) == COMMAND_KEYS[command]


# A JSON run of each command, whose document --config must reproduce byte
# for byte; test_json_config_round_trip covers evolve.
ROUND_TRIPS = {
    "prefactors-A": (*PREFACTOR_POINT, "--A", "0.7", "--kappa", "2"),
    "prefactors-trio": ("prefactors", "--eta1", "0.1", "--eta2", "0.2", "--r-a", "4",
                        "--g", "5", "--gamma", "20", "--absolute-units"),
    "steady": ("steady", "--eta1", "0.25", "--eta2", "0.25", "--A", "0.5",
               "--backend", "paper-literal"),
    "oracle": (*ORACLE_POINT, "--A", "0.5", "--nmax", "3", "--t", "0.5", "--dt", "0.05",
               "--edge-tol", "0.1", "--no-convergence-check"),
    "sweep": ("sweep", "--eta-grid", "3x4", "--A", "0.5", "--eta1-range=-0.5:1",
              "--at-time", "2", "--no-optimize"),
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
def test_every_json_document_round_trips_through_config(case, tmp_path, capsys):
    first = tmp_path / "run.json"
    argv = ROUND_TRIPS[case]
    assert run_cli(capsys, *argv, "--format", "json", "--out", str(first))[0] == 0
    code, out, _ = run_cli(capsys, argv[0], "--config", str(first), "--format", "json")
    assert code == 0
    assert out == first.read_text()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_flags():
    """Each command's flags as README's "Quick start (CLI)" table lists them."""
    section = README.read_text(encoding="utf-8").split("## Quick start (CLI)")[1]
    section = section.split("\n## ")[0]
    rates, times = re.search(r"The rates are `([^`]*)` and the\s+times `([^`]*)`", section).groups()
    named = {"the rates": rates, "the times": times}
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            command, flags = line.strip("|").split("|")
            parts = [named.get(part.strip(), part.strip(" `")) for part in flags.split(",")]
            table[command.strip(" `")] = " ".join(parts).split()
    return table


def test_readme_flag_table_lists_each_commands_flags():
    assert readme_flags() == {
        command: [PARAMETERS[key][3].get("flag", "--" + key.replace("_", "-")) for key in names]
        for command, (_, _, names) in COMMANDS.items()
    }


EVOLVE_ARGS = ("evolve", "--eta1", "0", "--eta2", "0")
SWEEP_ARGS = ("sweep", "--eta-grid", "2x2")


def point(**rates):
    return {"eta1": 0.0, "eta2": 0.0, "kappa": 1.0, "units": "kappa", **rates}


ORACLE_RUN = {"nmax": 2, "dt": 0.05, "edge_tol": 0.5}
SWEEP_DEFAULTS = {"eta_grid": "2x2", "eta1_range": "-1:1", "eta2_range": "-1:1", "A": 1.0,
                  "kappa": 1.0, "units": "kappa", "backend": "ehrenfest", "at_time": None,
                  "optimize": True}
# What each command records: (command line, --config object or None, the
# params block, in order).  Config numbers are floats here; integers are
# test_integer_config_values_give_the_documents_of_their_flags.
RECORDS = {
    "prefactors-default-A": (PREFACTOR_POINT, None, point(A=1.0)),
    "prefactors-A-absolute": ((*PREFACTOR_POINT, "--A", "0.7", "--kappa", "2",
                               "--absolute-units"),
                              None, point(kappa=2.0, units="absolute", A=0.7)),
    "prefactors-trio": ((*PREFACTOR_POINT, "--r-a", "4", "--g", "5", "--gamma", "20"), None,
                        point(r_a=4.0, g=5.0, gamma=20.0)),
    "evolve-t-samples": ((*EVOLVE_ARGS, "--t", "4", "--samples", "3"), None,
                         point(A=1.0, backend="ehrenfest", route="closed-form",
                               times=[0.0, 2.0, 4.0])),
    "evolve-times-beat-t": ((*EVOLVE_ARGS, "--A", "0.5", "--backend", "paper-literal",
                             "--route", "ode", "--times", "0,1.5", "--t", "9"), None,
                            point(A=0.5, backend="paper-literal", route="ode",
                                  times=[0.0, 1.5])),
    "evolve-config-trio": (("evolve",), {"eta1": 0.0, "eta2": 0.0, "t": 2.0, "samples": 1,
                                         "r_a": 4.0, "g": 5.0, "gamma": 20.0,
                                         "kappa": 2.0, "units": "absolute"},
                           point(kappa=2.0, units="absolute", r_a=4.0, g=5.0, gamma=20.0,
                                 backend="ehrenfest", route="closed-form", times=[2.0])),
    "steady-config-and-flag": (("steady", "--eta1", "0"),
                               {"eta1": 0.25, "eta2": 0.0, "A": 0.5, "kappa": 0.5,
                                "backend": "paper-literal"},
                               point(kappa=0.5, A=0.5, backend="paper-literal")),
    "oracle-default-horizon": ((*ORACLE_POINT, "--A", "0.5", "--nmax", "2", "--dt", "0.05",
                                "--edge-tol", "0.5", "--no-convergence-check"), None,
                               point(A=0.5, **ORACLE_RUN, check_convergence=False,
                                     times=[2.0 * i for i in range(11)])),
    "oracle-config": (("oracle",), {"eta1": 0.0, "eta2": 0.0, **ORACLE_RUN, "t": 1.0,
                                    "samples": 3},
                      point(A=1.0, **ORACLE_RUN, check_convergence=True,
                            times=[0.0, 0.5, 1.0])),
    "sweep-default": (SWEEP_ARGS, None, SWEEP_DEFAULTS),
    "sweep-config": ((*SWEEP_ARGS, "--no-optimize"),
                     {"A": 0.5, "at_time": 2.0, "kappa": 2.0, "units": "absolute",
                      "eta1_range": "0:0.5", "backend": "paper-literal"},
                     SWEEP_DEFAULTS | {"eta1_range": "0:0.5", "A": 0.5, "kappa": 2.0,
                                       "units": "absolute", "backend": "paper-literal",
                                       "at_time": 2.0, "optimize": False}),
}


def with_config(argv, config, tmp_path):
    if config is None:
        return argv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return (*argv, "--config", str(cfg))


@pytest.mark.parametrize("case", sorted(RECORDS))
def test_each_command_records_its_resolved_params(case, tmp_path, capsys):
    argv, config, params = RECORDS[case]
    argv = with_config(argv, config, tmp_path)
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    # dumped, so that 1 and 1.0 differ
    assert json.dumps(json.loads(out)["params"]) == json.dumps(params)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    head = [f"# ycel {argv[0]}"] + [
        f"# {key} = " + (" ".join(map(format_value, v)) if isinstance(v, list) else format_value(v))
        for key, v in params.items()
    ]
    lines = out.splitlines()
    assert lines[: len(head)] == head
    assert not lines[len(head)].startswith(tuple(f"# {key} = " for key in PARAMETERS))


@pytest.mark.parametrize("command", ["prefactors", "steady"])
@pytest.mark.parametrize("rates", [("1e200", "1e200", "1e-10"), ("1e300", "1e10", "1"),
                                   ("1", "1", "1e-200"), ("1", "1e-155", "1e-150")],
                         ids=["g2", "product", "gamma2", "subnormal-g2"])
def test_gain_rate_out_of_float_range_exits_2(command, rates, capsys):
    r_a, g, gamma = rates
    code, out, err = run_cli(capsys, command, "--eta1", "0.1", "--eta2", "0.2",
                             "--r-a", r_a, "--g", g, "--gamma", gamma)
    assert_one_error_line(code, out, err, "out of floating-point range",
                          f"r_a={float(r_a)!r}, g={float(g)!r}, gamma={float(gamma)!r}")


# The recorded kappa of a CSV or JSON document.
KAPPA_LINE = re.compile(r'^(# kappa = |    "kappa": ).*\n', re.MULTILINE)


def kappa_free(run):
    """A run's exit code, its document without the recorded kappa, and its
    stderr."""
    code, out, err = run
    return code, KAPPA_LINE.sub("", out, count=1), err


GAIN_COMMANDS = [c for c, (_, _, names) in COMMANDS.items() if "A" in names]
# the command's point, and for the oracle a cheap march
GAIN_LINES = {"prefactors": ("--eta1", "0", "--eta2", "0"),
              "evolve": ("--eta1", "0", "--eta2", "0", "--t", "1"),
              "steady": ("--eta1", "0", "--eta2", "0"),
              "oracle": ("--eta1", "0", "--eta2", "0", "--nmax", "2", "--t", "1",
                         "--no-convergence-check"),
              "sweep": ("--eta-grid", "2x2")}


@pytest.mark.parametrize("command", GAIN_COMMANDS)
@pytest.mark.parametrize("rate, kappa", [("1e300", "1e300"), ("1e-300", "1e-300"),
                                         ("1e-300", "1e-10")],
                         ids=["overflow", "underflow", "subnormal"])
def test_gain_in_kappa_units_runs_at_kappa_1(command, rate, kappa, capsys):
    # --A times --kappa would overflow, underflow or fall below the normal
    # range; a kappa-unit line runs its --A as entered at kappa = 1
    line = (command, *GAIN_LINES[command], "--A", rate, "--format", "json")
    at_one = run_cli(capsys, *line)
    assert kappa_free(run_cli(capsys, *line, "--kappa", kappa)) == kappa_free(at_one)
    # A = 1e300 drives every mode unstable: the moments' own range, as at kappa 1
    unstable = rate == "1e300" and command in ("evolve", "steady", "oracle")
    assert at_one[0] == (3 if unstable else 0)
    if at_one[0]:
        assert at_one[2].count("\n") == 1 and at_one[2].startswith("error: ")


@pytest.mark.parametrize("command", GAIN_COMMANDS)
@pytest.mark.parametrize("rate", ["5e-324", "1e-310"])
def test_gain_below_the_normal_range_exits_2(command, rate, capsys):
    code, out, err = run_cli(capsys, command, *GAIN_LINES[command], "--A", rate)
    assert_one_error_line(code, out, err,
                          f"--A {float(rate)!r} is below the normal floating-point range")


# Integer --config values, and the flags that give the same run.
INTEGER_CONFIGS = {
    "steady": ({"eta1": 0, "eta2": 0, "kappa": 1}, STEADY_ARGS + ("--kappa", "1")),
    "prefactors-trio": ({"eta1": 0, "eta2": 0, "r_a": 4, "g": 5, "gamma": 20},
                        (*PREFACTOR_POINT, "--r-a", "4", "--g", "5", "--gamma", "20")),
    "evolve": ({"eta1": 0, "eta2": 0, "A": 1, "t": 2, "samples": 3},
               (*EVOLVE_ARGS, "--A", "1", "--t", "2", "--samples", "3")),
    "sweep": ({"eta_grid": "2x2", "A": 1, "kappa": 2, "at_time": 1},
              (*SWEEP_ARGS, "--A", "1", "--kappa", "2", "--at-time", "1")),
}


@pytest.mark.parametrize("case", sorted(INTEGER_CONFIGS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_integer_config_values_give_the_documents_of_their_flags(case, fmt, tmp_path, capsys):
    config, flags = INTEGER_CONFIGS[case]
    via_config = run_cli(capsys, *with_config((flags[0],), config, tmp_path), "--format", fmt)
    assert via_config == run_cli(capsys, *flags, "--format", fmt)
    assert via_config[0] == 0


# Command lines malformed twice over, and the one error each reports.
ERROR_PRECEDENCE = {
    "partial-trio-no-times": ((*EVOLVE_ARGS, "--r-a", "1"), "evolve needs --t or --times"),
    "A-and-trio-no-times": ((*EVOLVE_ARGS, "--A", "1", "--r-a", "1", "--g", "1", "--gamma", "1"),
                            "evolve needs --t or --times"),
    "A-and-trio-zero-horizon": ((*ORACLE_POINT, "--times", "0", "--A", "1", "--r-a", "1",
                                 "--g", "1", "--gamma", "1"), "oracle needs a positive final time"),
    "bad-A-no-times": ((*EVOLVE_ARGS, "--A=-1"), "--A must be a positive finite rate, got -1.0"),
    "no-eta-zero-horizon": (("oracle", "--times", "0", "--r-a", "1"), "oracle needs --eta1, --eta2"),
    "A-and-trio": ((*STEADY_ARGS, "--A", "1", "--r-a", "1", "--g", "1", "--gamma", "1"),
                   "give either --A or the --r-a/--g/--gamma trio"),
    "partial-trio": ((*PREFACTOR_POINT, "--g", "1", "--A", "1"),
                     "--r-a, --g and --gamma must be given together"),
}


@pytest.mark.parametrize("case", sorted(ERROR_PRECEDENCE))
def test_doubly_malformed_line_reports_its_first_error(case, capsys):
    argv, message = ERROR_PRECEDENCE[case]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param((*EVOLVE_ARGS, "--times", "1,inf"), "--times must be", id="times=1,inf"),
        pytest.param((*EVOLVE_ARGS, "--times", "nan"), "--times must be", id="times=nan"),
        pytest.param((*EVOLVE_ARGS, "--t", "nan"), "--t must be", id="t=nan"),
        pytest.param((*EVOLVE_ARGS, "--t", "inf", "--route", "ode"), "--t must be",
                     id="t=inf-ode"),
        pytest.param((*SWEEP_ARGS, "--at-time", "nan"), "--at-time must be", id="at-time=nan"),
        pytest.param((*SWEEP_ARGS, "--at-time", "inf"), "--at-time must be", id="at-time=inf"),
        pytest.param((*SWEEP_ARGS, "--at-time", "-1"), "--at-time must be", id="at-time=-1"),
        # finite times whose sample grid overflows
        pytest.param((*EVOLVE_ARGS, "--t", "1e308"), "--t over --samples 11", id="t=1e308"),
        pytest.param((*ORACLE_POINT, "--t", "1e308"), "--t over --samples 11",
                     id="oracle-t=1e308"),
        # positive times or steps below the normal range, at any kappa
        pytest.param((*EVOLVE_ARGS, "--times", "5e-324,1"),
                     "--t/--times 5e-324 is below the normal floating-point range",
                     id="times=5e-324,1"),
        pytest.param((*EVOLVE_ARGS, "--times", "0,1e-320", "--kappa", "1e10"),
                     "--t/--times 1e-320 is below", id="times=0,1e-320-kappa=1e10"),
        pytest.param((*EVOLVE_ARGS, "--times", "1e-320,1", "--kappa", "1e10"),
                     "--t/--times 1e-320 is below", id="times=1e-320,1-kappa=1e10"),
        pytest.param((*EVOLVE_ARGS, "--t", "1e-310", "--samples", "1"),
                     "--t/--times 1e-310 is below", id="t=1e-310"),
        # a normal --t whose first grid point is not
        pytest.param((*EVOLVE_ARGS, "--t", "1e-307"), "--t/--times 1e-308 is below",
                     id="t=1e-307"),
        pytest.param((*ORACLE_POINT, "--times", "1e-320,1", "--kappa", "1e10"),
                     "--t/--times 1e-320 is below", id="oracle-times=1e-320,1-kappa=1e10"),
        pytest.param((*ORACLE_POINT, "--t", "1", "--dt", "1e-320", "--kappa", "1e300"),
                     "--dt 1e-320 is below", id="oracle-dt=1e-320-kappa=1e300"),
        pytest.param(("sweep", "--eta-grid", "2x2", "--at-time", "1e-320", "--kappa", "1e300"),
                     "--at-time 1e-320 is below", id="at-time=1e-320-kappa=1e300"),
        # the oracle's step limit, at any kappa
        pytest.param((*ORACLE_POINT, "--t", "1e300", "--kappa", "1e-10"),
                     "t_final/dt = 1e+302 steps", id="oracle-t=1e300-kappa=1e-10"),
        pytest.param((*ORACLE_POINT, "--times", "1e300", "--kappa", "1e-10"),
                     "t_final/dt = 1e+302 steps", id="oracle-times=1e300-kappa=1e-10"),
        pytest.param((*ORACLE_POINT, "--t", "1", "--dt", "1e-300", "--kappa", "1e300"),
                     "t_final/dt = 1e+300 steps", id="oracle-dt=1e-300-kappa=1e300"),
        pytest.param((*ORACLE_POINT, "--t", "1", "--dt", "1e-300", "--kappa", "1e10"),
                     "t_final/dt = 1e+300 steps", id="oracle-dt=1e-300-kappa=1e10"),
    ],
)
def test_non_finite_or_negative_time_exits_2(argv, named, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert_one_error_line(code, out, err, named)


@pytest.mark.parametrize("dt", ["inf", "nan", "0", "-1e300"])
def test_oracle_step_that_is_not_positive_and_finite_keeps_its_message(dt, capsys):
    # only a positive step below the normal range names --dt
    argv = (*ORACLE_POINT, "--t", "1", "--dt", dt, "--kappa", "1e-10")
    assert run_cli(capsys, *argv) == (2, "", "error: dt must be positive and finite\n")


# Times and steps that overflow or fall below the normal range only once
# divided by --kappa.  A kappa-unit line runs them as entered at kappa = 1,
# and prints the kappa = 1 rows, or refuses as the kappa = 1 line does.
KAPPA_SCALED_TIMES = [
    pytest.param((*EVOLVE_ARGS, "--t", "1e300"), "1e-10", 0, id="t=1e300-kappa=1e-10"),
    pytest.param((*EVOLVE_ARGS, "--times", "1e300"), "1e-10", 0, id="times=1e300-kappa=1e-10"),
    pytest.param((*EVOLVE_ARGS, "--t", "1e150"), "1e-160", 0, id="t=1e150-kappa=1e-160"),
    pytest.param((*EVOLVE_ARGS, "--times", "1e150"), "1e-160", 0, id="times=1e150-kappa=1e-160"),
    pytest.param(("sweep", "--eta-grid", "3x3", "--at-time", "1e300"), "1e-10", 0,
                 id="at-time=1e300-kappa=1e-10"),
    # the dt/2 run halves the one step of 0.1 to each sample and refuses
    pytest.param((*ORACLE_POINT, "--t", "1", "--dt", "1e300"), "1e-10", 3,
                 id="oracle-dt=1e300-kappa=1e-10"),
    pytest.param((*EVOLVE_ARGS, "--t", "1e-300"), "1e300", 0, id="t=1e-300-kappa=1e300"),
    pytest.param((*EVOLVE_ARGS, "--t", "1e-300"), "1e10", 0, id="t=1e-300-kappa=1e10"),
    pytest.param((*EVOLVE_ARGS, "--t", "1e-297"), "1e10", 0, id="t=1e-297-kappa=1e10"),
    pytest.param((*EVOLVE_ARGS, "--times", "0,1e-300,1"), "1e10", 0,
                 id="times=0,1e-300,1-kappa=1e10"),
    pytest.param(("sweep", "--eta-grid", "2x2", "--at-time", "1e-300"), "1e10", 0,
                 id="at-time=1e-300-kappa=1e10"),
    pytest.param((*ORACLE_POINT, "--t", "1e-300"), "1e300", 0, id="oracle-t=1e-300-kappa=1e300"),
    pytest.param((*ORACLE_POINT, "--t", "1e-300"), "1e10", 0, id="oracle-t=1e-300-kappa=1e10"),
    pytest.param((*ORACLE_POINT, "--t", "1e-297"), "1e10", 0, id="oracle-t=1e-297-kappa=1e10"),
]


@pytest.mark.parametrize("argv, kappa, code", KAPPA_SCALED_TIMES)
def test_kappa_scaled_time_gives_the_kappa_1_rows(argv, kappa, code, capsys):
    at_one = run_cli(capsys, *argv, "--format", "json")
    assert at_one[0] == code
    assert kappa_free(run_cli(capsys, *argv, "--kappa", kappa, "--format", "json")) == \
        kappa_free(at_one)


@pytest.mark.parametrize("target", [("missing", "x.csv"), ()], ids=["missing-dir", "a-dir"])
def test_unwritable_out_exits_2_with_one_line(target, tmp_path, capsys):
    path = tmp_path.joinpath(*target)
    code, out, err = run_cli(capsys, *PREFACTOR_POINT, "--out", str(path))
    assert_one_error_line(code, out, err, f"cannot write output {str(path)!r}: ")


EVOLVE_JSON = ("evolve", "--eta1", "0.1", "--eta2", "0.25", "--A", "0.5", "--t", "5",
               "--format", "json")


def test_out_holds_the_whole_document_through_short_writes(tmp_path, capsys, monkeypatch):
    code, document, _ = run_cli(capsys, *EVOLVE_JSON)
    assert code == 0
    data, write, sizes = document.encode("utf-8"), os.write, []

    def short_write(fd, chunk):
        sizes.append(write(fd, chunk[:7]))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    out = tmp_path / "doc.json"
    assert main([*EVOLVE_JSON, "--out", str(out)]) == 0
    assert out.read_bytes() == data
    assert len(sizes) == -(-len(data) // 7)


def test_out_replaces_a_longer_file(tmp_path, capsys):
    code, document, _ = run_cli(capsys, *EVOLVE_JSON)
    out = tmp_path / "doc.json"
    out.write_bytes(b"x" * (4 * len(document)))
    assert main([*EVOLVE_JSON, "--out", str(out)]) == 0
    assert out.read_bytes() == document.encode("utf-8")


# The corpus's closed-form evolve lines: both backends and the defective
# line, sampled at t = 0, 1, ..., 5.  A --times list with 0 and repeats
# picks these rows of each.
CORPUS_EVOLVES = ("evolve", "evolve-paper-literal", "evolve-defective-line")
PICKED = (0, 0, 1, 3, 3, 5)


def table_rows(text, fmt):
    return json.loads(text)["rows"] if fmt == "json" else parse_csv(text)[2]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CORPUS_EVOLVES)
def test_closed_form_evolve_builds_no_moment_objects(name, fmt, tmp_path, monkeypatch):
    # the stored document, where the corpus was recorded on this numpy,
    # scipy and OpenBLAS kernel; elsewhere test_documents pins the fresh
    # document to it within its ulp bound
    argv = manifest()["documents"][name]
    stored = stored_path(name, fmt).read_text(encoding="utf-8")
    expected = stored if versions().items() <= manifest().items() else render(argv, fmt)
    picked_argv = argv.replace("--t 5 --samples 6", "--times " + ",".join(map(str, PICKED)))
    assert picked_argv != argv

    def refuse(*args, **kwargs):
        raise AssertionError("closed-form evolve left the trajectory's float kernel")

    monkeypatch.setattr(dynamics, "_moment_rows_at", refuse)
    monkeypatch.setattr(dynamics, "SecondMoments", refuse)
    out = tmp_path / f"doc.{fmt}"
    assert main([*argv.split(), "--format", fmt, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected
    assert main([*picked_argv.split(), "--format", fmt, "--out", str(out)]) == 0
    rows = table_rows(expected, fmt)
    assert table_rows(out.read_text(encoding="utf-8"), fmt) == [rows[i] for i in PICKED]


def test_evolve_matches_oracle(capsys):
    shared = ("--eta1", "0", "--eta2", "0", "--A", "0.5", "--t", "10")
    code, out_e, _ = run_cli(capsys, "evolve", *shared, "--samples", "3")
    code_o, out_o, _ = run_cli(
        capsys, "oracle", *shared, "--samples", "3", "--nmax", "8", "--dt", "0.02",
        "--edge-tol", "1e-5",
    )
    assert code == code_o == 0
    _, header_e, rows_e = parse_csv(out_e)
    _, header_o, rows_o = parse_csv(out_o)
    final_e = {k: float(v) for k, v in zip(header_e, rows_e[-1])}
    final_o = {k: float(v) for k, v in zip(header_o, rows_o[-1])}
    scale = max(abs(final_o[k]) for k in ("n1", "n2", "n3", "c32", "c31", "c21"))
    for key in ("n1", "n2", "n3", "c32", "c31", "c21"):
        assert abs(final_e[key] - final_o[key]) / scale < 1e-3


def test_oracle_decoupled_point_final_row(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--eta1", "-0.5", "--eta2", "-0.5", "--A", "0.5",
        "--nmax", "6", "--dt", "0.05", "--samples", "3", "--no-convergence-check",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    final = {k: float(v) for k, v in zip(header, rows[-1])}
    assert abs(final["c31"]) < 1e-8
    assert abs(final["c21"]) < 1e-8
    assert final["n1"] < 1e-8
    assert final["c32"] > 0.4


def test_oracle_truncation_guard_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--eta1", "0", "--eta2", "0", "--A", "0.5",
        "--nmax", "3", "--t", "10", "--dt", "0.05", "--edge-tol", "1e-9",
        "--no-convergence-check",
    )
    assert code == 3
    assert "edge" in err


@pytest.mark.parametrize("dt", ["1e11", "1e13"])
def test_oracle_step_longer_than_every_span_is_still_taken(dt, capsys):
    # each span is one remainder step; at 1e13 a residue threshold of
    # 1e-12 * dt once dropped it, and vacuum moments printed with exit 0
    code, out, err = run_cli(
        capsys, "oracle", "--eta1", "0", "--eta2", "0", "--nmax", "6",
        "--dt", dt, "--times", "1,2,5",
    )
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert err.startswith("error: integration diverged near t=1 ")


def test_oracle_audit_columns_present(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--eta1", "0", "--eta2", "0.5", "--A", "0.5",
        "--nmax", "5", "--t", "2", "--dt", "0.05", "--samples", "2",
        "--no-convergence-check",
    )
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header[-2:] == ["trace_residue", "edge_population"]
    assert all(float(x) < 1e-9 for x in column(header, rows, "trace_residue"))
    assert any(c.startswith("# closure leakage = ") for c in comments)


def test_missing_required_flags(capsys):
    code, _, err = run_cli(capsys, "steady", "--eta1", "0")
    assert code == 2
    assert "--eta2" in err


def test_partial_rate_trio_rejected(capsys):
    code, _, err = run_cli(
        capsys, "steady", "--eta1", "0", "--eta2", "0", "--r-a", "1", "--g", "0.1"
    )
    assert code == 2
    assert "gamma" in err


def test_rate_trio_matches_explicit_gain(capsys):
    # A = 2 r_a g^2 / gamma^2 = 2 * 4 * 25 / 400 = 0.5
    _, out_trio, _ = run_cli(
        capsys, "steady", "--eta1", "0", "--eta2", "0",
        "--r-a", "4", "--g", "5", "--gamma", "20",
    )
    _, out_gain, _ = run_cli(
        capsys, "steady", "--eta1", "0", "--eta2", "0", "--A", "0.5"
    )
    _, _, rows_trio = parse_csv(out_trio)
    _, _, rows_gain = parse_csv(out_gain)
    assert rows_trio == rows_gain


SUBCOMMANDS = ("prefactors", "evolve", "steady", "oracle", "sweep")
PREFACTORS_ARGS = ("prefactors", "--eta1", "0", "--eta2", "0")
CHILD_TIMEOUT_S = 120

# What pip's generated console-script wrapper does: import the declared
# object, then call it with no arguments so that it reads sys.argv.
WRAPPER = """\
import sys
from importlib.metadata import EntryPoint

entry = EntryPoint(name="ycel", value=sys.argv[1], group="console_scripts")
script = entry.load()
sys.argv = ["ycel", "--help"]
sys.exit(script())
"""


def child_env():
    """Environment whose PYTHONPATH puts the package under test first."""
    env = dict(os.environ)
    src = str(Path(ycel.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def run_child(argv, text=True):
    return subprocess.run(
        argv, capture_output=True, text=text, env=child_env(), timeout=CHILD_TIMEOUT_S
    )


def assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ycel")
    for name in SUBCOMMANDS:
        assert name in proc.stdout


def declared_scripts():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def test_console_script_installed():
    proc = run_child([sys.executable, "-m", "ycel.cli", *PREFACTORS_ARGS])
    assert proc.returncode == 0
    assert "gain_scale" in proc.stdout
    scripts = declared_scripts()
    assert "ycel" in scripts
    proc = run_child([sys.executable, "-c", WRAPPER, scripts["ycel"]])
    assert_help(proc)


@pytest.mark.skipif(
    shutil.which("ycel") is None, reason="no ycel console script on PATH (package not installed)"
)
def test_console_script_on_path(tmp_path, capsys):
    proc = run_child(["ycel", "--help"])
    assert_help(proc)
    # The ycel on PATH must be this checkout's program, not some other install.
    proc = run_child(["ycel", *PREFACTORS_ARGS], text=False)
    code, out, _ = run_cli(capsys, *PREFACTORS_ARGS)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()
    # main(argv=None) reads sys.argv, and refuses an --out it cannot open.
    proc = run_child(["ycel", *PREFACTORS_ARGS, "--out", str(tmp_path / "missing" / "x.csv")])
    assert "Traceback" not in proc.stderr
    assert_one_error_line(proc.returncode, proc.stdout, proc.stderr, "cannot write output")



# Start-up loads neither numpy, nor the moment and witness modules, nor
# scipy.integrate or scipy.sparse; the command in argv[2:] then loads the
# module named in argv[1].
COLD_START = """\
import sys
import ycel.cli

ycel.cli.build_parser()
numerical = {"numpy", "ycel.dynamics", "ycel.entanglement", "scipy.integrate", "scipy.sparse"}
loaded = numerical & set(sys.modules)
assert not loaded, f"{sorted(loaded)} imported at start-up"
assert ycel.cli.main(sys.argv[2:]) == 0
assert sys.argv[1] in sys.modules
"""


def test_cold_start_skips_scipy_integrate_until_the_ode_route(tmp_path, capsys):
    point = ("evolve", "--eta1", "0.25", "--eta2", "0.25", "--A", "0.5",
             "--t", "10", "--format", "json")
    out = tmp_path / "ode.json"
    proc = run_child([sys.executable, "-c", COLD_START, "scipy.integrate", *point,
                      "--route", "ode", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    code, closed, _ = run_cli(capsys, *point)
    assert code == 0
    ode, closed = json.loads(out.read_text()), json.loads(closed)
    assert ode["params"].pop("route") == "ode"
    assert closed["params"].pop("route") == "closed-form"
    assert ode["params"] == closed["params"] and "notes" not in ode and "notes" not in closed
    for row_ode, row_closed in zip(ode["rows"], closed["rows"], strict=True):
        scale = max(abs(v) for v in row_ode[1:]) or 1.0
        assert max(abs(a - b) for a, b in zip(row_ode, row_closed)) <= 1e-10 * scale


def test_cold_start_and_the_oracle_load_no_scipy_package(tmp_path, capsys):
    # the oracle runs on scipy's compiled sparse kernels, loaded without the
    # scipy and scipy.sparse packages
    argv = (*ROUND_TRIPS["oracle"], "--format", "json")
    out = tmp_path / "oracle.json"
    script = COLD_START + (
        'loaded = {"scipy", "scipy.sparse"} & set(sys.modules)\n'
        'assert not loaded, f"{sorted(loaded)} imported by the oracle"\n'
    )
    proc = run_child([sys.executable, "-c", script, "ycel.fock_oracle", *argv,
                      "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.read_text() == expected


# Runs main on argv[1:] and fails if numpy was imported by the time it ends.
NUMPY_FREE = """\
import sys
import ycel.cli

try:
    code = ycel.cli.main(sys.argv[1:])
finally:
    assert not {"numpy", "scipy"} & set(sys.modules), "numpy or scipy imported"
sys.exit(code)
"""

PREFACTORS_FORMS = {
    "csv": PREFACTORS_ARGS,
    "json": (*PREFACTORS_ARGS, "--format", "json"),
    "trio": (*PREFACTORS_ARGS, "--r-a", "1", "--g", "5", "--gamma", "50"),
}


@pytest.mark.parametrize("form", sorted(PREFACTORS_FORMS))
def test_prefactors_never_imports_numpy(form, capsys):
    argv = PREFACTORS_FORMS[form]
    proc = run_child([sys.executable, "-c", NUMPY_FREE, *argv], text=False)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert proc.stdout == out.encode()


# Arguments the numerical commands refuse before they import numpy, each
# with a text its error line holds.
NUMERIC_REFUSALS = (
    (("sweep", "--eta-grid", "3y3"), "grid '3y3' must look like NxM"),
    (("sweep", "--eta-grid", "3xa"), "grid '3xa': invalid literal for int()"),
    (("sweep", "--eta-grid", "0x3"), "grid sizes must be at least 1"),
    (("sweep", "--eta1-range", "1"), "--eta1-range '1' must look like lo:hi"),
    (("sweep", "--eta1-range", "1:0"), "--eta1-range '1:0' must be finite and nondecreasing"),
    (("steady", "--eta1", "5", "--eta2", "0"), "unphysical preparation eta1=5.0"),
    (("evolve", "--eta1", "5", "--eta2", "0", "--t", "1"), "unphysical preparation eta1=5.0"),
    (("oracle", "--eta1", "5", "--eta2", "0"), "unphysical preparation eta1=5.0"),
    ((*ORACLE_POINT, "--nmax", "-1"), "n_max must be at least 1"),
    ((*ORACLE_POINT, "--nmax", "17"), "n_max=17 exceeds the supported limit 16"),
    ((*ORACLE_POINT, "--dt", "-1"), "dt must be positive and finite"),
    ((*ORACLE_POINT, "--edge-tol", "2"), "edge_tol must lie in (0, 1)"),
    ((*ORACLE_POINT, "--dt", "1e-7", "--t", "1"),
     "t_final/dt = 1e+07 steps exceeds the limit 1000000"),
)


def test_help_and_argument_errors_never_import_numpy(capsys):
    assert_help(run_child([sys.executable, "-c", NUMPY_FREE, "--help"]))
    for argv, named in (PARSER_ERRORS["unknown-flag"],
                        (("steady", "--eta2", "0"), "steady needs --eta1"),
                        *NUMERIC_REFUSALS):
        proc = run_child([sys.executable, "-c", NUMPY_FREE, *argv])
        assert_one_error_line(proc.returncode, proc.stdout, proc.stderr, named)
        code, _, err = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stderr) == (code, err)


# What a bare start of a CLI loads anyway: argparse, and one parser with one
# subparser.  Prints the names of the loaded modules.
BARE_START = """\
import argparse, sys
argparse.ArgumentParser().add_subparsers().add_parser("x")
print(*sys.modules)
"""

# import ycel.cli, build_parser() and one call of main on argv[1:], then
# the names of the loaded modules on stderr.
CLI_START = """\
import sys
import ycel.cli
ycel.cli.build_parser()
code = ycel.cli.main(sys.argv[1:])
print(*sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_cli_start_path_loads_no_dataclasses_inspect_or_typing(capsys):
    # -S: no site hook loads modules ahead of the ones under test.  The
    # baseline keeps modules that argparse itself loads on some Python
    # from counting against the CLI.
    bare = run_child([sys.executable, "-S", "-c", BARE_START])
    proc = run_child([sys.executable, "-S", "-c", CLI_START, *PREFACTORS_ARGS])
    assert bare.returncode == 0 and proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(capsys, *PREFACTORS_ARGS)[1]
    extra = set(proc.stderr.split()) - set(bare.stdout.split())
    assert {"ycel.cli", "ycel.model", "ycel.serialize"} <= extra
    assert not extra & {"dataclasses", "inspect", "typing"}, sorted(extra)


# import ycel.cli and build_parser(), then one call of main on argv[1:]; on
# stderr, which of json and csv were loaded after build_parser and after main.
JSON_CSV_LOADS = """\
import sys
import ycel.cli
ycel.cli.build_parser()
print(*sorted({"json", "csv"} & set(sys.modules)), file=sys.stderr)
code = ycel.cli.main(sys.argv[1:])
print(*sorted({"json", "csv"} & set(sys.modules)), sep=",", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("form, loaded", [("csv", "csv"), ("json", "json"), ("config", "csv,json")])
def test_json_and_csv_load_with_the_first_document_or_config_that_needs_them(form, loaded,
                                                                             tmp_path, capsys):
    config = tmp_path / "prefactors.json"
    config.write_text(json.dumps({"eta1": 0, "eta2": 0}))
    argv = {"csv": PREFACTORS_ARGS, "json": (*PREFACTORS_ARGS, "--format", "json"),
            "config": ("prefactors", "--config", str(config))}[form]
    proc = run_child([sys.executable, "-S", "-c", JSON_CSV_LOADS, *argv])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"\n{loaded}\n"
    assert proc.stdout == run_cli(capsys, *(PREFACTORS_ARGS if form == "config" else argv))[1]


# Runs main on argv[1:], then prints the warning filters and the modules the
# run loaded, in the order they loaded.
FILTERS_AFTER_RUN = """\
import contextlib, io, sys, warnings
import ycel.cli

before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert ycel.cli.main(sys.argv[1:]) == 0
print(repr(warnings.filters))
print(*[name for name in sys.modules if name not in before])
"""

# Imports the modules named in argv[1:], in that order, then loads the
# oracle's compiled kernels if the oracle is among them, as its integrate
# does, and prints the warning filters.
FILTERS_AFTER_IMPORT = """\
import importlib, sys, warnings
import ycel.cli

for name in sys.argv[1:]:
    importlib.import_module(name)
if "ycel.fock_oracle" in sys.modules:
    sys.modules["ycel.fock_oracle"]._sparsetools()
print(repr(warnings.filters))
"""


@pytest.mark.parametrize("argv", [
    (*EVOLVE_ARGS, "--t", "1"),
    (*EVOLVE_ARGS, "--t", "1", "--route", "ode", "--format", "json"),
    (*STEADY_ARGS, "--format", "json"),
    (*ORACLE_POINT, "--nmax", "2", "--t", "0.1", "--dt", "0.05"),
], ids=["evolve", "evolve-ode", "steady", "oracle"])
def test_a_command_keeps_the_warning_filters_of_the_modules_it_loads(argv):
    # the modules a command loads set their warning filters at import, and
    # the note scopes that collect the command's warnings must not drop them
    run = run_child([sys.executable, "-c", FILTERS_AFTER_RUN, *argv])
    assert run.returncode == 0, run.stderr
    filters, loaded = run.stdout.splitlines()
    assert "numpy" in loaded.split() and {"json", "csv"} & set(loaded.split())
    direct = run_child([sys.executable, "-c", FILTERS_AFTER_IMPORT, *loaded.split()])
    assert direct.returncode == 0, direct.stderr
    assert filters == direct.stdout.rstrip("\n")


def run_call(argv, out_path):
    """Exit code, stdout, stderr and --out file of one main() call, --help included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    written = out_path.read_bytes() if out_path.exists() else None
    out_path.unlink(missing_ok=True)
    return code, out.getvalue(), err.getvalue(), written


def test_parser_built_once_gives_the_documents_of_a_fresh_parser(tmp_path):
    out = tmp_path / "doc.out"
    config = tmp_path / "steady.json"
    config.write_text(json.dumps({"eta1": 0.25, "eta2": 0.25, "A": 0.5}))
    commands = [*ROUND_TRIPS.values(), (*EVOLVE_ARGS, "--t", "2")]
    interludes = [
        ("steady", "--config", str(config), "--backend", "paper-literal", "--out", str(out)),
        PARSER_ERRORS["unknown-flag"][0],
        ("--help",),
        ("sweep", "--help"),
        PARSER_ERRORS["bad-times"][0],
        ("evolve", "--config", str(config), "--format", "json", "--t", "1"),
    ]
    calls = []
    for argv, interlude in zip(commands, interludes, strict=True):
        calls += [(*argv, "--format", "csv"), (*argv, "--format", "json", "--out", str(out)),
                  interlude]
    assert build_parser() is build_parser()
    reused = [run_call(argv, out) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_call(argv, out))
    assert reused == fresh
    assert [code for code, *_ in reused].count(2) == 2
    assert all(code == 0 for code, *_ in reused if code != 2)


def run_full_parser(argv, out_path):
    """run_call's result by the full parser, then the command's function."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = build_parser().parse_args(_attach_negative_numbers(list(argv)))
            text = args.func(args)
        except (PreparationError, ConfigurationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except YcelError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 3
        except SystemExit as exc:
            code = exc.code
        else:
            if args.out:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            code = 0
    written = out_path.read_bytes() if out_path.exists() else None
    out_path.unlink(missing_ok=True)
    return code, out.getvalue(), err.getvalue(), written


# Command lines around the commands' own: help, no command, unknown
# commands, options ahead of the command, abbreviated, ambiguous and
# unknown flags, '--' forms, a stray positional and a separate negative
# value.
EDGE_ARGVS = [
    (), ("--help",), ("-h", "steady"), ("bogus",), ("stead", "--eta1", "0"), ("Steady",),
    ("--format", "json", *STEADY_ARGS), ("--", *STEADY_ARGS), ("steady",),
    *[(command, "--help") for command in COMMANDS],
    (*STEADY_ARGS, "--back", "paper-literal"), (*STEADY_ARGS, "--form=json"),
    ("evolve", "--eta", "0", "--t", "1"), (*STEADY_ARGS, "--bogus", "-h"),
    ("steady", "-h", "--bogus"), (*STEADY_ARGS, "stray"), (*STEADY_ARGS, "--"),
    ("steady", "--", "--eta1", "0", "--eta2", "0"), (*STEADY_ARGS, "--", "stray"),
    ("steady", "--eta1", "-0.25", "--eta2", "0.25", "--A=0.5"),
]


def test_main_gives_the_results_and_namespaces_of_the_full_parser(tmp_path, monkeypatch):
    # each command hands its namespace to _resolve first, whichever of the
    # flag table and argparse parsed its line
    namespaces = []
    resolve = ycel.cli._resolve

    def recording_resolve(args):
        namespaces.append(dict(vars(args)))
        return resolve(args)

    monkeypatch.setattr(ycel.cli, "_resolve", recording_resolve)
    out = tmp_path / "doc.out"
    config = tmp_path / "steady.json"
    assert main([*ROUND_TRIPS["steady"], "--format", "json", "--out", str(config)]) == 0
    calls = [("steady", "--config", str(config), "--eta1", "0.2")]
    for argv in (*ROUND_TRIPS.values(), (*EVOLVE_ARGS, "--t", "2")):
        calls += [(*argv, "--format", fmt, "--out", str(out)) for fmt in ("csv", "json")]
    calls += [argv for argv, _ in PARSER_ERRORS.values()] + EDGE_ARGVS
    parsed = 0
    for argv in calls:
        namespaces.clear()
        new = run_call(argv, out), namespaces[:]
        namespaces.clear()
        old = run_full_parser(argv, out), namespaces[:]
        assert new == old, argv
        parsed += bool(namespaces)
    assert parsed >= 13


# main resolves a line of exact long options through each command's flag
# table and leaves every other line to argparse.  The lines below are drawn
# from a command's option strings, whole and abbreviated, in the '=' and
# separate forms and bare, with values their type and choices take or
# refuse, mixed with help flags, positionals and '--'.  Wherever the table
# gives a namespace, argparse must give the same one (NaN compared by repr).
BAD_VALUES = st.sampled_from(["--", "-", "", "-x", "--eta1", "-0.5", "-inf", "nan", "1e999",
                              "abc", "0,a", " 1", "1_0", "xml", "json", "paper-literal"])
STRAY_TOKENS = st.sampled_from(["-h", "--help", "stray", "--", "-", "-0.5", "-5", "--bogus"])


def flag_values(action):
    """Value texts for a flag: ones its type and choices take, and ones not."""
    if action.choices is not None:
        good = st.sampled_from(list(action.choices))
    elif action.type is float:
        good = st.floats().map(repr) | st.integers(-10, 10).map(str)
    elif action.type is int:
        good = st.integers(-10, 10).map(str)
    elif action.type is not None:  # the comma-separated time list
        good = st.lists(st.floats(allow_nan=False), max_size=3).map(
            lambda values: ",".join(map(repr, values)))
    else:
        good = st.sampled_from(["doc.out", "21x21", "-1:1", "a=b", "0:0.5"])
    return good | BAD_VALUES


def flag_tokens(option, action):
    """One flag's tokens: exact or abbreviated, bare, 'flag=value' or 'flag value'."""
    names = st.just(option) | st.sampled_from([option[:-1], option[:5]])
    values = flag_values(action)
    forms = [names.map(lambda name: [name]),
             st.tuples(names, values).map(lambda drawn: ["=".join(drawn)]),
             st.tuples(names, values).map(list)]
    # the form the flag takes is drawn twice as often: bare for a
    # store_const flag, 'flag=value' otherwise
    return st.one_of(*forms, forms[0 if action.nargs == 0 else 1])


def command_lines(command):
    flags = build_parser().commands[command].flags
    tokens = st.one_of(*(flag_tokens(option, action) for option, action in flags.items()))
    return st.lists(tokens | STRAY_TOKENS.map(lambda token: [token]), max_size=5).map(
        lambda parts: _attach_negative_numbers([token for part in parts for token in part]))


def by_repr(namespace):
    return {key: repr(value) for key, value in vars(namespace).items()}


@pytest.mark.parametrize("command", COMMANDS)
def test_flag_table_gives_the_namespace_of_argparse(command):
    parser = build_parser().commands[command]
    accepted = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(line=command_lines(command))
    @example(line=["--out=--"])  # argparse reads this '--' as no value, not as a path
    @example(line=["--format=json", "--format", "csv", "--out=a b"])
    def check(line):
        table = _parse_exact(parser, line)
        if table is None:
            return
        accepted.append(line)
        try:
            full = parser.parse_args(line)
        except (ConfigurationError, SystemExit) as exc:
            pytest.fail(f"argparse refused {line!r} that the table took: {exc!r}")
        assert by_repr(table) == by_repr(full), line

    check()
    assert len(accepted) >= 30


def test_flag_table_leaves_argparse_the_lines_it_does_not_resolve():
    parser = build_parser().commands["sweep"]
    for line in (["--out=--"], ["--out", "--"], ["--out"], ["--out", "-x"], ["--no-optimize=1"],
                 ["--eta-gr", "3x3"], ["--A", "-0.5"], ["-h"], ["stray"], ["--", "--A=1"],
                 ["--A=x"], ["--format=xml"]):
        assert _parse_exact(parser, line) is None, line
    assert vars(_parse_exact(parser, ["--A=-0.5", "--no-optimize", "--A=2"])) == vars(
        parser.parse_args(["--A=-0.5", "--no-optimize", "--A=2"]))


# One line per kind of call the benchmark makes, each with --format json
# --out: main must give its document without calling argparse.
EXACT_LINES = {
    "prefactors": ["prefactors", "--eta1=0.1", "--eta2=0.25", "--A=0.5"],
    "evolve": ["evolve", "--eta1=0.1", "--eta2=0.25", "--A=0.5", "--t=5.0"],
    "steady": ["steady", "--eta1=0.1", "--eta2=0.25", "--A=0.5"],
    "oracle": ["oracle", "--eta1=0.0", "--eta2=0.0", "--A=0.5", "--nmax=3", "--dt=0.05",
               "--edge-tol=0.001", "--times=0.25,0.5"],
    "sweep": ["sweep", "--eta-grid", "3x3", "--A=0.5", "--at-time=5.0", "--no-optimize"],
}


@pytest.mark.parametrize("command", sorted(EXACT_LINES))
def test_benchmark_lines_are_parsed_without_argparse(command, tmp_path, monkeypatch):
    out = tmp_path / "doc.json"
    argv = [*EXACT_LINES[command], "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    document = out.read_bytes()
    out.unlink()

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a line of exact long options")

    for parser in build_parser().commands.values():
        monkeypatch.setattr(parser, "parse_args", refuse)
    assert main(argv) == 0
    assert out.read_bytes() == document


# Property check of the refusals above: every malformed value argparse still
# parses as a number, and every mistyped or out-of-range --config value,
# exits 2 with one error line.  Only malformed values are drawn, so no
# example can start a real run.
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=-1e-12, allow_infinity=False)
NON_POSITIVE = NEGATIVE | st.sampled_from([0.0, -0.0])
OUTSIDE_TRIANGLE = st.floats(min_value=1.5, max_value=1e300) | st.floats(
    min_value=-1e300, max_value=-1.5
)
BAD_RATE = NON_FINITE | NON_POSITIVE
BAD_TIMES = st.tuples(
    st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=2),
    NON_FINITE | NEGATIVE,
).map(lambda drawn: sorted(drawn[0]) + [drawn[1]])

POINT_COMMANDS = ("prefactors", "evolve", "steady", "oracle")
TIMED_COMMANDS = ("evolve", "oracle")
ALL_COMMANDS = (*POINT_COMMANDS, "sweep")
FUZZ_PARAMS = {
    "prefactors": {"eta1": 0.0, "eta2": 0.0},
    "evolve": {"eta1": 0.0, "eta2": 0.0, "t": 1.0},
    "steady": {"eta1": 0.0, "eta2": 0.0},
    "oracle": {"eta1": 0.0, "eta2": 0.0, "nmax": 2, "t": 0.1, "dt": 0.05,
               "check_convergence": False},
    "sweep": {"eta_grid": "2x2"},
}
RATE_TRIO = {"r_a": 1.0, "g": 1.0, "gamma": 100.0}

# key -> (commands taking it, malformed numbers a flag or a config can carry)
MALFORMED_NUMBERS = {
    "eta1": (POINT_COMMANDS, NON_FINITE | OUTSIDE_TRIANGLE),
    "eta2": (POINT_COMMANDS, NON_FINITE | OUTSIDE_TRIANGLE),
    "kappa": (ALL_COMMANDS, BAD_RATE),
    "A": (ALL_COMMANDS, BAD_RATE),
    "r_a": (POINT_COMMANDS, BAD_RATE),
    "g": (POINT_COMMANDS, BAD_RATE),
    "gamma": (POINT_COMMANDS, BAD_RATE),
    "t": (TIMED_COMMANDS, BAD_RATE),
    "times": (TIMED_COMMANDS, BAD_TIMES),
    "at_time": (("sweep",), NON_FINITE | NEGATIVE),
    "dt": (("oracle",), BAD_RATE),
    "edge_tol": (("oracle",), BAD_RATE | st.floats(min_value=1.0, max_value=1e300)),
    "nmax": (("oracle",), st.integers(max_value=0) | st.integers(min_value=17)),
    "samples": (TIMED_COMMANDS, st.integers(max_value=0)),
}

NOT_A_NUMBER = st.text(max_size=3) | st.booleans() | st.lists(st.integers(), max_size=2)
NOT_A_BOOL = st.integers() | st.text(max_size=3) | st.floats()
NOT_A_STRING = st.integers() | st.floats() | st.booleans()
NOT_A_LIST = NOT_A_STRING | st.text(max_size=3)
# key -> (commands taking it, values of the wrong type or out of range)
MALFORMED_CONFIG = {
    **{key: (commands, NOT_A_NUMBER | bad)
       for key, (commands, bad) in MALFORMED_NUMBERS.items()},
    "nmax": (("oracle",), MALFORMED_NUMBERS["nmax"][1] | NOT_A_NUMBER | st.floats()),
    "samples": (TIMED_COMMANDS, MALFORMED_NUMBERS["samples"][1] | NOT_A_NUMBER | st.floats()),
    "times": (TIMED_COMMANDS, BAD_TIMES | st.lists(NOT_A_NUMBER, min_size=1, max_size=2)
              | NOT_A_LIST),
    "check_convergence": (("oracle",), NOT_A_BOOL),
    "optimize": (("sweep",), NOT_A_BOOL),
    "backend": (("evolve", "steady", "sweep"), NOT_A_STRING | st.text(max_size=12).filter(
        lambda v: v not in ("ehrenfest", "paper-literal"))),
    "route": (("evolve",), NOT_A_STRING | st.text(max_size=12).filter(
        lambda v: v not in ("closed-form", "ode"))),
    "units": (ALL_COMMANDS, NOT_A_STRING | st.text(max_size=12).filter(
        lambda v: v not in ("kappa", "absolute"))),
    "eta_grid": (("sweep",), NOT_A_STRING | st.sampled_from(
        ["", "2", "0x2", "2x0", "-1x2", "2x2x2", "ax2", "2.5x2"])),
    **{key: (("sweep",), NOT_A_STRING | st.sampled_from(
        ["", "1", "1:0", "a:b", "0:1:2", "0:inf", "-inf:0", "nan:1", "0:nan"]))
       for key in ("eta1_range", "eta2_range")},
}


def draw_case(table):
    """(command, key, value) for one key of ``table`` and one command taking it."""
    return st.sampled_from(sorted(table)).flatmap(
        lambda key: st.tuples(st.sampled_from(table[key][0]), st.just(key), table[key][1])
    )


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def as_flag(key, value):
    flag = "--" + key.replace("_", "-")
    if key == "times":
        return f"{flag}={','.join(repr(v) for v in value)}"
    return f"{flag}={value if isinstance(value, str) else repr(value)}"


def fuzz_argv(command, extra):
    """A valid command line for ``command`` with the ``extra`` params added."""
    params = {**FUZZ_PARAMS[command], **extra}
    argv = [command, *(as_flag(k, v) for k, v in params.items() if k != "check_convergence")]
    return argv + ["--no-convergence-check"] if command == "oracle" else argv


def write_config(path, command, extra):
    path.write_text(json.dumps({"command": command, "params": {**FUZZ_PARAMS[command], **extra}}))
    return path


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_fuzz_base_runs_succeed(command, tmp_path):
    # the property tests below change one value of these runs, so each
    # refusal they see comes from that value
    for extra in ({}, RATE_TRIO) if command != "sweep" else ({},):
        assert run_quietly(fuzz_argv(command, extra))[0] == 0
        cfg = write_config(tmp_path / "cfg.json", command, extra)
        assert run_quietly([command, "--config", str(cfg)])[0] == 0


FUZZ_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@FUZZ_SETTINGS
@given(draw_case(MALFORMED_NUMBERS))
def test_malformed_numeric_flag_exits_2(case):
    command, key, value = case
    argv = fuzz_argv(command, RATE_TRIO if key in RATE_TRIO else {})
    code, out, err = run_quietly([*argv, as_flag(key, value)])
    assert_one_error_line(code, out, err)


@FUZZ_SETTINGS
@given(case=draw_case(MALFORMED_CONFIG))
def test_malformed_config_value_exits_2(case, tmp_path_factory):
    command, key, value = case
    extra = {**(RATE_TRIO if key in RATE_TRIO else {}), key: value}
    cfg = write_config(tmp_path_factory.getbasetemp() / "fuzz_config.json", command, extra)
    code, out, err = run_quietly([command, "--config", str(cfg)])
    assert_one_error_line(code, out, err)


# A kappa-unit line runs at kappa = 1, so no number of its document depends
# on --kappa: the same line at two kappas exits alike and prints the same
# document but for the recorded kappa, or the same error.
def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# entered times: moderate ones, and ones that any kappa above 1 would scale
# to the subnormal range or to 0
KAPPA_TIMES = log_uniform(-3, 2) | log_uniform(-323.5, -290) | log_uniform(-290, -3)
PREPARATIONS = st.tuples(st.sampled_from([-0.5, -0.2, 0.0, 0.1, 0.25, 0.5, 1.0]),
                         st.sampled_from([-0.3, 0.0, 0.2, 0.25, 0.5])).map(
    lambda eta: ("--eta1", repr(eta[0]), "--eta2", repr(eta[1])))
GAINS = st.tuples(st.just("--A"), log_uniform(-3, 1)).map(lambda g: (g[0], repr(g[1])))
RATES = GAINS | st.tuples(log_uniform(-1, 1), log_uniform(-1, 1), log_uniform(0, 2)).map(
    lambda r: ("--r-a", repr(r[0]), "--g", repr(r[1]), "--gamma", repr(r[2])))
SAMPLES = st.one_of(
    st.lists(KAPPA_TIMES, min_size=1, max_size=3).map(
        lambda ts: ("--times", ",".join(map(repr, sorted(ts))))),
    st.tuples(KAPPA_TIMES, st.integers(1, 5)).map(
        lambda d: ("--t", repr(d[0]), "--samples", str(d[1]))),
)
BACKENDS = st.sampled_from(["ehrenfest", "paper-literal"]).map(lambda b: ("--backend", b))
# a cheap oracle: cutoff 3 and at most 60 steps of 0.05
ORACLE_TIMES = log_uniform(-3, 0.45) | log_uniform(-323.5, -290)


def joined(command, *parts):
    return st.tuples(*parts).map(lambda drawn: [command, *(x for p in drawn for x in p)])


KAPPA_LINES = st.one_of(
    joined("prefactors", PREPARATIONS, RATES),
    joined("evolve", PREPARATIONS, RATES, SAMPLES, BACKENDS),
    joined("steady", PREPARATIONS, RATES, BACKENDS),
    joined("oracle", PREPARATIONS, RATES, ORACLE_TIMES.map(lambda t: ("--t", repr(t))),
           st.just(("--nmax", "3", "--edge-tol", "0.1", "--dt", "0.05", "--samples", "2",
                    "--no-convergence-check"))),
    joined("sweep", GAINS, KAPPA_TIMES.map(lambda t: ("--at-time", repr(t))), BACKENDS,
           st.just(("--eta-grid", "3x3", "--eta1-range", "0:0.5", "--eta2-range", "0:0.5"))),
).map(lambda argv: [*argv, "--format", "json"])


# a paper-literal sweep warns of negative occupations on stderr
QUIET_SWEEP = pytest.mark.filterwarnings("ignore::ycel.dynamics.NegativeOccupationWarning")


@QUIET_SWEEP
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(argv=KAPPA_LINES, kappas=st.tuples(log_uniform(-300, 300), log_uniform(-300, 300)))
# an earlier time below the normal range, and one that the second kappa
# would have scaled below it
@example(argv=[*EVOLVE_ARGS, "--times", "1e-320,1", "--format", "json"], kappas=(1.0, 1e10))
@example(argv=[*EVOLVE_ARGS, "--times", "1e-300,1", "--format", "json"], kappas=(1.0, 1e10))
# the gain and the time past which kappa-scaled moments left the range
@example(argv=["evolve", "--eta1", "0.1", "--eta2", "0.25", "--A", "1", "--times", "1,100",
               "--format", "json"], kappas=(1.0, 1e-103))
@example(argv=["steady", "--eta1", "0.1", "--eta2", "0.25", "--A", "1", "--format", "json"],
         kappas=(1e-110, 1e200))
def test_kappa_unit_documents_do_not_depend_on_kappa(argv, kappas):
    runs = [run_quietly([*argv, "--kappa", repr(kappa)]) for kappa in kappas]
    # warnings a successful run sends to stderr are printed once per process
    (code, out, err), other = ((c, o, e if c else "") for c, o, e in map(kappa_free, runs))
    assert (code, out, err) == other
    assert code in (0, 2, 3), err


# Every command in kappa units, at an extreme --kappa, --A, time or step:
# the line runs, or refuses with one error line, and never raises.
EXTREMES = (log_uniform(-323.5, -300) | log_uniform(-300, 300) | log_uniform(300, 308.2)
            | log_uniform(-3, 1))
EXTREME_LINES = st.one_of(
    joined("prefactors", PREPARATIONS,
           EXTREMES.map(lambda a: ("--A", repr(a)))),
    joined("evolve", PREPARATIONS, EXTREMES.map(lambda a: ("--A", repr(a))),
           st.lists(EXTREMES, min_size=1, max_size=3).map(
               lambda ts: ("--times", ",".join(map(repr, sorted(ts))))), BACKENDS),
    joined("evolve", PREPARATIONS, EXTREMES.map(lambda a: ("--A", repr(a))),
           EXTREMES.map(lambda t: ("--t", repr(t), "--samples", "3")),
           st.sampled_from([("--route", "closed-form"), ("--route", "ode")])),
    joined("steady", PREPARATIONS, EXTREMES.map(lambda a: ("--A", repr(a))), BACKENDS),
    # t/dt beyond the oracle's step limit is refused; a moderate pair takes
    # at most 100 steps at cutoff 2
    joined("oracle", PREPARATIONS, EXTREMES.map(lambda a: ("--A", repr(a))),
           st.tuples(log_uniform(-323.5, -290) | log_uniform(-3, 0) | log_uniform(290, 308.2),
                     log_uniform(-323.5, -290) | log_uniform(-2, 0) | log_uniform(290, 308.2)
                     ).map(lambda d: ("--t", repr(d[0]), "--dt", repr(d[1]))),
           st.just(("--nmax", "2", "--samples", "2", "--no-convergence-check"))),
    joined("sweep", EXTREMES.map(lambda a: ("--A", repr(a))),
           st.one_of(st.just(()), EXTREMES.map(lambda t: ("--at-time", repr(t)))),
           st.just(("--eta-grid", "3x3", "--eta1-range", "0:0.5", "--eta2-range", "0:0.5"))),
)


@QUIET_SWEEP
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=EXTREME_LINES, kappa=log_uniform(-300, 300))
def test_extreme_kappa_unit_lines_exit_0_2_or_3(argv, kappa):
    code, out, err = run_quietly([*argv, "--kappa", repr(kappa)])
    assert code in (0, 2, 3), err
    if code:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: "), err
