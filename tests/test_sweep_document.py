"""The `ycel sweep` document against one rendered from the scalar public calls.

The expected document is built the way a reader would build it by hand: a
loop over the grid through validate_physical, prefactors_from_inversions,
the eigensolver margin of is_stable(drift_matrix(...)), the steady or
fixed-time moments, the covariance and the witness, rendered with the same
serializers.  The CLI's bytes must equal it, in both formats and on both
backends.  The grids hold unstable, exactly marginal and overflowing
points, covariances whose x block is not positive definite, and points
within the boundary tolerance of the physical triangle.
"""

import math
import warnings
from fractions import Fraction

import pytest

from ycel import (
    BIPARTITIONS,
    YcelError,
    covariance_from_moments,
    drift_matrix,
    evolve_second_moments,
    is_stable,
    optimize_gains,
    prefactors_from_inversions,
    steady_state_moments,
    validate_physical,
    vlf_evaluate,
)
from ycel.cli import MOMENT_COLUMNS, main
from ycel.serialize import csv_document, json_document

COLUMNS = ["eta1", "eta2", "status", "margin", *MOMENT_COLUMNS]
for _bip in BIPARTITIONS:
    COLUMNS += [f"ratio_{_bip.name}", f"violated_{_bip.name}"]
COLUMNS += ["fully_inseparable", "failure"]


def axis(text, n):
    """n coordinates from lo to hi, each the float nearest its exact value."""
    lo, hi = (Fraction(float(v)) for v in text.split(":"))
    return [float(lo + i * (hi - lo) / max(n - 1, 1)) for i in range(n)]


def scalar_row(e1, e2, gain, backend, at_time, optimize):
    pref = prefactors_from_inversions(e1, e2, gain)
    margin = is_stable(drift_matrix(pref, 1.0)).margin
    try:
        if at_time is None:
            m = steady_state_moments(pref, 1.0, backend=backend)
        else:
            m = evolve_second_moments(pref, 1.0, at_time, backend=backend)
        cov = covariance_from_moments(m)
        report = optimize_gains(cov) if optimize else vlf_evaluate(cov)
    except YcelError as exc:
        return [e1, e2, "invalid", margin, *[math.nan] * 6,
                *[math.nan, ""] * len(BIPARTITIONS), "", str(exc)]
    row = [e1, e2, "valid", margin, *m.as_tuple()]
    for bip in BIPARTITIONS:
        rec = report.record(bip.name)
        row += [rec.ratio, rec.violated]
    return row + [report.fully_inseparable, ""]


def scalar_document(fmt, grid="21x21", eta1_range="-1:1", eta2_range="-1:1", A=1.0,
                    backend="ehrenfest", at_time=None, optimize=True):
    n1, n2 = (int(n) for n in grid.split("x"))
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for e1 in axis(eta1_range, n1):
            for e2 in axis(eta2_range, n2):
                if validate_physical(e1, e2).valid:
                    rows.append(scalar_row(e1, e2, A, backend, at_time, optimize))
    params = {"eta_grid": grid, "eta1_range": eta1_range, "eta2_range": eta2_range, "A": A,
              "kappa": 1.0, "units": "kappa", "backend": backend, "at_time": at_time,
              "optimize": optimize}
    if fmt == "json":
        return json_document("sweep", params, {"columns": COLUMNS, "rows": rows}), rows
    return csv_document("sweep", params, COLUMNS, rows), rows


def cli_document(tmp_path, fmt, grid="21x21", eta1_range="-1:1", eta2_range="-1:1", A=1.0,
                 backend="ehrenfest", at_time=None, optimize=True):
    out = tmp_path / f"sweep.{fmt}"
    argv = ["sweep", "--eta-grid", grid, f"--eta1-range={eta1_range}",
            f"--eta2-range={eta2_range}", "--A", repr(A), "--backend", backend,
            "--format", fmt, "--out", str(out)]
    if at_time is not None:
        argv += ["--at-time", repr(at_time)]
    if not optimize:
        argv.append("--no-optimize")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 0
    return out.read_text(encoding="utf-8")


def assert_documents_match(tmp_path, fmt, **case):
    want, rows = scalar_document(fmt, **case)
    assert cli_document(tmp_path, fmt, **case) == want
    return want, rows


# (A, at_time): steady states at A = 2 hold unstable points and exactly
# marginal ones (eta1 + eta2 = -0.25), and the defective line eta1 + eta2 =
# 0.5; at A = 3.5 and t = 400 some unstable drifts overflow the horizon and
# others grow a covariance that is not positive definite.
MODES = {"steady": (2.0, None), "at-time": (3.5, 400.0)}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("optimize", [True, False], ids=["optimize", "no-optimize"])
@pytest.mark.parametrize("backend", ["ehrenfest", "paper-literal"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_sweep_document_matches_scalar_calls(mode, backend, optimize, fmt, tmp_path):
    A, at_time = MODES[mode]
    doc, _ = assert_documents_match(tmp_path, fmt, grid="17x17", A=A, backend=backend,
                                    at_time=at_time, optimize=optimize)
    if mode == "steady":
        assert "no steady state: drift margin 0 <= 0" in doc
    else:
        assert "overflows" in doc
    if optimize and (backend == "paper-literal" or mode == "at-time"):
        assert "x block is not positive definite" in doc


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case, edge", [
    pytest.param({"grid": "5x5", "eta1_range": "0:1.000000000003",
                  "eta2_range": "0:1.000000000003"}, (1.000000000003, 1.000000000003),
                 id="rho00-above-1"),
    pytest.param({"grid": "2x1", "eta1_range": "-2.9e-12:0.5",
                  "eta2_range": "0.5:0.5"}, (-2.9e-12, 0.5), id="rho22-below-0"),
])
def test_sweep_document_within_the_boundary_tolerance(case, edge, fmt, tmp_path):
    # the point just outside the exact triangle gets its own valid row
    _, rows = assert_documents_match(tmp_path, fmt, **case)
    assert [row[2] for row in rows if tuple(row[:2]) == edge] == ["valid"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", [{"grid": "3x3", "A": 1e300},
                                  {"grid": "3x3", "A": 1e300, "at_time": 1.0}],
                         ids=["gain", "time"])
def test_sweep_document_beyond_the_float_range(case, fmt, tmp_path):
    doc, _ = assert_documents_match(tmp_path, fmt, **case)
    assert "leave the floating-point range" in doc
