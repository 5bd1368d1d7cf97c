"""The batched sweep against a row-by-row loop over the public scalar calls.

Every float is compared bit for bit (through float.hex, which tells -0.0
from 0.0), every failure string and every warning exactly and in order.
The grids hold unstable drifts, near-marginal drifts whose steady solve is
singular or inaccurate, the defective line eta1 + eta2 = 0.5, horizon
overflows and the paper-literal covariances whose x block is not positive
definite, and they span several chunks of the batched pass.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from ycel import (
    SweepPoint,
    YcelError,
    covariance_from_moments,
    drift_matrix,
    evolve_second_moments,
    is_stable,
    optimize_gains,
    prefactors_from_inversions,
    steady_state_moments,
    sweep,
    validate_physical,
    vlf_evaluate,
)
from ycel import entanglement

# Exactly on the defective line: 0.1 + 0.4, 0.25 + 0.25 and 0 + 0.5 all
# round to 0.5.
ON_THE_LINE = [0.0, 0.1, 0.25, 0.4, 0.5]


def grid(n):
    return sorted({float(v) for v in np.linspace(-1.0, 1.0, n)} | set(ON_THE_LINE))


def scalar_sweep(eta1_values, eta2_values, *, gain_scale, backend, at_time, optimize):
    points = []
    for e1 in eta1_values:
        for e2 in eta2_values:
            if not validate_physical(e1, e2).valid:
                continue
            pref = prefactors_from_inversions(e1, e2, gain_scale)
            report = is_stable(drift_matrix(pref, 1.0))
            try:
                if at_time is None:
                    moments = steady_state_moments(pref, 1.0, backend=backend)
                else:
                    moments = evolve_second_moments(pref, 1.0, at_time, backend=backend)
                cov = covariance_from_moments(moments)
                vlf = optimize_gains(cov) if optimize else vlf_evaluate(cov)
            except YcelError as exc:
                points.append(SweepPoint(e1, e2, pref, report.stable, report.margin,
                                         None, None, str(exc)))
            else:
                points.append(SweepPoint(e1, e2, pref, report.stable, report.margin,
                                         moments, vlf))
    return tuple(points)


def exact(value):
    """A comparable image of a result in which floats are compared bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                *(exact(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, tuple):
        return tuple(exact(v) for v in value)
    return value


def run(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return exact(out), [(w.category.__name__, str(w.message)) for w in caught]


def assert_equivalent(values, **kwargs):
    batched, batched_warnings = run(sweep, values, values, **kwargs)
    scalar, scalar_warnings = run(scalar_sweep, values, values, **kwargs)
    assert len(batched) == len(scalar)
    for got, want in zip(batched, scalar):
        assert got == want
    assert batched_warnings == scalar_warnings
    return batched


# (gain_scale, at_time): steady states at A = 2 hold unstable and
# near-marginal points; at A = 3.5 and t = 400 some unstable drifts
# overflow the horizon and others grow a covariance that is not positive
# definite on both backends.
MODES = {"steady": (2.0, None), "at-time": (3.5, 400.0)}


@pytest.mark.parametrize("optimize", [True, False], ids=["optimize", "no-optimize"])
@pytest.mark.parametrize("backend", ["ehrenfest", "paper-literal"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_batched_sweep_matches_scalar_calls(mode, backend, optimize, monkeypatch):
    # a small chunk puts several chunk boundaries inside this grid
    monkeypatch.setattr(entanglement, "_SWEEP_CHUNK", 37)
    gain_scale, at_time = MODES[mode]
    points = assert_equivalent(grid(17), gain_scale=gain_scale, backend=backend,
                               at_time=at_time, optimize=optimize)
    failures = " ".join(p[-1] or "" for p in points)
    assert len(points) == 149
    if mode == "steady":
        for needle in ("no steady state", "singular", "residual"):
            assert needle in failures
    else:
        assert "overflows" in failures
    if optimize and (backend == "paper-literal" or mode == "at-time"):
        assert "x block is not positive definite" in failures


def test_batched_sweep_matches_scalar_calls_past_one_chunk():
    points = assert_equivalent(grid(33), gain_scale=2.0, backend="paper-literal",
                               at_time=None, optimize=True)
    assert len(points) > entanglement._SWEEP_CHUNK
    assert sum(float.fromhex(p[1]) + float.fromhex(p[2]) == 0.5 for p in points) >= 5
    failures = " ".join(p[-1] or "" for p in points)
    for needle in ("no steady state", "x block is not positive definite"):
        assert needle in failures


@pytest.mark.parametrize("backend", ["ehrenfest", "paper-literal"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_batched_sweep_matches_scalar_calls_one_point_per_chunk(mode, backend, monkeypatch):
    # every refused point then fills a chunk on its own: the stacked solve,
    # exponential and witnesses see empty stacks
    monkeypatch.setattr(entanglement, "_SWEEP_CHUNK", 1)
    gain_scale, at_time = MODES[mode]
    points = assert_equivalent(grid(17), gain_scale=gain_scale, backend=backend,
                               at_time=at_time, optimize=True)
    failures = " ".join(p[-1] or "" for p in points)
    assert ("no steady state" if mode == "steady" else "overflows") in failures


def test_sweep_of_only_overflowing_points():
    # margin 0.5 - 3.5/6 < 0, and 2 * 0.083 * 1e4 overflows the horizon
    points = assert_equivalent([0.0], gain_scale=3.5, backend="ehrenfest",
                               at_time=1e4, optimize=True)
    assert len(points) == 1
    assert "overflows" in points[0][-1]
