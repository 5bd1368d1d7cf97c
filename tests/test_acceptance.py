"""Acceptance checklist.

Each test covers one numbered criterion and prints one summary line; run
with -v (or -s) to see a pass/fail line per criterion.  The Fock-space
runs are shared between criteria through a module-scoped cache, so the
whole file stays well under the runtime budget.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from ycel.dynamics import (
    NegativeOccupationWarning,
    SecondMoments,
    drift_matrix,
    evolve_first_moments,
    is_stable,
    second_moment_trajectory,
    steady_state_moments,
)
from ycel.entanglement import (
    BIPARTITIONS,
    covariance_from_moments,
    optimize_gains,
    vlf_evaluate,
)
from ycel.fock_oracle import DensityState, FockConfig, integrate
from ycel.model import prefactors_from_inversions, validate_physical

KAPPA = 1.0
ORACLE_TIMES = (1.0, 5.0, 20.0)
# per-point truncation depth and step giving edge population < 1e-6 by t=20
ORACLE_SETUP = {
    (0.0, 0.0): (8, 0.04),
    (0.25, 0.25): (7, 0.05),
    (-0.5, -0.5): (13, 0.04),
    (0.0, 0.5): (9, 0.04),
}


def pref(eta1, eta2, a=0.5):
    return prefactors_from_inversions(eta1, eta2, gain_scale=a)


def max_rel(a: SecondMoments, b: SecondMoments) -> float:
    va, vb = np.array(a.as_tuple()), np.array(b.as_tuple())
    scale = np.abs(vb).max()
    return float(np.abs(va - vb).max() / scale) if scale else float(np.abs(va).max())


@pytest.fixture(scope="module")
def oracle_runs():
    runs = {}
    for (eta1, eta2), (n_max, dt) in ORACLE_SETUP.items():
        cfg = FockConfig(n_max=n_max, dt=dt, t_final=ORACLE_TIMES[-1], edge_tol=1e-6)
        runs[(eta1, eta2)] = integrate(
            DensityState.vacuum(n_max),
            cfg,
            pref(eta1, eta2),
            KAPPA,
            sample_times=list(ORACLE_TIMES),
        )
    return runs


def test_criterion_01_prefactor_fixtures():
    cases = {
        (1.0, 1.0): {"loss1": 0.5},
        (0.0, 0.0): {k: 1 / 6 for k in
                     ("gain3", "gain2", "loss1", "cross32", "cross31", "cross21")},
        (-0.5, -0.5): {"gain3": 0.25, "gain2": 0.25, "cross32": 0.25},
        (0.0, 0.5): {"gain3": 0.25, "loss1": 0.25, "cross31": 0.25},
    }
    for (eta1, eta2), expected in cases.items():
        p = pref(eta1, eta2)
        for name in ("gain3", "gain2", "loss1", "cross32", "cross31", "cross21"):
            assert getattr(p, name) == pytest.approx(expected.get(name, 0.0), abs=1e-12), (
                f"{name} at ({eta1}, {eta2})"
            )
    # the (0, 0.5) vanishing set is {gain2, cross32, cross21}; cross31 stays
    # at 1/4 because it is the geometric mean of gain3 and loss1
    p = pref(0.0, 0.5)
    assert p.cross31 == pytest.approx(0.25, abs=1e-12)
    assert (p.gain2, p.cross32, p.cross21) == (0.0, 0.0, 0.0)
    print("criterion 1: PASS prefactor fixtures at the four reference preparations")


def test_criterion_02_prefactor_identities():
    grid = np.linspace(-1.0, 1.0, 101)
    checked = 0
    worst = 0.0
    for eta1 in grid:
        for eta2 in grid:
            if not validate_physical(float(eta1), float(eta2)).valid:
                continue
            p = pref(float(eta1), float(eta2))
            worst = max(
                worst,
                abs(p.gain3 + p.gain2 + p.loss1 - 0.5),
                abs(p.cross32 - math.sqrt(p.gain3 * p.gain2)),
                abs(p.cross31 - math.sqrt(p.gain3 * p.loss1)),
                abs(p.cross21 - math.sqrt(p.gain2 * p.loss1)),
            )
            checked += 1
    assert checked > 3000
    assert worst < 1e-12
    print(f"criterion 2: PASS identities on {checked} triangle points, max residue {worst:.3g}")


def propagator_of(p, t):
    """P(t) = exp(-M t), column by column through the live mean-amplitude map."""
    return np.column_stack([evolve_first_moments(p, KAPPA, e, t) for e in np.eye(3)])


def test_criterion_03_drift_and_propagator():
    rng = np.random.default_rng(7)
    points = [(0.3, 0.1, 0.7), (-0.2, 0.4, 0.3), (0.1, -0.5, 1.2), (0.6, 0.6, 0.9)]
    while len(points) < 12:
        eta1, eta2 = rng.uniform(-1, 1, size=2)
        if validate_physical(eta1, eta2).valid:
            points.append((eta1, eta2, rng.uniform(0.1, 1.5)))
    points.append((0.25, 0.25, 0.5))  # defective drift: no eigenbasis exists
    # Each entry of P agrees with scipy's expm within expm_tol (relative to
    # max(1, |P|)), so a five-point central difference of step h misses
    # dP/dt = -M P by at most h^4/30 sup|M^5 P| plus 18 expm_tol / (12 h).
    expm_tol, h, t_d = 1e-13, 2e-3, 1.0
    worst_id = worst_semi = worst_expm = worst_deriv = 0.0
    for eta1, eta2, a in points:
        p = pref(eta1, eta2, a)
        m = drift_matrix(p, KAPPA)
        worst_id = max(worst_id, float(np.abs(propagator_of(p, 0.0) - np.eye(3)).max()))
        for s, t in ((0.7, 4.0), (2.5, 2.5), (0.3, 13.0)):
            whole = propagator_of(p, s + t)
            split = propagator_of(p, s) @ propagator_of(p, t)
            scale = max(1.0, float(np.abs(whole).max()))
            worst_semi = max(worst_semi, float(np.abs(whole - split).max()) / scale)
        for t in (0.7, 4.0, 20.0):
            ref = expm(-m * t)
            scale = max(1.0, float(np.abs(ref).max()))
            worst_expm = max(worst_expm, float(np.abs(propagator_of(p, t) - ref).max()) / scale)
        samples = {k: propagator_of(p, t_d + k * h) for k in (-2, -1, 0, 1, 2)}
        deriv = (samples[-2] - 8 * samples[-1] + 8 * samples[1] - samples[2]) / (12 * h)
        norm_m = float(np.abs(m).sum(axis=1).max())
        # |P(xi)| <= |P(t_k)| exp(|M| 2h) anywhere on the stencil
        sup_p = max(float(np.abs(x).sum(axis=1).max()) for x in samples.values())
        sup_p *= math.exp(2 * h * norm_m)
        bound = h**4 / 30 * norm_m**5 * sup_p + 18 * expm_tol * max(1.0, sup_p) / (12 * h)
        assert bound <= 1e-10
        worst_deriv = max(worst_deriv, float(np.abs(deriv + m @ samples[0]).max()) / bound)
        for t in (0.0, 0.7, 4.0):
            r = evolve_first_moments(p, KAPPA, np.zeros(3), t)
            assert np.array_equal(r, np.zeros(3))
    assert worst_id < 1e-12
    assert worst_semi < 1e-12
    assert worst_expm < expm_tol
    assert worst_deriv <= 1.0
    print(
        f"criterion 3: PASS on {len(points)} drifts (one defective): P(0) - I {worst_id:.3g}, "
        f"semigroup {worst_semi:.3g}, vs expm {worst_expm:.3g}, dP/dt + M P at "
        f"{worst_deriv:.3g} of its bound, vacuum means exactly zero"
    )


def test_criterion_04_route_equivalence():
    rng = np.random.default_rng(11)
    draws = []
    while len(draws) < 20:
        eta1, eta2 = rng.uniform(-1, 1, size=2)
        if not validate_physical(eta1, eta2).valid:
            continue
        a = rng.uniform(0.1, 1.5)
        p = pref(eta1, eta2, a)
        m = drift_matrix(p, KAPPA)
        if not is_stable(m).stable:
            continue
        draws.append(p)
    worst = 0.0
    for p in draws:
        for closed, ode in zip(
            second_moment_trajectory(p, KAPPA, [1.0, 5.0, 20.0], route="closed-form"),
            second_moment_trajectory(p, KAPPA, [1.0, 5.0, 20.0], route="ode"),
        ):
            worst = max(worst, max_rel(closed, ode))
    assert worst < 1e-8
    print(f"criterion 4: PASS closed form vs ode on 20 stable draws, max rel {worst:.3g}")


def test_criterion_05_steady_state_consistency():
    rng = np.random.default_rng(13)
    draws = []
    while len(draws) < 5:
        eta1, eta2 = rng.uniform(-1, 1, size=2)
        if not validate_physical(eta1, eta2).valid:
            continue
        p = pref(eta1, eta2, rng.uniform(0.1, 1.2))
        report = is_stable(drift_matrix(p, KAPPA))
        if report.stable:
            draws.append((p, report.margin))
    worst = 0.0
    for p, margin in draws:
        steady = steady_state_moments(p, KAPPA)
        horizon = 100.0 / margin
        late = second_moment_trajectory(p, KAPPA, [horizon], route="ode")[0]
        worst = max(worst, max_rel(late, steady))
    assert worst < 1e-8
    print(f"criterion 5: PASS Lyapunov vs t=100/margin integration on 5 draws, max rel {worst:.3g}")


def test_criterion_06_oracle_equivalence(oracle_runs):
    worst = 0.0
    for (eta1, eta2), run in oracle_runs.items():
        n_max, _ = ORACLE_SETUP[(eta1, eta2)]
        assert n_max >= 6
        assert max(run.edge_populations) < 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # defective (0.25, 0.25) needs no fallback
            engine = second_moment_trajectory(
                pref(eta1, eta2), KAPPA, list(ORACLE_TIMES), backend="ehrenfest"
            )
        for em, om in zip(engine, run.moments):
            worst = max(worst, max_rel(em, om))
    assert worst < 1e-4
    print(f"criterion 6: PASS ehrenfest vs Fock oracle at 4 preparations x 3 times, max rel {worst:.3g}")


def test_criterion_07_noise_convention_discrepancy():
    p = pref(1.0, 1.0)
    ehrenfest = steady_state_moments(p, KAPPA, backend="ehrenfest")
    assert max(abs(v) for v in ehrenfest.as_tuple()) == 0.0

    cfg = FockConfig(n_max=3, dt=0.02, t_final=5.0, edge_tol=1e-9)
    run = integrate(DensityState.vacuum(3), cfg, p, KAPPA, sample_times=[5.0])
    assert max(abs(v) for v in run.moments[-1].as_tuple()) < 1e-12

    with pytest.warns(NegativeOccupationWarning):
        literal = steady_state_moments(p, KAPPA, backend="paper-literal")
    a, d = p.gain_scale, p.loss1
    assert literal.n1 == pytest.approx(-2 * a * d / (2 * a * d + KAPPA), rel=1e-12)
    assert literal.n1 < 0.0
    print(
        "criterion 7: PASS fully inverted preparation: ehrenfest and oracle vacuum, "
        f"as-printed noise gives n1 = {literal.n1:.6g} and warns"
    )


def test_criterion_08_decoupling_structure():
    dark1 = steady_state_moments(pref(-0.5, -0.5), KAPPA)
    assert abs(dark1.c31) < 1e-9 and abs(dark1.c21) < 1e-9 and abs(dark1.n1) < 1e-9
    assert dark1.c32 > 1e-3

    dark2 = steady_state_moments(pref(0.0, 0.5), KAPPA)
    assert abs(dark2.c21) < 1e-9 and abs(dark2.c32) < 1e-9 and abs(dark2.n2) < 1e-9
    assert dark2.c31 > 1e-3
    print(
        "criterion 8: PASS decoupled-mode structure at both one-sided preparations "
        f"(c32 = {dark1.c32:.4g}, c31 = {dark2.c31:.4g})"
    )


def test_criterion_09_witness_sanity():
    vac = covariance_from_moments(SecondMoments.vacuum())
    for rec in vlf_evaluate(vac).records:
        assert rec.lhs == pytest.approx(rec.bound, abs=1e-12)
        assert not rec.violated

    for eta1, eta2, a in ((0.25, 0.25, 0.5), (0.0, 0.0, 0.5), (0.3, 0.1, 0.5)):
        cov = covariance_from_moments(steady_state_moments(pref(eta1, eta2, a), KAPPA))
        default = vlf_evaluate(cov)
        tuned = optimize_gains(cov)
        for bip in BIPARTITIONS:
            assert tuned.record(bip.name).ratio <= default.record(bip.name).ratio + 1e-9

    left = vlf_evaluate(covariance_from_moments(steady_state_moments(pref(0.3, 0.1), KAPPA)))
    right = vlf_evaluate(covariance_from_moments(steady_state_moments(pref(0.1, 0.3), KAPPA)))
    assert left.record("2|13").ratio == pytest.approx(right.record("3|12").ratio, abs=1e-9)
    assert left.record("3|12").ratio == pytest.approx(right.record("2|13").ratio, abs=1e-9)
    assert left.record("1|23").ratio == pytest.approx(right.record("1|23").ratio, abs=1e-9)
    print("criterion 9: PASS vacuum saturation, optimizer dominance, swap symmetry of reports")


def test_criterion_10_moment_closure_audit(oracle_runs):
    worst = max(run.closure_leakage() for run in oracle_runs.values())
    assert worst < 1e-8
    print(f"criterion 10: PASS closure leakage below 1e-8 on all oracle runs (max {worst:.3g})")
