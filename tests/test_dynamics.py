"""Drift/diffusion structure, moment evolution routes, steady states."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ycel.dynamics import (
    NegativeOccupationWarning,
    SecondMoments,
    diffusion_matrix,
    drift_matrix,
    evolve_first_moments,
    evolve_second_moments,
    is_stable,
    second_moment_trajectory,
    stability,
    steady_state_moments,
)
from ycel.errors import HorizonError, UnstableDriftError
from ycel.model import prefactors_from_inversions, validate_physical


def pref(eta1, eta2, a=0.5):
    return prefactors_from_inversions(eta1, eta2, gain_scale=a)


def random_stable_sets(count, seed=20240613):
    """Deterministic stream of stable (pref, kappa) draws."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        e1, e2 = rng.uniform(-1, 1, size=2)
        if not validate_physical(e1, e2).valid:
            continue
        p = prefactors_from_inversions(float(e1), float(e2), float(rng.uniform(0.05, 2.0)))
        if is_stable(drift_matrix(p, 1.0)).stable:
            out.append(p)
    return out


def test_drift_matrix_uniform_coherence():
    # eta1 = eta2 = 0 with gain_scale = kappa: every weight is 1/6
    m = drift_matrix(pref(0.0, 0.0, a=1.0), kappa=1.0)
    s = 1.0 / 6.0
    expected = np.array(
        [[0.5 + s, -s, -s], [s, 0.5 - s, -s], [s, -s, 0.5 - s]]
    )
    assert_allclose(m, expected, atol=1e-15)


def test_drift_matrix_sign_structure():
    m = drift_matrix(pref(0.25, 0.25), kappa=1.0)
    # column-1 couplings appear with opposite signs across the diagonal
    assert m[0, 1] == -m[1, 0]
    assert m[0, 2] == -m[2, 0]
    # upper-pair coupling is symmetric negative
    assert m[1, 2] == m[2, 1] < 0


def test_diffusion_backends_differ_only_in_corner():
    p = pref(0.3, 0.1, a=2.0)
    q_lit = diffusion_matrix(p, "paper-literal")
    q_ehr = diffusion_matrix(p, "ehrenfest")
    assert q_ehr[0, 0] == 0.0
    assert q_lit[0, 0] == pytest.approx(-2.0 * p.gain_scale * p.loss1, rel=1e-15)
    q_lit[0, 0] = 0.0
    assert_allclose(q_lit, q_ehr, atol=0.0)


def test_diffusion_fixture_uniform_coherence():
    p = pref(0.0, 0.0, a=3.0)
    q = diffusion_matrix(p, "paper-literal")
    assert_allclose(
        [q[0, 1], q[0, 2], q[1, 2]], [3.0 / 6, 3.0 / 6, 3.0 * 2 / 6], rtol=1e-15
    )
    assert q[0, 0] == pytest.approx(-1.0, rel=1e-15)
    p = pref(1.0, 1.0, a=3.0)
    assert_allclose(
        diffusion_matrix(p, "paper-literal"), np.diag([-3.0, 0.0, 0.0]), atol=1e-15
    )


def test_stability_eigenvalues_sorted():
    for p in random_stable_sets(8):
        m = drift_matrix(p, 1.0)
        eigvals = np.array(is_stable(m).eigenvalues)
        assert np.all(np.diff(eigvals.real) >= 0.0)
        tied = np.diff(eigvals.real) == 0.0
        assert np.all(np.diff(eigvals.imag)[tied] >= 0.0)
        # the spectrum of M: its sum is the trace, its product the determinant
        assert abs(eigvals.sum() - np.trace(m)) < 1e-12 * np.abs(m).max()
        assert abs(eigvals.prod() - np.linalg.det(m)) < 1e-12 * np.abs(m).max() ** 3


def test_drift_known_spectra():
    # ground-level preparation: diagonal drift
    report = is_stable(drift_matrix(pref(1.0, 1.0, a=2.0), kappa=1.0))
    assert_allclose(np.real(report.eigenvalues), [0.5, 0.5, 1.5], atol=1e-12)
    # decoupled mode 1: block eigenvalues kappa/2 - a/2, kappa/2 (twice)
    report = is_stable(drift_matrix(pref(-0.5, -0.5, a=0.5), kappa=1.0))
    assert_allclose(np.real(report.eigenvalues), [0.25, 0.5, 0.5], atol=1e-12)


def test_stability_margins():
    assert is_stable(drift_matrix(pref(-0.5, -0.5, a=0.5), 1.0)).margin == pytest.approx(0.25, abs=1e-12)
    marginal = is_stable(drift_matrix(pref(-0.5, -0.5, a=1.0), 1.0))
    assert not marginal.stable
    assert marginal.margin == pytest.approx(0.0, abs=1e-12)
    # uniform coherence destabilises only at gain_scale = 3 kappa
    assert is_stable(drift_matrix(pref(0.0, 0.0, a=2.9), 1.0)).stable
    assert not is_stable(drift_matrix(pref(0.0, 0.0, a=3.1), 1.0)).stable


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_exact_stability_matches_eigensolver(a):
    # near the defective line the eigensolver's margin is off by up to 5e-9
    values = [float(v) for v in np.linspace(-1.0, 1.0, 41)]
    worst, spectra = 0.0, 0.0
    for e1 in values:
        for e2 in values:
            if not validate_physical(e1, e2).valid:
                continue
            p = pref(e1, e2, a)
            exact, numeric = stability(p, 1.0), is_stable(drift_matrix(p, 1.0))
            worst = max(worst, abs(exact.margin - numeric.margin))
            spectra = max(spectra, np.abs(np.subtract(exact.eigenvalues,
                                                      numeric.eigenvalues)).max())
            if abs(exact.margin) > 1e-8:
                assert exact.stable == numeric.stable, (e1, e2)
    assert worst < 1e-8
    assert spectra < 2e-8


def test_propagator_identity_and_decay():
    p = pref(0.1, 0.2)
    for r0 in np.eye(3):
        assert_allclose(evolve_first_moments(p, 1.0, r0, 0.0), r0, rtol=0.0, atol=1e-12)
    margin = stability(p, 1.0).margin
    r0 = np.array([0.3 - 0.1j, 0.2, -0.4j])
    assert np.abs(evolve_first_moments(p, 1.0, r0, 50.0 / margin)).max() < 1e-10


def test_first_moments_zero_stays_zero():
    # a defective-drift point on purpose: the exponential must keep an
    # exactly zero mean exactly zero there too, without any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evolve_first_moments(pref(0.25, 0.25), 1.0, np.zeros(3), 7.3)
    assert np.all(out == 0.0)


def test_second_moments_vacuum_fixed_point_when_absorbing():
    # every atom in the ground level: ehrenfest vacuum stays vacuum
    p = pref(1.0, 1.0, a=1.0)
    for t in (0.0, 0.5, 3.0, 20.0):
        m = evolve_second_moments(p, 1.0, t)
        assert np.abs(np.array(m.as_tuple())).max() < 1e-14


def test_paper_literal_negative_occupation_reported():
    p = pref(1.0, 1.0, a=1.0)
    with pytest.warns(NegativeOccupationWarning):
        m = steady_state_moments(p, 1.0, backend="paper-literal")
    # analytic value -2*A*loss1 / (2*A*loss1 + kappa)
    assert m.n1 == pytest.approx(-1.0 / 2.0, rel=1e-12)
    with pytest.warns(NegativeOccupationWarning):
        mt = evolve_second_moments(p, 1.0, 2.0, backend="paper-literal")
    expected = -0.5 * -np.expm1(-2.0 * 2.0)
    assert mt.n1 == pytest.approx(expected, rel=1e-10)


def test_initial_condition_recovered_at_t0():
    # every trajectory starts from vacuum, exactly, on both routes
    p = pref(0.2, 0.1)
    for route in ("closed-form", "ode"):
        out = second_moment_trajectory(p, 1.0, [0.0, 0.0, 1.0], route=route)
        assert out[0] == out[1] == SecondMoments.vacuum()
        assert out[2] != SecondMoments.vacuum()


def test_route_equivalence_on_random_stable_sets():
    for p in random_stable_sets(6, seed=7):
        for t in (0.7, 4.0):
            a = evolve_second_moments(p, 1.0, t, route="closed-form")
            b = evolve_second_moments(p, 1.0, t, route="ode")
            scale = max(np.abs(np.array(b.as_tuple())).max(), 1e-12)
            assert np.abs(np.array(a.as_tuple()) - np.array(b.as_tuple())).max() < 1e-8 * scale


def test_einstein_relation_via_finite_differences():
    p = pref(0.25, 0.25)
    m = drift_matrix(p, 1.0)
    q = diffusion_matrix(p, "ehrenfest")
    t, h = 1.5, 1e-5
    # defective drift here: the closed form handles it like any other
    sm = evolve_second_moments(p, 1.0, t).as_matrix()
    sp = evolve_second_moments(p, 1.0, t + h).as_matrix()
    sms = evolve_second_moments(p, 1.0, t - h).as_matrix()
    ds_dt = (sp - sms) / (2 * h)
    expected = -m @ sm - sm @ m.T + q
    assert np.abs(ds_dt - expected).max() < 1e-6


def test_steady_state_matches_long_time_evolution():
    for p in random_stable_sets(4, seed=11):
        margin = is_stable(drift_matrix(p, 1.0)).margin
        ss = np.array(steady_state_moments(p, 1.0).as_tuple())
        lt = np.array(evolve_second_moments(p, 1.0, 100.0 / margin).as_tuple())
        assert np.abs(ss - lt).max() < 1e-8 * max(1.0, np.abs(ss).max())


def test_long_horizon_at_small_margins_reaches_the_steady_state():
    # slowly decaying drifts are where an exponential that squares too few
    # times loses accuracy (7e-10 at margin 0.002 with scipy's expm)
    small = [p for p in random_stable_sets(340, seed=5)
             if is_stable(drift_matrix(p, 1.0)).margin < 0.02]
    assert len(small) >= 5
    for p in small:
        margin = is_stable(drift_matrix(p, 1.0)).margin
        ss = np.array(steady_state_moments(p, 1.0).as_tuple())
        lt = np.array(evolve_second_moments(p, 1.0, 200.0 / margin).as_tuple())
        assert np.abs(ss - lt).max() < 1e-11 * np.abs(ss).max()


def test_steady_state_frozen_fixtures():
    # derived by hand from the rank-one structure of the drift at these points
    ss = steady_state_moments(pref(0.0, 0.0, a=0.5), 1.0)
    assert_allclose(
        ss.as_tuple(),
        (2 / 55, 12 / 55, 12 / 55, 12 / 55, 7 / 55, 7 / 55),
        rtol=1e-12,
        atol=1e-14,
    )
    ss = steady_state_moments(pref(0.0, 0.5, a=0.5), 1.0)
    assert_allclose(
        ss.as_tuple(),
        (1 / 32, 0.0, 9 / 32, 0.0, 5 / 32, 0.0),
        rtol=1e-12,
        atol=1e-14,
    )


def test_decoupling_structures():
    # empty ground level: mode 1 stays vacuum and uncorrelated
    ss = steady_state_moments(pref(-0.5, -0.5, a=0.5), 1.0)
    assert abs(ss.n1) < 1e-12 and abs(ss.c31) < 1e-12 and abs(ss.c21) < 1e-12
    assert ss.c32 > 0.1
    assert ss.n2 == pytest.approx(0.5, rel=1e-12)
    # empty level 2: mode 2 silenced, modes 1 and 3 pair up
    ss = steady_state_moments(pref(0.0, 0.5, a=0.5), 1.0)
    assert abs(ss.n2) < 1e-12 and abs(ss.c32) < 1e-12 and abs(ss.c21) < 1e-12
    assert ss.c31 > 0.1


def test_unstable_drift_refuses_steady_state():
    with pytest.raises(UnstableDriftError, match="eigenvalues"):
        steady_state_moments(pref(0.0, 0.0, a=3.5), 1.0)


def test_horizon_guard():
    p = pref(0.0, 0.0, a=3.5)  # margin < 0
    with pytest.raises(HorizonError):
        evolve_second_moments(p, 1.0, 1e5)
    # moderate horizons still evolve (growing but finite)
    out = evolve_second_moments(p, 1.0, 2.0)
    assert np.isfinite(np.array(out.as_tuple())).all()


def test_swap_symmetry_of_trajectories():
    times = [0.5, 2.0, 9.0]
    a = second_moment_trajectory(pref(0.3, 0.1), 1.0, times)
    b = second_moment_trajectory(pref(0.1, 0.3), 1.0, times)
    for ma, mb in zip(a, b):
        assert ma.n1 == pytest.approx(mb.n1, abs=1e-10)
        assert ma.n2 == pytest.approx(mb.n3, abs=1e-10)
        assert ma.n3 == pytest.approx(mb.n2, abs=1e-10)
        assert ma.c32 == pytest.approx(mb.c32, abs=1e-10)
        assert ma.c31 == pytest.approx(mb.c21, abs=1e-10)
        assert ma.c21 == pytest.approx(mb.c31, abs=1e-10)


def test_occupations_stay_nonnegative_from_vacuum():
    for p in random_stable_sets(6, seed=3):
        for m in second_moment_trajectory(p, 1.0, [0.2, 1.0, 5.0, 30.0]):
            assert min(m.n1, m.n2, m.n3) >= -1e-10


def test_moment_matrix_round_trip():
    m = SecondMoments(0.1, 0.2, 0.3, 0.04, 0.05, 0.06)
    assert SecondMoments.from_matrix(m.as_matrix()) == m


def defective_line_points():
    """(eta1, eta2, A) on or next to the defective line eta1 + eta2 = 1/2."""
    grid = [float(v) for v in np.linspace(-1.0, 1.0, 21)]
    on_grid = [
        (e1, e2, a)
        for e1 in grid
        for e2 in grid
        for a in (0.5, 1.0)
        if abs(e1 + e2 - 0.5) < 1e-12 and validate_physical(e1, e2).valid
    ]
    near = (0.3744843933154953, 0.12555106183003706, 1.1068062611875042)
    return [(0.25, 0.25, 0.5), *on_grid, near]


def test_defective_drift_closed_form_matches_ode_route():
    # At equal inversions 0.25 the gain part of the drift is nilpotent and
    # nonzero: a triple eigenvalue kappa/2 with no eigenbasis.  On the whole
    # line eta1 + eta2 = 1/2 the drift is defective or nearly so; the
    # exponential route needs no eigenbasis.
    nilpotent = drift_matrix(pref(0.25, 0.25, a=0.5), 1.0) - 0.5 * np.eye(3)
    assert np.abs(nilpotent).max() > 0.1
    assert np.abs(nilpotent @ nilpotent).max() < 1e-15
    points = defective_line_points()
    assert len(points) == 2 + 2 * 6
    times = [1.0, 5.0, 20.0]
    for eta1, eta2, a in points:
        p = pref(eta1, eta2, a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = second_moment_trajectory(p, 1.0, times)
        via_ode = second_moment_trajectory(p, 1.0, times, route="ode")
        for c, o in zip(closed, via_ode):
            c, o = np.array(c.as_tuple()), np.array(o.as_tuple())
            assert np.abs(c - o).max() <= 1e-10 * np.abs(o).max(), (eta1, eta2, a)


# Closed-form second moments from the eigenbasis route that preceded the
# matrix-exponential route, at four diagonalisable drifts and t = 1, 5, 20
# (ehrenfest backend, kappa = 1, vacuum start).
EIGENBASIS_MOMENTS = {
    (0.3, 0.1, 0.5): [
        (0.00834690467367279, 0.12325856036863524, 0.05602661834937958,
         0.08310090444795107, 0.04936934681114659, 0.07322657502594543),
        (0.03126071281478887, 0.20963726795092963, 0.09528966725042252,
         0.14133741721968648, 0.08906598010626723, 0.13210619738315832),
        (0.03272939572117843, 0.21215663121071704, 0.09643483236850778,
         0.1430359715829302, 0.0904629469412896, 0.13417823404884138),
    ],
    (0.0, 0.0, 0.5): [
        (0.007924227268022267, 0.11704247193259547, 0.11704247193259551,
         0.11704247193259548, 0.062483349600308886, 0.062483349600308866),
        (0.033878738639358495, 0.21383859859987736, 0.2138385985998774,
         0.21383859859987736, 0.12385866861961795, 0.12385866861961795),
        (0.03636361722091758, 0.2181817970549617, 0.21818179705496174,
         0.2181817970549617, 0.12727270713793964, 0.12727270713793964),
    ],
    (-0.2, 0.4, 0.3): [
        (0.0029331651535364467, 0.0, 0.11962145199977713, 0.0, 0.050631442771083196, 0.0),
        (0.011266782407047354, 0.0, 0.20101449530246732, 0.0, 0.08896329105074662, 0.0),
        (0.011844701558727048, 0.0, 0.20333406195044104, 0.0, 0.09026415192794823, 0.0),
    ],
    (0.1, -0.5, 1.2): [
        (0.04275050750069511, 0.7700554696959316, 0.11000792424227591,
         0.2910536097914957, 0.09290193609242323, 0.24579541921696763),
        (0.3814131431987754, 2.5939456084741086, 0.37056365835344396,
         0.9804192849215154, 0.3968779856777801, 1.0500404509396608),
        (0.6386323932817338, 3.5477097529720667, 0.5068156789960094,
         1.3409082471717826, 0.5841634514171967, 1.5455512174630648),
    ],
}


@pytest.mark.parametrize("point", sorted(EIGENBASIS_MOMENTS))
def test_closed_form_matches_eigenbasis_table(point):
    eta1, eta2, a = point
    p = pref(eta1, eta2, a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = second_moment_trajectory(p, 1.0, [1.0, 5.0, 20.0])
    for m, old in zip(got, EIGENBASIS_MOMENTS[point]):
        old = np.array(old)
        assert np.abs(np.array(m.as_tuple()) - old).max() <= 1e-9 * np.abs(old).max()


def test_matrix_exponential_matches_scipy():
    # the engine's propagator e^(-kappa t/2) (I + phi(t) v w^T) against
    # scipy's expm of -M t, from well inside one e-fold to far past it, on
    # decaying and growing drifts and the defective one at (0.25, 0.25)
    from scipy.linalg import expm

    rng = np.random.default_rng(5)
    draws = [(0.25, 0.25, 0.5), (0.0, 0.0, 3.5), (-0.5, -0.5, 1.0)]
    while len(draws) < 40:
        e1, e2 = rng.uniform(-1, 1, size=2)
        if validate_physical(e1, e2).valid:
            draws.append((float(e1), float(e2), float(rng.uniform(0.05, 3.0))))
    worst = 0.0
    for e1, e2, a in draws:
        p = pref(e1, e2, a)
        m = drift_matrix(p, 1.0)
        for t in (0.0, 1e-8, 0.3, 7.0, 40.0):
            # squared down from a 1-norm of 1: scipy's own scaling loses
            # 5e-13 on the growing drifts at t = 40
            k = max(0, int(np.ceil(np.log2(max(np.abs(m).sum(axis=0).max() * t, 1.0)))))
            ref = np.linalg.matrix_power(expm(-m * (t / 2.0**k)), 2**k)
            got = np.column_stack([evolve_first_moments(p, 1.0, e, t) for e in np.eye(3)])
            worst = max(worst, np.abs(got - ref).max() / max(1.0, np.abs(ref).max()))
    assert worst < 1e-13
    # defective drift: exp(-M t) for the Jordan block at (0.25, 0.25)
    p = pref(0.25, 0.25)
    m = drift_matrix(p, 1.0)
    for t in (0.0, 0.3, 7.0, 150.0):
        got = np.column_stack([evolve_first_moments(p, 1.0, e, t) for e in np.eye(3)])
        assert_allclose(got, expm(-m * t), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("backend", ["ehrenfest", "paper-literal"])
def test_vacuum_trajectories_keep_the_dark_mode_empty(backend):
    # b_perp ~ sqrt(gain3) a2 - sqrt(gain2) a3 never leaves vacuum, so the
    # a2, a3 block is rank one, c32**2 = n2 * n3, and a1 pairs with a2 and
    # a3 in the ratio of their gains: sqrt(gain2) c31 = sqrt(gain3) c21
    rng = np.random.default_rng(2718)
    worst, checked = 0.0, 0
    while checked < 200:
        e1, e2 = rng.uniform(-1, 1, size=2)
        if not validate_physical(e1, e2).valid:
            continue
        p = prefactors_from_inversions(float(e1), float(e2), float(rng.uniform(0.05, 2.0)))
        times = np.sort(rng.uniform(0.1, 8.0, size=3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeOccupationWarning)
            traj = second_moment_trajectory(p, 1.0, times, backend=backend)
        for m in traj:
            scale = max(1.0, m.n2, m.n3, abs(m.c31), abs(m.c21))
            worst = max(
                worst,
                abs(m.c32**2 - m.n2 * m.n3) / scale**2,
                abs(np.sqrt(p.gain2) * m.c31 - np.sqrt(p.gain3) * m.c21) / scale,
            )
        checked += 1
    assert worst < 1e-12
