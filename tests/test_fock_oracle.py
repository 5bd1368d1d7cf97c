import importlib
import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import ycel
from ycel import fock_oracle, model
from ycel.dynamics import SecondMoments, second_moment_trajectory, stability
from ycel.errors import ConfigurationError, ConsistencyError, IntegrationError, TruncationError
from ycel.fock_oracle import DensityState, FockConfig, MomentTable, integrate
from ycel.model import prefactors_from_inversions, validate_physical

from reduced_reference import reduced_march, three_mode_table
from three_mode_reference import (
    liouvillian,
    master_equation_terms,
    mode_annihilators,
    moments_from_state,
)


def pref(eta1, eta2, a=0.5):
    return prefactors_from_inversions(eta1, eta2, gain_scale=a)


def dense_march(rho, deriv, dt, steps):
    """Reference integrator: plain RK4 on the dense matrix, re-hermitised."""
    for _ in range(steps):
        k1 = deriv(rho)
        k2 = deriv(rho + 0.5 * dt * k1)
        k3 = deriv(rho + 0.5 * dt * k2)
        k4 = deriv(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        rho = 0.5 * (rho + rho.conj().T)
    return rho


def pure_state(n_max, amplitudes):
    """Density matrix of sum_i amplitudes[occ] |occ>, normalised."""
    side = n_max + 1
    dim = side**3
    psi = np.zeros(dim, dtype=complex)
    for (n1, n2, n3), amp in amplitudes.items():
        psi[(n1 * side + n2) * side + n3] = amp
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def test_state_builders():
    assert DensityState.vacuum(2).n_max == 2

    table = moments_from_state(pure_state(2, {(0, 0, 1): 1.0}))
    assert table.cross[2, 2] == pytest.approx(1.0, abs=1e-15)
    assert table.cross[0, 0] == 0.0 and table.cross[1, 1] == 0.0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        FockConfig(n_max=0)
    assert FockConfig(n_max=16).n_max == 16
    with pytest.raises(ConfigurationError, match="limit 16"):
        FockConfig(n_max=17)
    with pytest.raises(ConfigurationError):
        FockConfig(dt=0.0)
    with pytest.raises(ConfigurationError):
        FockConfig(edge_tol=0.0)
    with pytest.raises(ConfigurationError):
        FockConfig(edge_tol=1.5)
    # at most 10**6 fixed steps of dt up to t_final
    assert FockConfig(dt=1e-5, t_final=10.0).t_final == 10.0
    with pytest.raises(ConfigurationError, match="steps exceeds the limit 1000000"):
        FockConfig(dt=1e-5, t_final=10.0 + 1e-4)
    with pytest.raises(ConfigurationError, match="steps exceeds the limit"):
        FockConfig(dt=1e-300, t_final=1.0)


def test_integrate_takes_the_one_fock_config_and_not_its_tuple():
    assert ycel.FockConfig is FockConfig is model.FockConfig
    cfg = FockConfig(n_max=2, dt=0.02, t_final=0.1)
    with pytest.raises(ConfigurationError, match="^cfg must be a FockConfig$"):
        integrate(DensityState.vacuum(2), tuple(cfg), pref(0.0, 0.0), 1.0)


def test_integrate_refuses_a_start_or_prefactors_of_the_wrong_type():
    cfg = FockConfig(n_max=2, dt=0.02, t_final=0.1)
    with pytest.raises(ConfigurationError, match="^rho0 must be a DensityState$"):
        integrate(2, cfg, pref(0.0, 0.0), 1.0)
    with pytest.raises(TypeError, match="^pref must be a Prefactors value$"):
        integrate(DensityState.vacuum(2), cfg, tuple(pref(0.0, 0.0)), 1.0)


def test_closure_refuses_an_imaginary_residue_on_a_tracked_moment():
    zeros = np.zeros((3, 3), dtype=complex)
    cross = zeros.copy()
    cross[0, 0] = 0.25 + 1e-10j
    table = MomentTable(first=np.zeros(3, dtype=complex), cross=cross, pair=zeros)
    with pytest.raises(ConsistencyError, match=r"^imaginary residue 1\.000e-10 on tracked "
                       r"moments \(tol 1\.0e-10\)$"):
        table.closure()
    cross[0, 0] = 0.25 + 9e-11j  # below the tolerance: the real parts
    assert table.closure() == SecondMoments(0.25, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_each_group_is_traceless():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
    rho = 0.5 * (raw + raw.conj().T)
    rho /= np.trace(rho).real
    groups = master_equation_terms(pref(0.3, -0.1, a=0.8), 1.3, 2)
    for name, terms in groups.items():
        acc = np.zeros_like(rho)
        for coef, left, right in terms:
            part = left @ rho if left is not None else rho
            if right is not None:
                part = part @ right
            acc += coef * part
        assert abs(np.trace(acc)) < 1e-12, name


def superoperator(terms, dim):
    """Sum of coefficient * (left (x) right^T): row-major vec(X rho Y) = (X (x) Y^T) vec(rho)."""
    eye = sp.identity(dim, format="csr")
    out = sp.csr_matrix((dim * dim, dim * dim))
    for coef, left, right in terms:
        left = eye if left is None else left
        right = eye if right is None else right
        out = out + coef * sp.kron(left, right.T, format="csr")
    return out


@pytest.mark.parametrize("eta", [(0.0, 0.0), (0.25, 0.25), (0.0, 0.5), (0.5, 0.0),
                                 (-0.5, -0.5), (1.0, 1.0), (0.3, -0.1), (-0.6, 0.2)])
def test_generator_is_one_dissipator_plus_cavity_loss(eta):
    # the product rules make every atomic term one dissipator s D[J] with
    # J = sqrt(loss1) a1 - sqrt(gain2) a2^dag - sqrt(gain3) a3^dag, where
    # D[L] rho = 2 L rho L^dag - L^dag L rho - rho L^dag L; cavity damping
    # adds kappa/2 D[a_i] for each mode
    n_max, kappa = 3, 1.3
    p = pref(*eta, a=0.8)
    a1, a2, a3 = mode_annihilators(n_max)
    dim = a1.shape[0]
    jump = (np.sqrt(p.loss1) * a1 - np.sqrt(p.gain2) * a2.T - np.sqrt(p.gain3) * a3.T).tocsr()
    dissipators = [(p.gain_scale, jump)] + [(0.5 * kappa, a) for a in (a1, a2, a3)]
    terms = []
    for rate, op in dissipators:
        number = (op.T @ op).tocsr()
        terms += [(2.0 * rate, op, op.T.tocsr()), (-rate, number, None), (-rate, None, number)]
    want = superoperator(terms, dim)
    groups = master_equation_terms(p, kappa, n_max)
    got = superoperator([t for terms in groups.values() for t in terms], dim)
    assert want.nnz > 0
    assert abs(got - want).max() < 1e-14


def test_liouvillian_trace_and_vacuum():
    vac = pure_state(3, {(0, 0, 0): 1.0})
    # pure loss leaves vacuum exactly alone
    still = liouvillian(pref(1.0, 1.0, a=0.7), 2.0, 3)(vac)
    assert np.max(np.abs(still)) == 0.0
    # any state gives a traceless derivative
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    rho = 0.5 * (raw + raw.conj().T)
    rho /= np.trace(rho).real
    deriv = liouvillian(pref(0.1, 0.2, a=1.1), 0.9, 3)(rho)
    assert abs(np.trace(deriv)) < 1e-12


def test_vacuum_gain_rates():
    a = 0.9
    deriv = liouvillian(pref(0.0, 0.0, a=a), 1.0, 2)(pure_state(2, {(0, 0, 0): 1.0}))
    a1, a2, a3 = mode_annihilators(2)
    rate = lambda op: complex(np.trace(op.toarray() @ deriv))
    # uniform preparation: gain3 = gain2 = 1/6, so both active modes fill
    # at rate 2 * gain_scale / 6 while the loss mode stays dark
    assert rate(a3.T @ a3) == pytest.approx(a / 3.0, abs=1e-12)
    assert rate(a2.T @ a2) == pytest.approx(a / 3.0, abs=1e-12)
    assert rate(a1.T @ a1) == pytest.approx(0.0, abs=1e-12)


# The two march checks: the restricted march against a dense RK4 march of
# the (a1, b) generator, and restrict=False against the restricted march,
# at fully coupled preparations, step for step.  Every entry of two moment
# tables must agree within MARCH_BOUND.
SECTOR_POINTS = ((0.0, 0.0), (0.25, 0.25), (0.3, -0.1))
SECTOR_N_MAX, SECTOR_KAPPA, SECTOR_DT, SECTOR_STEPS = 3, 1.3, 0.05, 20
MARCH_BOUND = 1e-12


def sector_run(eta, restrict):
    """The oracle's march at eta, sampled after every step."""
    times = [SECTOR_DT * k for k in range(1, SECTOR_STEPS + 1)]
    cfg = FockConfig(n_max=SECTOR_N_MAX, dt=SECTOR_DT, t_final=times[-1], edge_tol=0.5)
    return integrate(DensityState.vacuum(SECTOR_N_MAX), cfg, pref(*eta, a=0.7), SECTOR_KAPPA,
                     sample_times=times, check_convergence=False, restrict=restrict)


def dense_tables(eta):
    """(first, cross, pair) after every step of the dense march at eta."""
    p = pref(*eta, a=0.7)
    states = reduced_march(p, SECTOR_KAPPA, SECTOR_N_MAX, SECTOR_DT, SECTOR_STEPS)
    return [three_mode_table(p, SECTOR_N_MAX, rho) for rho in states]


def run_tables(run):
    return [(table.first, table.cross, table.pair) for table in run.tables]


def table_gap(run, tables):
    """The largest gap between an entry of a run's moment tables and the
    same entry of ``tables``, step for step."""
    return max(float(np.max(np.abs(got - want)))
               for table, ref in zip(run_tables(run), tables, strict=True)
               for got, want in zip(table, ref, strict=True))


def test_sector_march_matches_dense_reference():
    for eta in SECTOR_POINTS:
        dense = dense_tables(eta)
        narrow, full = (sector_run(eta, restrict) for restrict in (True, False))
        assert full.support_size == (28 * 29) // 2  # a1 <= 3, b <= 6
        assert narrow.support_size < full.support_size
        assert table_gap(narrow, dense) < MARCH_BOUND
        assert table_gap(full, run_tables(narrow)) < MARCH_BOUND
        assert table_gap(full, dense) < MARCH_BOUND


def test_real_start_restricted_march_matches_full_march():
    # at a one-sided preparation b is a2 or a3 itself, so the (a1, b) march
    # is the three-mode problem: it follows the dense three-mode march of
    # the three-mode generator step for step, restricted or not
    n_max, dt, steps = 3, 0.05, 8
    times = [dt * k for k in range(1, steps + 1)]
    cfg = FockConfig(n_max=n_max, dt=dt, t_final=times[-1], edge_tol=0.5)
    for eta in ((0.0, 0.5), (0.5, 0.0)):
        p = pref(*eta, a=0.7)
        runs = [
            integrate(DensityState.vacuum(n_max), cfg, p, 1.0, sample_times=times,
                      check_convergence=False, restrict=restrict)
            for restrict in (True, False)
        ]
        rho, deriv = pure_state(n_max, {(0, 0, 0): 1.0}), liouvillian(p, 1.0, n_max)
        for k in range(steps):
            rho = dense_march(rho, deriv, dt, 1)
            want = moments_from_state(rho)
            for run in runs:
                got = run.tables[k]
                assert np.max(np.abs(got.first - want.first)) < 1e-12
                assert np.max(np.abs(got.cross - want.cross)) < 1e-12
                assert np.max(np.abs(got.pair - want.pair)) < 1e-12


def charge_sector_size(n1_max, nb_max):
    """Elements (ket, bra) of the (a1, b) space with equal w = n1 - nb on both sides."""
    n1, nb = np.unravel_index(np.arange((n1_max + 1) * (nb_max + 1)), (n1_max + 1, nb_max + 1))
    _, counts = np.unique(n1 - nb, return_counts=True)
    return int(np.sum(counts**2))


def test_support_is_the_reachable_folded_set():
    # from vacuum the march fills the (a1, b) space's w = 0 charge sector,
    # folded to rho[k, b] for k <= b: (sector + dim) / 2 real coordinates
    cases = {
        # a1 <= 8 and b <= 16; the three-mode march folded 16,695 here
        ((0.0, 0.0), 8): (8, 16, 645),
        # b is a3, so the problem is the three-mode one, whose w = 0 sector
        # holds 55,252 elements, of which only 670 reachable
        ((0.0, 0.5), 9): (9, 9, 385),
    }
    for (eta, n_max), (n1_max, nb_max, support) in cases.items():
        sector, dim = charge_sector_size(n1_max, nb_max), (n1_max + 1) * (nb_max + 1)
        cfg = FockConfig(n_max=n_max, dt=0.02, t_final=0.1, edge_tol=1e-3)
        run = integrate(DensityState.vacuum(n_max), cfg, pref(*eta), 1.0,
                        sample_times=[0.1], check_convergence=False)
        assert run.support_size == (sector + dim) // 2 == support
    # with loss1 = 0, a1 stays in vacuum on both sides and b keeps no coherence
    cfg = FockConfig(n_max=6, dt=0.02, t_final=0.1, edge_tol=1e-3)
    run = integrate(DensityState.vacuum(6), cfg, pref(-0.5, -0.5), 1.0,
                    sample_times=[0.1], check_convergence=False)
    assert run.support_size == 2 * 6 + 1


def test_default_path_allocates_no_dense_matrix():
    # one dense complex matrix at n_max = 9 takes 16 MB
    p = pref(0.0, 0.5)
    cfg = FockConfig(n_max=9, dt=0.04, t_final=1.0, edge_tol=1e-3)
    tracemalloc.start()
    try:
        run = integrate(DensityState.vacuum(9), cfg, p, 1.0, sample_times=[1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert run.moments[-1].n3 > 0.0


def test_moment_table_fixtures():
    vac = moments_from_state(pure_state(2, {(0, 0, 0): 1.0}))
    assert np.max(np.abs(vac.first)) == 0.0
    assert np.max(np.abs(vac.cross)) == 0.0
    assert np.max(np.abs(vac.pair)) == 0.0
    assert vac.closure().as_tuple() == (0.0,) * 6

    # equal superposition of one photon in mode 3 and one in mode 2
    rho = pure_state(1, {(0, 0, 1): 1.0, (0, 1, 0): 1.0})
    table = moments_from_state(rho)
    assert table.cross[2, 2] == pytest.approx(0.5, abs=1e-15)
    assert table.cross[1, 1] == pytest.approx(0.5, abs=1e-15)
    assert table.cross[2, 1] == pytest.approx(0.5, abs=1e-15)
    assert table.closure().c32 == pytest.approx(0.5, abs=1e-15)


def test_integrate_matches_moment_engine():
    p = pref(0.0, 0.0, a=0.5)
    cfg = FockConfig(n_max=6, dt=0.02, t_final=10.0, edge_tol=1e-3)
    times = [1.0, 5.0, 10.0]
    run = integrate(DensityState.vacuum(6), cfg, p, 1.0, sample_times=times)
    engine = second_moment_trajectory(p, 1.0, times, backend="ehrenfest")
    # edge populations sit near 3e-5 at this cutoff, so the comparison is
    # truncation-limited; the absolute gap still lands well under 1e-3
    for oracle_m, engine_m in zip(run.moments, engine):
        a = np.array(oracle_m.as_tuple())
        b = np.array(engine_m.as_tuple())
        assert np.max(np.abs(a - b)) < 1e-3
    assert run.convergence_delta is not None and run.convergence_delta < 1e-6
    assert max(run.trace_residues) < 1e-9
    assert max(run.edge_populations) < 1e-3
    assert run.closure_leakage() < 1e-8


def test_oracle_matches_engine_across_the_triangle():
    # 30 seeded draws over the physical triangle with A in [0.2, 1], each
    # marched at the smallest n_max from 6 in steps of 2 that keeps every
    # edge layer under 1e-6, against criterion 6's relative bound 1e-4.
    # The margin filter is physics, not a way to drop points: the moments
    # grow as 1/margin, so near the threshold they need a cutoff deeper than
    # the supported n_max <= 16.
    times = [1.0, 3.0]
    rng = np.random.default_rng(7)
    report, failures = [], []
    while len(report) < 30:
        eta1, eta2 = rng.uniform(-1.0, 1.0, size=2)
        a = rng.uniform(0.2, 1.0)
        if not validate_physical(eta1, eta2).valid:
            continue
        p = pref(eta1, eta2, a=a)
        margin = stability(p, 1.0).margin
        if margin < 0.1:
            continue
        for n_max in range(6, 17, 2):
            cfg = FockConfig(n_max=n_max, dt=0.02, t_final=times[-1], edge_tol=1e-6)
            try:
                run = integrate(DensityState.vacuum(n_max), cfg, p, 1.0, sample_times=times)
                break
            except TruncationError:
                pass
        else:
            pytest.fail(f"({eta1:.4f}, {eta2:.4f}), A = {a:.4f}: edge audit fails at n_max = 16")
        dev = 0.0
        for e, o in zip(second_moment_trajectory(p, 1.0, times), run.moments, strict=True):
            e, o = np.array(e.as_tuple()), np.array(o.as_tuple())
            dev = max(dev, float(np.abs(o - e).max() / np.abs(e).max()))
        audits = {
            "rel dev": (dev, 1e-4),
            "trace": (max(run.trace_residues), fock_oracle._TRACE_TOL),
            "leakage": (run.closure_leakage(), fock_oracle._CLOSURE_TOL),
            "dt/2 delta": (run.convergence_delta, fock_oracle._CONVERGENCE_TOL),
        }
        line = f"({eta1:+.4f}, {eta2:+.4f}) A = {a:.4f} margin {margin:.3f} n_max {n_max:2d}: "
        report.append(line + ", ".join(f"{k} {v:.2e}" for k, (v, _) in audits.items()))
        failures += [f"{line}{k} {v:.3e} >= {bound:.1e}"
                     for k, (v, bound) in audits.items() if not v < bound]
    print("\n".join(report))
    assert not failures, "\n".join(failures)


def test_truncation_breach_advises_larger_cutoff():
    cfg = FockConfig(n_max=2, dt=0.02, t_final=10.0, edge_tol=1e-6)
    with pytest.raises(TruncationError, match="n_max"):
        integrate(DensityState.vacuum(2), cfg, pref(0.0, 0.0, a=0.5), 1.0)


def test_divergent_step_detected():
    cfg = FockConfig(n_max=2, dt=2.0, t_final=20.0, edge_tol=0.999)
    with pytest.raises(IntegrationError):
        integrate(DensityState.vacuum(2), cfg, pref(0.0, 0.0, a=0.5), 1.0,
                  check_convergence=False)


def test_trace_drift_detected(monkeypatch):
    # a uniform decay of 0.01 per unit time costs the trace 1e-5 in the
    # first step of 1e-3, past the 1e-6 guard, while the largest element
    # only shrinks and the edge layers stay empty
    explore = fock_oracle._explore

    def leaky(*args):
        keys, lop = explore(*args)
        lop = sp.csr_matrix((lop.data, lop.indices, lop.indptr), shape=lop.shape)
        return keys, (lop - 0.01 * sp.identity(keys.size, format="csr")).tocsr()

    monkeypatch.setattr(fock_oracle, "_explore", leaky)
    cfg = FockConfig(n_max=2, dt=1e-3, t_final=0.1, edge_tol=1e-6)
    with pytest.raises(IntegrationError, match=r"trace drifted to 0\.99999\d* near t=0\.001; reduce dt"):
        integrate(DensityState.vacuum(2), cfg, pref(0.0, 0.0, a=0.5), 1.0,
                  check_convergence=False)


def test_convergence_check_fires_on_coarse_step():
    # the (a1, b) march at dt = 0.25 moves by 8.6e-7 on halving, inside the
    # tolerance, so the coarse step here is 0.5
    cfg = FockConfig(n_max=2, dt=0.5, t_final=1.0, edge_tol=0.5)
    with pytest.raises(IntegrationError, match="halving"):
        integrate(DensityState.vacuum(2), cfg, pref(0.0, 0.0, a=0.5), 1.0,
                  sample_times=[1.0])


def test_convergence_refusal_names_the_move_and_the_tolerance():
    # both runs pass every audit at n_max = 6; only the dt/2 comparison refuses
    cfg = FockConfig(n_max=6, dt=0.15, t_final=2.0, edge_tol=0.1)
    p = pref(0.0, 0.0, a=0.5)
    with pytest.raises(IntegrationError) as caught:
        integrate(DensityState.vacuum(6), cfg, p, 1.0, sample_times=[1.0, 2.0])
    assert str(caught.value) == (
        "halving dt moves tracked moments by 3.004e-04 (tolerance 1.0e-06); reduce dt"
    )
    run = integrate(DensityState.vacuum(6), cfg, p, 1.0, sample_times=[1.0, 2.0],
                    check_convergence=False)
    assert run.convergence_delta is None


@pytest.mark.parametrize("dt", [0.3, 1e300])
def test_convergence_check_halves_a_step_longer_than_the_sample_spacing(dt):
    # a step longer than every span is one remainder step per span, which the
    # dt/2 run takes as two halves, as it halves each full step at dt = 0.1
    def refusal(dt):
        cfg = FockConfig(n_max=6, dt=dt, t_final=1.0, edge_tol=1e-3)
        with pytest.raises(IntegrationError, match="halving dt") as caught:
            integrate(DensityState.vacuum(6), cfg, pref(0.0, 0.0, a=1.0), 1.0,
                      sample_times=np.linspace(0.0, 1.0, 11))
        return str(caught.value)

    assert refusal(dt) == refusal(0.1)


def test_decoupled_loss_mode_stays_dark():
    p = pref(-0.5, -0.5, a=0.5)
    cfg = FockConfig(n_max=5, dt=0.02, t_final=4.0, edge_tol=1e-2)
    run = integrate(DensityState.vacuum(5), cfg, p, 1.0, sample_times=[2.0, 4.0])
    for table in run.tables:
        assert abs(table.cross[0, 0]) < 1e-10       # n1
        assert abs(table.pair[2, 0]) < 1e-10        # <a3 a1>
        assert abs(table.pair[1, 0]) < 1e-10        # <a2 a1>
        assert abs(table.cross[2, 2] - table.cross[1, 1]) < 1e-10
    assert run.moments[-1].c32 > 0.05
    assert run.moments[-1].n3 > 0.1


def test_closure_leakage_stays_at_roundoff():
    p = pref(0.0, 0.5, a=0.5)
    cfg = FockConfig(n_max=4, dt=0.02, t_final=2.0, edge_tol=1e-2)
    run = integrate(DensityState.vacuum(4), cfg, p, 1.0, sample_times=[0.5, 2.0])
    assert run.closure_leakage() < 1e-8
    assert run.moments[-1].n3 > 0.01


def test_run_holds_one_record_per_requested_time():
    p = pref(0.0, 0.5, a=0.5)
    cfg = FockConfig(n_max=4, dt=0.05, t_final=2.0, edge_tol=1e-2)
    run = integrate(DensityState.vacuum(4), cfg, p, 1.0, sample_times=[2.0, 0.5, 2.0],
                    check_convergence=False)
    distinct = integrate(DensityState.vacuum(4), cfg, p, 1.0, sample_times=[0.5, 2.0],
                         check_convergence=False)
    assert run.times == (2.0, 0.5, 2.0)
    for records in (run.moments, run.tables, run.trace_residues, run.edge_populations):
        assert len(records) == 3 and records[0] == records[2]
    for got, want in ((0, 1), (1, 0)):
        assert run.moments[got] == distinct.moments[want]
        assert run.edge_populations[got] == distinct.edge_populations[want]


def test_vacuum_preserved_under_pure_loss():
    cfg = FockConfig(n_max=2, dt=0.05, t_final=10.0, edge_tol=1e-6)
    run = integrate(DensityState.vacuum(2), cfg, pref(1.0, 1.0, a=0.5), 1.0,
                    sample_times=[5.0, 10.0], track_spectrum=True)
    for m in run.moments:
        assert np.max(np.abs(m.as_tuple())) < 1e-12
    assert max(run.trace_residues) < 1e-12
    assert run.convergence_delta < 1e-12
    assert run.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    # with no gain there is no b, and the vacuum pair is all that is reachable
    assert run.support_size == 1


def test_positivity_of_transient_states():
    cfg = FockConfig(n_max=3, dt=0.02, t_final=1.0, edge_tol=5e-2)
    run = integrate(DensityState.vacuum(3), cfg, pref(0.0, 0.0, a=0.5), 1.0,
                    sample_times=[1.0], track_spectrum=True)
    assert run.min_eigenvalue > -1e-10


def test_a_negative_final_eigenvalue_warns_and_the_run_returns():
    # at A = 3 the cutoff 5 already truncates the state enough to push an
    # eigenvalue below -1e-8, inside the edge and dt/2 bounds
    cfg = FockConfig(n_max=5, dt=0.05, t_final=0.2, edge_tol=1e-5)
    with pytest.warns(UserWarning, match=r"^final state developed eigenvalue -2\.013e-06; "
                      "truncation or step error is distorting the state$"):
        run = integrate(DensityState.vacuum(5), cfg, pref(0.0, 0.0, a=3.0), 1.0,
                        sample_times=[0.2], track_spectrum=True)
    assert run.min_eigenvalue < -1e-8
    assert run.convergence_delta < 1e-6


def test_sampling_and_shape_validation():
    cfg = FockConfig(n_max=2, dt=0.05, t_final=1.0, edge_tol=0.5)
    vac = DensityState.vacuum(2)
    p = pref(0.0, 0.0, a=0.5)
    with pytest.raises(ConfigurationError, match="t_final"):
        integrate(vac, cfg, p, 1.0, sample_times=[2.0])
    with pytest.raises(ConfigurationError):
        integrate(vac, cfg, p, 1.0, sample_times=[-1.0])
    with pytest.raises(ConfigurationError):
        integrate(vac, cfg, p, 1.0, sample_times=[])
    with pytest.raises(ConfigurationError, match="n_max"):
        integrate(DensityState.vacuum(3), cfg, p, 1.0)
    with pytest.raises(ConfigurationError):
        integrate(vac, cfg, p, 0.0)


# Pinned moment tables: vacuum start, A = 0.5, kappa = 1, dt = 0.02, no dt/2
# check, at t = 1, 2.5 and 5.  Each row is first, cross and pair flattened
# row-major.  The (0, 0.5) rows come from the three-mode march before the
# hermitian fold and the reachable support replaced the charge-sector march;
# there b is a3 itself, so the (a1, b) march solves that same problem.  The
# (0, 0) rows come from the (a1, b) march, with a1 <= 5 and b <= 10; the
# three-mode march at cutoff 5 it replaced read up to 9.3e-4 away (at t = 5,
# n2 = 0.21361 against c32 = 0.21291, where the dark mode makes them equal),
# with edge populations up to 4e-6 on the (a1, b) march.
PARENT_TIMES = (1.0, 2.5, 5.0)
PARENT_TABLES = {
    (0.0, 0.5, 6): (
        (0, 0, 0, 0.008257353914684521, 0, 0, 0, 0, 0, 0, 0, 0.16628519670284422,
         0, 0, 0.08726781668484429, 0, 0, 0, 0.08726781668484429, 0, 0),
        (0, 0, 0, 0.022262581959237242, 0, 0, 0, 0, 0, 0, 0, 0.25170400352890554,
         0, 0, 0.13691772496951793, 0, 0, 0, 0.13691772496951793, 0, 0),
        (0, 0, 0, 0.029946249462639775, 0, 0, 0, 0, 0, 0, 0, 0.27819458271713227,
         0, 0, 0.15390625861470553, 0, 0, 0, 0.15390625861470553, 0, 0),
    ),
    (0.0, 0.0, 5): (
        (0, 0, 0, 0.007924225919150403, 0, 0, 0, 0.11704245899391631,
         0.11704245899391631, 0, 0.11704245899391631, 0.11704245899391631, 0,
         0.0624833127479781, 0.0624833127479781, 0.0624833127479781, 0, 0,
         0.0624833127479781, 0, 0),
        (0, 0, 0, 0.02332028327854115, 0, 0, 0, 0.18675619108872418,
         0.18675619108872418, 0, 0.18675619108872418, 0.18675619108872418, 0,
         0.10503538945065138, 0.10503538945065138, 0.10503538945065138, 0, 0,
         0.10503538945065138, 0, 0),
        (0, 0, 0, 0.03387489023927291, 0, 0, 0, 0.2138330927041639,
         0.2138330927041639, 0, 0.2138330927041639, 0.2138330927041639, 0,
         0.12384079312679769, 0.12384079312679769, 0.12384079312679769, 0, 0,
         0.12384079312679769, 0, 0),
    ),
}


@pytest.mark.parametrize("case", sorted(PARENT_TABLES))
def test_march_matches_pinned_parent_tables(case):
    eta1, eta2, n_max = case
    cfg = FockConfig(n_max=n_max, dt=0.02, t_final=PARENT_TIMES[-1], edge_tol=1e-2)
    run = integrate(DensityState.vacuum(n_max), cfg, pref(eta1, eta2), 1.0,
                    sample_times=PARENT_TIMES, check_convergence=False)
    for table, want in zip(run.tables, PARENT_TABLES[case], strict=True):
        got = np.concatenate((table.first, table.cross.ravel(), table.pair.ravel()))
        assert np.max(np.abs(got - np.array(want))) < 1e-12


ORACLE_EXPORTS = ("DensityState", "FockConfig", "MomentTable", "OracleRun", "integrate")

# What `from ycel import *` binds: every public name but the oracle's, and
# the four modules that hold them.
STAR_NAMES = {
    "AtomPreparation", "BIPARTITIONS", "ConfigurationError", "ConsistencyError",
    "CovarianceMatrix", "DegenerateWitnessError", "FloatRangeError", "GoodCavityWarning",
    "HorizonError", "IntegrationError", "ModelParams", "NegativeOccupationWarning",
    "Prefactors", "PreparationError", "PreparationVerdict", "SecondMoments", "StabilityReport",
    "SweepTable", "TruncationError", "UnstableDriftError", "VlfReport",
    "WitnessRecord", "YcelError", "covariance_from_moments", "diffusion_matrix",
    "drift_matrix", "dynamics", "entanglement", "errors", "evolve_first_moments",
    "evolve_second_moments", "is_stable", "model", "optimize_gains",
    "populations_from_inversions", "prefactors", "prefactors_from_inversions",
    "second_moment_trajectory", "stability", "steady_state_moments", "sweep",
    "validate_physical", "vlf_evaluate",
}


@pytest.mark.parametrize("name", sorted(ycel._LAZY))
def test_package_exports_each_oracle_name(name):
    namespace = {}
    exec(f"from ycel import {name}", namespace)
    module = importlib.import_module(f"ycel.{ycel._LAZY[name]}")
    assert namespace[name] is getattr(module, name)
    assert name in dir(ycel)


def test_package_star_import_binds_no_oracle_name():
    assert {n for n, m in ycel._LAZY.items() if m == "fock_oracle"} == set(ORACLE_EXPORTS)
    namespace = {}
    exec("from ycel import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES
    assert not STAR_NAMES & set(ORACLE_EXPORTS)


# Imports the oracle, reads its names and integrates in a fresh interpreter:
# no scipy module loads, the compiled kernels integrate runs on included.
ORACLE_IMPORT = """\
import sys
import ycel.fock_oracle
from ycel import DensityState, FockConfig, MomentTable, OracleRun, integrate
from ycel.model import prefactors_from_inversions

def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")

assert not scipy_modules(), f"{scipy_modules()} imported with the oracle's names"
integrate(DensityState.vacuum(4), FockConfig(n_max=4, dt=0.1, t_final=0.2),
          prefactors_from_inversions(0.0, 0.0, gain_scale=0.5), 1.0,
          check_convergence=False)
assert not scipy_modules(), f"{scipy_modules()} imported by integrate"
"""

# In a fresh interpreter: loading the kernels leaves sys.modules as it was,
# before and after scipy.sparse loads; scipy.sparse then binds its own
# extension; and an oracle document made with scipy.sparse loaded equals
# one made without it.
KERNELS_THEN_SCIPY = """\
import contextlib, io, sys
import ycel.cli
from ycel import fock_oracle

def document():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert ycel.cli.main(sys.argv[1:]) == 0
    return out.getvalue()

before = dict(sys.modules)
fock_oracle._sparsetools()
assert dict(sys.modules) == before, sorted(set(sys.modules) ^ set(before))
without = document()
import scipy.sparse
assert scipy.sparse._sparsetools is sys.modules["scipy.sparse._sparsetools"]
assert (scipy.sparse.csr_matrix([[0.0, 2.0], [3.0, 0.0]]) @ [1.0, 1.0]).tolist() == [2.0, 3.0]
fock_oracle._sparsetools.cache_clear()
before = dict(sys.modules)
assert fock_oracle._sparsetools() is scipy.sparse._sparsetools
assert dict(sys.modules) == before
assert document() == without
"""


def run_fresh(script, *argv):
    src = str(Path(fock_oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_oracle_loads_no_scipy_module_through_integrate():
    run_fresh(ORACLE_IMPORT)


def test_kernels_load_without_touching_scipy_sparse():
    run_fresh(KERNELS_THEN_SCIPY, "oracle", "--eta1", "0.25", "--eta2", "0.25", "--A", "0.5",
              "--nmax", "3", "--t", "0.5", "--dt", "0.05", "--format", "json")


def test_kernels_missing_raise_an_import_error_naming_the_path(tmp_path, monkeypatch):
    # a scipy installation whose sparse directory holds no compiled extension
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    (tmp_path / "sparse").mkdir()
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools", raising=False)
    with pytest.raises(ImportError, match=f"in {re.escape(str(tmp_path / 'sparse'))}$"):
        fock_oracle._sparsetools.__wrapped__()


def test_package_refuses_an_unknown_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(ycel, "no_such_name")
    with pytest.raises(ImportError):
        exec("from ycel import no_such_name", {})
