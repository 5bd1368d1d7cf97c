import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import ycel
from ycel import fock_oracle
from ycel.dynamics import second_moment_trajectory
from ycel.errors import ConfigurationError, ConsistencyError, IntegrationError, TruncationError
from ycel.fock_oracle import (
    DensityState,
    FockConfig,
    integrate,
    liouvillian_apply,
    master_equation_terms,
    mode_annihilators,
    moments_from_state,
)
from ycel.model import prefactors_from_inversions

from reduced_reference import reduced_march, three_mode_table


def pref(eta1, eta2, a=0.5):
    return prefactors_from_inversions(eta1, eta2, gain_scale=a)


def dense_march(rho, p, kappa, dt, steps):
    """Reference integrator: plain RK4 on the dense matrix, re-hermitised."""
    for _ in range(steps):
        k1 = liouvillian_apply(rho, p, kappa)
        k2 = liouvillian_apply(rho + 0.5 * dt * k1, p, kappa)
        k3 = liouvillian_apply(rho + 0.5 * dt * k2, p, kappa)
        k4 = liouvillian_apply(rho + dt * k3, p, kappa)
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
    vac = DensityState.vacuum(2)
    assert vac.n_max == 2
    assert vac.rho[0, 0] == 1.0
    assert abs(np.trace(vac.rho) - 1.0) < 1e-15

    one = DensityState.fock(2, (0, 0, 1))
    table = moments_from_state(one)
    assert table.cross[2, 2] == pytest.approx(1.0, abs=1e-15)
    assert table.cross[0, 0] == 0.0 and table.cross[1, 1] == 0.0

    with pytest.raises(ConfigurationError):
        DensityState.fock(2, (0, 0, 3))
    with pytest.raises(ConfigurationError):
        DensityState.fock(2, (0, 1))


def test_state_validation():
    good = DensityState.vacuum(1).rho
    bad = good.copy()
    bad[0, 1] = 0.5  # breaks hermiticity
    with pytest.raises(ConsistencyError, match="hermiticity"):
        DensityState(bad)
    with pytest.raises(ConsistencyError, match="trace"):
        DensityState(0.5 * good)
    with pytest.raises(ConfigurationError):
        DensityState(np.eye(7) / 7.0)  # not a three-mode cube


def test_dense_matrix_refused_beyond_dimension_1000():
    # n_max = 16 would take 386 MB; the refusal comes before any of it
    tracemalloc.start()
    try:
        state = DensityState.vacuum(16)
        with pytest.raises(ConfigurationError, match="4913x4913 density matrix \\(386 MB\\)"):
            state.rho
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # every reader of the dense matrix meets the same refusal
    with pytest.raises(ConfigurationError, match="limit of dimension 1000"):
        moments_from_state(DensityState.vacuum(10))
    with pytest.raises(ConfigurationError, match="limit of dimension 1000"):
        liouvillian_apply(DensityState.vacuum(10), pref(0.0, 0.0), 1.0)
    assert DensityState.vacuum(9).rho.shape == (1000, 1000)


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
    vac = DensityState.vacuum(3)
    # pure loss leaves vacuum exactly alone
    still = liouvillian_apply(vac, pref(1.0, 1.0, a=0.7), 2.0)
    assert np.max(np.abs(still)) == 0.0
    # any state gives a traceless derivative
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    rho = 0.5 * (raw + raw.conj().T)
    rho /= np.trace(rho).real
    deriv = liouvillian_apply(rho, pref(0.1, 0.2, a=1.1), 0.9)
    assert abs(np.trace(deriv)) < 1e-12


def test_vacuum_gain_rates():
    a = 0.9
    deriv = liouvillian_apply(DensityState.vacuum(2), pref(0.0, 0.0, a=a), 1.0)
    a1, a2, a3 = mode_annihilators(2)
    rate = lambda op: complex(np.trace(op.toarray() @ deriv))
    # uniform preparation: gain3 = gain2 = 1/6, so both active modes fill
    # at rate 2 * gain_scale / 6 while the loss mode stays dark
    assert rate(a3.T @ a3) == pytest.approx(a / 3.0, abs=1e-12)
    assert rate(a2.T @ a2) == pytest.approx(a / 3.0, abs=1e-12)
    assert rate(a1.T @ a1) == pytest.approx(0.0, abs=1e-12)


def test_sector_march_matches_dense_reference():
    # at fully coupled preparations the restricted march and restrict=False
    # both follow a dense RK4 march of the (a1, b) generator, step for step
    n_max, kappa, dt, steps = 3, 1.3, 0.05, 20
    times = [dt * k for k in range(1, steps + 1)]
    cfg = FockConfig(n_max=n_max, dt=dt, t_final=times[-1], edge_tol=0.5)
    for eta in ((0.0, 0.0), (0.25, 0.25), (0.3, -0.1)):
        p = pref(*eta, a=0.7)
        states = reduced_march(p, kappa, n_max, dt, steps)
        narrow, full = (
            integrate(DensityState.vacuum(n_max), cfg, p, kappa, sample_times=times,
                      check_convergence=False, restrict=restrict)
            for restrict in (True, False)
        )
        assert full.support_size == (28 * 29) // 2  # a1 <= 3, b <= 6
        assert narrow.support_size < full.support_size
        for run in (narrow, full):
            for table, rho in zip(run.tables, states, strict=True):
                first, cross, pair = three_mode_table(p, n_max, rho)
                assert np.max(np.abs(table.first - first)) < 1e-12
                assert np.max(np.abs(table.cross - cross)) < 1e-12
                assert np.max(np.abs(table.pair - pair)) < 1e-12


def test_real_start_restricted_march_matches_full_march():
    # at a one-sided preparation b is a2 or a3 itself, so the (a1, b) march
    # is the three-mode problem: it follows the dense three-mode march of
    # liouvillian_apply step for step, restricted or not
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
        rho = DensityState.vacuum(n_max).rho
        for k in range(steps):
            rho = dense_march(rho, p, 1.0, dt, 1)
            want = moments_from_state(rho)
            for run in runs:
                got = run.tables[k]
                assert np.max(np.abs(got.first - want.first)) < 1e-12
                assert np.max(np.abs(got.cross - want.cross)) < 1e-12
                assert np.max(np.abs(got.pair - want.pair)) < 1e-12

    # the reduction is exact only while b_perp is empty, so any other start,
    # real or not, is refused
    real = pure_state(n_max, {(0, 0, 0): 1.0, (1, 0, 1): 0.8, (0, 1, 1): -0.5, (2, 1, 0): 0.3})
    for start in (DensityState(real), DensityState.fock(n_max, (0, 0, 1))):
        with pytest.raises(ConfigurationError, match="vacuum"):
            integrate(start, cfg, pref(0.0, 0.0), 1.0, check_convergence=False)


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
    # the dense matrix is still there for a caller that reads it
    vacuum = DensityState.vacuum(9)
    assert vacuum.rho.shape == (1000, 1000)
    assert abs(np.trace(vacuum.rho) - 1.0) < 1e-15


def test_moment_table_fixtures():
    vac = moments_from_state(DensityState.vacuum(2))
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


def test_truncation_breach_advises_larger_cutoff():
    cfg = FockConfig(n_max=2, dt=0.02, t_final=10.0, edge_tol=1e-6)
    with pytest.raises(TruncationError, match="n_max"):
        integrate(DensityState.vacuum(2), cfg, pref(0.0, 0.0, a=0.5), 1.0)


def test_divergent_step_detected():
    cfg = FockConfig(n_max=2, dt=2.0, t_final=20.0, edge_tol=0.999)
    with pytest.raises(IntegrationError):
        integrate(DensityState.vacuum(2), cfg, pref(0.0, 0.0, a=0.5), 1.0,
                  check_convergence=False)


def test_convergence_check_fires_on_coarse_step():
    # the (a1, b) march at dt = 0.25 moves by 8.6e-7 on halving, inside the
    # tolerance, so the coarse step here is 0.5
    cfg = FockConfig(n_max=2, dt=0.5, t_final=1.0, edge_tol=0.5)
    with pytest.raises(IntegrationError, match="halving"):
        integrate(DensityState.vacuum(2), cfg, pref(0.0, 0.0, a=0.5), 1.0,
                  sample_times=[1.0])


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


ORACLE_EXPORTS = ("DensityState", "FockConfig", "MomentTable", "OracleRun", "integrate",
                  "liouvillian_apply", "master_equation_terms", "mode_annihilators",
                  "moments_from_state")


@pytest.mark.parametrize("name", ORACLE_EXPORTS)
def test_package_exports_each_oracle_name(name):
    namespace = {}
    exec(f"from ycel import {name}", namespace)
    assert namespace[name] is getattr(fock_oracle, name)
    assert name in dir(ycel)


def test_package_refuses_an_unknown_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(ycel, "no_such_name")
    with pytest.raises(ImportError):
        exec("from ycel import no_such_name", {})
