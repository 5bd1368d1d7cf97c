import warnings

import numpy as np
import pytest

from ycel.cli import main
from ycel.dynamics import SecondMoments, evolve_second_moments, steady_state_moments
from ycel.entanglement import (
    BIPARTITIONS,
    CovarianceMatrix,
    _optimal_witnesses,
    covariance_from_moments,
    optimize_gains,
    sweep,
    vlf_evaluate,
)
from ycel.errors import ConfigurationError, DegenerateWitnessError, YcelError
from ycel.fock_oracle import DensityState, FockConfig, integrate
from ycel.model import BACKENDS, prefactors_from_inversions

from reduced_reference import reduced_march
from three_mode_reference import mode_annihilators, moments_from_state


def pref(eta1, eta2, a=0.5):
    return prefactors_from_inversions(eta1, eta2, gain_scale=a)


def random_moments(rng):
    """A physically consistent draw: correlations capped by the mean counts."""
    n1, n2, n3 = rng.uniform(0.05, 0.8, size=3)
    c32 = rng.uniform(-1.0, 1.0) * np.sqrt(n2 * n3)
    c31 = rng.uniform(-1.0, 1.0) * np.sqrt(n1 * n3)
    c21 = rng.uniform(-1.0, 1.0) * np.sqrt(n1 * n2)
    return SecondMoments(n1, n2, n3, c32, c31, c21)


def test_covariance_fixtures():
    vac = covariance_from_moments(SecondMoments.vacuum())
    assert np.array_equal(vac.sigma, np.eye(6))

    hot3 = covariance_from_moments(SecondMoments(0, 0, 1.0, 0, 0, 0))
    assert np.allclose(np.diag(hot3.sigma), [1, 1, 1, 1, 3, 3])
    assert np.allclose(hot3.sigma, np.diag(np.diag(hot3.sigma)))

    paired = covariance_from_moments(SecondMoments(0, 0, 0, 0, 0.5, 0))
    assert paired.sigma[0, 4] == pytest.approx(1.0)
    assert paired.sigma[1, 5] == pytest.approx(-1.0)
    assert paired.sigma[4, 0] == pytest.approx(1.0)


def test_sub_vacuum_covariance_flagged():
    # a negative photon number (what the paper-literal loss mode produces)
    # pushes a quadrature variance below the vacuum floor, and the witness
    # optimum refuses the covariance: its mode 1 has symplectic eigenvalue 0.8
    m = SecondMoments(-0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
    cov = covariance_from_moments(m)
    assert cov.sigma[0, 0] == cov.sigma[1, 1] == pytest.approx(1.0 - 0.2)
    with pytest.raises(DegenerateWitnessError, match="smallest symplectic eigenvalue 0.8 < 1"):
        optimize_gains(cov)


def test_covariance_validation():
    with pytest.raises(ValueError, match="6x6"):
        CovarianceMatrix(np.eye(4))
    bad = np.eye(6)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError, match="asymmetry"):
        CovarianceMatrix(bad)
    for value in (np.nan, np.inf):
        bad = np.eye(6)
        bad[2, 2] = value
        with pytest.raises(ValueError, match="^covariance entries must be finite$"):
            CovarianceMatrix(bad)


def test_witness_calls_refuse_arguments_of_the_wrong_type():
    with pytest.raises(TypeError, match="^m must be a SecondMoments value$"):
        covariance_from_moments(SecondMoments.vacuum().as_tuple())
    for call in (vlf_evaluate, optimize_gains):
        with pytest.raises(TypeError, match="^cov must be a CovarianceMatrix$"):
            call(np.eye(6))


def test_report_record_refuses_an_unknown_bipartition():
    report = vlf_evaluate(covariance_from_moments(SecondMoments.vacuum()))
    assert report.record("2|13").name == "2|13"
    with pytest.raises(KeyError, match=r"^'1\|2'$"):
        report.record("1|2")


def test_vacuum_saturates_every_witness():
    report = vlf_evaluate(covariance_from_moments(SecondMoments.vacuum()))
    for rec in report.records:
        assert rec.lhs == pytest.approx(4.0, abs=1e-12)
        assert rec.bound == pytest.approx(4.0, abs=1e-12)
        assert not rec.violated
    assert not report.fully_inseparable


def test_witness_formula_against_explicit_expansion():
    # squeezing-type pair (1,2): V(x1-x2) + V(p1+p2) = 4 + 4n1 + 4n2 - 8 c21
    for c21 in (0.0, 0.1, 0.2, 0.3):
        m = SecondMoments(0.2, 0.3, 0.0, 0.0, 0.0, c21)
        rec = vlf_evaluate(covariance_from_moments(m)).record("2|13")
        assert rec.lhs == pytest.approx(4 + 4 * 0.2 + 4 * 0.3 - 8 * c21, abs=1e-12)
    ratios = [
        vlf_evaluate(
            covariance_from_moments(SecondMoments(0.2, 0.3, 0.0, 0.0, 0.0, c))
        ).record("2|13").lhs
        for c in np.linspace(0.0, 0.24, 7)
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_witness_lhs_matches_fock_space_quadratures():
    # evaluate V(u) + V(v) directly on an oracle state with sparse x and p
    # operators; pins the covariance conventions end to end.  The clipped
    # ladder operators lose (n_max+1) * edge weight from <x^2>, so the
    # tolerance sits just above that floor while any sign or factor-of-two
    # mistake would miss by O(0.1)
    p = pref(0.0, 0.5)
    cfg = FockConfig(n_max=8, dt=0.02, t_final=2.0, edge_tol=1e-4)
    run = integrate(DensityState.vacuum(8), cfg, p, 1.0, sample_times=[2.0],
                    check_convergence=False)
    # the oracle's state: at (0, 0.5) b is a3 itself, so the dense (a1, b)
    # march, placed on the a2 vacuum, is the three-mode state it sampled
    reduced = reduced_march(p, 1.0, 8, 0.02, 100)[-1]
    on_vacuum = (np.arange(81) // 9) * 81 + np.arange(81) % 9  # |n1 0 n3>
    rho = np.zeros((729, 729))
    rho[np.ix_(on_vacuum, on_vacuum)] = reduced
    state = moments_from_state(rho).closure()
    assert max(abs(a - b) for a, b in zip(state.as_tuple(), run.moments[-1].as_tuple())) < 1e-12
    ops = mode_annihilators(8)
    xs = [(a + a.T).toarray() for a in ops]
    ps = [(-1j * (a - a.T)).toarray() for a in ops]

    def variance(op):
        return np.trace(op @ op @ rho).real - np.trace(op @ rho).real ** 2

    report = vlf_evaluate(covariance_from_moments(run.moments[-1]))
    for bip in BIPARTITIONS:
        u = sum(h * x for h, x in zip(bip.default_h, xs))
        v = sum(g * q for g, q in zip(bip.default_g, ps))
        direct = variance(u) + variance(v)
        assert report.record(bip.name).lhs == pytest.approx(direct, abs=1e-4)


def test_degenerate_gains_rejected():
    cov = covariance_from_moments(SecondMoments.vacuum())
    with pytest.raises(DegenerateWitnessError, match="zero"):
        vlf_evaluate(cov, gains={"1|23": ((0.0, 0.0, 0.0), (0.0, 1.0, -1.0))})
    with pytest.raises(DegenerateWitnessError, match="bound"):
        vlf_evaluate(cov, gains={"1|23": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))})
    with pytest.raises(DegenerateWitnessError, match="unknown"):
        vlf_evaluate(cov, gains={"4|56": ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))})
    # x1 and x3 correlated beyond their variances: an indefinite x block
    sigma = 2.0 * np.eye(6)
    sigma[0, 4] = sigma[4, 0] = 3.0
    with pytest.raises(DegenerateWitnessError, match="x block is not positive definite"):
        optimize_gains(CovarianceMatrix(sigma))


# The symplectic form of the (x1, p1, x2, p2, x3, p3) ordering with [x, p] = 2i:
# a physical covariance has sigma + i OMEGA >= 0.
OMEGA = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
EPS = np.finfo(float).eps


def random_states(backend, count, seed):
    """Covariances of random steady and transient states of one backend, over
    the physical triangle with A in [0.05, 3] and t in [0.1, 10]; a draw that
    is unphysical, unstable or out of range is drawn again."""
    rng = np.random.default_rng(seed)
    covs = []
    while len(covs) < count:
        eta1, eta2, a, t = *rng.uniform(-1.0, 1.0, 2), rng.uniform(0.05, 3.0), rng.uniform(0.1, 10)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # the paper-literal occupations
                p = pref(eta1, eta2, a)
                m = (steady_state_moments(p, 1.0, backend=backend) if rng.random() < 0.5
                     else evolve_second_moments(p, 1.0, t, backend=backend))
        except YcelError:
            continue
        covs.append(covariance_from_moments(m))
    return covs


def smallest_symplectic_eigenvalue(sigma):
    """The smallest |eigenvalue| of i OMEGA sigma, with no x-p split assumed."""
    return np.abs(np.linalg.eigvals(1j * OMEGA @ sigma)).min()


@pytest.mark.parametrize("backend", BACKENDS)
def test_optimum_refuses_exactly_the_covariances_that_break_the_uncertainty_relation(backend):
    gate = {True: 0, False: 0}
    for cov in random_states(backend, 150, seed=5):
        lowest = np.linalg.eigvalsh(cov.sigma + 1j * OMEGA)[0]
        try:
            optimize_gains(cov)
            refused = False
        except DegenerateWitnessError as exc:
            refused = True
            gate["uncertainty relation" in str(exc)] += 1
        assert refused == (lowest < -1e-9), lowest
    if backend == "paper-literal":  # its draws meet both refusals
        assert gate[True] > 0 and gate[False] > 0
    else:  # every ehrenfest draw is physical
        assert gate == {True: 0, False: 0}


@pytest.mark.parametrize("backend", BACKENDS)
def test_gate_reads_the_smallest_symplectic_eigenvalue_off_the_shared_svd(backend, monkeypatch):
    # 1 / s_max of the s = +1 matrix is nu_min = sqrt(lambda_min(X P)).  The
    # reference eigenvalue carries an error of about EPS cond(X P) relative;
    # the worst measured on these draws is 1.5 EPS cond(X P).
    covs = random_states(backend, 150, seed=6)
    xb = np.array([cov.x_block for cov in covs])
    pb = np.array([cov.p_block for cov in covs])
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a: calls.append(svd(a)) or calls[-1])
    _optimal_witnesses(xb, pb)
    top = calls[0][1][:, 0, 0]
    definite = (np.linalg.eigvalsh(xb)[:, 0] > 0.0) & (np.linalg.eigvalsh(pb)[:, 0] > 0.0)
    assert definite.sum() > 100
    xp = xb[definite] @ pb[definite]
    nu = np.sqrt(np.linalg.eigvals(xp).real.min(axis=1))
    assert np.all(np.abs(1.0 / top[definite] / nu - 1.0) <= 4.0 * EPS * np.linalg.cond(xp))


def test_optimised_ratio_is_the_smallest_symplectic_eigenvalue_of_each_cut():
    # On physical states the ratio of a cut is min(nu_min, nu~_min), nu~ of
    # the partial transpose on the lone mode (its p flipped), taken here
    # from i OMEGA sigma directly.  The worst measured is 6.9 EPS cond(sigma).
    for cov in random_states("ehrenfest", 150, seed=7):
        report = optimize_gains(cov)
        nu = smallest_symplectic_eigenvalue(cov.sigma)
        for bip in BIPARTITIONS:
            flip = np.ones(6)
            flip[2 * bip.lone + 1] = -1.0
            want = min(nu, smallest_symplectic_eigenvalue(flip[:, None] * cov.sigma * flip))
            ratio = report.record(bip.name).ratio
            assert abs(ratio / want - 1.0) <= 32.0 * EPS * np.linalg.cond(cov.sigma), bip.name


def test_optimizer_refuses_the_paper_literal_steady_state_at_the_balanced_point():
    with pytest.warns(UserWarning, match="negative mean photon number"):
        m = steady_state_moments(pref(0.0, 0.0), 1.0, backend="paper-literal")
    with pytest.raises(DegenerateWitnessError, match=r"breaks the uncertainty relation "
                       r"\(smallest symplectic eigenvalue 0\.\d+ < 1\)"):
        optimize_gains(covariance_from_moments(m))


@pytest.mark.parametrize("gains", [
    ((1.0, 2.0), (1.0, 2.0)),  # once numpy's inhomogeneous-shape ValueError
    ((1.0, 2.0, 3.0),),  # once an IndexError
    ((1.0, 2.0), (1.0, 2.0, 3.0)),
    ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), (1.0, 2.0, 3.0)),
    ((np.nan, 1.0, -1.0), (0.0, 1.0, -1.0)),  # once a NaN ratio, not violated
    ((0.0, 1.0, -1.0), (0.0, np.inf, -1.0)),
    ((0.0, 1.0, -1.0), ("x", 1.0, -1.0)),
    None,
], ids=["two-2-vectors", "one-vector", "ragged", "three-vectors", "nan", "inf", "text", "none"])
def test_vlf_evaluate_refuses_malformed_gains_naming_the_bipartition(gains):
    cov = covariance_from_moments(SecondMoments.vacuum())
    with pytest.raises(DegenerateWitnessError, match=r"bipartition 2\|13: gains .* are not two "
                       r"finite 3-vectors"):
        vlf_evaluate(cov, gains={"2|13": gains})


def test_optimizer_dominates_defaults():
    rng = np.random.default_rng(42)
    for _ in range(8):
        m = random_moments(rng)
        cov = covariance_from_moments(m)
        default = vlf_evaluate(cov)
        tuned = optimize_gains(cov)
        for bip in BIPARTITIONS:
            assert (
                tuned.record(bip.name).ratio
                <= default.record(bip.name).ratio + 1e-9
            )


def test_optimizer_on_vacuum_keeps_ratio_one():
    tuned = optimize_gains(covariance_from_moments(SecondMoments.vacuum()))
    for rec in tuned.records:
        assert rec.ratio == pytest.approx(1.0, abs=1e-9)
        assert not rec.violated


def test_optimizer_drops_uncorrelated_third_mode():
    # modes 1 and 2 squeezed against each other, mode 3 hot and
    # uncorrelated: its gain is pure noise, so the optimum sets it to zero
    m = SecondMoments(0.2, 0.2, 0.9, 0.0, 0.0, 0.3)
    tuned = optimize_gains(covariance_from_moments(m))
    rec = tuned.record("2|13")
    assert abs(rec.h[2]) < 1e-5
    assert abs(rec.g[2]) < 1e-5
    assert rec.ratio < 1.0


def test_thermal_noise_never_helps():
    rng = np.random.default_rng(5)
    m = random_moments(rng)
    noisier = SecondMoments(
        m.n1, m.n2 + 0.2, m.n3, m.c32, m.c31, m.c21
    )
    base = vlf_evaluate(covariance_from_moments(m))
    noisy = vlf_evaluate(covariance_from_moments(noisier))
    for bip in BIPARTITIONS:
        assert noisy.record(bip.name).lhs >= base.record(bip.name).lhs - 1e-12
    tuned_base = optimize_gains(covariance_from_moments(m))
    tuned_noisy = optimize_gains(covariance_from_moments(noisier))
    for bip in BIPARTITIONS:
        assert (
            tuned_noisy.record(bip.name).ratio
            >= tuned_base.record(bip.name).ratio - 1e-9
        )


def test_no_false_violation_with_dark_loss_mode():
    # uncorrelated vacuum mode 1 leaves the state separable across every
    # cut that isolates it; the optimizer must not manufacture a violation
    moments = steady_state_moments(pref(-0.5, -0.5), 1.0)
    assert moments.c31 == pytest.approx(0.0, abs=1e-12)
    assert moments.c21 == pytest.approx(0.0, abs=1e-12)
    tuned = optimize_gains(covariance_from_moments(moments))
    for rec in tuned.records:
        assert rec.ratio >= 1.0 - 1e-9
        assert not rec.violated


def test_steady_state_violation_region_exists():
    moments = steady_state_moments(pref(0.25, 0.25), 1.0)
    report = vlf_evaluate(covariance_from_moments(moments))
    assert report.record("2|13").violated
    assert report.record("3|12").violated
    tuned = optimize_gains(covariance_from_moments(moments))
    assert tuned.record("2|13").ratio < 1.0 - 1e-3
    # the default 1|23 gains sit exactly at the bound here (ratio 1); the
    # optimum (0.912) violates it too, so the state is fully inseparable
    assert tuned.fully_inseparable


def test_swap_symmetry_of_reports():
    a = optimize_gains(covariance_from_moments(steady_state_moments(pref(0.3, 0.1), 1.0)))
    b = optimize_gains(covariance_from_moments(steady_state_moments(pref(0.1, 0.3), 1.0)))
    assert a.record("2|13").ratio == pytest.approx(b.record("3|12").ratio, abs=1e-9)
    assert a.record("3|12").ratio == pytest.approx(b.record("2|13").ratio, abs=1e-9)
    assert a.record("1|23").ratio == pytest.approx(b.record("1|23").ratio, abs=1e-9)


# Ratios (1|23, 2|13, 3|12) at A = 0.5 from the coordinate-descent optimizer
# that the closed form replaced.  It stalled short of the optimum, so the
# exact minimum may only be lower.
COORDINATE_DESCENT_RATIOS = {
    (0.25, 0.25): (1.0, 0.9245208899748294, 0.9245208899748191),
    (0.3, 0.1): (0.9161152196587102, 0.9217550326710119, 0.9358852611109774),
    (0.0, 0.0): (1.0, 0.9413730098566545, 0.9413730098566458),
    (-0.5, -0.5): (0.9999999999999998, 1.0000000000000007, 1.000000000000001),
}


def steady_cov(eta1, eta2):
    return covariance_from_moments(steady_state_moments(pref(eta1, eta2), 1.0))


def sample_covs(rng):
    """Steady states at the pinned points plus three random draws."""
    covs = [steady_cov(*etas) for etas in COORDINATE_DESCENT_RATIOS]
    return covs + [covariance_from_moments(random_moments(rng)) for _ in range(3)]


def test_optimizer_never_worse_than_coordinate_descent():
    for etas, old in COORDINATE_DESCENT_RATIOS.items():
        tuned = optimize_gains(steady_cov(*etas))
        for bip, ratio in zip(BIPARTITIONS, old):
            assert tuned.record(bip.name).ratio <= ratio + 1e-12, (etas, bip.name)


def witness_ratios(cov, bip, h, g):
    """Witness ratio for each row of the (n, 3) gain arrays h and g."""
    lhs = np.einsum("ni,ij,nj->n", h, cov.x_block, h)
    lhs += np.einsum("ni,ij,nj->n", g, cov.p_block, g)
    m, (k, l) = bip.lone, bip.partners
    bound = 2.0 * (np.abs(h[:, m] * g[:, m]) + np.abs(h[:, k] * g[:, k] + h[:, l] * g[:, l]))
    return lhs / bound


def test_optimizer_never_worse_than_dense_random_search():
    rng = np.random.default_rng(11)
    for cov in sample_covs(rng):
        tuned = optimize_gains(cov)
        for bip in BIPARTITIONS:
            rec = tuned.record(bip.name)
            # 10^5 draws over the whole gain space, then 10^5 close to the
            # reported optimum, where a near miss would show first
            draws = rng.standard_normal((200_000, 6))
            draws[100_000:] = np.array(rec.h + rec.g) + 1e-3 * draws[100_000:]
            searched = witness_ratios(cov, bip, draws[:, :3], draws[:, 3:]).min()
            assert rec.ratio <= searched + 1e-12


def inverse_sqrt(block):
    w, v = np.linalg.eigh(block)
    return (v / np.sqrt(w)) @ v.T


def test_optimizer_ratio_is_inverse_top_singular_value():
    # independent of the Cholesky route: symmetric inverse square roots
    for cov in sample_covs(np.random.default_rng(3)):
        tuned = optimize_gains(cov)
        xs, ps = inverse_sqrt(cov.x_block), inverse_sqrt(cov.p_block)
        for bip in BIPARTITIONS:
            top = 0.0
            for sign in (1.0, -1.0):
                d = np.ones(3)
                d[bip.lone] = sign
                top = max(top, np.linalg.svd(xs @ np.diag(d) @ ps, compute_uv=False)[0])
            assert tuned.record(bip.name).ratio == pytest.approx(1.0 / top, abs=1e-12)


def test_sweep_grid_and_failures():
    table = sweep(
        [-0.5, 0.0, 0.25, 1.5],
        [-0.5, 0.0, 0.25],
        gain_scale=0.5,
        kappa=1.0,
    )
    # eta1=1.5 is unphysical with every eta2 here; (0,-0.5) and (0.25,-0.5)
    # and (-0.5, 0.25) sit inside the triangle, (-0.5,-0.5) is a vertexish
    # interior point; grid order must be row-major over survivors
    coords = list(zip(table.eta1.tolist(), table.eta2.tolist()))
    assert coords == sorted(coords, key=lambda t: (t[0], t[1]))
    assert all(e1 != 1.5 for e1, _ in coords)
    assert table.prefactors.shape == (len(table), 7)
    assert table.moments.shape == (len(table), 6)
    assert table.ratio.shape == table.violated.shape == (len(table), 3)
    quiet = coords.index((0.25, 0.25))
    assert table.margin[quiet] > 0.0 and table.failure[quiet] == ""
    assert np.isfinite(table.moments[quiet]).all()
    assert table.violated[quiet, [b.name for b in BIPARTITIONS].index("2|13")]
    vertexish = coords.index((-0.5, -0.5))
    assert table.failure[vertexish] == ""
    assert not table.fully_inseparable[vertexish]


def test_sweep_refuses_oversized_grid():
    # refused from the list lengths, before any point is evaluated
    with pytest.raises(ConfigurationError, match="1001x1000 grid exceeds the 1000000"):
        sweep(np.zeros(1001), np.zeros(1000), gain_scale=1.0)


def test_sweep_unstable_point_recorded_inline():
    table = sweep([0.0], [0.0], gain_scale=3.5, kappa=1.0)
    assert len(table) == 1
    assert table.margin[0] < 0.0
    assert np.isnan(table.moments[0]).all() and np.isnan(table.ratio[0]).all()
    assert not table.violated[0].any()
    assert "steady" in table.failure[0] or "margin" in table.failure[0]


def test_sweep_keeps_a_point_within_the_boundary_tolerance():
    # rho22 = -9.7e-13 passes validate_physical, so the point gets its row
    table = sweep([-2.9e-12], [0.5], gain_scale=1.0)
    assert table.failure == ("",)
    assert table.prefactors[0, 2] == 0.0  # gain2


def test_sweep_refuses_unphysical_covariance_inline():
    # the literal-coefficient backend at A = 2 gives a stable drift whose
    # steady state has an indefinite x block; the point is recorded, not
    # reported as a violation or raised
    table = sweep([-0.1], [0.3], gain_scale=2.0, backend="paper-literal")
    assert len(table) == 1
    assert table.margin[0] > 0.0
    assert np.isnan(table.moments[0]).all() and not table.violated[0].any()
    assert "x block is not positive definite" in table.failure[0]


def test_sweep_fixed_time_mode():
    table = sweep(
        [0.0], [0.0], gain_scale=0.5, kappa=1.0, at_time=2.0, optimize=False
    )
    assert len(table) == 1
    assert table.moments[0, 2] > 0.0  # n3
    assert np.isfinite(table.ratio[0]).all()


@pytest.mark.parametrize("at_time", [np.nan, np.inf, -np.inf, -1.0])
def test_sweep_refuses_a_non_finite_or_negative_time(at_time):
    # at_time = nan once returned rows marked invalid "by t=nan"
    with pytest.raises(ValueError, match="finite and nonnegative"):
        sweep([0.0, 0.1], [0.0], gain_scale=0.5, at_time=at_time, optimize=False)


def test_oracle_and_engine_witnesses_agree():
    p = pref(0.0, 0.0)
    cfg = FockConfig(n_max=6, dt=0.02, t_final=5.0, edge_tol=1e-3)
    run = integrate(DensityState.vacuum(6), cfg, p, 1.0, sample_times=[5.0],
                    check_convergence=False)
    from ycel.dynamics import evolve_second_moments

    engine_m = evolve_second_moments(p, 1.0, 5.0)
    a = vlf_evaluate(covariance_from_moments(run.moments[-1]))
    b = vlf_evaluate(covariance_from_moments(engine_m))
    for bip in BIPARTITIONS:
        ra, rb = a.record(bip.name), b.record(bip.name)
        assert ra.lhs == pytest.approx(rb.lhs, rel=2e-3)


@pytest.mark.parametrize("backend", ["ehrenfest", "paper-literal"])
@pytest.mark.parametrize("gain", [0.5, 1.0, 2.0])
def test_witness_svd_of_the_distinct_matrices_equals_all_six(backend, gain, monkeypatch,
                                                             capsys):
    # The optimised default sweep takes one SVD of Lx^-1 D_s Lp^-T per
    # distinct D_s: s = +1, shared by the three bipartitions, and s = -1 for
    # each.  Indexed back to [member, bipartition, sign], it equals the SVD
    # of all six matrices bit for bit.
    calls = []
    inv, svd = np.linalg.inv, np.linalg.svd
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(inv(a)) or calls[-1])
    monkeypatch.setattr(np.linalg, "svd", lambda a: calls.append(svd(a)) or calls[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the paper-literal occupations
        assert main(["sweep", "--A", repr(gain), "--backend", backend]) == 0
    capsys.readouterr()
    six_d = np.ones((len(BIPARTITIONS), 2, 1, 3))
    six_d[np.arange(3), 1, 0, [bip.lone for bip in BIPARTITIONS]] = -1.0
    signed = [[0, 1], [0, 2], [0, 3]]
    assert calls and len(calls) % 3 == 0
    for lx_inv, lp_inv, distinct in zip(*[iter(calls)] * 3):
        six = svd((lx_inv[:, None, None] * six_d) @ lp_inv.swapaxes(-1, -2)[:, None, None])
        assert six[0].shape[:3] == (len(lx_inv), 3, 2)
        for got, want in zip(distinct, six, strict=True):
            assert np.array_equal(got[:, signed], want)
