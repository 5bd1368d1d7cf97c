"""The rank-one closed form of the moment engine against scipy.

The reference solves M S + S M^T = Q with solve_continuous_lyapunov in the
steady state, and at a time takes the exponential of the affine (Van
Loan) generator [[-(M (x) I + I (x) M), vec Q], [0, 0]] on the 9
entries of S.  Agreement is checked per preparation, relative to the
largest reference moment, on 41x41 grids at three gains, both backends,
the steady state and fixed times up to 200/margin, and at offsets 1e-2
to 1e-12 from the defective line eta1 + eta2 = 0.5 as well as on it.
"""

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from ycel.dynamics import _MOMENT_ENTRIES, _second_moment_rows, diffusion_matrix, drift_matrix
from ycel.model import prefactors_from_inversions, validate_physical

TOL = 1e-12
BACKENDS = ("ehrenfest", "paper-literal")


def grid_prefs(a, n=41):
    values = [float(v) for v in np.linspace(-1.0, 1.0, n)]
    return [prefactors_from_inversions(e1, e2, a) for e1 in values for e2 in values
            if validate_physical(e1, e2).valid]


def rows_of(prefs, backend, at_time):
    """The engine's margins, rows and refusals for a list of Prefactors."""
    cols = np.array([tuple(p) for p in prefs]).reshape(-1, 7)
    return _second_moment_rows(cols, 1.0, backend, at_time)


def reference(prefs, backend, at_time):
    """(N, 6) rows (n1, n2, n3, c32, c31, c21) from scipy."""
    m = np.array([drift_matrix(p, 1.0) for p in prefs])
    q = np.array([diffusion_matrix(p, backend) for p in prefs])
    if at_time is None:
        s = np.array([solve_continuous_lyapunov(*mq) for mq in zip(m, q)])
    else:
        eye = np.eye(3)
        gen = np.zeros((len(prefs), 10, 10))
        gen[:, :9, :9] = -(np.kron(m, eye) + np.kron(eye, m))
        gen[:, :9, 9] = q.reshape(-1, 9)
        # scipy's own scaling loses 5e-12 at 200 e-folds; squaring down from
        # a 1-norm of 1 keeps the reference within 1e-13
        k = max(0, int(np.ceil(np.log2(np.abs(gen).sum(axis=1).max() * at_time))))
        s = np.linalg.matrix_power(expm(gen * (at_time / 2.0**k)), 2**k)[:, :9, 9]
    return s.reshape(-1, 9)[:, _MOMENT_ENTRIES]


def compare(prefs, backend, at_time):
    """Worst relative moment deviation from the reference over the solved
    points; a point is refused exactly when it is unstable in the steady
    state.  Margins of a few ulps, where the reference is ill posed, are
    left to the marginal-point tests."""
    margin, rows, errors = rows_of(prefs, backend, at_time)
    for m, error in zip(margin.tolist(), errors):
        if abs(m) >= 1e-15:
            assert (error is None) == (at_time is not None or m > 0.0), str(error)
    solved = np.flatnonzero([e is None and abs(m) >= 1e-15
                             for m, e in zip(margin.tolist(), errors)])
    ref = reference([prefs[i] for i in solved], backend, at_time)
    scale = np.maximum(np.abs(ref).max(axis=1), 1e-300)
    return float((np.abs(rows[solved] - ref).max(axis=1) / scale).max(initial=0.0))


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("backend", BACKENDS)
def test_grid_matches_reference(a, backend):
    prefs = grid_prefs(a)
    assert len(prefs) == 631
    for at_time in (None, 0.01, 0.7, 5.0, 40.0):
        assert compare(prefs, backend, at_time) <= TOL, at_time


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_long_horizons_match_reference(a):
    # 2, 20 and 200 e-folds of the slowest mode, one point at a time
    prefs = grid_prefs(a, 21)
    margin, _, _ = rows_of(prefs, "ehrenfest", None)
    worst, checked = 0.0, 0
    for p, m in zip(prefs, margin.tolist()):
        if m < 1e-6:
            continue
        for backend in BACKENDS:
            for efolds in (2.0, 20.0, 200.0):
                worst = max(worst, compare([p], backend, efolds / m))
        checked += 1
    assert checked > 80
    assert worst <= TOL


def line_points():
    """(eta1, eta2) at offsets 1e-2 to 1e-12 from eta1 + eta2 = 0.5, and on it."""
    offsets = [0.0] + [s * 10.0**-k for k in range(2, 13) for s in (1.0, -1.0)]
    return [(e1, e2 + off) for off in offsets
            for e1, e2 in ((0.1, 0.4), (0.25, 0.25), (0.4, 0.1), (0.05, 0.45))]


@pytest.mark.parametrize("backend", BACKENDS)
def test_defective_line_matches_reference(backend):
    worst = 0.0
    for a in (0.5, 1.0, 2.0, 3.0):
        prefs = [prefactors_from_inversions(e1, e2, a) for e1, e2 in line_points()]
        for at_time in (None, 0.01, 0.7, 5.0, 40.0):
            worst = max(worst, compare(prefs, backend, at_time))
    assert worst <= TOL
