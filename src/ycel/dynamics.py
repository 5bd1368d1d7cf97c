"""First and second moments of the three cavity modes.

The linearised amplitude equations close over the vector

    R = (a1*, a2, a3)

i.e. the conjugate amplitude of the lower-transition mode together with the
two upper-transition amplitudes.  They read dR/dt = -M R + noise, with the
drift matrix M built from the master-equation coefficients.  Second moments
S = <R R^dagger> (real symmetric: occupations n1, n2, n3 and the cross
moments c32 = <a3^dag a2>, c31 = <a3 a1>, c21 = <a2 a1>) obey

    dS/dt = -M S - S M^T + Q.

Two conventions for the noise matrix Q are implemented.  Backend
"paper-literal" keeps the mode-1 diagonal entry -2*gain_scale*loss1 that the
original derivation of this model carries, which pushes n1 negative from
vacuum.  Backend "ehrenfest" (default) rederives the moment equations
directly from the master equation, giving a zero entry there; the Fock-space
oracle confirms this form (a purely absorbing mode must keep its vacuum).
The two backends differ in nothing else.

Evolution comes in two interchangeable routes: an exact matrix exponential
of the affine (Van Loan) generator of the vectorised equation, valid for
every drift whether diagonalisable or defective, and direct integration of
the six-dimensional linear system.  Only the integration route imports
scipy.integrate.

The closed-form kernels work on stacks of preparations, along a leading
batch axis: the public single-preparation calls are stacks of one, and
entanglement.sweep passes its grid through the same kernels in chunks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateSteadyStateError,
    HorizonError,
    UnstableDriftError,
)
from .model import Prefactors

__all__ = [
    "BACKENDS",
    "NegativeOccupationWarning",
    "ROUTES",
    "SecondMoments",
    "StabilityReport",
    "diffusion_matrix",
    "drift_matrix",
    "evolve_first_moments",
    "evolve_second_moments",
    "is_stable",
    "second_moment_trajectory",
    "steady_state_moments",
]

BACKENDS = ("ehrenfest", "paper-literal")
ROUTES = ("closed-form", "ode")

# exp() arguments past this would overflow float64 anyway; used by the
# horizon guard for unstable drifts.
_MAX_GROWTH_EXPONENT = 600.0

# Degree-9 Pade coefficients of exp; below a 1-norm of 2.098 their backward
# error is under the double-precision unit roundoff (Higham, SIAM J. Matrix
# Anal. Appl. 26, 1179, 2005).
_PADE9 = (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
          2162160.0, 110880.0, 3960.0, 90.0, 1.0)


class NegativeOccupationWarning(UserWarning):
    """A mean photon number came out negative (paper-literal artifact)."""


def _couplings(prefs) -> tuple[np.ndarray, np.ndarray]:
    """gain_scale a, shaped (N, 1, 1), and the symmetric coupling matrices
    K (N, 3, 3) of N preparations, over R = (a1*, a2, a3)."""
    a = np.array([p.gain_scale for p in prefs])[:, None, None]
    k = np.array(
        [
            [
                [p.loss1, p.cross21, p.cross31],
                [p.cross21, p.gain2, p.cross32],
                [p.cross31, p.cross32, p.gain3],
            ]
            for p in prefs
        ]
    )
    return a, k


def _drift(a: np.ndarray, k: np.ndarray, kappa: float) -> np.ndarray:
    """(N, 3, 3) drift matrices M = kappa/2 I + a K diag(1, -1, -1)."""
    m = a * (k * np.array([1.0, -1.0, -1.0]))
    m.reshape(-1, 9)[:, ::4] += kappa / 2.0
    return m


def _diffusion(a: np.ndarray, k: np.ndarray, backend: str) -> np.ndarray:
    """(N, 3, 3) noise matrices: a K with the mode-2,3 block doubled, and
    the mode-1 entry -2 a loss1 (paper-literal) or 0 (ehrenfest)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    q = a * (k * np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 2.0]]))
    q[:, 0, 0] = -2.0 * q[:, 0, 0] if backend == "paper-literal" else 0.0
    return q


def drift_matrix(pref: Prefactors, kappa: float) -> np.ndarray:
    """3x3 drift matrix M of dR/dt = -M R over R = (a1*, a2, a3)."""
    return _drift(*_couplings([pref]), kappa)[0]


def diffusion_matrix(pref: Prefactors, backend: str = "ehrenfest") -> np.ndarray:
    """Noise matrix Q of the second-moment equation, for either backend."""
    return _diffusion(*_couplings([pref]), backend)[0]


@dataclass(frozen=True)
class StabilityReport:
    """Stability verdict for a drift matrix: stable iff min Re(eig) > 0."""

    stable: bool
    margin: float
    eigenvalues: tuple[complex, ...]


def _spectra(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stability margin and (real, imag)-sorted eigenvalues of each drift in a stack."""
    eigvals = np.linalg.eigvals(m)
    order = np.lexsort((eigvals.imag, eigvals.real), axis=-1)
    eigvals = eigvals[np.arange(len(eigvals))[:, None], order]
    return eigvals.real.min(axis=-1), eigvals


def _eigen_text(eigvals) -> str:
    return ", ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in eigvals)


def is_stable(m: np.ndarray) -> StabilityReport:
    margin, eigvals = _spectra(np.asarray(m)[None])
    margin = float(margin[0])
    return StabilityReport(margin > 0.0, margin, tuple(complex(z) for z in eigvals[0]))


def _linear_system(prefs, kappa: float, backend: str):
    """Drift, noise, stability margin and sorted drift spectrum of each preparation."""
    a, k = _couplings(prefs)
    m = _drift(a, k, kappa)
    return (m, _diffusion(a, k, backend), *_spectra(m))


def _stacked(fn, a: np.ndarray, *rest: np.ndarray):
    """fn over a stack of matrices, refusing only the members LAPACK refuses.

    numpy.linalg raises for a whole stack when one member fails.  The
    members are then tried one at a time; each one that fails is replaced
    by the identity and its LinAlgError is returned under its index.
    """
    try:
        return fn(a, *rest), {}
    except np.linalg.LinAlgError:
        pass
    failed = {}
    for i in range(len(a)):
        try:
            fn(a[i : i + 1], *(r[i : i + 1] for r in rest))
        except np.linalg.LinAlgError as exc:
            failed[i] = exc
    a = a.copy()
    a[list(failed)] = np.eye(a.shape[-1])
    return fn(a, *rest), failed


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix in a stack: scale to 1-norm <= 2, Pade 9, square.

    Scaling every matrix this far keeps a slowly decaying generator
    accurate at long times (scipy's expm squares fewer times there and
    loses 7e-10 relative at margin 0.002, t = 200/margin), and numpy's
    solve stays fast on a loaded machine where scipy's LAPACK does not.
    """
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norms / 2.0, 1.0))).astype(int)
    a = a / 2.0 ** squarings[..., None, None]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    a8 = a6 @ a2
    b, eye = _PADE9, np.eye(a.shape[-1])
    u = a @ (b[9] * a8 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = b[8] * a8 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    e = np.linalg.solve(v - u, v + u)
    for k in range(squarings.max(initial=0)):
        due = squarings > k
        e[due] = e[due] @ e[due]
    return e


def evolve_first_moments(m: np.ndarray, r0: np.ndarray, t: float) -> np.ndarray:
    """Propagate mean amplitudes: R(t) = exp(-M t) R0, for any drift M."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    r0 = np.asarray(r0, dtype=complex)
    if r0.shape != (3,):
        raise ValueError("r0 must be a 3-vector")
    return _expm(-m * t) @ r0


@dataclass(frozen=True)
class SecondMoments:
    """Occupations and cross moments of the three modes.

    n1, n2, n3 are mean photon numbers; c32 = <a3^dag a2>, c31 = <a3 a1>,
    c21 = <a2 a1>.  All six are real in this model (coupling constants and
    initial coherences are real).
    """

    n1: float
    n2: float
    n3: float
    c32: float
    c31: float
    c21: float

    def as_matrix(self) -> np.ndarray:
        """Symmetric <R R^dagger> matrix in the (a1*, a2, a3) ordering."""
        return np.array(
            [
                [self.n1, self.c21, self.c31],
                [self.c21, self.n2, self.c32],
                [self.c31, self.c32, self.n3],
            ]
        )

    @classmethod
    def from_matrix(cls, s: np.ndarray, tol: float = 1e-9) -> "SecondMoments":
        s = np.asarray(s, dtype=float)
        if s.shape != (3, 3):
            raise ValueError("second-moment matrix must be 3x3")
        rows, asymmetric = _moment_rows(s[None], tol)
        if asymmetric[0]:
            raise ConsistencyError("second-moment matrix is not symmetric")
        return cls(*rows[0].tolist())

    @classmethod
    def vacuum(cls) -> "SecondMoments":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def as_tuple(self) -> tuple[float, ...]:
        return (self.n1, self.n2, self.n3, self.c32, self.c31, self.c21)


# Row-major positions of n1, n2, n3, c32, c31, c21 in a 3x3 moment matrix.
_MOMENT_ENTRIES = np.array([0, 4, 8, 7, 6, 3])


def _moment_rows(s: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(n1, n2, n3, c32, c31, c21) of each symmetrised matrix in an
    (N, 3, 3) stack, and which were asymmetric beyond tol relative to their size."""
    st = np.swapaxes(s, -1, -2)
    size = np.maximum(1.0, np.abs(s).max(axis=(-2, -1)))
    asymmetric = np.abs(s - st).max(axis=(-2, -1)) > tol * size
    return ((s + st) / 2.0).reshape(-1, 9)[:, _MOMENT_ENTRIES], asymmetric


def _horizon_errors(margin: np.ndarray, eigvals: np.ndarray, t: float) -> list:
    """HorizonError for each drift whose growth over t overflows, else None."""
    errors = [None] * len(margin)
    for i in np.flatnonzero(2.0 * np.maximum(0.0, -margin) * t > _MAX_GROWTH_EXPONENT):
        errors[i] = HorizonError(
            f"unstable drift (margin {margin[i]:.3g}, eigenvalues {_eigen_text(eigvals[i])}) "
            f"over t={t:.3g} overflows; no steady state exists in this regime, reduce t"
        )
    return errors


def _lyapunov_operator(m: np.ndarray) -> np.ndarray:
    """9x9 matrices L with vec(M S + S M^T) = L vec(S) (row-major vec), one
    per drift of an (N, 3, 3) stack: the Kronecker sum M (x) I + I (x) M."""
    eye = np.eye(3)
    kron_m_eye = m[:, :, None, :, None] * eye[:, None, :]
    kron_eye_m = eye[:, None, :, None] * m[:, None, :, None, :]
    return (kron_m_eye + kron_eye_m).reshape(-1, 9, 9)


def _closed_form_second_moments(m, q, times) -> np.ndarray:
    """S(t) from vacuum via the affine generator B = [[-L, vec Q], [0, 0]] (Van Loan).

    m and q are (N, 3, 3) stacks; the result is (N, len(times), 3, 3).
    exp(B t) maps (vec S0, 1) to (vec S(t), 1) exactly, whatever the
    Jordan structure of M, and every entry of it stays bounded for a
    stable drift however long t is.
    """
    gen = np.zeros((len(m), 10, 10))
    gen[:, :9, :9] = -_lyapunov_operator(m)
    gen[:, :9, 9] = q.reshape(-1, 9)
    start = np.append(np.zeros(9), 1.0)
    props = _expm(gen[:, None] * np.asarray(times)[:, None, None])
    return (props @ start)[..., :9].reshape(len(m), len(times), 3, 3)


def _check_occupations(m: SecondMoments, backend: str, stacklevel: int = 3) -> SecondMoments:
    low = min(m.n1, m.n2, m.n3)
    if low < -1e-9:
        warnings.warn(
            f"negative mean photon number {low:.6g} from backend {backend!r}; "
            "the as-printed mode-1 noise term drives this, and the ehrenfest "
            "backend (confirmed by the Fock oracle) does not",
            NegativeOccupationWarning,
            stacklevel=stacklevel,
        )
    return m


def second_moment_trajectory(
    pref: Prefactors,
    kappa: float,
    times,
    *,
    backend: str = "ehrenfest",
    route: str = "closed-form",
) -> list[SecondMoments]:
    """Second moments from vacuum at each requested time (nondecreasing, >= 0).

    The closed-form route takes one exact matrix exponential per sample and
    handles defective drifts like any other; the ode route integrates the
    same equation numerically.
    """
    times = [float(t) for t in times]
    if not times or any(t < 0.0 for t in times):
        raise ValueError("times must be nonnegative")
    if any(b > a for a, b in zip(times[1:], times)):
        raise ValueError("times must be nondecreasing")
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    m, q, margin, eigvals = _linear_system([pref], kappa, backend)
    overflow = _horizon_errors(margin, eigvals, times[-1])[0]
    if overflow is not None:
        raise overflow
    if route == "ode":
        return _integrate_second_moments(m[0], q[0], times, backend)
    rows, asymmetric = _moment_rows(_closed_form_second_moments(m, q, times)[0], 1e-8)
    out = []
    for row, asym in zip(rows.tolist(), asymmetric):
        if asym:
            raise ConsistencyError("second-moment matrix is not symmetric")
        out.append(_check_occupations(SecondMoments(*row), backend))
    return out


def _integrate_second_moments(m, q, times, backend):
    from scipy.integrate import solve_ivp

    y0 = np.zeros(6)

    def rhs(_, y):
        s = SecondMoments(*y).as_matrix()
        ds = -m @ s - s @ m.T + q
        return np.array(
            [ds[0, 0], ds[1, 1], ds[2, 2], ds[2, 1], ds[2, 0], ds[1, 0]]
        )

    # t_eval must be strictly inside the span; handle t=0 and duplicates by lookup
    t_end = times[-1]
    if t_end == 0.0:
        return [SecondMoments.vacuum()] * len(times)
    unique = sorted({t for t in times if t > 0.0})
    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        y0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        t_eval=unique,
        dense_output=False,
    )
    if not sol.success:
        raise ConsistencyError(f"moment integration failed: {sol.message}")
    table = {t: sol.y[:, i] for i, t in enumerate(unique)}
    table[0.0] = y0
    return [
        _check_occupations(SecondMoments(*(float(x) for x in table[t])), backend)
        for t in times
    ]


def evolve_second_moments(
    pref: Prefactors,
    kappa: float,
    t: float,
    *,
    backend: str = "ehrenfest",
    route: str = "closed-form",
) -> SecondMoments:
    """Second moments at a single time, from vacuum."""
    return second_moment_trajectory(
        pref, kappa, [t], backend=backend, route=route
    )[0]


def _refuse(errors: list, mask: np.ndarray, error) -> None:
    """Refuse each preparation i in mask with error(i), unless already refused."""
    for i in np.asarray(mask).nonzero()[0].tolist():
        if errors[i] is None:
            errors[i] = error(i)


def _second_moment_rows(prefs, kappa: float, backend: str, at_time: float | None):
    """Moments of a batch of preparations, in one stacked pass.

    at_time None solves M S + S M^T = Q for the steady states; a time
    evaluates the state from vacuum there on the closed-form route.
    Returns the stability margins, the (N, 6) moment rows (n1, n2, n3,
    c32, c31, c21), NaN where refused, and for each preparation None or
    the first error refusing it, in the order the single-preparation
    calls check: an unstable drift, then a singular or inaccurate steady
    solve, or a horizon the growth overflows; last an asymmetric result.
    """
    m, q, margin, eigvals = _linear_system(prefs, kappa, backend)
    s = np.full(m.shape, np.nan)
    if at_time is None:
        errors = [None] * len(margin)
        _refuse(errors, ~(margin > 0.0), lambda i: UnstableDriftError(
            f"no steady state: drift margin {margin[i]:.6g} <= 0 "
            f"(eigenvalues {_eigen_text(eigvals[i])})"))
        ok = np.flatnonzero(margin > 0.0)
        lyapunov = _lyapunov_operator(m[ok])
        vec, singular = _stacked(np.linalg.solve, lyapunov, q[ok].reshape(-1, 9, 1))
        singular = {ok[j]: exc for j, exc in singular.items()}
        s[ok] = vec.reshape(-1, 3, 3)
        residual = np.abs(m @ s + s @ np.swapaxes(m, -1, -2) - q).max(axis=(-2, -1))
        inaccurate = residual > 1e-9 * np.maximum(1.0, np.abs(q).max(axis=(-2, -1)))
        rows, asymmetric = _moment_rows(s, 1e-10)
        failed = [i in singular for i in range(len(m))]
        _refuse(errors, failed, lambda i: DegenerateSteadyStateError(
            f"steady-state system singular: {singular[i]}"))
        _refuse(errors, inaccurate, lambda i: DegenerateSteadyStateError(
            f"steady-state residual {residual[i]:.3g} too large (near-marginal drift?)"))
        _refuse(errors, asymmetric, lambda i: DegenerateSteadyStateError(
            "steady-state solution lost symmetry"))
    else:
        errors = _horizon_errors(margin, eigvals, at_time)
        ok = np.flatnonzero([e is None for e in errors])
        s[ok] = _closed_form_second_moments(m[ok], q[ok], [at_time])[:, 0]
        rows, asymmetric = _moment_rows(s, 1e-8)
        _refuse(errors, asymmetric,
                lambda i: ConsistencyError("second-moment matrix is not symmetric"))
    rows[[e is not None for e in errors]] = np.nan
    return margin, rows, errors


def steady_state_moments(
    pref: Prefactors, kappa: float, *, backend: str = "ehrenfest"
) -> SecondMoments:
    """Solve M S + S M^T = Q for the steady second moments.

    Requires a strictly stable drift; the 9x9 vectorised system is solved
    directly and the result symmetrised.
    """
    return _steady_state(pref, kappa, backend)[1]


def _steady_state(pref: Prefactors, kappa: float, backend: str) -> tuple[float, SecondMoments]:
    """Stability margin and steady moments, from one drift and one spectrum."""
    margin, rows, errors = _second_moment_rows([pref], kappa, backend, None)
    if errors[0] is not None:
        raise errors[0]
    return float(margin[0]), _check_occupations(
        SecondMoments(*rows[0].tolist()), backend, stacklevel=4
    )
