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


def drift_matrix(pref: Prefactors, kappa: float) -> np.ndarray:
    """3x3 drift matrix M of dR/dt = -M R over R = (a1*, a2, a3)."""
    a = pref.gain_scale
    half = kappa / 2.0
    return np.array(
        [
            [half + a * pref.loss1, -a * pref.cross21, -a * pref.cross31],
            [a * pref.cross21, half - a * pref.gain2, -a * pref.cross32],
            [a * pref.cross31, -a * pref.cross32, half - a * pref.gain3],
        ]
    )


def diffusion_matrix(pref: Prefactors, backend: str = "ehrenfest") -> np.ndarray:
    """Noise matrix Q of the second-moment equation, for either backend."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    a = pref.gain_scale
    q11 = -2.0 * pref.loss1 if backend == "paper-literal" else 0.0
    return a * np.array(
        [
            [q11, pref.cross21, pref.cross31],
            [pref.cross21, 2.0 * pref.gain2, 2.0 * pref.cross32],
            [pref.cross31, 2.0 * pref.cross32, 2.0 * pref.gain3],
        ]
    )


@dataclass(frozen=True)
class StabilityReport:
    """Stability verdict for a drift matrix: stable iff min Re(eig) > 0."""

    stable: bool
    margin: float
    eigenvalues: tuple[complex, ...]


def is_stable(m: np.ndarray) -> StabilityReport:
    eigvals = np.linalg.eigvals(m)
    order = np.lexsort((eigvals.imag, eigvals.real))
    eigvals = eigvals[order]
    margin = float(eigvals.real.min())
    return StabilityReport(margin > 0.0, margin, tuple(complex(z) for z in eigvals))


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
    for k in range(squarings.max()):
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
        if np.abs(s - s.T).max() > tol * max(1.0, np.abs(s).max()):
            raise ConsistencyError("second-moment matrix is not symmetric")
        s = (s + s.T) / 2.0
        return cls(
            n1=float(s[0, 0]),
            n2=float(s[1, 1]),
            n3=float(s[2, 2]),
            c32=float(s[2, 1]),
            c31=float(s[2, 0]),
            c21=float(s[1, 0]),
        )

    @classmethod
    def vacuum(cls) -> "SecondMoments":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def as_tuple(self) -> tuple[float, ...]:
        return (self.n1, self.n2, self.n3, self.c32, self.c31, self.c21)


def _guard_horizon(report: StabilityReport, t: float) -> None:
    growth = max(0.0, -report.margin)
    if 2.0 * growth * t > _MAX_GROWTH_EXPONENT:
        eigs = ", ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in report.eigenvalues)
        raise HorizonError(
            f"unstable drift (margin {report.margin:.3g}, eigenvalues {eigs}) "
            f"over t={t:.3g} overflows; no steady state exists in this regime, "
            "reduce t"
        )


def _lyapunov_operator(m: np.ndarray) -> np.ndarray:
    """9x9 matrix L with vec(M S + S M^T) = L vec(S) (row-major vec)."""
    eye = np.eye(3)
    return np.kron(m, eye) + np.kron(eye, m)


def _closed_form_second_moments(m, q, times) -> list[np.ndarray]:
    """S(t) from vacuum via the affine generator B = [[-L, vec Q], [0, 0]] (Van Loan).

    exp(B t) maps (vec S0, 1) to (vec S(t), 1) exactly, whatever the
    Jordan structure of M, and every entry of it stays bounded for a
    stable drift however long t is.
    """
    gen = np.block([[-_lyapunov_operator(m), q.reshape(9, 1)], [np.zeros((1, 10))]])
    start = np.append(np.zeros(9), 1.0)
    props = _expm(gen * np.asarray(times)[:, None, None])
    return list((props @ start)[:, :9].reshape(-1, 3, 3))


def _check_occupations(m: SecondMoments, backend: str) -> SecondMoments:
    low = min(m.n1, m.n2, m.n3)
    if low < -1e-9:
        warnings.warn(
            f"negative mean photon number {low:.6g} from backend {backend!r}; "
            "the as-printed mode-1 noise term drives this, and the ehrenfest "
            "backend (confirmed by the Fock oracle) does not",
            NegativeOccupationWarning,
            stacklevel=3,
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
    m = drift_matrix(pref, kappa)
    q = diffusion_matrix(pref, backend)
    _guard_horizon(is_stable(m), times[-1])

    if route == "closed-form":
        return [
            _check_occupations(SecondMoments.from_matrix(s, tol=1e-8), backend)
            for s in _closed_form_second_moments(m, q, times)
        ]
    return _integrate_second_moments(m, q, times, backend)


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


def steady_state_moments(
    pref: Prefactors, kappa: float, *, backend: str = "ehrenfest"
) -> SecondMoments:
    """Solve M S + S M^T = Q for the steady second moments.

    Requires a strictly stable drift; the 9x9 vectorised system is solved
    directly and the result symmetrised.
    """
    m = drift_matrix(pref, kappa)
    report = is_stable(m)
    if not report.stable:
        eigs = ", ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in report.eigenvalues)
        raise UnstableDriftError(
            f"no steady state: drift margin {report.margin:.6g} <= 0 (eigenvalues {eigs})"
        )
    q = diffusion_matrix(pref, backend)
    try:
        vec = np.linalg.solve(_lyapunov_operator(m), q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(f"steady-state system singular: {exc}") from exc
    s = vec.reshape(3, 3)
    residual = np.abs(m @ s + s @ m.T - q).max()
    if residual > 1e-9 * max(1.0, np.abs(q).max()):
        raise DegenerateSteadyStateError(
            f"steady-state residual {residual:.3g} too large (near-marginal drift?)"
        )
    if np.abs(s - s.T).max() > 1e-10 * max(1.0, np.abs(s).max()):
        raise DegenerateSteadyStateError("steady-state solution lost symmetry")
    return _check_occupations(SecondMoments.from_matrix(s, tol=1e-10), backend)
