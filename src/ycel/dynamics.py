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

The drift is a scalar plus rank one: each atom starts in a pure
superposition, so the coupling matrix is v v^T with v = (sqrt loss1,
sqrt gain2, sqrt gain3).  With a = gain_scale and w = diag(1, -1, -1) v,

    M = kappa/2 I + a v w^T,   exp(-M s) = e^(-kappa s/2) (I + phi(s) v w^T),

phi(s) = -a s psi(mu s), psi(z) = (1 - e^-z) / z, mu = a lambda and
lambda = w.v = loss1 - (gain2 + gain3).  The eigenvalues are kappa/2
(twice) and kappa/2 + mu, so the margin kappa/2 + min(0, mu) is exact; on
the defective line eta1 + eta2 = 1/2, lambda = 0 and nothing branches.
From vacuum S(t) = I0 Q + I1 (v r^T + r v^T) + I2 c v v^T, r = Q w and
c = w.r, where I0, I1 and I2 integrate e^(-kappa s) times 1, phi and
phi^2 over [0, t]; they are divided differences of g(x) = (1 - e^-xt) / x
(1 / x in the steady state) at kappa, kappa + mu and kappa + 2 mu.

The closed-form route evaluates these on stacks of preparations: the
public single-preparation calls are stacks of one, and entanglement.sweep
passes its grid through in chunks.  The ode route integrates the six
equations numerically as an independent check; only it imports
scipy.integrate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, HorizonError, UnstableDriftError
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
    "stability",
    "steady_state_moments",
]

BACKENDS = ("ehrenfest", "paper-literal")
ROUTES = ("closed-form", "ode")

# exp() arguments past this would overflow float64 anyway; used by the
# horizon guard for unstable drifts.
_MAX_GROWTH_EXPONENT = 600.0

# w = _SIGNS * v
_SIGNS = np.array([1.0, -1.0, -1.0])


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
    ).reshape(len(prefs), 3, 3)
    return a, k


def _diffusion(a: np.ndarray, k: np.ndarray, backend: str) -> np.ndarray:
    """(N, 3, 3) noise matrices: a K with the mode-2,3 block doubled, and
    the mode-1 entry -2 a loss1 (paper-literal) or 0 (ehrenfest)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    q = a * (k * np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 2.0]]))
    q[:, 0, 0] = -2.0 * q[:, 0, 0] if backend == "paper-literal" else 0.0
    return q


def _rank_one(a: np.ndarray, k: np.ndarray, kappa: float):
    """v, mu = a lambda and the exact margin kappa/2 + min(0, mu) of each
    drift M = kappa/2 I + a v w^T in a stack."""
    d = k.diagonal(axis1=-2, axis2=-1)
    # a commutative sum: mirror preparations eta1 <-> eta2 get the same mu
    mu = a[:, 0, 0] * (d[:, 0] - (d[:, 1] + d[:, 2]))
    return np.sqrt(np.maximum(d, 0.0)), mu, kappa / 2.0 + np.minimum(0.0, mu)


def _linear_system(prefs, kappa: float, backend: str):
    """gain_scale a, v, mu, the exact margins and the noise matrices Q of a
    stack of preparations."""
    a, k = _couplings(prefs)
    q = _diffusion(a, k, backend)
    return (a[:, 0, 0], *_rank_one(a, k, kappa), q)


def _drifts(a: np.ndarray, k: np.ndarray, kappa: float) -> np.ndarray:
    """(N, 3, 3) drift matrices M = kappa/2 I + a K diag(1, -1, -1)."""
    m = a * (k * _SIGNS)
    m[:, range(3), range(3)] += kappa / 2.0
    return m


def drift_matrix(pref: Prefactors, kappa: float) -> np.ndarray:
    """3x3 drift matrix M = kappa/2 I + a K diag(1, -1, -1) of dR/dt = -M R
    over R = (a1*, a2, a3)."""
    return _drifts(*_couplings([pref]), kappa)[0]


def diffusion_matrix(pref: Prefactors, backend: str = "ehrenfest") -> np.ndarray:
    """Noise matrix Q of the second-moment equation, for either backend."""
    return _diffusion(*_couplings([pref]), backend)[0]


@dataclass(frozen=True)
class StabilityReport:
    """Stability verdict for a drift matrix: stable iff min Re(eig) > 0."""

    stable: bool
    margin: float
    eigenvalues: tuple[complex, ...]


def _spectrum(kappa: float, mu: float) -> tuple[complex, ...]:
    """The drift's eigenvalues kappa/2, kappa/2 and kappa/2 + mu, sorted."""
    return tuple(complex(z) for z in sorted((kappa / 2.0, kappa / 2.0, kappa / 2.0 + mu)))


def _eigen_text(values) -> str:
    return ", ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in values)


def is_stable(m: np.ndarray) -> StabilityReport:
    """Stability of any drift matrix from its numerically computed spectrum.

    An independent check of stability(): near the defective line the
    eigensolver's margin is off by up to about 1e-8.
    """
    eigvals = np.linalg.eigvals(np.asarray(m))
    eigvals = eigvals[np.lexsort((eigvals.imag, eigvals.real))]
    margin = float(eigvals.real.min())
    return StabilityReport(margin > 0.0, margin, tuple(complex(z) for z in eigvals))


def _eigen_margins(prefs, kappa: float) -> np.ndarray:
    """is_stable(drift_matrix(p, kappa)).margin of each preparation, from
    one stacked eigensolver call."""
    return np.linalg.eigvals(_drifts(*_couplings(prefs), kappa)).real.min(axis=-1)


def stability(pref: Prefactors, kappa: float) -> StabilityReport:
    """Exact stability of drift_matrix(pref, kappa): the eigenvalues kappa/2
    (twice) and kappa/2 + mu, and the margin kappa/2 + min(0, mu)."""
    _, mu, margin = _rank_one(*_couplings([pref]), kappa)
    margin = float(margin[0])
    return StabilityReport(margin > 0.0, margin, _spectrum(kappa, float(mu[0])))


def _psi(z):
    """(1 - e^-z) / z, and its limit 1 at z = 0."""
    nonzero = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, -np.expm1(-nonzero) / nonzero)


def evolve_first_moments(pref: Prefactors, kappa: float, r0, t: float) -> np.ndarray:
    """Propagate mean amplitudes: R(t) = exp(-M t) R0 with the engine's
    propagator e^(-kappa t/2) (I + phi(t) v w^T), exact for every drift."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    r0 = np.asarray(r0, dtype=complex)
    if r0.shape != (3,):
        raise ValueError("r0 must be a 3-vector")
    v, mu, margin = (x[0] for x in _rank_one(*_couplings([pref]), kappa))
    # e^(-kappa t/2) phi(t) = -a t e^(-margin t) psi(|mu| t), which overflows
    # only where the growth itself does
    coupled = -pref.gain_scale * t * np.exp(-margin * t) * _psi(np.abs(mu) * t)
    return np.exp(-kappa * t / 2.0) * r0 + coupled * v * ((v * _SIGNS) @ r0)


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
        return cls(*((s + s.T) / 2.0).ravel()[_MOMENT_ENTRIES].tolist())

    @classmethod
    def vacuum(cls) -> "SecondMoments":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def as_tuple(self) -> tuple[float, ...]:
        return (self.n1, self.n2, self.n3, self.c32, self.c31, self.c21)


# Row-major positions of n1, n2, n3, c32, c31, c21 in a 3x3 moment matrix.
_MOMENT_ENTRIES = np.array([0, 4, 8, 7, 6, 3])


def _horizon_errors(margin: np.ndarray, mu: np.ndarray, kappa: float, t: float) -> list:
    """HorizonError for each drift whose growth over t overflows, else None."""
    errors = [None] * len(margin)
    for i in np.flatnonzero(2.0 * np.maximum(0.0, -margin) * t > _MAX_GROWTH_EXPONENT):
        errors[i] = HorizonError(
            f"unstable drift (margin {margin[i]:.3g}, eigenvalues "
            f"{_eigen_text(_spectrum(kappa, mu[i]))}) over t={t:.3g} overflows; "
            "no steady state exists in this regime, reduce t"
        )
    return errors


def _g(x, t):
    """g(x) = (1 - e^-xt) / x, or 1 / x in the steady state (t None)."""
    return 1.0 / x if t is None else t * _psi(x * t)


def _g_pair(x, mu, t):
    """The divided difference g[x, x + mu], mu = 0 included.

    Leibniz's rule on x g(x) = F(x) = 1 - e^-xt gives p g[x, x + mu] =
    F[x, x + mu] - g(q), with p the node of larger magnitude and q the
    other; F[lo, lo + h] = t e^-lo t psi(h t) for h >= 0, and 0 steady.
    """
    y = x + mu
    far = np.abs(y) > np.abs(x)
    p, q = np.where(far, y, x), np.where(far, x, y)
    slope = 0.0 if t is None else t * np.exp(-np.minimum(x, y) * t) * _psi(np.abs(mu) * t)
    return (slope - _g(q, t)) / p


def _integrals(kappa: float, mu: np.ndarray, t):
    """g[kappa], g[kappa, kappa + mu] and g[kappa, kappa + mu, kappa + 2 mu].

    These are I0, I1 / a and I2 / (2 a^2).  As in _g_pair, the node p of
    largest magnitude, an end node and never below kappa, is peeled off:
    p g[all] = F[all] - g[the other two], where F[lo, lo + h, lo + 2h] =
    -(t^2 / 2) e^-lo t psi(h t)^2.  No step divides by mu, so the
    defective line lambda = 0 takes no branch (McCurdy, Ng and Parlett,
    Math. Comp. 43, 501 (1984)).
    """
    end = kappa + 2.0 * mu
    i1 = _g_pair(kappa, mu, t)
    far = np.abs(end) > kappa
    rest = np.where(far, i1, _g_pair(kappa + mu, mu, t))
    curve = 0.0 if t is None else (
        -0.5 * t * t * np.exp(-np.minimum(kappa, end) * t) * _psi(np.abs(mu) * t) ** 2)
    return np.asarray(_g(kappa, t)), i1, (curve - rest) / np.where(far, end, kappa)


def _moment_rows_at(a, v, mu, q, kappa: float, t) -> np.ndarray:
    """(n1, n2, n3, c32, c31, c21) of S = I0 Q + I1 (v r^T + r v^T) + I2 c v v^T.

    a, v, mu and q describe N preparations; t is a (T, 1) array of times,
    giving (T, N, 6) rows, or None for the steady states, giving (N, 6).
    Each term of S is symmetric in floating point, so S is too.
    """
    w = v * _SIGNS
    r = (q @ w[..., None])[..., 0]
    c = (w * r).sum(axis=-1)
    vr = v[:, :, None] * r[:, None, :]
    i0, i1, i2 = _integrals(kappa, mu, t)
    s = (i0[..., None, None] * q
         + (a * i1)[..., None, None] * (vr + vr.swapaxes(-1, -2))
         + (2.0 * a * a * c * i2)[..., None, None] * (v[:, :, None] * v[:, None, :]))
    # + 0.0 turns the -0.0 that t = 0 leaves under negative entries into 0.0
    return s.reshape(*s.shape[:-2], 9)[..., _MOMENT_ENTRIES] + 0.0


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

    The closed-form route evaluates the rank-one formula at every sample,
    defective drifts included; the ode route integrates the same equation
    numerically.
    """
    times = [float(t) for t in times]
    if not times or any(t < 0.0 for t in times):
        raise ValueError("times must be nonnegative")
    if any(b > a for a, b in zip(times[1:], times)):
        raise ValueError("times must be nondecreasing")
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    a, v, mu, margin, q = _linear_system([pref], kappa, backend)
    overflow = _horizon_errors(margin, mu, kappa, times[-1])[0]
    if overflow is not None:
        raise overflow
    if route == "ode":
        return _integrate_second_moments(drift_matrix(pref, kappa), q[0], times, backend)
    rows = _moment_rows_at(a, v, mu, q, kappa, np.array(times)[:, None])[:, 0]
    return [_check_occupations(SecondMoments(*row), backend) for row in rows.tolist()]


def _integrate_second_moments(m, q, times, backend):
    from scipy.integrate import solve_ivp

    y0 = np.zeros(6)

    def rhs(_, y):
        s = SecondMoments(*y).as_matrix()
        return (-m @ s - s @ m.T + q).ravel()[_MOMENT_ENTRIES]

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


def _second_moment_rows(prefs, kappa: float, backend: str, at_time: float | None):
    """Moments of a batch of preparations, in one stacked pass.

    at_time None gives the steady states; a time gives the state from
    vacuum there.  Returns the exact stability margins, the (N, 6) moment
    rows (n1, n2, n3, c32, c31, c21), NaN where refused, and for each
    preparation None or the error refusing it: an unstable drift in the
    steady state, a horizon its growth overflows at a time.
    """
    a, v, mu, margin, q = _linear_system(prefs, kappa, backend)
    if at_time is None:
        errors = [None] * len(prefs)
        for i in np.flatnonzero(~(margin > 0.0)):
            errors[i] = UnstableDriftError(
                f"no steady state: drift margin {margin[i]:.6g} <= 0 "
                f"(eigenvalues {_eigen_text(_spectrum(kappa, mu[i]))})")
    else:
        errors = _horizon_errors(margin, mu, kappa, at_time)
    ok = np.flatnonzero([e is None for e in errors])
    t = None if at_time is None else np.array([[at_time]])
    rows = np.full((len(prefs), 6), np.nan)
    rows[ok] = _moment_rows_at(a[ok], v[ok], mu[ok], q[ok], kappa, t).reshape(-1, 6)
    return margin, rows, errors


def steady_state_moments(
    pref: Prefactors, kappa: float, *, backend: str = "ehrenfest"
) -> SecondMoments:
    """The steady second moments, which solve M S + S M^T = Q.

    Requires a strictly stable drift (UnstableDriftError otherwise); the
    rank-one closed form needs no linear solve.
    """
    return _steady_state(pref, kappa, backend)[1]


def _steady_state(pref: Prefactors, kappa: float, backend: str) -> tuple[float, SecondMoments]:
    """Exact stability margin and steady moments of one preparation."""
    margin, rows, errors = _second_moment_rows([pref], kappa, backend, None)
    if errors[0] is not None:
        raise errors[0]
    return float(margin[0]), _check_occupations(
        SecondMoments(*rows[0].tolist()), backend, stacklevel=4
    )
