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

The closed-form route evaluates these on stacks of preparations, and
entanglement.sweep passes its grid through in chunks.  The public
single-preparation calls, where numpy's per-call overhead would dominate a
stack of one, compute the same values bit for bit on Python floats, in
one kernel that serves the steady state and a trajectory alike, except for
two steps: r = Q w, which numpy hands to BLAS in its own summation order,
and a trajectory's exponentials, which differ from math's in the last bit
for some arguments; a trajectory gathers them over all its sample times
into one np.expm1 and one np.exp call.  The ode route integrates the six
equations numerically as an independent check; only it imports
scipy.integrate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, ConsistencyError, FloatRangeError, HorizonError,
                     UnstableDriftError)
from .model import BACKENDS, ROUTES, Prefactors

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

# exp() arguments past this would overflow float64 anyway; used by the
# horizon guard for unstable drifts.
_MAX_GROWTH_EXPONENT = 600.0

# w = _SIGNS * v
_SIGNS = np.array([1.0, -1.0, -1.0])


class NegativeOccupationWarning(UserWarning):
    """A mean photon number came out negative (paper-literal artifact)."""


# Row-major positions of the entries of K among the Prefactors columns
# (gain_scale, gain3, gain2, loss1, cross32, cross31, cross21).
_K_ENTRIES = np.array([3, 6, 5, 6, 2, 4, 5, 4, 1])


def _columns(pref: Prefactors) -> np.ndarray:
    """The (1, 7) stack of Prefactors columns of one preparation."""
    return np.array([tuple(pref)])


def _couplings(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gain_scale a, shaped (N, 1, 1), and the symmetric coupling matrices
    K (N, 3, 3), over R = (a1*, a2, a3), of N preparations given as (N, 7)
    Prefactors columns."""
    return cols[:, 0, None, None], cols.take(_K_ENTRIES, axis=1).reshape(-1, 3, 3)


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")


def _diffusion(a: np.ndarray, k: np.ndarray, backend: str) -> np.ndarray:
    """(N, 3, 3) noise matrices: a K with the mode-2,3 block doubled, and
    the mode-1 entry -2 a loss1 (paper-literal) or 0 (ehrenfest)."""
    _check_backend(backend)
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


def _check_kappa(kappa: float) -> None:
    if not 0.0 < kappa < math.inf:
        raise ConfigurationError("kappa must be positive and finite")


def _drift(pref: Prefactors, kappa: float) -> tuple[float, list[float], float, float]:
    """_rank_one of one preparation on Python floats: a, v, mu and the
    exact margin.  Refuses a kappa that is not positive and finite."""
    _check_kappa(kappa)
    a, d = pref.gain_scale, (pref.loss1, pref.gain2, pref.gain3)
    mu = a * (d[0] - (d[1] + d[2]))
    # on a tie between zeros np.maximum and np.minimum return their second
    # argument, and max and min their first
    return a, [math.sqrt(max(0.0, x)) for x in d], mu, kappa / 2.0 + min(mu, 0.0)


def _preparation(pref: Prefactors, kappa: float, backend: str):
    """_second_moment_rows' set-up of one preparation on Python floats, with
    what its moments need: a, mu, the exact margin, c = w.Q w, the (1, 3, 3)
    noise matrix Q, and the entries (n1, n2, n3, c32, c31, c21) of Q,
    v r^T + r v^T and v v^T.  The stacked engine's operations in its
    order, with r and c by its expressions on a stack of one."""
    a, v, mu, margin = _drift(pref, kappa)
    _check_backend(backend)
    q00 = -2.0 * (a * pref.loss1) if backend == "paper-literal" else 0.0
    q10, q20, q21 = a * pref.cross21, a * pref.cross31, a * (pref.cross32 * 2.0)
    q = np.array([[[q00, q10, q20],
                   [q10, a * (pref.gain2 * 2.0), q21],
                   [q20, q21, a * (pref.gain3 * 2.0)]]])
    w = np.array([[v[0], -v[1], -v[2]]])
    r = (q @ w[..., None])[..., 0]
    c = (w * r).sum(axis=-1)[0].item()
    qs, r = q[0].tolist(), r[0].tolist()
    entries = ([qs[i][j] for i, j in _ENTRY_PAIRS],
               [v[i] * r[j] + v[j] * r[i] for i, j in _ENTRY_PAIRS],
               [v[i] * v[j] for i, j in _ENTRY_PAIRS])
    return a, mu, margin, c, q, entries


def _drifts(a: np.ndarray, k: np.ndarray, kappa: float) -> np.ndarray:
    """(N, 3, 3) drift matrices M = kappa/2 I + a K diag(1, -1, -1)."""
    m = a * (k * _SIGNS)
    m[:, range(3), range(3)] += kappa / 2.0
    return m


def drift_matrix(pref: Prefactors, kappa: float) -> np.ndarray:
    """3x3 drift matrix M = kappa/2 I + a K diag(1, -1, -1) of dR/dt = -M R
    over R = (a1*, a2, a3).  Refuses a kappa that is not positive and
    finite, as the moment calls do."""
    _check_kappa(kappa)
    return _drifts(*_couplings(_columns(pref)), kappa)[0]


def diffusion_matrix(pref: Prefactors, backend: str = "ehrenfest") -> np.ndarray:
    """Noise matrix Q of the second-moment equation, for either backend."""
    return _diffusion(*_couplings(_columns(pref)), backend)[0]


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


def _eigen_margins(cols: np.ndarray, kappa: float) -> np.ndarray:
    """is_stable(drift_matrix(p, kappa)).margin of each preparation of an
    (N, 7) stack of Prefactors columns, from one stacked eigensolver call."""
    return np.linalg.eigvals(_drifts(*_couplings(cols), kappa)).real.min(axis=-1)


def stability(pref: Prefactors, kappa: float) -> StabilityReport:
    """Exact stability of drift_matrix(pref, kappa): the eigenvalues kappa/2
    (twice) and kappa/2 + mu, and the margin kappa/2 + min(0, mu)."""
    _, _, mu, margin = _drift(pref, kappa)
    return StabilityReport(margin > 0.0, margin, _spectrum(kappa, mu))


def _psi(z):
    """(1 - e^-z) / z, and its limit 1 at z = 0."""
    nonzero = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, -np.expm1(-nonzero) / nonzero)


def evolve_first_moments(pref: Prefactors, kappa: float, r0, t: float) -> np.ndarray:
    """Propagate mean amplitudes: R(t) = exp(-M t) R0 with the engine's
    propagator e^(-kappa t/2) (I + phi(t) v w^T), exact for every drift.

    Refuses a negative or non-finite t (ValueError), a t past the horizon
    at which the second moments overflow (HorizonError), and amplitudes
    beyond the floating-point range (FloatRangeError).
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    r0 = np.asarray(r0, dtype=complex)
    if r0.shape != (3,):
        raise ValueError("r0 must be a 3-vector")
    _, v, mu, margin = _drift(pref, kappa)
    overflow = _horizon_error(margin, mu, kappa, t)
    if overflow is not None:
        raise overflow
    v = np.array(v)
    with np.errstate(all="ignore"):
        # e^(-kappa t/2) phi(t) = -a t e^(-margin t) psi(|mu| t)
        coupled = -pref.gain_scale * t * np.exp(-margin * t) * _psi(np.abs(mu) * t)
        r = np.exp(-kappa * t / 2.0) * r0 + coupled * v * ((v * _SIGNS) @ r0)
    if not np.isfinite(r).all():
        raise FloatRangeError(
            f"first moments at gain rate {pref.gain_scale:.6g} by t={t:.6g} "
            "leave the floating-point range")
    return r


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
    def vacuum(cls) -> "SecondMoments":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def as_tuple(self) -> tuple[float, ...]:
        return (self.n1, self.n2, self.n3, self.c32, self.c31, self.c21)


# Row-major positions of n1, n2, n3, c32, c31, c21 in a 3x3 moment matrix.
_MOMENT_ENTRIES = np.array([0, 4, 8, 7, 6, 3])
_ENTRY_PAIRS = [divmod(k, 3) for k in _MOMENT_ENTRIES.tolist()]


def _horizon_error(margin: float, mu: float, kappa: float, t: float) -> HorizonError | None:
    """HorizonError if the drift's growth over t overflows, else None."""
    # Python floats, whose products overflow to inf without a warning
    if 2.0 * max(0.0, -margin) * t > _MAX_GROWTH_EXPONENT:
        return HorizonError(
            f"unstable drift (margin {margin:.3g}, eigenvalues "
            f"{_eigen_text(_spectrum(kappa, mu))}) over t={t:.3g} overflows; "
            "no steady state exists in this regime, reduce t"
        )


def _horizon_errors(margin: np.ndarray, mu: np.ndarray, kappa: float, t: float) -> list:
    """_horizon_error of each drift in a stack; only a negative margin grows."""
    return [_horizon_error(m, u, kappa, t) if m < 0.0 else None
            for m, u in zip(margin.tolist(), mu.tolist())]


def _unstable_error(margin: float, mu: float, kappa: float) -> UnstableDriftError:
    return UnstableDriftError(f"no steady state: drift margin {margin:.6g} <= 0 "
                              f"(eigenvalues {_eigen_text(_spectrum(kappa, mu))})")


def _range_error(a: float, when: str) -> FloatRangeError:
    return FloatRangeError(
        f"second moments at gain rate {a:.6g} {when} leave the floating-point range")


def _moment_rows_at(a, v, mu, q, kappa: float, t: float | None):
    """(N, 6) rows (n1, n2, n3, c32, c31, c21) of S = I0 Q + I1 (v r^T + r v^T)
    + I2 c v v^T, and for each preparation None or the FloatRangeError
    refusing it.

    a, v, mu and q describe N preparations; t is one time, or None for the
    steady states.  I0, I1 / a and I2 / (2 a^2) are the divided differences
    of g at kappa, x1 = kappa + mu and end = kappa + 2 mu.  Leibniz's rule
    on x g(x) = F(x) = 1 - e^-xt peels off the node p of larger magnitude:
    p g[x, y] = F[x, y] - g(q), and p g[kappa, x1, end] = F[kappa, x1, end]
    - g[the other two], p an end node never below kappa, where F[lo, lo +
    h] = t e^-lo t psi(h t) and F[lo, lo + h, lo + 2h] = -(t^2 / 2) e^-lo t
    psi(h t)^2 for h >= 0; F is 0 steady.  No step divides by mu, so the
    defective line lambda = 0 takes no branch (McCurdy, Ng and Parlett,
    Math. Comp. 43, 501 (1984)).  Each term of S is symmetric in floating
    point, so S is too.  Past a gain rate near 1e154 a product overflows,
    and inf * 0 gives NaN: a preparation with a non-finite row is refused.
    Past a time near 1e154 t * t overflows too, but only in the curve term,
    whose decay a stable drift has underflowed to 0 long before; where it
    has, the term is -0.0, the product's value wherever t * t is finite.
    A marginal drift's decay stays 1, and there the term is formed as
    (-0.5 t d3 pm) (t pm), finite while the moments are; a time with a
    finite t * t keeps the product as it was.
    The rows of drifts that the caller refuses as unstable are evaluated
    too, and may divide by zero; no floating-point warning is raised.
    """
    with np.errstate(all="ignore"):
        # g[kappa, x1] has the nodes kappa and x1, g[x1, y2] x1 and y2
        x1 = kappa + mu
        y2, end = x1 + mu, kappa + 2.0 * mu
        far1, far2 = np.abs(x1) > abs(kappa), np.abs(y2) > np.abs(x1)
        p1, q1 = np.where(far1, x1, kappa), np.where(far1, kappa, x1)
        p2, q2 = np.where(far2, y2, x1), np.where(far2, x1, y2)
        far = np.abs(end) > kappa
        if t is None:
            i0, g1, g2, curve = 1.0 / kappa, 0.0 - 1.0 / q1, 0.0 - 1.0 / q2, 0.0
        else:
            pm = _psi(np.abs(mu) * t)
            i0 = t * _psi(kappa * t)
            g1 = t * np.exp(-np.minimum(kappa, x1) * t) * pm - t * _psi(q1 * t)
            g2 = t * np.exp(-np.minimum(x1, y2) * t) * pm - t * _psi(q2 * t)
            d3 = np.exp(-np.minimum(kappa, end) * t)
            # t * pm twice where t * t overflows; -0.0 where the decay underflowed
            curve = (-0.5 * t * t * d3 * pm ** 2 if math.isfinite(t * t)
                     else -0.5 * t * d3 * pm * (t * pm))
            curve = np.where(d3 == 0.0, -0.0, curve)
        i1 = g1 / p1
        rest = np.where(far, i1, g2 / p2)
        i2 = (curve - rest) / np.where(far, end, kappa)
        w = v * _SIGNS
        r = (q @ w[..., None])[..., 0]
        c = (w * r).sum(axis=-1)
        vr = v[:, :, None] * r[:, None, :]
        s = (i0 * q
             + (a * i1)[..., None, None] * (vr + vr.swapaxes(-1, -2))
             + (2.0 * a * a * c * i2)[..., None, None] * (v[:, :, None] * v[:, None, :]))
    # + 0.0 turns the -0.0 that t = 0 leaves under negative entries into 0.0
    rows = s.reshape(-1, 9)[:, _MOMENT_ENTRIES] + 0.0
    errors = [None] * len(a)
    if not np.isfinite(rows).all():
        when = "in the steady state" if t is None else f"by t={t:.6g}"
        for i in np.flatnonzero(~np.isfinite(rows).all(axis=-1)):
            errors[i] = _range_error(a[i], when)
    return rows, errors


def _warn_occupation(low: float, backend: str, stacklevel: int) -> None:
    """NegativeOccupationWarning when the lowest mean photon number is negative."""
    if low < -1e-9:
        warnings.warn(
            f"negative mean photon number {low:.6g} from backend {backend!r}; "
            "the as-printed mode-1 noise term drives this, and the ehrenfest "
            "backend (confirmed by the Fock oracle) does not",
            NegativeOccupationWarning,
            stacklevel=stacklevel + 1,
        )


def second_moment_trajectory(
    pref: Prefactors,
    kappa: float,
    times,
    *,
    backend: str = "ehrenfest",
    route: str = "closed-form",
) -> list[SecondMoments]:
    """Second moments from vacuum at each requested time (nondecreasing,
    finite and >= 0; ValueError otherwise).

    The closed-form route evaluates the rank-one formula at every sample,
    defective drifts included; the ode route integrates the same equation
    numerically.
    """
    return [SecondMoments(*row) for row in _trajectory_rows(pref, kappa, times, backend, route)]


def _trajectory_rows(pref: Prefactors, kappa: float, times, backend: str,
                     route: str) -> list[list[float]]:
    """second_moment_trajectory's moments as lists (n1, n2, n3, c32, c31,
    c21), one per time, after its NegativeOccupationWarnings, which name the
    line that called second_moment_trajectory."""
    times = [float(t) for t in times]
    if not times or not all(0.0 <= t < math.inf for t in times):
        raise ValueError("times must be finite and nonnegative")
    if any(b > a for a, b in zip(times[1:], times)):
        raise ValueError("times must be nondecreasing")
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    a, mu, margin, c, q, entries = _preparation(pref, kappa, backend)
    overflow = _horizon_error(margin, mu, kappa, times[-1])
    if overflow is not None:
        raise overflow
    if route == "ode":
        rows = _integrate_second_moments(drift_matrix(pref, kappa), q[0], times)
    else:
        rows = _closed_form_rows(kappa, a, mu, c, entries, times)
    for row in rows:
        _warn_occupation(min(row[:3]), backend, stacklevel=3)
    return rows


def _closed_form_rows(kappa: float, a: float, mu: float, c: float, entries,
                      times: list[float] | None = None) -> list[list[float]]:
    """_moment_rows_at of one preparation at each time, or its one steady
    row (times None), in its order on Python floats, from _preparation's a,
    mu, c and entries.

    Only a trajectory's exponentials stay in numpy: one np.expm1 call takes
    every sample's psi arguments (|mu| t, kappa t, q1 t and q2 t), and one
    np.exp call its slope arguments.  No divisor is 0: kappa > 0, each p is
    its pair's node of larger magnitude, and the steady state's caller
    refuses an unstable drift, so its nodes are positive.
    """
    # g[kappa, x1] has the nodes kappa and x1, g[x1, y2] x1 and y2
    x1 = kappa + mu
    y2, end = x1 + mu, kappa + 2.0 * mu
    p1, q1 = (x1, kappa) if abs(x1) > abs(kappa) else (kappa, x1)
    p2, q2 = (y2, x1) if abs(y2) > abs(x1) else (x1, y2)
    far = abs(end) > kappa
    if times is None:
        # i0, p1 i1, p2 g[x1, y2] and the curve term
        terms = [(1.0 / kappa, 0.0 - 1.0 / q1, 0.0 - 1.0 / q2, 0.0)]
        when = "in the steady state"
    else:
        lows = (min(kappa, x1), min(x1, y2), min(kappa, end))
        z = [x * t for t in times for x in (abs(mu), kappa, q1, q2)]
        with np.errstate(all="ignore"):
            # _psi's guard: an argument 0 is replaced, and its psi is 1
            em1 = np.expm1([-(x or 1.0) for x in z]).tolist()
            decay = np.exp([-x * t for t in times for x in lows]).tolist()
        psi = [1.0 if x == 0.0 else -e / x for x, e in zip(z, em1)]
        terms = []
        for k, t in enumerate(times):
            pm, pk, pq1, pq2 = psi[4 * k:4 * k + 4]
            d1, d2, d3 = decay[3 * k:3 * k + 3]
            # the curve term: -0.0 where the decay underflowed; t * pm twice
            # where t * t overflows
            curve = (-0.5 * t * t * d3 * (pm * pm) if math.isfinite(t * t)
                     else -0.5 * t * d3 * pm * (t * pm))
            terms.append((t * pk, t * d1 * pm - t * pq1, t * d2 * pm - t * pq2,
                          curve if d3 else -0.0))
        when = f"by t={times[-1]:.6g}"
    ac2 = 2.0 * a * a * c
    rows = []
    for i0, g1, g2, curve in terms:
        i1 = g1 / p1
        rest = i1 if far else g2 / p2
        i2 = (curve - rest) / (end if far else kappa)
        ai1, ai2 = a * i1, ac2 * i2
        rows.append([i0 * q + ai1 * vr + ai2 * vv + 0.0 for q, vr, vv in zip(*entries)])
    if not all(math.isfinite(x) for row in rows for x in row):
        raise _range_error(a, when)
    return rows


def _integrate_second_moments(m, q, times):
    from scipy.integrate import solve_ivp

    y0 = np.zeros(6)

    def rhs(_, y):
        s = SecondMoments(*y).as_matrix()
        return (-m @ s - s @ m.T + q).ravel()[_MOMENT_ENTRIES]

    # t_eval must be strictly inside the span; handle t=0 and duplicates by lookup
    t_end = times[-1]
    if t_end == 0.0:
        return [[0.0] * 6 for _ in times]
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
    table = dict(zip(unique, sol.y.T.tolist()))
    table[0.0] = y0.tolist()
    return [table[t] for t in times]


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


def _second_moment_rows(cols: np.ndarray, kappa: float, backend: str, at_time: float | None):
    """Moments of an (N, 7) stack of Prefactors columns, in one pass.

    at_time None gives the steady states; a time gives the state from
    vacuum there.  Returns the exact stability margins, the (N, 6) moment
    rows (n1, n2, n3, c32, c31, c21), NaN where refused, and for each
    preparation None or the error refusing it: an unstable drift in the
    steady state, a horizon its growth overflows at a time, or moments
    beyond the floating-point range.
    """
    a, k = _couplings(cols)
    q = _diffusion(a, k, backend)
    v, mu, margin = _rank_one(a, k, kappa)
    a = a[:, 0, 0]
    if at_time is None:
        errors = [None] * len(cols)
        for i in np.flatnonzero(~(margin > 0.0)):
            errors[i] = _unstable_error(margin[i], mu[i], kappa)
    else:
        errors = _horizon_errors(margin, mu, kappa, at_time)
    # every row is evaluated, and a refused one is then blanked
    rows, range_errors = _moment_rows_at(a, v, mu, q, kappa, at_time)
    errors = [r if e is None else e for e, r in zip(errors, range_errors)]
    rows[np.flatnonzero([e is not None for e in errors])] = np.nan
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
    """Exact stability margin and steady moments of one preparation.

    _closed_form_rows with no times, after an unstable drift is refused: a
    stable one has the positive nodes kappa, kappa + mu and kappa + 2 mu,
    where a Python float would raise ZeroDivisionError at a zero.
    """
    a, mu, margin, c, _, entries = _preparation(pref, kappa, backend)
    if not margin > 0.0:
        raise _unstable_error(margin, mu, kappa)
    (row,) = _closed_form_rows(kappa, a, mu, c, entries)
    _warn_occupation(min(row[:3]), backend, stacklevel=3)
    return margin, SecondMoments(*row)
