"""The moment engine's closed form as it was before one float kernel served
the steady state and the trajectory, and before the stacked kernel chose its
nodes inline.

``_g``, ``_g_pair``, ``_integrals``, ``_moment_rows_at``, ``_linear_system``,
``_second_moment_rows``, ``_steady_pair`` and ``_steady_state`` are kept
verbatim as the reference that tests pin the live engine to bit for bit:
the stacked divided differences go through three helper layers, and the
float steady state has its own pair helper.  The set-up they share with the
live engine (``_couplings``, ``_diffusion``, ``_rank_one``, ``_preparation``
and the refusals) is imported from it.
"""

from __future__ import annotations

import math

import numpy as np

from ycel.dynamics import (
    _MOMENT_ENTRIES,
    _SIGNS,
    SecondMoments,
    _couplings,
    _diffusion,
    _horizon_errors,
    _preparation,
    _psi,
    _range_error,
    _rank_one,
    _unstable_error,
    _warn_occupation,
)
from ycel.model import Prefactors


def _linear_system(cols: np.ndarray, kappa: float, backend: str):
    """gain_scale a, v, mu, the exact margins and the noise matrices Q of a
    stack of preparations."""
    a, k = _couplings(cols)
    q = _diffusion(a, k, backend)
    return (a[:, 0, 0], *_rank_one(a, k, kappa), q)


def _g(x, t):
    """g(x) = (1 - e^-xt) / x, or 1 / x in the steady state (t None)."""
    return 1.0 / x if t is None else t * _psi(x * t)


def _g_pair(x, mu, t, psi_mu):
    """The divided difference g[x, x + mu], mu = 0 included.

    Leibniz's rule on x g(x) = F(x) = 1 - e^-xt gives p g[x, x + mu] =
    F[x, x + mu] - g(q), with p the node of larger magnitude and q the
    other; F[lo, lo + h] = t e^-lo t psi(h t) for h >= 0, and 0 steady.
    psi_mu is psi(|mu| t), which every divided difference here shares.
    """
    y = x + mu
    far = np.abs(y) > np.abs(x)
    p, q = np.where(far, y, x), np.where(far, x, y)
    slope = 0.0 if t is None else t * np.exp(-np.minimum(x, y) * t) * psi_mu
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
    psi_mu = None if t is None else _psi(np.abs(mu) * t)
    end = kappa + 2.0 * mu
    i1 = _g_pair(kappa, mu, t, psi_mu)
    far = np.abs(end) > kappa
    rest = np.where(far, i1, _g_pair(kappa + mu, mu, t, psi_mu))
    curve = 0.0 if t is None else (
        -0.5 * t * t * np.exp(-np.minimum(kappa, end) * t) * psi_mu ** 2)
    return np.asarray(_g(kappa, t)), i1, (curve - rest) / np.where(far, end, kappa)


def _moment_rows_at(a, v, mu, q, kappa: float, t: float | None):
    """(N, 6) rows (n1, n2, n3, c32, c31, c21) of S = I0 Q + I1 (v r^T + r v^T)
    + I2 c v v^T, and for each preparation None or the FloatRangeError
    refusing it.

    a, v, mu and q describe N preparations; t is one time, or None for the
    steady states.  Each term of S is symmetric in floating point, so S is
    too.  Past a gain rate or a time near 1e154 a product overflows, and
    inf * 0 gives NaN: a preparation with a non-finite row is refused.  The
    rows of drifts that the caller refuses as unstable are evaluated too,
    and may divide by zero; no floating-point warning is raised.
    """
    with np.errstate(all="ignore"):
        w = v * _SIGNS
        r = (q @ w[..., None])[..., 0]
        c = (w * r).sum(axis=-1)
        vr = v[:, :, None] * r[:, None, :]
        i0, i1, i2 = _integrals(kappa, mu, t)
        s = (i0[..., None, None] * q
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


def _second_moment_rows(cols: np.ndarray, kappa: float, backend: str, at_time: float | None):
    """Moments of an (N, 7) stack of Prefactors columns, in one pass.

    at_time None gives the steady states; a time gives the state from
    vacuum there.  Returns the exact stability margins, the (N, 6) moment
    rows (n1, n2, n3, c32, c31, c21), NaN where refused, and for each
    preparation None or the error refusing it: an unstable drift in the
    steady state, a horizon its growth overflows at a time, or moments
    beyond the floating-point range.
    """
    a, v, mu, margin, q = _linear_system(cols, kappa, backend)
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


def _steady_pair(x: float, mu: float) -> float:
    """_g_pair(x, mu, None, None) on Python floats, for positive nodes."""
    y = x + mu
    p, q = (y, x) if abs(y) > abs(x) else (x, y)
    return (0.0 - 1.0 / q) / p


def _steady_state(pref: Prefactors, kappa: float, backend: str) -> tuple[float, SecondMoments]:
    """Exact stability margin and steady moments of one preparation.

    _integrals and _moment_rows_at at t None, on Python floats.  An
    unstable drift is refused before any division: a stable one has the
    positive nodes kappa, kappa + mu and kappa + 2 mu, where a Python
    float would raise ZeroDivisionError at a zero.
    """
    a, mu, margin, c, _, entries = _preparation(pref, kappa, backend)
    if not margin > 0.0:
        raise _unstable_error(margin, mu, kappa)
    end = kappa + 2.0 * mu
    far = abs(end) > kappa
    i1 = _steady_pair(kappa, mu)
    i2 = (0.0 - (i1 if far else _steady_pair(kappa + mu, mu))) / (end if far else kappa)
    i0, ai1, ai2 = 1.0 / kappa, a * i1, 2.0 * a * a * c * i2
    row = [i0 * q + ai1 * vr + ai2 * vv + 0.0 for q, vr, vv in zip(*entries)]
    if not all(map(math.isfinite, row)):
        raise _range_error(a, "in the steady state")
    _warn_occupation(min(row[:3]), backend, stacklevel=3)
    return margin, SecondMoments(*row)
