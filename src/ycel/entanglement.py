"""Quadrature covariances and tripartite variance witnesses.

Conventions.  Quadratures are x_j = a_j + a_j^dag and p_j = -i(a_j -
a_j^dag), so [x, p] = 2i and the vacuum variance of each quadrature is 1.
The covariance matrix is ordered (x1, p1, x2, p2, x3, p3).

Witnesses.  For a bipartition m|(k, l) the test combinations are
u = sum_j h_j x_j and v = sum_j g_j p_j; any state separable across that
bipartition satisfies V(u) + V(v) >= 2(|h_m g_m| + |h_k g_k + h_l g_l|),
so pushing the variance sum below the bound certifies inseparability of
that cut.  The default gain choices pair the modes whose correlations the
model actually produces: an x-difference / p-sum pair for the squeezing
type correlations of modes (1,2) and (1,3), an x-difference /
p-difference pair for the beam-splitter type correlation of modes (2,3).
optimize_gains replaces the defaults by the exact minimum of each
bipartition's ratio over all six gains, found in closed form from two
3x3 singular value decompositions.  A state is reported fully
inseparable only when all three bipartitions are violated at once;
callers wanting a stricter notion can apply their own rule to the
per-bipartition records.

First moments vanish from vacuum in this model, so variances equal raw
second moments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    SecondMoments,
    drift_matrix,
    evolve_second_moments,
    is_stable,
    steady_state_moments,
)
from .errors import DegenerateWitnessError, YcelError
from .model import Prefactors, prefactors_from_inversions, validate_physical

__all__ = [
    "SubVacuumWarning",
    "CovarianceMatrix",
    "Bipartition",
    "BIPARTITIONS",
    "WitnessRecord",
    "VlfReport",
    "covariance_from_moments",
    "vlf_evaluate",
    "optimize_gains",
    "SweepPoint",
    "sweep",
]

_VIOLATION_MARGIN = 1e-12
_X_SLOTS = (0, 2, 4)
_P_SLOTS = (1, 3, 5)


class SubVacuumWarning(UserWarning):
    """A quadrature variance fell below the vacuum floor.

    The amplification in this model never squeezes a single mode, so a
    sub-vacuum diagonal entry means the moments came from somewhere
    suspect (for instance the literal-coefficient backend, whose loss
    mode goes negative).
    """


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """6x6 symmetric quadrature covariance over (x1, p1, x2, p2, x3, p3)."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=float, copy=True)
        if sigma.shape != (6, 6):
            raise ValueError("covariance must be 6x6")
        if not np.isfinite(sigma).all():
            raise ValueError("covariance entries must be finite")
        asym = float(np.max(np.abs(sigma - sigma.T)))
        if asym > 1e-10 * max(1.0, float(np.max(np.abs(sigma)))):
            raise ValueError(f"covariance asymmetry {asym:.3e} too large")
        sigma = 0.5 * (sigma + sigma.T)
        low = float(np.min(np.diag(sigma)))
        if low < 1.0 - 1e-9:
            warnings.warn(
                f"quadrature variance {low:.6g} below the vacuum floor",
                SubVacuumWarning,
                stacklevel=3,
            )
        object.__setattr__(self, "sigma", sigma)

    @property
    def x_block(self) -> np.ndarray:
        return self.sigma[np.ix_(_X_SLOTS, _X_SLOTS)]

    @property
    def p_block(self) -> np.ndarray:
        return self.sigma[np.ix_(_P_SLOTS, _P_SLOTS)]


def covariance_from_moments(
    m: SecondMoments,
) -> CovarianceMatrix:
    """Covariance matrix of the zero-mean Gaussian state with the given moments."""
    if not isinstance(m, SecondMoments):
        raise TypeError("m must be a SecondMoments value")
    sigma = np.eye(6)
    for slot, n in zip((0, 1, 2), (m.n1, m.n2, m.n3)):
        sigma[2 * slot, 2 * slot] += 2.0 * n
        sigma[2 * slot + 1, 2 * slot + 1] += 2.0 * n
    # beam-splitter type correlation: same sign on x and p
    sigma[4, 2] = sigma[2, 4] = 2.0 * m.c32
    sigma[5, 3] = sigma[3, 5] = 2.0 * m.c32
    # squeezing type correlations: opposite signs on x and p
    sigma[4, 0] = sigma[0, 4] = 2.0 * m.c31
    sigma[5, 1] = sigma[1, 5] = -2.0 * m.c31
    sigma[2, 0] = sigma[0, 2] = 2.0 * m.c21
    sigma[3, 1] = sigma[1, 3] = -2.0 * m.c21
    return CovarianceMatrix(sigma)


@dataclass(frozen=True)
class Bipartition:
    """One way of splitting a single mode off from the other two."""

    name: str
    lone: int
    partners: tuple
    default_h: tuple
    default_g: tuple


BIPARTITIONS = (
    Bipartition("1|23", 0, (1, 2), (0.0, 1.0, -1.0), (0.0, 1.0, -1.0)),
    Bipartition("2|13", 1, (0, 2), (1.0, -1.0, 0.0), (1.0, 1.0, 0.0)),
    Bipartition("3|12", 2, (0, 1), (1.0, 0.0, -1.0), (1.0, 0.0, 1.0)),
)


@dataclass(frozen=True)
class WitnessRecord:
    name: str
    h: tuple
    g: tuple
    lhs: float
    bound: float
    ratio: float
    violated: bool


@dataclass(frozen=True)
class VlfReport:
    """Per-bipartition witness outcomes plus the all-three classification."""

    records: tuple

    @property
    def fully_inseparable(self) -> bool:
        return all(r.violated for r in self.records)

    def record(self, name: str) -> WitnessRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)


def _bound(bip: Bipartition, h, g) -> float:
    k, l = bip.partners
    return 2.0 * (abs(h[bip.lone] * g[bip.lone]) + abs(h[k] * g[k] + h[l] * g[l]))


def _witness(xb, pb, bip, h, g) -> WitnessRecord:
    h = tuple(float(v) for v in h)
    g = tuple(float(v) for v in g)
    if not any(h) or not any(g):
        raise DegenerateWitnessError(
            f"bipartition {bip.name}: gain vector is identically zero"
        )
    hv = np.asarray(h)
    gv = np.asarray(g)
    lhs = float(hv @ xb @ hv + gv @ pb @ gv)
    bound = _bound(bip, h, g)
    if bound <= 0.0:
        raise DegenerateWitnessError(
            f"bipartition {bip.name}: gains {h}, {g} give a zero bound"
        )
    ratio = lhs / bound
    return WitnessRecord(
        name=bip.name,
        h=h,
        g=g,
        lhs=lhs,
        bound=bound,
        ratio=ratio,
        violated=lhs < bound - _VIOLATION_MARGIN,
    )


def vlf_evaluate(cov: CovarianceMatrix, gains=None) -> VlfReport:
    """Evaluate all three bipartition witnesses at fixed gains.

    gains maps a bipartition name to an (h, g) pair of 3-vectors; missing
    entries use the defaults described in the module docstring.
    """
    if not isinstance(cov, CovarianceMatrix):
        raise TypeError("cov must be a CovarianceMatrix")
    gains = dict(gains or {})
    unknown = set(gains) - {b.name for b in BIPARTITIONS}
    if unknown:
        raise DegenerateWitnessError(f"unknown bipartition names: {sorted(unknown)}")
    xb, pb = cov.x_block, cov.p_block
    records = []
    for bip in BIPARTITIONS:
        h, g = gains.get(bip.name, (bip.default_h, bip.default_g))
        records.append(_witness(xb, pb, bip, h, g))
    return VlfReport(records=tuple(records))


def _cholesky(block, label) -> np.ndarray:
    try:
        return np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        low = float(np.linalg.eigvalsh(block)[0])
        raise DegenerateWitnessError(
            f"{label} block is not positive definite (lowest eigenvalue {low:.6g}); "
            "no physical state has this covariance"
        ) from None


def _optimize_bipartition(xb, pb, lx_inv, lp_inv, bip) -> WitnessRecord:
    svds = []
    for sign in (1.0, -1.0):
        d = np.ones(3)
        d[bip.lone] = sign
        svds.append(np.linalg.svd((lx_inv * d) @ lp_inv.T))
    # max keeps the first of equal values, so s = +1 wins a tie
    u, _, vt = max(svds, key=lambda usv: usv[1][0])
    # one common scale for h and g keeps h.X.h = g.P.g, the AM-GM equality
    h = lx_inv.T @ u[:, 0]
    g = lp_inv.T @ vt[0]
    pivot = h[int(np.argmax(np.abs(h)))]
    return _witness(xb, pb, bip, h / pivot, g / pivot)


def optimize_gains(cov: CovarianceMatrix) -> VlfReport:
    """Exact minimum of each bipartition's variance ratio over its six gains.

    With X = Lx Lx^T and P = Lp Lp^T the Cholesky factors of the x and p
    blocks, and D_s = diag with s = +-1 in the lone slot and 1 in the
    partner slots, the bound is 2 max_s |h . D_s g|.  AM-GM and the
    substitutions h = Lx^-T u, g = Lp^-T v make the minimum ratio
    1 / max_s s_max(Lx^-1 D_s Lp^-T) (van Loock and Furusawa, PRA 67,
    052315 (2003)), attained by the top singular pair.  The gains are
    scaled so that the largest |h_j| is +1 (lowest index and s = +1 win
    ties), so the result is deterministic and never above the default-gain
    ratio.  Raises DegenerateWitnessError when a block is not positive
    definite: no physical state has such a covariance.
    """
    if not isinstance(cov, CovarianceMatrix):
        raise TypeError("cov must be a CovarianceMatrix")
    xb, pb = cov.x_block, cov.p_block
    lx_inv = np.linalg.inv(_cholesky(xb, "x"))
    lp_inv = np.linalg.inv(_cholesky(pb, "p"))
    return VlfReport(
        records=tuple(
            _optimize_bipartition(xb, pb, lx_inv, lp_inv, bip) for bip in BIPARTITIONS
        )
    )


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of an inversion sweep.

    moments and report are None when the point failed (failure holds the
    reason); an unstable point in steady mode is recorded, not raised.
    """

    eta1: float
    eta2: float
    prefactors: Prefactors | None
    stable: bool
    margin: float
    moments: SecondMoments | None
    report: VlfReport | None
    failure: str | None = None


def _sweep_point(eta1, eta2, gain_scale, kappa, backend, at_time, optimize):
    pref = prefactors_from_inversions(eta1, eta2, gain_scale=gain_scale)
    report = is_stable(drift_matrix(pref, kappa))
    try:
        if at_time is None:
            moments = steady_state_moments(pref, kappa, backend=backend)
        else:
            moments = evolve_second_moments(
                pref, kappa, at_time, backend=backend
            )
        cov = covariance_from_moments(moments)
        vlf = optimize_gains(cov) if optimize else vlf_evaluate(cov)
    except YcelError as exc:
        return SweepPoint(
            eta1=eta1,
            eta2=eta2,
            prefactors=pref,
            stable=report.stable,
            margin=report.margin,
            moments=None,
            report=None,
            failure=str(exc),
        )
    return SweepPoint(
        eta1=eta1,
        eta2=eta2,
        prefactors=pref,
        stable=report.stable,
        margin=report.margin,
        moments=moments,
        report=vlf,
    )


def sweep(
    eta1_values,
    eta2_values,
    *,
    gain_scale: float,
    kappa: float = 1.0,
    backend: str = "ehrenfest",
    at_time: float | None = None,
    optimize: bool = True,
):
    """Witness evaluation over a grid of preparations.

    The grid is the cartesian product of the two coordinate lists,
    restricted to the physical triangle; points outside it are skipped
    entirely.  at_time=None evaluates steady states, a finite at_time
    evaluates the transient state there.  A point whose moments or
    witnesses cannot be computed (an unstable drift, a covariance block
    that is not positive definite) is recorded with a failure note.
    Points are returned in grid order (eta1 outer, eta2 inner).
    """
    return tuple(
        _sweep_point(float(e1), float(e2), gain_scale, kappa, backend, at_time, optimize)
        for e1 in eta1_values
        for e2 in eta2_values
        if validate_physical(float(e1), float(e2)).valid
    )
