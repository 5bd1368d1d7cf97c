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
from itertools import islice

import numpy as np

from .dynamics import SecondMoments, _check_occupations, _second_moment_rows
from .errors import ConfigurationError, DegenerateWitnessError, YcelError
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

# Physical grid points per stacked pass of sweep.  The stacks of a full
# chunk peak near 0.6 MB, most of it the witness optimum's, besides the
# 2 kB per point it returns.
_SWEEP_CHUNK = 256

# Largest n1 x n2 grid a sweep takes.  About 37.5% of a grid over
# [-1, 1]^2 is physical, so the largest map returns about 375,000 points.
MAX_SWEEP_POINTS = 1_000_000


class SubVacuumWarning(UserWarning):
    """A quadrature variance fell below the vacuum floor.

    The amplification in this model never squeezes a single mode, so a
    sub-vacuum diagonal entry means the moments came from somewhere
    suspect (for instance the literal-coefficient backend, whose loss
    mode goes negative).
    """


def _check_vacuum_floor(low: float, stacklevel: int) -> None:
    if low < 1.0 - 1e-9:
        warnings.warn(
            f"quadrature variance {low:.6g} below the vacuum floor",
            SubVacuumWarning,
            stacklevel=stacklevel,
        )


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
        _check_vacuum_floor(float(np.min(np.diag(sigma))), stacklevel=4)
        object.__setattr__(self, "sigma", sigma)

    @property
    def x_block(self) -> np.ndarray:
        return self.sigma[np.ix_(_X_SLOTS, _X_SLOTS)]

    @property
    def p_block(self) -> np.ndarray:
        return self.sigma[np.ix_(_P_SLOTS, _P_SLOTS)]


def _covariances(rows: np.ndarray) -> np.ndarray:
    """(N, 6, 6) covariances of the zero-mean Gaussian states with the
    (N, 6) moment rows (n1, n2, n3, c32, c31, c21)."""
    sigma = np.repeat(np.eye(6)[None], len(rows), axis=0)
    n1, n2, n3, c32, c31, c21 = (2.0 * rows).T
    for slot, n in enumerate((n1, n2, n3)):
        sigma[:, 2 * slot, 2 * slot] += n
        sigma[:, 2 * slot + 1, 2 * slot + 1] += n
    # beam-splitter type correlation: same sign on x and p
    sigma[:, 4, 2] = sigma[:, 2, 4] = c32
    sigma[:, 5, 3] = sigma[:, 3, 5] = c32
    # squeezing type correlations: opposite signs on x and p
    sigma[:, 4, 0] = sigma[:, 0, 4] = c31
    sigma[:, 5, 1] = sigma[:, 1, 5] = -c31
    sigma[:, 2, 0] = sigma[:, 0, 2] = c21
    sigma[:, 3, 1] = sigma[:, 1, 3] = -c21
    return sigma


def covariance_from_moments(
    m: SecondMoments,
) -> CovarianceMatrix:
    """Covariance matrix of the zero-mean Gaussian state with the given moments."""
    if not isinstance(m, SecondMoments):
        raise TypeError("m must be a SecondMoments value")
    return CovarianceMatrix(_covariances(np.array([m.as_tuple()]))[0])


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


# Per bipartition, in BIPARTITIONS order: the lone slot, the two partner
# slots, the default gains, and D_s (1 in the partner slots, s = +1 then
# -1 in the lone slot) shaped to scale the columns of a 3x3 matrix.
_ROWS = np.arange(len(BIPARTITIONS))
_LONE = np.array([bip.lone for bip in BIPARTITIONS])
_PARTNERS = np.array([bip.partners for bip in BIPARTITIONS]).T
_DEFAULT_H = np.array([bip.default_h for bip in BIPARTITIONS])
_DEFAULT_G = np.array([bip.default_g for bip in BIPARTITIONS])
_D = np.ones((len(BIPARTITIONS), 2, 1, 3))
_D[_ROWS, 1, 0, _LONE] = -1.0


def _reports(xb, pb, h, g, refused=None) -> list:
    """Witness reports for (N, 3, 3) stacks of x and p blocks.

    h and g hold the gains as [member, bipartition, slot], or without the
    member axis when the whole stack shares them.  Returns, for each
    member, its VlfReport or the first DegenerateWitnessError refusing it;
    refused maps members already refused to their error, which comes first.
    """
    n = len(xb)
    h = np.broadcast_to(np.asarray(h, dtype=float), (n, len(BIPARTITIONS), 3))
    g = np.broadcast_to(np.asarray(g, dtype=float), (n, len(BIPARTITIONS), 3))
    # one matrix-vector and one dot product per witness, as for a single
    # covariance, so that a stack reproduces it bit for bit
    lhs = (h[..., None, :] @ xb[:, None] @ h[..., None]
           + g[..., None, :] @ pb[:, None] @ g[..., None])[..., 0, 0]
    hg = h * g
    bound = 2.0 * (np.abs(hg[:, _ROWS, _LONE])
                   + np.abs(hg[:, _ROWS, _PARTNERS[0]] + hg[:, _ROWS, _PARTNERS[1]]))
    zero = ~(h != 0.0).any(axis=-1) | ~(g != 0.0).any(axis=-1)
    refused = dict(refused or {})
    for i, b in np.argwhere(zero | (bound <= 0.0)).tolist():
        reason = ("gain vector is identically zero" if zero[i, b] else
                  f"gains {tuple(h[i, b].tolist())}, {tuple(g[i, b].tolist())} give a zero bound")
        error = DegenerateWitnessError(f"bipartition {BIPARTITIONS[b].name}: {reason}")
        refused.setdefault(i, error)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = lhs / bound
    violated = lhs < bound - _VIOLATION_MARGIN
    columns = [a.tolist() for a in (h, g, lhs, bound, ratio, violated)]
    return [
        refused[i] if i in refused else VlfReport(tuple(
            WitnessRecord(bip.name, tuple(hs), tuple(gs), *values)
            for bip, hs, gs, *values in zip(BIPARTITIONS, *(c[i] for c in columns))))
        for i in range(n)
    ]


def _single(results):
    """The one report of a batch of one, or raise its refusal."""
    if isinstance(results[0], YcelError):
        raise results[0]
    return results[0]


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
    pairs = [gains.get(bip.name, (bip.default_h, bip.default_g)) for bip in BIPARTITIONS]
    h, g = ([np.asarray(pair[k], dtype=float) for pair in pairs] for k in (0, 1))
    return _single(_reports(cov.x_block[None], cov.p_block[None], h, g))


def _cholesky(blocks, label) -> tuple[np.ndarray, dict]:
    """Cholesky factors of a stack of blocks, and the refusal of each
    block that is not positive definite, by index.

    numpy.linalg raises for a whole stack when one member fails.  The
    members are then factored one at a time, and each one that fails is
    replaced by the identity.
    """
    try:
        return np.linalg.cholesky(blocks), {}
    except np.linalg.LinAlgError:
        pass
    refused = {}
    for i, block in enumerate(blocks):
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            refused[i] = DegenerateWitnessError(
                f"{label} block is not positive definite (lowest eigenvalue "
                f"{float(np.linalg.eigvalsh(block)[0]):.6g}); "
                "no physical state has this covariance"
            )
    blocks = blocks.copy()
    blocks[list(refused)] = np.eye(blocks.shape[-1])
    return np.linalg.cholesky(blocks), refused


def _optimal_reports(xb, pb) -> list:
    """optimize_gains for (N, 3, 3) stacks of x and p blocks: a VlfReport
    or the DegenerateWitnessError refusing it, for each member."""
    lx, refused_x = _cholesky(xb, "x")
    lp, refused_p = _cholesky(pb, "p")
    # [member, bipartition, sign] stacks of Lx^-1 D_s Lp^-T
    lx_inv, lp_inv = np.linalg.inv(lx)[:, None], np.linalg.inv(lp)[:, None]
    u, s, vt = np.linalg.svd((lx_inv[:, :, None] * _D) @ lp_inv.swapaxes(-1, -2)[:, :, None])
    # the larger top singular value picks the sign; s = +1 wins a tie
    sign = (s[..., 1, 0] > s[..., 0, 0]).astype(int)
    members = np.arange(len(xb))[:, None]
    u, vt = u[members, _ROWS, sign], vt[members, _ROWS, sign]
    # one common scale for h and g keeps h.X.h = g.P.g, the AM-GM equality
    h = (lx_inv.swapaxes(-1, -2) @ u[..., :, 0, None])[..., 0]
    g = (lp_inv.swapaxes(-1, -2) @ vt[..., 0, :, None])[..., 0]
    pivot = np.take_along_axis(h, np.abs(h).argmax(axis=-1)[..., None], axis=-1)
    return _reports(xb, pb, h / pivot, g / pivot, {**refused_p, **refused_x})


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
    return _single(_optimal_reports(cov.x_block[None], cov.p_block[None]))


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


def _sweep_chunk(chunk, gain_scale, kappa, backend, at_time, optimize) -> list:
    """SweepPoints of up to _SWEEP_CHUNK physical grid points, in one stacked pass."""
    prefs = [prefactors_from_inversions(e1, e2, gain_scale=gain_scale) for e1, e2 in chunk]
    margins, rows, failures = _second_moment_rows(prefs, kappa, backend, at_time)
    solved = np.array([f is None for f in failures])
    sigma = _covariances(rows[solved])
    if not np.isfinite(sigma).all():
        raise ValueError("covariance entries must be finite")
    xb = np.ascontiguousarray(sigma[:, 0::2, 0::2])
    pb = np.ascontiguousarray(sigma[:, 1::2, 1::2])
    lows = iter(np.diagonal(sigma, axis1=1, axis2=2).min(axis=1).tolist())
    reports = iter(
        _optimal_reports(xb, pb) if optimize else _reports(xb, pb, _DEFAULT_H, _DEFAULT_G)
    )
    points = []
    for (e1, e2), pref, margin, row, failure in zip(
        chunk, prefs, margins.tolist(), rows.tolist(), failures
    ):
        moments = report = None
        if failure is None:
            # the warnings of one point, in the order its scalar calls raise them
            moments = _check_occupations(SecondMoments(*row), backend)
            _check_vacuum_floor(next(lows), stacklevel=3)
            report = next(reports)
            if isinstance(report, YcelError):
                moments, report, failure = None, None, report
        failure = None if failure is None else str(failure)
        points.append(SweepPoint(e1, e2, pref, margin > 0.0, margin, moments, report, failure))
    return points


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

    The physical points go through drift, moments, covariance and
    witnesses as stacks of _SWEEP_CHUNK, so the working memory does not
    grow with the grid.  A grid of more than MAX_SWEEP_POINTS points is
    refused with ConfigurationError.
    """
    eta1_values = [float(e) for e in eta1_values]
    eta2_values = [float(e) for e in eta2_values]
    if len(eta1_values) * len(eta2_values) > MAX_SWEEP_POINTS:
        raise ConfigurationError(
            f"a {len(eta1_values)}x{len(eta2_values)} grid exceeds the {MAX_SWEEP_POINTS} points"
        )
    grid = ((e1, e2) for e1 in eta1_values for e2 in eta2_values
            if validate_physical(e1, e2).valid)
    points = []
    while chunk := list(islice(grid, _SWEEP_CHUNK)):
        points += _sweep_chunk(chunk, gain_scale, kappa, backend, at_time, optimize)
    return tuple(points)
