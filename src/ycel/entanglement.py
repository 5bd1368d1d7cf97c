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
3x3 singular value decompositions: the minimum is the smallest
symplectic eigenvalue of the cut's partial transpose or nu_min of sigma,
and a sigma with nu_min < 1 breaks the uncertainty relation and is
refused.  A state is reported fully inseparable when all three cuts are
violated: with the optimum, each 1|2 cut fails the PPT test.  That is not
the paper's genuine tripartite entanglement, since a mixture of
biseparable states can be inseparable on every cut (Giedke et al., PRA
64, 052303 (2001)).

First moments vanish from vacuum in this model, so variances equal raw
second moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SecondMoments, _check_kappa, _second_moment_rows, _warn_occupation
from .errors import ConfigurationError, DegenerateWitnessError
from .model import BOUNDARY_TOL, MAX_SWEEP_POINTS, Prefactors

__all__ = [
    "CovarianceMatrix",
    "Bipartition",
    "BIPARTITIONS",
    "WitnessRecord",
    "VlfReport",
    "covariance_from_moments",
    "vlf_evaluate",
    "optimize_gains",
    "SweepTable",
    "sweep",
]

_VIOLATION_MARGIN = 1e-12
_X_SLOTS = (0, 2, 4)
_P_SLOTS = (1, 3, 5)

# Grid points per stacked pass of sweep.  The stacks of a chunk whose
# points are all physical peak near 2.5 MB, most of it the witness
# optimum's, besides the 0.16 kB per point the table returns.
_SWEEP_CHUNK = 1024


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
# slots and the default gains.  _D holds the distinct D_s (1 in the partner
# slots, s in the lone slot) shaped to scale the columns of a 3x3 matrix:
# s = +1, the same for every bipartition, then s = -1 for each in turn.
_ROWS = np.arange(len(BIPARTITIONS))
_LONE = np.array([bip.lone for bip in BIPARTITIONS])
_PARTNERS = np.array([bip.partners for bip in BIPARTITIONS]).T
_DEFAULT_H = np.array([bip.default_h for bip in BIPARTITIONS])
_DEFAULT_G = np.array([bip.default_g for bip in BIPARTITIONS])
_D = np.ones((1 + len(BIPARTITIONS), 1, 3))
_D[1 + _ROWS, 0, _LONE] = -1.0


def _witnesses(xb, pb, h, g, refused=None) -> tuple:
    """The three witnesses of each member of (N, 3, 3) stacks of x and p blocks.

    h and g hold the gains as [member, bipartition, slot], or without the
    member axis when the whole stack shares them.  Returns the gains, then
    lhs, bound, ratio and violated as [member, bipartition] arrays, then a
    dict mapping each refused member to its first DegenerateWitnessError;
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
    return h, g, lhs, bound, ratio, lhs < bound - _VIOLATION_MARGIN, refused


def _single(witnesses) -> VlfReport:
    """The report of a stack of one, or raise its refusal."""
    *columns, refused = witnesses
    if refused:
        raise refused[0]
    return VlfReport(tuple(
        WitnessRecord(bip.name, tuple(hs), tuple(gs), *values)
        for bip, hs, gs, *values in zip(BIPARTITIONS, *(c[0].tolist() for c in columns))))


def vlf_evaluate(cov: CovarianceMatrix, gains=None) -> VlfReport:
    """Evaluate all three bipartition witnesses at fixed gains.

    gains maps a bipartition name to an (h, g) pair of finite 3-vectors;
    missing entries use the defaults described in the module docstring.
    """
    if not isinstance(cov, CovarianceMatrix):
        raise TypeError("cov must be a CovarianceMatrix")
    gains = dict(gains or {})
    unknown = set(gains) - {b.name for b in BIPARTITIONS}
    if unknown:
        raise DegenerateWitnessError(f"unknown bipartition names: {sorted(unknown)}")
    pairs = []
    for bip in BIPARTITIONS:
        pair = gains.get(bip.name, (bip.default_h, bip.default_g))
        try:
            hg = np.array(pair, dtype=float)
        except (TypeError, ValueError):  # ragged, or not numbers
            hg = np.empty(0)
        if hg.shape != (2, 3) or not np.isfinite(hg).all():
            raise DegenerateWitnessError(
                f"bipartition {bip.name}: gains {pair!r} are not two finite 3-vectors (h, g)")
        pairs.append(hg)
    h, g = np.stack(pairs, axis=1)
    return _single(_witnesses(cov.x_block[None], cov.p_block[None], h, g))


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


def _optimal_witnesses(xb, pb) -> tuple:
    """_witnesses at the gains optimize_gains picks for each member of
    (N, 3, 3) stacks of x and p blocks."""
    lx, refused_x = _cholesky(xb, "x")
    lp, refused_p = _cholesky(pb, "p")
    # [member, D_s] stacks of Lx^-1 D_s Lp^-T, one per distinct D_s
    lx_inv, lp_inv = np.linalg.inv(lx)[:, None], np.linalg.inv(lp)[:, None]
    u, s, vt = np.linalg.svd((lx_inv * _D) @ lp_inv.swapaxes(-1, -2))
    refused = {**refused_p, **refused_x}
    # 1 / s_max of the s = +1 matrix is the smallest symplectic eigenvalue of
    # sigma = X + P; below 1, sigma + i Omega is not positive semidefinite
    for i in np.flatnonzero(s[:, 0, 0] > 1.0 / (1.0 - 1e-9)).tolist():
        refused.setdefault(i, DegenerateWitnessError(
            "covariance breaks the uncertainty relation (smallest symplectic eigenvalue "
            f"{1.0 / s[i, 0, 0]:.6g} < 1); no physical state has this covariance"))
    # per bipartition, the larger top singular value picks the sign; s = +1
    # wins a tie
    pick = np.where(s[:, 1:, 0] > s[:, :1, 0], 1 + _ROWS, 0)
    members = np.arange(len(xb))[:, None]
    u, vt = u[members, pick], vt[members, pick]
    # one common scale for h and g keeps h.X.h = g.P.g, the AM-GM equality
    h = (lx_inv.swapaxes(-1, -2) @ u[..., :, 0, None])[..., 0]
    g = (lp_inv.swapaxes(-1, -2) @ vt[..., 0, :, None])[..., 0]
    pivot = np.take_along_axis(h, np.abs(h).argmax(axis=-1)[..., None], axis=-1)
    return _witnesses(xb, pb, h / pivot, g / pivot, refused)


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
    ratio.  The s = +1 matrix serves all three cuts, and 1 / its s_max is
    nu_min = sqrt(lambda_min(X P)), the smallest symplectic eigenvalue of
    sigma (Simon, PRL 84, 2726 (2000)).  Raises DegenerateWitnessError when
    a block is not positive definite or nu_min < 1 - 1e-9: no physical
    state has such a covariance.
    """
    if not isinstance(cov, CovarianceMatrix):
        raise TypeError("cov must be a CovarianceMatrix")
    return _single(_optimal_witnesses(cov.x_block[None], cov.p_block[None]))


@dataclass(frozen=True, eq=False)
class SweepTable:
    """The physical points of a sweep grid, in grid order (eta1 outer, eta2
    inner), as columns.

    prefactors holds the seven Prefactors fields in their declaration
    order (gain_scale, gain3, gain2, loss1, cross32, cross31, cross21) and
    margin the exact stability margin.  moments (n1, n2, n3, c32, c31,
    c21), ratio and violated (one column per bipartition, in BIPARTITIONS
    order) hold NaN and False where the point failed, and failure holds
    the reason there, "" elsewhere.
    """

    eta1: np.ndarray
    eta2: np.ndarray
    prefactors: np.ndarray
    margin: np.ndarray
    moments: np.ndarray
    ratio: np.ndarray
    violated: np.ndarray
    failure: tuple

    def __len__(self) -> int:
        return len(self.eta1)

    @property
    def fully_inseparable(self) -> np.ndarray:
        return self.violated.all(axis=1)


def _prefactor_columns(eta1: np.ndarray, eta2: np.ndarray, gain_scale: float):
    """The physical mask of the points (eta1, eta2) and, for the physical
    ones, the seven Prefactors fields as the columns of an (N, 7) array.

    The array twin of the model's validate_physical,
    populations_from_inversions and prefactors_from_inversions: the same
    formulas in the same order, so each column equals the scalar call bit
    for bit.  The weights meet the checks of AtomPreparation and Prefactors
    by construction, as the scalar call's do, so only the first physical
    point goes through Prefactors, which refuses a bad gain scale with the
    scalar call's error.
    """
    # past about 1e308 these overflow to inf, or to NaN, as Python floats do
    # without a warning; either makes the point unphysical
    with np.errstate(all="ignore"):
        rho00 = (1.0 + (eta1 + eta2)) / 3.0
        rho22 = (1.0 + eta1 - 2.0 * eta2) / 3.0
        rho33 = (1.0 + eta2 - 2.0 * eta1) / 3.0
    physical = np.logical_and.reduce(
        [(-BOUNDARY_TOL <= v) & (v < math.inf) for v in (rho33, rho22, rho00)])
    eta1, eta2, rho33, rho22, rho00 = (x[physical] for x in (eta1, eta2, rho33, rho22, rho00))
    edge = rho00 == 0.0
    rho33, rho22 = np.where(edge, -eta1, rho33), np.where(edge, -eta2, rho22)
    # min(max(v, 0.0), 1.0) with Python's choice among equals: -0.0 stays
    rho33, rho22, rho00 = (np.where(1.0 < v, 1.0, np.where(0.0 > v, 0.0, v))
                           for v in (rho33, rho22, rho00))
    gain3, gain2, loss1 = rho33 / 2.0, rho22 / 2.0, rho00 / 2.0
    cols = np.stack([np.full_like(rho00, gain_scale), gain3, gain2, loss1,
                     np.sqrt(gain3 * gain2), np.sqrt(gain3 * loss1), np.sqrt(gain2 * loss1)],
                    axis=1)
    if len(cols):
        Prefactors(gain_scale, *cols[0, 1:].tolist())
    return physical, cols


def _sweep_chunk(eta1, eta2, gain_scale, kappa, backend, at_time, optimize) -> tuple:
    """The SweepTable columns of the physical points among grid points
    (eta1, eta2), in one stacked pass."""
    physical, cols = _prefactor_columns(eta1, eta2, gain_scale)
    margin, rows, errors = _second_moment_rows(cols, kappa, backend, at_time)
    solved = np.flatnonzero([e is None for e in errors])
    sigma = _covariances(rows[solved])
    xb = np.ascontiguousarray(sigma[:, 0::2, 0::2])
    pb = np.ascontiguousarray(sigma[:, 1::2, 1::2])
    *_, ratio, violated, refused = (
        _optimal_witnesses(xb, pb) if optimize else _witnesses(xb, pb, _DEFAULT_H, _DEFAULT_G))
    # the warning each point's scalar calls raise
    occupation = rows[solved, :3].min(axis=1)
    for k in np.flatnonzero(occupation < -1e-9).tolist():
        _warn_occupation(float(occupation[k]), backend, stacklevel=3)
    for k, error in refused.items():
        errors[solved[k]] = error
    failed = np.flatnonzero([e is not None for e in errors])
    ratios = np.full((len(cols), len(BIPARTITIONS)), np.nan)
    flags = np.zeros((len(cols), len(BIPARTITIONS)), dtype=bool)
    ratios[solved], flags[solved] = ratio, violated
    rows[failed], ratios[failed], flags[failed] = np.nan, np.nan, False
    failure = ["" if e is None else str(e) for e in errors]
    return eta1[physical], eta2[physical], cols, margin, rows, ratios, flags, failure


def sweep(
    eta1_values,
    eta2_values,
    *,
    gain_scale: float,
    kappa: float = 1.0,
    backend: str = "ehrenfest",
    at_time: float | None = None,
    optimize: bool = True,
) -> SweepTable:
    """Witness evaluation over a grid of preparations.

    The grid is the cartesian product of the two coordinate lists,
    restricted to the physical triangle; points outside it are skipped
    entirely.  at_time=None evaluates steady states, a finite nonnegative
    at_time the transient state there (ValueError for any other); kappa
    must be positive and finite (ConfigurationError).  A point whose
    moments or witnesses cannot be computed (an unstable drift, moments
    beyond the floating-point range, a covariance block that is not
    positive definite, or with optimize a covariance that breaks the
    uncertainty relation) is recorded with a failure note.  Returns one
    SweepTable.

    The grid goes through prefactors, drift, moments, covariance and
    witnesses in stacks of _SWEEP_CHUNK grid points, so the working memory
    does not grow with the grid.  A grid of more than MAX_SWEEP_POINTS
    points is refused with ConfigurationError.
    """
    if at_time is not None and not 0.0 <= at_time < math.inf:
        raise ValueError("at_time must be finite and nonnegative")
    _check_kappa(kappa)
    eta1_values = np.array([float(e) for e in eta1_values])
    eta2_values = np.array([float(e) for e in eta2_values])
    n1, n2 = len(eta1_values), len(eta2_values)
    if n1 * n2 > MAX_SWEEP_POINTS:
        raise ConfigurationError(f"a {n1}x{n2} grid exceeds the {MAX_SWEEP_POINTS} points")
    chunks = []
    # an empty grid still makes one (empty) pass, which shapes the columns
    for start in range(0, max(n1 * n2, 1), _SWEEP_CHUNK):
        index = np.arange(start, min(start + _SWEEP_CHUNK, n1 * n2))
        chunks.append(_sweep_chunk(eta1_values[index // n2], eta2_values[index % n2],
                                   gain_scale, kappa, backend, at_time, optimize))
    *arrays, failure = zip(*chunks)
    return SweepTable(*(np.concatenate(a) for a in arrays),
                      tuple(f for part in failure for f in part))
