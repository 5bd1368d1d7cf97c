"""Brute-force reference integrator for the three-mode master equation.

The moment engine in :mod:`ycel.dynamics` evolves six numbers under a
closed linear system.  This module is its referee: it integrates a density
matrix on a truncated Fock space with no closure assumption and reads every
first and second moment back out, so every claim the moment engine makes
can be checked against an independent discretisation of the same generator.

Two-mode reduction.  The product rules that ``Prefactors`` enforces make
every atomic term one dissipator s D[J], s = gain_scale, with
J = sqrt(loss1) a1 - sqrt(gain2) a2^dag - sqrt(gain3) a3^dag and
D[L] rho = 2 L rho L^dag - L^dag L rho - rho L^dag L; cavity damping adds
kappa/2 D[a] per mode.  With b = (sqrt(gain2) a2 + sqrt(gain3) a3) /
sqrt(gain2 + gain3), J = sqrt(loss1) a1 - sqrt(gain2 + gain3) b^dag, and the
orthogonal mode b_perp ~ sqrt(gain3) a2 - sqrt(gain2) a3 only decays.  So
``integrate`` starts only from the vacuum, where b_perp stays empty, and
marches (a1, b) exactly.  a1 keeps 0..n_max photons and b 0..n_max times
the number of nonzero gains among gain2 and gain3, the most a2 and a3 hold
together under a per-mode cutoff n_max; with both gains zero there is no
b.  Moment tables map back through a = U (a1, b), with
U = [[1, 0], [0, sqrt(f2)], [0, sqrt(f3)]] and fj = gainj / (gain2 + gain3).
``master_equation_terms``, ``liouvillian_apply``, ``moments_from_state`` and
``DensityState`` keep the three-mode generator and states, on kets
|n1 n2 n3> flattened row-major, as the reference the tests compare against.

Hermitian fold.  Every term of the generator is c * X rho Y with a real
coefficient and real shift monomials X and Y, and the terms come in
conjugate pairs, so the real vacuum stays real symmetric.  The march
carries one real vector, rho[k, b] for k <= b, under one real sparse
operator.

Reachable support.  ``integrate`` finds, by one breadth-first search over
the generator's monomial maps, every folded coordinate that can become
nonzero from the vacuum, and marches only those.  Each RK4 step is a
polynomial in the generator, so the march never leaves that set: this is
an exact reindexing of the dense generator, not an approximation, and a
unit test pins the march to a dense reference, step for step.  Every term
shifts w = n1 - nb equally on ket and bra, so the set lies inside the
charge sector w_ket = w_bra.  Pass ``restrict=False`` to march every
coordinate regardless.

Positivity.  Exact evolution under a dissipator preserves positivity.
Integration and truncation error can still push eigenvalues slightly
negative, so runs report the smallest final eigenvalue when asked
(``track_spectrum=True``) and warn below -1e-8 rather than failing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .dynamics import SecondMoments
from .errors import (
    ConfigurationError,
    ConsistencyError,
    IntegrationError,
    TruncationError,
)
from .model import Prefactors

__all__ = [
    "FockConfig",
    "DensityState",
    "MomentTable",
    "OracleRun",
    "mode_annihilators",
    "master_equation_terms",
    "liouvillian_apply",
    "moments_from_state",
    "integrate",
]

# Bounds the breadth-first search over the reachable support and the sparse
# operator it assembles, which grow about as n_max**3.  From vacuum at
# (0, 0), A = 1, n_max = 16 (a1 <= 16, b <= 32) marches 4,233 coordinates
# under 38,233 operator entries, and the process peaks at 57 MB RSS, 49 MB
# of it imports (x86-64 Linux, Python 3.11).
_N_MAX_LIMIT = 16

# Largest three-mode dimension (n_max + 1)**3 whose dense complex matrix
# DensityState.rho builds: 1000 (n_max = 9) takes 16 MB, while n_max = 16
# would take 386 MB.
_DENSE_DIM_LIMIT = 1000

# Most fixed steps one march takes (t_final / dt); the dt/2 convergence
# check marches twice as many.  The acceptance runs take at most 2,000.
_MAX_STEPS = 1_000_000

_CLOSURE_TOL = 1e-10
_TRACE_TOL = 1e-6
_CONVERGENCE_TOL = 1e-6
# No element of a density matrix exceeds 1 in magnitude.
_DIVERGENCE_PEAK = 1.0 + _TRACE_TOL


@dataclass(frozen=True)
class FockConfig:
    """Discretisation knobs for a brute-force run.

    n_max is the photon cutoff of a1 (b holds up to n_max times the number
    of modes with nonzero gain), dt the fixed integrator step, t_final the
    horizon, and edge_tol the largest population allowed in any edge Fock
    layer (occupation == cutoff in some mode) before the run refuses to
    continue.
    """

    n_max: int = 5
    dt: float = 0.01
    t_final: float = 20.0
    edge_tol: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.n_max, int) or isinstance(self.n_max, bool):
            raise ConfigurationError("n_max must be an integer")
        if self.n_max < 1:
            raise ConfigurationError("n_max must be at least 1")
        if self.n_max > _N_MAX_LIMIT:
            raise ConfigurationError(
                f"n_max={self.n_max} exceeds the supported limit {_N_MAX_LIMIT}"
            )
        if not (self.dt > 0.0) or not math.isfinite(self.dt):
            raise ConfigurationError("dt must be positive and finite")
        if not (self.t_final >= 0.0) or not math.isfinite(self.t_final):
            raise ConfigurationError("t_final must be nonnegative and finite")
        if self.t_final / self.dt > _MAX_STEPS:
            raise ConfigurationError(
                f"t_final/dt = {self.t_final / self.dt:.3g} steps exceeds the limit {_MAX_STEPS}"
            )
        if not (0.0 < self.edge_tol < 1.0):
            raise ConfigurationError("edge_tol must lie in (0, 1)")


class DensityState:
    """A validated density matrix on the truncated three-mode space.

    ``sparse`` holds its nonzero elements as a CSR matrix.  ``rho``, the
    dense complex array, is built on first read, and refused with
    ``ConfigurationError`` above dimension 1000 (n_max = 9); ``vacuum``
    and ``fock`` allocate nothing of size dim x dim until then.  The
    constructor takes a dense matrix and checks it.
    """

    __slots__ = ("n_max", "sparse", "_rho")

    def __init__(self, rho, n_max: int = -1):
        rho = np.array(rho, dtype=complex, copy=True)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ConfigurationError("rho must be a square matrix")
        inferred = _infer_n_max(rho.shape[0])
        if n_max >= 0 and n_max != inferred:
            raise ConfigurationError(
                f"matrix dimension {rho.shape[0]} does not match n_max={n_max}"
            )
        scale = max(1.0, float(np.max(np.abs(rho))) if rho.size else 1.0)
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        if herm > 1e-10 * scale:
            raise ConsistencyError(f"hermiticity residue {herm:.3e} too large")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > 1e-9:
            raise ConsistencyError(f"trace {tr:.12g} is not 1 within 1e-9")
        self.n_max = inferred
        self.sparse = sp.csr_matrix(rho)
        self._rho = rho

    @classmethod
    def _from_sparse(cls, n_max: int, mat) -> "DensityState":
        """Wrap a hermitian unit-trace sparse matrix without a dense check."""
        state = cls.__new__(cls)
        state.n_max = n_max
        state.sparse = mat.tocsr()
        state._rho = None
        return state

    @property
    def rho(self) -> np.ndarray:
        if self._rho is None:
            dim = self.sparse.shape[0]
            if dim > _DENSE_DIM_LIMIT:
                raise ConfigurationError(
                    f"a dense {dim}x{dim} density matrix ({16 * dim * dim / 1e6:.0f} MB) "
                    f"exceeds the limit of dimension {_DENSE_DIM_LIMIT} (n_max = 9)"
                )
            self._rho = self.sparse.toarray()
        return self._rho

    @staticmethod
    def vacuum(n_max: int) -> "DensityState":
        return DensityState.fock(n_max, (0, 0, 0))

    @staticmethod
    def fock(n_max: int, occupations) -> "DensityState":
        """Pure number state |n1 n2 n3><n1 n2 n3|."""
        occ = tuple(int(n) for n in occupations)
        if len(occ) != 3:
            raise ConfigurationError("occupations must have three entries")
        if any(n < 0 or n > n_max for n in occ):
            raise ConfigurationError(
                f"occupations {occ} outside the 0..{n_max} cutoff"
            )
        side = n_max + 1
        pos = (occ[0] * side + occ[1]) * side + occ[2]
        mat = sp.csr_matrix(([1.0 + 0j], ([pos], [pos])), shape=(side**3, side**3))
        return DensityState._from_sparse(_infer_n_max(side**3), mat)


def _infer_n_max(dim: int) -> int:
    side = round(dim ** (1.0 / 3.0))
    if side < 2 or side**3 != dim:
        raise ConfigurationError(
            f"dimension {dim} is not (n_max+1)**3 for any n_max >= 1"
        )
    return side - 1


@lru_cache(maxsize=16)
def _ladders(cutoffs: tuple):
    """Sparse annihilators of each mode on the product space of ``cutoffs``,
    flattened row-major (the last mode varies fastest)."""
    eyes = [sp.identity(n + 1, format="csr") for n in cutoffs]
    out = []
    for i, n in enumerate(cutoffs):
        factors = list(eyes)
        factors[i] = sp.diags(np.sqrt(np.arange(1.0, n + 1)), offsets=1, format="csr")
        op = factors[0]
        for factor in factors[1:]:
            op = sp.kron(op, factor, format="csr")
        out.append(op)
    return tuple(out)


def mode_annihilators(n_max: int):
    """Sparse annihilators (a1, a2, a3) on the flattened product space."""
    if not isinstance(n_max, int) or n_max < 1:
        raise ConfigurationError("n_max must be an integer >= 1")
    return _ladders((n_max,) * 3)


def master_equation_terms(pref: Prefactors, kappa: float, n_max: int):
    """The generator, grouped by coupling, as (coefficient, left, right) triples.

    Each triple encodes coefficient * left @ rho @ right with None standing
    for the identity.  Groups: one gain dissipator per upper coupling
    (gain3, gain2), the mode-1 loss channel (loss1), the three cross
    couplings, and the cavity damping of all modes.  Every group is
    traceless on its own, which a unit test checks term by term.
    """
    if not isinstance(pref, Prefactors):
        raise TypeError("pref must be a Prefactors value")
    if not (kappa > 0.0) or not math.isfinite(kappa):
        raise ConfigurationError("kappa must be positive and finite")
    a1, a2, a3 = mode_annihilators(n_max)
    a1d, a2d, a3d = (op.T.tocsr() for op in (a1, a2, a3))
    s = pref.gain_scale
    ab = s * pref.gain3
    ac = s * pref.gain2
    ad = s * pref.loss1
    ae = s * pref.cross32
    af = s * pref.cross31
    ag = s * pref.cross21
    half_k = 0.5 * kappa

    groups = {
        "gain3": [
            (2.0 * ab, a3d, a3),
            (-ab, (a3 @ a3d).tocsr(), None),
            (-ab, None, (a3 @ a3d).tocsr()),
        ],
        "cross32": [
            (2.0 * ae, a3d, a2),
            (2.0 * ae, a2d, a3),
            (-ae, (a2 @ a3d).tocsr(), None),
            (-ae, None, (a2 @ a3d).tocsr()),
            (-ae, (a3 @ a2d).tocsr(), None),
            (-ae, None, (a3 @ a2d).tocsr()),
        ],
        "gain2": [
            (2.0 * ac, a2d, a2),
            (-ac, (a2 @ a2d).tocsr(), None),
            (-ac, None, (a2 @ a2d).tocsr()),
        ],
        "cross31": [
            (-2.0 * af, a1, a3),
            (-2.0 * af, a3d, a1d),
            (af, (a3 @ a1).tocsr(), None),
            (af, None, (a3 @ a1).tocsr()),
            (af, (a1d @ a3d).tocsr(), None),
            (af, None, (a1d @ a3d).tocsr()),
        ],
        "loss1": [
            (2.0 * ad, a1, a1d),
            (-ad, (a1d @ a1).tocsr(), None),
            (-ad, None, (a1d @ a1).tocsr()),
        ],
        "cross21": [
            (-2.0 * ag, a1, a2),
            (-2.0 * ag, a2d, a1d),
            (ag, (a2 @ a1).tocsr(), None),
            (ag, None, (a2 @ a1).tocsr()),
            (ag, (a1d @ a2d).tocsr(), None),
            (ag, None, (a1d @ a2d).tocsr()),
        ],
        "cavity-loss": [
            entry
            for a, adag in ((a1, a1d), (a2, a2d), (a3, a3d))
            for entry in (
                (2.0 * half_k, a, adag),
                (-half_k, (adag @ a).tocsr(), None),
                (-half_k, None, (adag @ a).tocsr()),
            )
        ],
    }
    return groups


@lru_cache(maxsize=8)
def _flat_terms(pref: Prefactors, kappa: float, n_max: int):
    groups = master_equation_terms(pref, kappa, n_max)
    flat = []
    for name in sorted(groups):
        flat.extend(groups[name])
    # keep only terms that can act; zero coefficients drop out entirely
    return tuple((c, x, y) for c, x, y in flat if c != 0.0)


def liouvillian_apply(rho, pref: Prefactors, kappa: float) -> np.ndarray:
    """Time derivative of a density matrix under the full generator.

    Accepts a DensityState or a bare square array whose dimension is a
    three-mode Fock cube.  The output is traceless to roundoff.
    """
    mat = rho.rho if isinstance(rho, DensityState) else np.asarray(rho, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigurationError("rho must be a square matrix")
    n_max = _infer_n_max(mat.shape[0])
    out = np.zeros_like(mat)
    for coef, left, right in _flat_terms(pref, float(kappa), n_max):
        term = left @ mat if left is not None else mat
        if right is not None:
            term = term @ right
        out += coef * term
    return out


def _lookup(keys: np.ndarray, wanted: np.ndarray):
    """Positions of ``wanted`` in the sorted ``keys``, and which are present."""
    pos = np.searchsorted(keys, wanted)
    ok = pos < keys.size
    ok[ok] = keys[pos[ok]] == wanted[ok]
    return pos, ok


def _dissipator(rate: float, op):
    """rate * D[op] as (coefficient, left, right) triples, for a real op."""
    number = (op.T @ op).tocsr()
    return [(2.0 * rate, op, op.T.tocsr()), (-rate, number, None), (-rate, None, number)]


@lru_cache(maxsize=8)
def _reduced_model(pref: Prefactors, kappa: float, n_max: int):
    """The generator on (a1, b): cutoffs, modes and terms.

    modes are (a1, a2, a3) = U (a1, b) as operators on the (a1, b) space.
    Terms are (coefficient, left, right) triples as in master_equation_terms,
    with zero coefficients dropped.  A weight that roundoff leaves a hair
    below zero at the edge of the preparation triangle counts as zero.
    """
    s, half_k = pref.gain_scale, 0.5 * kappa
    loss = max(pref.loss1, 0.0)
    gains = (max(pref.gain2, 0.0), max(pref.gain3, 0.0))
    gain = gains[0] + gains[1]
    if gain == 0.0:
        (a1,) = _ladders((n_max,))
        return (n_max,), (a1, 0.0 * a1, 0.0 * a1), tuple(_dissipator(s * loss + half_k, a1))
    cutoffs = (n_max, n_max * sum(g > 0.0 for g in gains))
    a1, b = _ladders(cutoffs)
    a1d, bd = a1.T.tocsr(), b.T.tocsr()
    up, down = (a1d @ bd).tocsr(), (b @ a1).tocsr()
    cross = s * math.sqrt(loss * gain)
    terms = [
        *_dissipator(s * loss + half_k, a1),
        *_dissipator(half_k, b),
        *_dissipator(s * gain, bd),
        (-2.0 * cross, a1, b),
        (-2.0 * cross, bd, a1d),
        (cross, up, None),
        (cross, None, up),
        (cross, down, None),
        (cross, None, down),
    ]
    u2, u3 = (math.sqrt(g / gain) for g in gains)
    return cutoffs, (a1, u2 * b, u3 * b), tuple(t for t in terms if t[0] != 0.0)


class _Support:
    """Folded coordinates of a real symmetric density matrix on a set of pairs.

    Coordinate i holds rho[ket, bra] = rho[bra, ket] for the i-th key
    (ket <= bra) of ``keys``.  Keys are ket * dim + bra, sorted, so
    positions resolve by binary search.  Also holds the diagonal positions
    and the diagonal positions sitting in each mode's edge layer.
    """

    __slots__ = ("cutoffs", "dim", "keys", "size", "diag", "edge")

    def __init__(self, cutoffs: tuple, keys: np.ndarray):
        sides = tuple(n + 1 for n in cutoffs)
        self.cutoffs = cutoffs
        self.dim = math.prod(sides)
        self.keys = keys
        self.size = keys.size
        ket, bra = np.divmod(keys, self.dim)
        self.diag = np.flatnonzero(ket == bra)
        occupations = np.unravel_index(ket[self.diag], sides)
        self.edge = tuple(self.diag[occ == n] for occ, n in zip(occupations, cutoffs))

    def dense(self, vec: np.ndarray) -> np.ndarray:
        """The density matrix a folded vector stands for."""
        ket, bra = np.divmod(self.keys, self.dim)
        mat = np.zeros((self.dim, self.dim))
        mat[ket, bra] = vec
        mat[bra, ket] = vec
        return mat


def _monomial_rowmap(op, dim):
    """Row -> (column, value) arrays for an operator with <=1 entry per row."""
    csr = op.tocsr()
    counts = np.diff(csr.indptr)
    if counts.max() > 1:
        raise ConsistencyError("generator term is not a shift monomial")
    cols = np.full(dim, -1, dtype=np.int64)
    vals = np.zeros(dim)
    filled = np.flatnonzero(counts)
    cols[filled] = csr.indices
    vals[filled] = csr.data
    return cols, vals


def _term_maps(terms, dim: int):
    """Each term c * X rho Y as (c, ket map, ket weight, bra map, bra weight).

    The term sends element (k, b) to (kmap[k], bmap[b]) with weight
    c * kw[k] * bw[b]; a map entry of -1 marks an element it annihilates.
    """
    ident = (np.arange(dim, dtype=np.int64), np.ones(dim))
    return tuple(
        (
            coef,
            *(ident if left is None else _monomial_rowmap(left.T, dim)),
            *(ident if right is None else _monomial_rowmap(right, dim)),
        )
        for coef, left, right in terms
    )


def _explore(maps, dim: int, seeds: np.ndarray):
    """Pairs reachable from ``seeds``, and the generator on them.

    Pairs are (k, b) with k <= b; returns their sorted keys and the sparse
    matrix acting on one real number per pair.  A symmetric state holds
    (k, b) and (b, k) together, so every pair feeds the terms in both
    orientations, and only targets on or above the diagonal are kept: the
    conjugate term of each term sends the mirrored source to the mirror of
    every target.
    """
    keys = frontier = _sorted_unique(seeds.astype(np.int64))
    targets, sources, weights = [keys[:0]], [keys[:0]], [np.zeros(0)]
    while frontier.size:
        ket, bra = np.divmod(frontier, dim)
        off = ket != bra
        ket, bra = np.concatenate((ket, bra[off])), np.concatenate((bra, ket[off]))
        src = np.concatenate((frontier, frontier[off]))
        found = []
        for coef, kmap, kw, bmap, bw in maps:
            tk, tb = kmap[ket], bmap[bra]
            keep = (tk >= 0) & (tb >= 0) & (tk <= tb)
            found.append(tk[keep] * dim + tb[keep])
            sources.append(src[keep])
            weights.append(coef * kw[ket[keep]] * bw[bra[keep]])
        targets.extend(found)
        found = _sorted_unique(np.concatenate(found))
        frontier = found[~_lookup(keys, found)[1]]
        keys = np.sort(np.concatenate((keys, frontier)))
    rows = _lookup(keys, np.concatenate(targets))[0]
    cols = _lookup(keys, np.concatenate(sources))[0]
    mat = sp.csr_matrix((np.concatenate(weights), (rows, cols)), shape=(keys.size, keys.size))
    return keys, mat


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    # a sort is many times faster here than np.unique's hash table
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _moment_operators(ladders):
    """All ops whose traces feed a MomentTable: a_i, a_i^dag a_j, a_i a_j."""
    first = list(ladders)
    cross = [[(ai.T @ aj).tocsr() for aj in ladders] for ai in ladders]
    pair = [[(ai @ aj).tocsr() for aj in ladders] for ai in ladders]
    return first, cross, pair


def _folded_moment_maps(support: _Support, modes):
    """Per moment operator of ``modes``, the positions and weights it reads.

    Tr(O rho) = sum O[r, c] rho[c, r], and rho[c, r] is the coordinate of
    the pair (min, max).
    """
    dim = support.dim

    def mapping(op):
        coo = op.tocoo()
        col, row = coo.col.astype(np.int64), coo.row.astype(np.int64)
        pos, ok = _lookup(support.keys, np.minimum(col, row) * dim + np.maximum(col, row))
        return pos[ok], coo.data[ok]

    first, cross, pair = _moment_operators(modes)
    return (
        [mapping(op) for op in first],
        [[mapping(op) for op in row] for row in cross],
        [[mapping(op) for op in row] for row in pair],
    )


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Every first and second moment of a three-mode state.

    first[i] = <a_i>, cross[i, j] = <a_i^dag a_j>, pair[i, j] = <a_i a_j>,
    zero-based mode indices.  ``closure`` extracts the six moments the
    moment engine evolves; ``closure_leakage`` measures everything the
    closed system says must stay zero from vacuum.
    """

    first: np.ndarray
    cross: np.ndarray
    pair: np.ndarray

    def closure(self) -> SecondMoments:
        tracked = (
            self.cross[0, 0],
            self.cross[1, 1],
            self.cross[2, 2],
            self.cross[2, 1],
            self.pair[2, 0],
            self.pair[1, 0],
        )
        residue = max(abs(z.imag) for z in tracked)
        if residue >= _CLOSURE_TOL:
            raise ConsistencyError(
                f"imaginary residue {residue:.3e} on tracked moments (tol {_CLOSURE_TOL:.1e})"
            )
        return SecondMoments(*(float(z.real) for z in tracked))

    def closure_leakage(self) -> float:
        out = 0.0
        for i in range(3):
            out = max(out, abs(self.first[i]), abs(self.pair[i, i]))
            out = max(out, abs(self.cross[i, i].imag))
        out = max(out, abs(self.pair[2, 1]), abs(self.cross[1, 0]), abs(self.cross[2, 0]))
        out = max(out, abs(self.cross[2, 1].imag))
        out = max(out, abs(self.pair[2, 0].imag), abs(self.pair[1, 0].imag))
        return float(out)


def moments_from_state(state) -> MomentTable:
    """Full moment table of a density matrix (DensityState or bare array)."""
    mat = state.rho if isinstance(state, DensityState) else np.asarray(state, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigurationError("state must be a square matrix")
    n_max = _infer_n_max(mat.shape[0])

    def trace_with(op):
        coo = op.tocoo()
        return complex(np.sum(coo.data * mat[coo.col, coo.row]))

    first_ops, cross_ops, pair_ops = _moment_operators(mode_annihilators(n_max))
    first = np.array([trace_with(op) for op in first_ops])
    cross = np.array([[trace_with(op) for op in row] for row in cross_ops])
    pair = np.array([[trace_with(op) for op in row] for row in pair_ops])
    return MomentTable(first=first, cross=cross, pair=pair)


@dataclass(frozen=True, eq=False)
class OracleRun:
    """Record of one brute-force run.

    times are the requested sample instants, a repeated one repeated;
    tables/moments the extracted values at each, on the three modes;
    trace_residues and edge_populations the per-sample audit trail.
    convergence_delta is the largest change any tracked moment suffered
    when the step was halved (None when the check was skipped).
    support_size is the number of real coordinates marched (the reachable
    folded support of the (a1, b) space, or every coordinate with
    restrict=False).  min_eigenvalue is the smallest eigenvalue of the final
    (a1, b) state when spectrum tracking was requested; its nonzero spectrum
    is the three-mode one.
    """

    times: tuple
    tables: tuple
    moments: tuple
    trace_residues: tuple
    edge_populations: tuple
    convergence_delta: float | None
    support_size: int
    min_eigenvalue: float | None = None

    def closure_leakage(self) -> float:
        return max(t.closure_leakage() for t in self.tables)


def _rk4(lop, vec, h):
    k1 = lop @ vec
    k2 = lop @ (vec + (0.5 * h) * k1)
    k3 = lop @ (vec + (0.5 * h) * k2)
    k4 = lop @ (vec + h * k3)
    return vec + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _audit(support, vec, edge_tol, t):
    peak = float(np.max(np.abs(vec)))
    if not math.isfinite(peak) or peak > _DIVERGENCE_PEAK:
        raise IntegrationError(
            f"integration diverged near t={t:.6g} (peak element {peak:.3e}); reduce dt"
        )
    trace = float(vec[support.diag].sum())
    residue = abs(trace - 1.0)
    if residue > _TRACE_TOL:
        raise IntegrationError(
            f"trace drifted to {trace:.9g} near t={t:.6g}; reduce dt"
        )
    edge = max(float(vec[idx].sum()) for idx in support.edge)
    if edge > edge_tol:
        raise TruncationError(
            f"edge-layer population {edge:.3e} exceeds edge_tol {edge_tol:.1e} "
            f"near t={t:.6g}; increase n_max beyond {support.cutoffs[0]}"
        )
    return residue, edge


def _table_at(maps, vec):
    first_maps, cross_maps, pair_maps = maps
    first = np.array([w @ vec[p] for p, w in first_maps])
    cross = np.array([[w @ vec[p] for p, w in row] for row in cross_maps])
    pair = np.array([[w @ vec[p] for p, w in row] for row in pair_maps])
    return MomentTable(first=first, cross=cross, pair=pair)


def _march(lop, support, maps, vec, samples, dt, edge_tol):
    tables, residues, edges = [], [], []
    t_prev = 0.0
    for t in samples:
        span = t - t_prev
        nfull = int(math.floor(span / dt + 1e-9))
        rem = span - nfull * dt
        if rem <= 1e-12 * max(dt, 1.0):
            rem = 0.0
        for _ in range(nfull):
            t_prev += dt
            vec = _rk4(lop, vec, dt)
            _audit(support, vec, edge_tol, t_prev)
        if rem:
            vec = _rk4(lop, vec, rem)
        t_prev = t
        residue, edge = _audit(support, vec, edge_tol, t)
        tables.append(_table_at(maps, vec))
        residues.append(residue)
        edges.append(edge)
    return tables, residues, edges, vec


def _sample_grid(cfg: FockConfig, sample_times):
    """The distinct sample instants in order, and the index among them of
    each requested time."""
    if sample_times is None:
        sample_times = np.linspace(0.0, cfg.t_final, 21) if cfg.t_final > 0 else [0.0]
    samples, index = np.unique(np.asarray(sample_times, dtype=float), return_inverse=True)
    if samples.size == 0:
        raise ConfigurationError("sample_times is empty")
    if not np.isfinite(samples).all() or samples[0] < 0.0:
        raise ConfigurationError("sample times must be finite and nonnegative")
    if samples[-1] > cfg.t_final + 1e-9:
        raise ConfigurationError(
            f"sample time {samples[-1]:.6g} lies beyond t_final={cfg.t_final:.6g}"
        )
    return samples, index.ravel()


def integrate(
    rho0: DensityState,
    cfg: FockConfig,
    pref: Prefactors,
    kappa: float,
    *,
    sample_times=None,
    check_convergence: bool = True,
    restrict: bool = True,
    track_spectrum: bool = False,
) -> OracleRun:
    """March the vacuum and sample moments along the way.

    rho0 must be the three-mode vacuum at cutoff cfg.n_max: the march runs
    in the exact two-mode reduction (a1, b) of the module docstring, which
    holds only while b_perp is empty.  Fixed-step fourth-order integration
    of the folded real coordinates, so the state is hermitian by
    construction.  The run refuses to continue when any edge layer holds
    more than cfg.edge_tol population (the cutoff is too small for the
    physics) or when the trace drifts or the state diverges (the step is
    too large).  With check_convergence the whole march is repeated at
    dt/2 and the tracked moments must agree within 1e-6.

    sample_times defaults to 21 evenly spaced instants over the horizon;
    explicit times must lie inside [0, t_final].  The run holds one record
    per requested time, in the order requested; each distinct time is
    marched to once, and integration stops at the last.
    """
    if not isinstance(rho0, DensityState):
        raise ConfigurationError("rho0 must be a DensityState")
    if not isinstance(cfg, FockConfig):
        raise ConfigurationError("cfg must be a FockConfig")
    if rho0.n_max != cfg.n_max:
        raise ConfigurationError(
            f"state truncation n_max={rho0.n_max} does not match config n_max={cfg.n_max}"
        )
    if rho0.sparse.count_nonzero() != 1 or rho0.sparse[0, 0] != 1.0:
        raise ConfigurationError(
            "integrate starts only from the vacuum, where its two-mode reduction is exact"
        )
    if not isinstance(pref, Prefactors):
        raise TypeError("pref must be a Prefactors value")
    kappa = float(kappa)
    if not (kappa > 0.0) or not math.isfinite(kappa):
        raise ConfigurationError("kappa must be positive and finite")

    samples, index = _sample_grid(cfg, sample_times)
    cutoffs, modes, terms = _reduced_model(pref, kappa, cfg.n_max)
    dim = math.prod(n + 1 for n in cutoffs)
    seeds = np.zeros(1, dtype=np.int64)
    if not restrict:
        seeds = np.ravel_multi_index(np.triu_indices(dim), (dim, dim))
    keys, lop = _explore(_term_maps(terms, dim), dim, seeds)
    support = _Support(cutoffs, keys)
    maps = _folded_moment_maps(support, modes)
    vec0 = np.zeros(support.size)
    vec0[0] = 1.0  # the vacuum pair (0, 0) holds the smallest key

    tables, residues, edges, vec = _march(
        lop, support, maps, vec0, samples, cfg.dt, cfg.edge_tol
    )

    delta = None
    if check_convergence:
        halved = _march(
            lop, support, maps, vec0, samples, 0.5 * cfg.dt, cfg.edge_tol
        )[0]
        delta = max(
            (float(np.abs(x - y).max()) for a, b in zip(tables, halved)
             for x, y in ((a.first, b.first), (a.cross, b.cross), (a.pair, b.pair))),
            default=0.0,
        )
        if delta >= _CONVERGENCE_TOL:
            raise IntegrationError(
                f"halving dt moves tracked moments by {delta:.3e} "
                f"(tolerance {_CONVERGENCE_TOL:.1e}); reduce dt"
            )

    min_eig = None
    if track_spectrum:
        min_eig = float(np.linalg.eigvalsh(support.dense(vec)).min())
        if min_eig < -1e-8:
            warnings.warn(
                f"final state developed eigenvalue {min_eig:.3e}; "
                f"truncation or step error is distorting the state",
                stacklevel=2,
            )

    tables = tuple(tables[i] for i in index)
    return OracleRun(
        times=tuple(samples[index].tolist()),
        tables=tables,
        moments=tuple(t.closure() for t in tables),
        trace_residues=tuple(residues[i] for i in index),
        edge_populations=tuple(edges[i] for i in index),
        convergence_delta=delta,
        support_size=support.size,
        min_eigenvalue=min_eig,
    )
