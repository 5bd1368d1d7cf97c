"""The Fock oracle's march, support search and operator set-up as they were
before the march called scipy's CSR kernel into preallocated buffers, audited
once per block of steps, and stepped the dt and dt/2 runs together, and
before the set-up built its maps by index arithmetic.

``Support``, ``_explore``, ``_rk4``, ``_audit`` and ``_march`` are kept
verbatim (``Support`` was ``fock_oracle._Support``) as the reference that
tests pin the live code to bit for bit: every RK4 stage here is ``lop @ vec``
into a fresh array, every step is audited on its own with three fancy-index
gathers, and the search loops over the term maps at every level.  One
difference is deliberate: this ``_march`` drops a remainder of at most
1e-12 * max(dt, 1) even when no full step precedes it, so a span shorter
than that and than dt takes no step at all; the live march takes it.
Each search level is de-duplicated with ``np.unique``, as the live search's
is; from the live module this imports only its audit bounds and
``_table_at``, the moment read-out.

``_reduced_model``, ``_term_maps`` and ``_folded_moment_maps`` are the
set-up as scipy sparse algebra: Kronecker-product ladders, sparse products
for the composite operators and the moment operators, and row maps read
back from CSR.  The live set-up must give the same maps, positions and
weights in the same order, bit for bit.
"""

import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from ycel.errors import ConsistencyError, IntegrationError, TruncationError
from ycel.fock_oracle import (
    _DIVERGENCE_PEAK,
    _TRACE_TOL,
    _table_at,
)


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
def _reduced_model(pref, kappa: float, n_max: int):
    """The generator on (a1, b): cutoffs, modes and terms.

    modes are (a1, a2, a3) = U (a1, b) as operators on the (a1, b) space.
    Terms are (coefficient, left, right) triples, each coefficient * left @
    rho @ right with None standing for the identity; zero coefficients are
    dropped.  A weight that roundoff leaves a hair below zero at the edge of
    the preparation triangle counts as zero.
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


def _folded_moment_maps(support, modes):
    """Per moment operator of ``modes`` (a_i, a_i^dag a_j and a_i a_j), the
    positions and weights it reads.

    Tr(O rho) = sum O[r, c] rho[c, r], and rho[c, r] is the coordinate of
    the pair (min, max).
    """
    dim = support.dim

    def mapping(op):
        coo = op.tocoo()
        col, row = coo.col.astype(np.int64), coo.row.astype(np.int64)
        pos, ok = _lookup(support.keys, np.minimum(col, row) * dim + np.maximum(col, row))
        return pos[ok], coo.data[ok]

    return (
        [mapping(a) for a in modes],
        [[mapping((ai.T @ aj).tocsr()) for aj in modes] for ai in modes],
        [[mapping((ai @ aj).tocsr()) for aj in modes] for ai in modes],
    )


class Support:
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


def _explore(maps, dim: int, seeds: np.ndarray):
    """Pairs reachable from ``seeds``, and the generator on them.

    Pairs are (k, b) with k <= b; returns their sorted keys and the sparse
    matrix acting on one real number per pair.  A symmetric state holds
    (k, b) and (b, k) together, so every pair feeds the terms in both
    orientations, and only targets on or above the diagonal are kept: the
    conjugate term of each term sends the mirrored source to the mirror of
    every target.
    """
    keys = frontier = np.unique(seeds.astype(np.int64))
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
        found = np.unique(np.concatenate(found))
        frontier = found[~_lookup(keys, found)[1]]
        keys = np.sort(np.concatenate((keys, frontier)))
    rows = _lookup(keys, np.concatenate(targets))[0]
    cols = _lookup(keys, np.concatenate(sources))[0]
    mat = sp.csr_matrix((np.concatenate(weights), (rows, cols)), shape=(keys.size, keys.size))
    return keys, mat


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

