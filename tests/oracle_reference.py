"""The Fock oracle's march and support search as they were before the march
called scipy's CSR kernel into preallocated buffers and audited once per
block of steps with one gather.

``Support``, ``_explore``, ``_rk4``, ``_audit`` and ``_march`` are kept
verbatim (``Support`` was ``fock_oracle._Support``) as the reference that
tests pin the live code to bit for bit: every RK4 stage here is ``lop @ vec``
into a fresh array, every step is audited on its own with three fancy-index
gathers, and the search loops over the term maps at every level.  One
difference is deliberate: this ``_march`` drops a remainder of at most
1e-12 * max(dt, 1) even when no full step precedes it, so a span shorter
than that and than dt takes no step at all; the live march takes it.
"""

import math

import numpy as np
import scipy.sparse as sp

from ycel.errors import IntegrationError, TruncationError
from ycel.fock_oracle import (
    _DIVERGENCE_PEAK,
    _TRACE_TOL,
    _lookup,
    _sorted_unique,
    _table_at,
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

