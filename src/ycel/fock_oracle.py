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
``tests/three_mode_reference.py`` keeps the three-mode generator on dense
states as the reference the tests compare against.

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

March.  Fixed RK4 steps, each stage one call of scipy's CSR kernel into
buffers allocated once per march.  A step calls only C functions bound
once, on arrays bound once, and a single run's step sizes are 0-d arrays.
The first ``integrate`` call loads scipy's compiled sparse kernels from
their extension file, importing no scipy package.  Full steps fill the
rows of a block of up to 64 rows (fewer past 2 MiB), and one audit per
block checks every state with the same bounds and messages as an audit
after each step.  With the dt/2 check the dt/2 run takes each step h of
the dt run, full or remainder, as two halves, side by side with it: one
step of a two-row state on a block-diagonal operator moves the dt run by
h and the dt/2 run by h/2, and one more h/2 step completes the interval,
each row equal to its own run's step bit for bit.  The audit reads the
states of both runs where the march wrote them, in time order, and a
checked run refuses at the earliest state that fails, the dt/2 run's
first at equal times, in one march.  Overflow is silent: a step that
overflows leaves a state that is not finite, and the audit refuses it.

Set-up.  Every operator here is a shift monomial on the (a1, b) grid, so
the term maps and moment maps are built by index arithmetic, each weight
the float product a sparse product would form, in the same order.

Positivity.  Exact evolution under a dissipator preserves positivity.
Integration and truncation error can still push eigenvalues slightly
negative, so runs report the smallest final eigenvalue when asked
(``track_spectrum=True``) and warn below -1e-8 rather than failing.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from itertools import accumulate, repeat
from types import SimpleNamespace

import numpy as np

from .dynamics import SecondMoments, _check_kappa
from .errors import (
    ConfigurationError,
    ConsistencyError,
    IntegrationError,
    TruncationError,
)
from .model import FockConfig, Prefactors

__all__ = [
    "FockConfig",
    "DensityState",
    "MomentTable",
    "OracleRun",
    "integrate",
]

# Full steps fill a block of up to _BLOCK_ROWS rows, checked in one audit;
# fewer rows where the block would pass _BLOCK_BYTES (2 MiB), and at least one.
# A row is one state, or the three states of one interval of the dt and dt/2
# runs marched together.
_BLOCK_ROWS = 64
_BLOCK_BYTES = 1 << 21

_CLOSURE_TOL = 1e-10
_TRACE_TOL = 1e-6
_CONVERGENCE_TOL = 1e-6
# No element of a density matrix exceeds 1 in magnitude.
_DIVERGENCE_PEAK = 1.0 + _TRACE_TOL


@dataclass(frozen=True)
class DensityState:
    """The three-mode vacuum at photon cutoff n_max, the start ``integrate``
    takes: its two-mode reduction is exact only while b_perp is empty, so
    the vacuum is the only state this type holds."""

    n_max: int

    @classmethod
    def vacuum(cls, n_max: int) -> "DensityState":
        return cls(n_max)


def _lookup(keys: np.ndarray, wanted: np.ndarray):
    """Positions of ``wanted`` in the sorted ``keys``, and which are present."""
    pos = np.searchsorted(keys, wanted)
    ok = pos < keys.size
    ok[ok] = keys[pos[ok]] == wanted[ok]
    return pos, ok


def _annihilator(sides: tuple, mode: int):
    """One mode's annihilator on the grid of ``sides``, flattened row-major
    (the last mode varies fastest), as a shift map: per source index, the
    index it goes to (-1 where it annihilates) and its weight."""
    stride = math.prod(sides[mode + 1:])
    source = np.arange(math.prod(sides), dtype=np.int64)
    occupation = source // stride % sides[mode]
    return np.where(occupation > 0, source - stride, -1), np.sqrt(occupation.astype(float))


def _transpose(op):
    """The transpose of a shift map: it sends each target back to its
    source with the same weight."""
    target, weight = op
    source = np.flatnonzero(target >= 0)
    out = np.full(target.size, -1, dtype=np.int64), np.zeros(target.size)
    out[0][target[source]] = source
    out[1][target[source]] = weight[source]
    return out


def _product(left, right):
    """left @ right for shift maps, each weight the one float product a sparse
    product takes; an entry whose weight is zero is dropped, as there."""
    (left_target, left_weight), (right_target, right_weight) = left, right
    source = np.flatnonzero(right_target >= 0)
    middle = right_target[source]
    weight = left_weight[middle] * right_weight[source]
    kept = (left_target[middle] >= 0) & (weight != 0.0)
    out = np.full(right_target.size, -1, dtype=np.int64), np.zeros(right_target.size)
    out[0][source[kept]] = left_target[middle[kept]]
    out[1][source[kept]] = weight[kept]
    return out


def _dissipator(rate: float, op, ident):
    """rate * D[op] for a real op as term maps: rate * (2 op rho op^T -
    N rho - rho N) with the diagonal N = op^T op."""
    number = _product(_transpose(op), op)
    return [(2.0 * rate, *op, *op), (-rate, *number, *ident), (-rate, *ident, *number)]


def _reduced_model(pref: Prefactors, kappa: float, n_max: int):
    """The generator on (a1, b): cutoffs, modes and term maps.

    modes are (a1, a2, a3) = U (a1, b) as shift maps on the (a1, b) grid.
    Each term c * X rho Y is (c, ket map, ket weight, bra map, bra weight):
    it sends element (k, b) to (kmap[k], bmap[b]) with weight c * kw[k] *
    bw[b], so the ket map is X's shift map and the bra map Y^T's.  Zero
    coefficients are dropped.  A weight that roundoff leaves a hair below
    zero at the edge of the preparation triangle counts as zero.
    """
    s, half_k = pref.gain_scale, 0.5 * kappa
    loss = max(pref.loss1, 0.0)
    gains = (max(pref.gain2, 0.0), max(pref.gain3, 0.0))
    gain = gains[0] + gains[1]
    cutoffs = (n_max,) if gain == 0.0 else (n_max, n_max * sum(g > 0.0 for g in gains))
    sides = tuple(n + 1 for n in cutoffs)
    dim = math.prod(sides)
    ident = (np.arange(dim, dtype=np.int64), np.ones(dim))
    a1 = _annihilator(sides, 0)
    if gain == 0.0:
        zero = (a1[0], 0.0 * a1[1])
        return cutoffs, (a1, zero, zero), tuple(_dissipator(s * loss + half_k, a1, ident))
    b = _annihilator(sides, 1)
    a1d, bd = _transpose(a1), _transpose(b)
    up, down = _product(a1d, bd), _product(b, a1)
    cross = s * math.sqrt(loss * gain)
    terms = [
        *_dissipator(s * loss + half_k, a1, ident),
        *_dissipator(half_k, b, ident),
        *_dissipator(s * gain, bd, ident),
        (-2.0 * cross, *a1, *bd),
        (-2.0 * cross, *bd, *a1),
        (cross, *up, *ident),
        (cross, *ident, *down),
        (cross, *down, *ident),
        (cross, *ident, *up),
    ]
    u2, u3 = (math.sqrt(g / gain) for g in gains)
    modes = (a1, (b[0], u2 * b[1]), (b[0], u3 * b[1]))
    return cutoffs, modes, tuple(t for t in terms if t[0] != 0.0)


class _Support:
    """Folded coordinates of a real symmetric density matrix on a set of pairs.

    Coordinate i holds rho[ket, bra] = rho[bra, ket] for the i-th key
    (ket <= bra) of ``keys``.  Keys are ket * dim + bra, sorted, so
    positions resolve by binary search.  ``diag`` holds the diagonal
    positions and ``edge`` those sitting in each mode's edge layer; an audit
    reads each part with its own gather.
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


@functools.cache
def _sparsetools():
    """scipy's compiled sparse kernels, scipy/sparse/_sparsetools, loaded
    without the scipy packages.  The sys.modules entry single-phase init
    adds is dropped, so a later ``import scipy.sparse`` binds its own."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:  # scipy.sparse is loaded: its kernels serve
        return sys.modules[name]
    path = os.path.join(*importlib.util.find_spec("scipy").submodule_search_locations, "sparse")
    spec = FileFinder(path, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled {name} extension in {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


def _explore(maps, dim: int, seeds: np.ndarray):
    """Pairs reachable from ``seeds``, and the generator on them.

    Pairs are (k, b) with k <= b; returns their sorted keys and the sparse
    matrix acting on one real number per pair, as CSR arrays under scipy's
    names.  A symmetric state holds (k, b) and (b, k) together, so every
    pair feeds the terms in both orientations, and only targets on or above
    the diagonal are kept: the conjugate term of each term sends the
    mirrored source to the mirror of every target.  The matrix is built by
    the kernels ``csr_matrix((data, (rows, cols)), shape)`` runs on scipy
    1.10 to 1.17, in its order, so it equals that matrix bit for bit.
    """
    # one (terms, dim) array per field, so a level gathers every term at once;
    # masks flatten term by term, in the order of ``maps``
    coef, kmap, kw, bmap, bw = (np.array(field) for field in zip(*maps))
    frontier = np.unique(seeds.astype(np.int64))
    seen = np.zeros(dim * dim, dtype=bool)  # by key: the pairs found so far
    seen[frontier] = True
    targets, sources, weights = [frontier[:0]], [frontier[:0]], [np.zeros(0)]
    while frontier.size:
        ket, bra = np.divmod(frontier, dim)
        off = ket != bra
        ket, bra = np.concatenate((ket, bra[off])), np.concatenate((bra, ket[off]))
        src = np.concatenate((frontier, frontier[off]))
        tk, tb = kmap[:, ket], bmap[:, bra]
        keep = (tk >= 0) & (tb >= 0) & (tk <= tb)
        term, pos = np.nonzero(keep)
        found = tk[keep] * dim + tb[keep]
        targets.append(found)
        sources.append(src[pos])
        weights.append(coef[term] * kw[term, ket[pos]] * bw[term, bra[pos]])
        frontier = np.unique(found[~seen[found]])
        seen[frontier] = True
    keys = np.flatnonzero(seen)
    n, kernels = keys.size, _sparsetools()
    rows, cols = (np.searchsorted(keys, np.concatenate(ends)).astype(np.int32)
                  for ends in (targets, sources))
    indptr, indices, data = np.empty(n + 1, np.int32), np.empty_like(rows), np.empty(rows.size)
    kernels.coo_tocsr(n, n, rows.size, rows, cols, np.concatenate(weights), indptr, indices, data)
    if not kernels.csr_has_canonical_format(n, indptr, indices):
        if not kernels.csr_has_sorted_indices(n, indptr, indices):
            kernels.csr_sort_indices(n, indptr, indices, data)
        kernels.csr_sum_duplicates(n, n, indptr, indices, data)
    nnz = int(indptr[-1])
    return keys, SimpleNamespace(indptr=indptr, indices=indices[:nnz], data=data[:nnz],
                                 shape=(n, n))


def _folded_moment_maps(support: _Support, modes):
    """Per moment operator of ``modes`` (a_i, a_i^dag a_j and a_i a_j), the
    positions and weights it reads, row by row of the operator.

    Tr(O rho) = sum O[r, c] rho[c, r], and rho[c, r] is the coordinate of
    the pair (min, max).
    """
    dim = support.dim

    def mapping(op):
        col, weight = _transpose(op)
        row = np.flatnonzero(col >= 0)
        col = col[row]
        pos, ok = _lookup(support.keys, np.minimum(col, row) * dim + np.maximum(col, row))
        return pos[ok], weight[row[ok]]

    daggers = [_transpose(a) for a in modes]
    return (
        [mapping(a) for a in modes],
        [[mapping(_product(ai, aj)) for aj in modes] for ai in daggers],
        [[mapping(_product(ai, aj)) for aj in modes] for ai in modes],
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
    restrict=False), operator_nnz the stored entries of the real operator
    marched on them, and steps the RK4 steps taken, those of the dt/2
    run included: two for each step of the dt run.  min_eigenvalue is the
    smallest eigenvalue of the final (a1, b) state when spectrum tracking
    was requested; its nonzero spectrum is the three-mode one.
    """

    times: tuple
    tables: tuple
    moments: tuple
    trace_residues: tuple
    edge_populations: tuple
    convergence_delta: float | None
    support_size: int
    operator_nnz: int
    steps: int
    min_eigenvalue: float | None = None

    def closure_leakage(self) -> float:
        return max(t.closure_leakage() for t in self.tables)


def _sizes(h):
    """A step size as the three factors an RK4 step multiplies by: 0.5 * h,
    h and h / 6, as float64 arrays (0-d for one size, which numpy multiplies
    by as by a Python float, bit for bit, but without converting it on every
    call).  h may be an array of sizes, one per coordinate."""
    return np.asarray(0.5 * h), np.asarray(h), np.asarray(h / 6.0)


def _rk4_step(lop, runs: int = 1):
    """The RK4 step of dx/dt = lop @ x as ``step(vec, sizes, out)``, which
    writes the state one step past vec into out (out may be vec) and
    allocates nothing, but for the temporary numpy takes to write an out
    that is not C-contiguous; sizes is ``_sizes(h)``.

    Each stage is one call of scipy's CSR kernel, the call ``lop @ x`` makes
    after its type dispatch, into a row of one stage buffer zeroed once per
    step: the kernel adds into its output.  The vector arithmetic is that of
    vec + (h/6) (k1 + 2 (k2 + k3) + k4), operation for operation, so a step
    equals ``lop @``-based RK4 bit for bit.  The kernel's seven arguments,
    the ufuncs and the constant 2 (a 0-d array) are bound when the step is
    built, so a step converts no Python float and unpacks no argument tuple.

    With runs > 1 the step moves that many states at once, one per row of a
    C-contiguous (runs, n) vec, out any view of that shape, each by its own
    size: h repeats each row's size over the row's coordinates.  The kernel
    runs on a block-diagonal CSR that repeats lop's rows, entries in lop's
    order, once per state, and 0.5 * h and h / 6 are the same operations
    coordinate by coordinate, so each row equals a one-run step bit for bit.
    """
    csr_matvec = _sparsetools().csr_matvec
    n = lop.shape[0]
    indptr, indices, data = lop.indptr, lop.indices, lop.data
    if runs > 1:
        indptr = np.concatenate([indptr[:1], *(indptr[1:] + r * data.size for r in range(runs))])
        indices = np.concatenate([indices + r * n for r in range(runs)])
        data = np.tile(data, runs)
    m = runs * n
    stages = np.empty((4, m))  # flat, as the kernel and h read them
    k1, k2, k3, k4 = stages
    x = np.empty(m)
    xs = x if runs == 1 else x.reshape(runs, n)  # x in vec's shape, for sums with vec
    add, multiply, zero, two = np.add, np.multiply, stages.fill, np.asarray(2.0)

    def step(vec, sizes, out):
        half, h, sixth = sizes
        zero(0.0)
        csr_matvec(m, m, indptr, indices, data, vec, k1)
        multiply(half, k1, x)
        add(vec, xs, xs)
        csr_matvec(m, m, indptr, indices, data, x, k2)
        multiply(half, k2, x)
        add(vec, xs, xs)
        csr_matvec(m, m, indptr, indices, data, x, k3)
        multiply(h, k3, x)
        add(vec, xs, xs)
        csr_matvec(m, m, indptr, indices, data, x, k4)
        add(k2, k3, x)
        multiply(two, x, x)
        add(k1, x, x)
        add(x, k4, x)
        multiply(sixth, x, x)
        add(vec, xs, out)

    return step


def _row_sums(states, idx):
    # the gather states[..., idx] need not come out C-contiguous, and numpy
    # sums strided rows in another order than the 1-D .sum() of each state;
    # C-contiguous rows round exactly as that sum does
    return np.ascontiguousarray(states[..., idx]).sum(axis=-1)


def _audit(support, states, edge_tol, times):
    """Audit each state along the last axis of ``states``, the i-th of them
    in row-major order at ``times[i]``.

    Raises for the first state that fails: divergence (an element beyond 1
    in magnitude, or not finite), then trace drift, then edge population,
    with that state's time and value.  Otherwise returns every state's trace
    residue and edge population, the sums of its diagonal and of each edge
    layer, each part read with its own gather.
    """
    peak = np.maximum(states.max(axis=-1), -states.min(axis=-1))
    diverged = ~(peak <= _DIVERGENCE_PEAK)  # NaN too
    trace = _row_sums(states, support.diag)
    residue = np.abs(trace - 1.0)
    edge = np.max([_row_sums(states, idx) for idx in support.edge], axis=0)
    drifted, filled = residue > _TRACE_TOL, edge > edge_tol
    failed = np.flatnonzero(diverged | drifted | filled)
    if failed.size:
        i = failed[0]
        if diverged.flat[i]:
            raise IntegrationError(
                f"integration diverged near t={times[i]:.6g} (peak element "
                f"{float(peak.flat[i]):.3e}); reduce dt"
            )
        if drifted.flat[i]:
            raise IntegrationError(
                f"trace drifted to {float(trace.flat[i]):.9g} near t={times[i]:.6g}; reduce dt"
            )
        raise TruncationError(
            f"edge-layer population {float(edge.flat[i]):.3e} exceeds edge_tol {edge_tol:.1e} "
            f"near t={times[i]:.6g}; increase n_max beyond {support.cutoffs[0]}"
        )
    return residue, edge


def _table_at(maps, vec):
    first_maps, cross_maps, pair_maps = maps
    first = np.array([w @ vec[p] for p, w in first_maps])
    cross = np.array([[w @ vec[p] for p, w in row] for row in cross_maps])
    pair = np.array([[w @ vec[p] for p, w in row] for row in pair_maps])
    return MomentTable(first=first, cross=cross, pair=pair)


def _block_rows(row_size: int) -> int:
    """Rows of a block of rows of row_size floats: _BLOCK_ROWS, fewer where
    the block would pass _BLOCK_BYTES, and at least one."""
    return min(_BLOCK_ROWS, max(1, _BLOCK_BYTES // (8 * row_size)))


def _times(t_prev, dt, n):
    """The times after each of n steps of dt from t_prev, summed step by step."""
    return list(accumulate(repeat(dt, n), initial=t_prev))[1:]


def _steps(advance, support, vec, count, block, t_prevs, dts, edge_tol):
    """count calls of ``advance(vec, row)`` into consecutive rows of block,
    the first from vec and each next from the row before: the last row and
    each run's time after it.

    A row holds, in reverse time order, the states of one step of each run:
    run i, of step size dts[i] from time t_prevs[i], takes 2**i steps a row.
    Each filled part of the block is audited once, where it lies, its rows
    reversed (``block[:n, ::-1]``) so that states come in time order, each
    run's times summed step by step; the next part starts from its last row.
    """
    while count:
        n = min(count, len(block))
        for row in block[:n]:
            advance(vec, row)
            vec = row
        sums = [_times(t, h, n * 2**i) for i, (t, h) in enumerate(zip(t_prevs, dts))]
        times = np.hstack([np.reshape(s, (n, -1)) for s in sums[::-1]])
        _audit(support, block[:n, ::-1], edge_tol, times.ravel().tolist())
        t_prevs = [s[-1] for s in sums]
        count -= n
    return vec, t_prevs


def _split(span, dt):
    """A span as full steps of dt and a remainder step (0 for none)."""
    nfull = int(math.floor(span / dt + 1e-9))
    rem = span - nfull * dt
    # the float residue of the full steps, not a span shorter than dt
    if nfull and rem <= 1e-12 * max(dt, 1.0):
        rem = 0.0
    return nfull, rem


@np.errstate(over="ignore", invalid="ignore")
def _march(lop, support, maps, vec, samples, dts, edge_tol):
    """RK4 steps under lop to each sample time, one run from vec per step
    size in dts, either (dt,) or (dt, dt/2): per run, the tables, trace
    residues and edge populations at the samples and the final vector, and
    the number of steps all runs took.

    Each sample span is split once (``_split``), and the dt/2 run takes
    each step h of the dt run, full or remainder, as two of h/2.  Full
    steps fill consecutive rows of a block (``_steps``), and one audit per
    block checks every state in time order, the dt/2 run's first at equal
    times, raising for the earliest that fails with the error and time an
    audit after each step would; the next block starts from the last row,
    so no later state is read before a step is checked.  A remainder row
    is checked the same way, its end states at the sample.

    Overflow is silent: a step that overflows leaves a state that is not
    finite, and the audit refuses it as divergence.
    """
    size, dt, width = support.size, dts[0], 2 * len(dts) - 1  # width: states a row holds
    step = _rk4_step(lop)
    if len(dts) == 1:
        def interval(h):
            sizes = _sizes(h)
            return lambda vec, row: step(vec[0], sizes, row[0])
    else:
        pair = _rk4_step(lop, runs=2)

        def interval(h):
            # a row holds the dt state, then the second and first dt/2 states, so
            # the pair reads rows 0:2 of the interval before and writes rows 0, 2
            sizes, half = _sizes(np.repeat((h, 0.5 * h), size)), _sizes(0.5 * h)

            def advance(vec, row):
                pair(vec[:2], sizes, row[::2])
                step(row[2], half, row[1])
            return advance

    rows = np.empty((_block_rows(width * size), width, size))
    full = interval(dt)
    vec = np.stack([vec] * len(dts))  # row i: run i's state
    runs = [([], [], []) for _ in dts]
    t_last, steps = 0.0, 0
    for t in samples:
        nfull, rem = _split(t - t_last, dt)
        steps += width * (nfull + bool(rem))
        vec, t_prevs = _steps(full, support, vec, nfull, rows, [t_last] * len(dts), dts, edge_tol)
        if rem:
            interval(rem)(vec, rows[0])
            vec = rows[0]
        # a remainder row is checked whole, its dt/2 midpoint at its own time;
        # else only the states at t, which their block checked at their times
        n = width if rem else len(dts)
        residue, edge = _audit(support, vec[n - 1::-1], edge_tol,
                               [t_prevs[-1] + 0.5 * rem, t, t][-n:])
        for (tables, residues, edges), state, r, e in zip(runs, vec, residue[::-1], edge[::-1]):
            tables.append(_table_at(maps, state))
            residues.append(float(r))
            edges.append(float(e))
        t_last = t
    return [(*run, state) for run, state in zip(runs, vec)], steps


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

    rho0 is the three-mode vacuum at cutoff cfg.n_max, the only state a
    DensityState holds: the march runs in the exact two-mode reduction
    (a1, b) of the module docstring, which holds only while b_perp is
    empty.  Fixed-step fourth-order integration of the folded real
    coordinates, so the state is hermitian by construction.  The run
    refuses to continue when any edge layer holds more than cfg.edge_tol
    population (the cutoff is too small for the physics) or when the trace
    drifts or the state diverges (the step is too large).  With
    check_convergence the march is also made at dt/2, side by side with the
    dt run, each step of the dt run, a remainder step shorter than dt
    included, taken as two halves, and the tracked moments must agree
    within 1e-6 at every sample; a refusal is that of the earliest failing
    state of either run, the dt/2 run's at equal times.

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
    if not isinstance(pref, Prefactors):
        raise TypeError("pref must be a Prefactors value")
    kappa = float(kappa)
    _check_kappa(kappa)

    samples, index = _sample_grid(cfg, sample_times)
    cutoffs, modes, terms = _reduced_model(pref, kappa, cfg.n_max)
    dim = math.prod(n + 1 for n in cutoffs)
    seeds = np.zeros(1, dtype=np.int64)
    if not restrict:
        seeds = np.ravel_multi_index(np.triu_indices(dim), (dim, dim))
    keys, lop = _explore(terms, dim, seeds)
    support = _Support(cutoffs, keys)
    maps = _folded_moment_maps(support, modes)
    vec0 = np.zeros(support.size)
    vec0[0] = 1.0  # the vacuum pair (0, 0) holds the smallest key

    dts = (cfg.dt, 0.5 * cfg.dt) if check_convergence else (cfg.dt,)
    runs, steps = _march(lop, support, maps, vec0, samples, dts, cfg.edge_tol)
    (tables, residues, edges, vec), *halved = runs

    delta = None
    if halved:
        delta = max(
            (float(np.abs(x - y).max()) for a, b in zip(tables, halved[0][0])
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
        operator_nnz=lop.data.size,
        steps=steps,
        min_eigenvalue=min_eig,
    )
