"""The three-mode master equation on dense states, as the reference the oracle
is checked against.

The oracle marches the exact two-mode reduction (a1, b) of the generator from
vacuum.  This module keeps the full generator on the three-mode space, kets
|n1 n2 n3> flattened row-major (the last mode varies fastest), with every
mode cut off at n_max: its terms grouped by coupling, its action on a dense
density matrix, and every first and second moment of a dense state.
"""

import numpy as np
import scipy.sparse as sp

from ycel.fock_oracle import MomentTable


def mode_annihilators(n_max):
    """Sparse annihilators (a1, a2, a3) on the flattened product space."""
    eye = sp.identity(n_max + 1, format="csr")
    ladder = sp.diags(np.sqrt(np.arange(1.0, n_max + 1)), offsets=1, format="csr")
    return tuple(
        sp.kron(sp.kron(first, second, format="csr"), third, format="csr")
        for first, second, third in ((ladder, eye, eye), (eye, ladder, eye), (eye, eye, ladder))
    )


def master_equation_terms(pref, kappa, n_max):
    """The generator, grouped by coupling, as (coefficient, left, right) triples.

    Each triple encodes coefficient * left @ rho @ right with None standing
    for the identity.  Groups: one gain dissipator per upper coupling
    (gain3, gain2), the mode-1 loss channel (loss1), the three cross
    couplings, and the cavity damping of all modes.  Every group is
    traceless on its own.
    """
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
    return {
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


def liouvillian(pref, kappa, n_max):
    """rho -> its time derivative under the full generator, for a dense rho
    at cutoff n_max.  The terms are built once, here, so a march that applies
    the generator at every stage pays for them once."""
    groups = master_equation_terms(pref, kappa, n_max)
    terms = [t for name in sorted(groups) for t in groups[name] if t[0] != 0.0]

    def apply(rho):
        out = np.zeros_like(rho, dtype=complex)
        for coef, left, right in terms:
            term = left @ rho if left is not None else rho
            if right is not None:
                term = term @ right
            out += coef * term
        return out

    return apply


def moments_from_state(rho):
    """Full moment table of a dense three-mode density matrix."""
    rho = np.asarray(rho, dtype=complex)
    n_max = round(rho.shape[0] ** (1.0 / 3.0)) - 1
    modes = mode_annihilators(n_max)

    def trace_with(op):
        coo = op.tocoo()
        return complex(np.sum(coo.data * rho[coo.col, coo.row]))

    first = np.array([trace_with(a) for a in modes])
    cross = np.array([[trace_with((ai.T @ aj).tocsr()) for aj in modes] for ai in modes])
    pair = np.array([[trace_with((ai @ aj).tocsr()) for aj in modes] for ai in modes])
    return MomentTable(first=first, cross=cross, pair=pair)
