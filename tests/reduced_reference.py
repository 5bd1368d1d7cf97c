"""Dense reference for the oracle's two-mode march, written out from its jump operator.

From vacuum the oracle marches a1 and b = (sqrt(gain2) a2 + sqrt(gain3) a3) /
sqrt(gain2 + gain3) under s D[sqrt(loss1) a1 - sqrt(gain2 + gain3) b^dag] +
kappa/2 (D[a1] + D[b]), with D[L] rho = 2 L rho L^dag - L^dag L rho - rho L^dag L.
This module marches the same generator with plain RK4 on dense matrices, for
preparations with at least one nonzero gain.
"""

import numpy as np


def ladder(n):
    return np.diag(np.sqrt(np.arange(1.0, n + 1)), 1)


def reduced_modes(p, n_max):
    """Dense a1 and b, b's cutoff n_max times the number of nonzero gains,
    and U with (a1, a2, a3) = U (a1, b)."""
    gain = p.gain2 + p.gain3
    nb = n_max * ((p.gain2 > 0) + (p.gain3 > 0))
    a1 = np.kron(ladder(n_max), np.eye(nb + 1))
    b = np.kron(np.eye(n_max + 1), ladder(nb))
    unmix = np.array([[1.0, 0.0], [0.0, np.sqrt(p.gain2 / gain)], [0.0, np.sqrt(p.gain3 / gain)]])
    return a1, b, unmix


def reduced_march(p, kappa, n_max, dt, steps):
    """The dense (a1, b) state after each of ``steps`` RK4 steps from vacuum."""
    a1, b, _ = reduced_modes(p, n_max)
    jump = np.sqrt(p.loss1) * a1 - np.sqrt(p.gain2 + p.gain3) * b.T
    channels = [(p.gain_scale, jump), (0.5 * kappa, a1), (0.5 * kappa, b)]

    def deriv(rho):
        out = np.zeros_like(rho)
        for rate, op in channels:
            number = op.T @ op
            out += rate * (2.0 * op @ rho @ op.T - number @ rho - rho @ number)
        return out

    rho = np.zeros_like(a1)
    rho[0, 0] = 1.0
    states = []
    for _ in range(steps):
        k1 = deriv(rho)
        k2 = deriv(rho + 0.5 * dt * k1)
        k3 = deriv(rho + 0.5 * dt * k2)
        k4 = deriv(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        states.append(rho)
    return states


def three_mode_table(p, n_max, rho):
    """(first, cross, pair) of (a1, a2, a3) for a dense (a1, b) state."""
    a1, b, unmix = reduced_modes(p, n_max)
    modes = (a1, b)
    first = np.array([np.trace(c @ rho) for c in modes])
    cross = np.array([[np.trace(c.T @ d @ rho) for d in modes] for c in modes])
    pair = np.array([[np.trace(c @ d @ rho) for d in modes] for c in modes])
    return unmix @ first, unmix @ cross @ unmix.T, unmix @ pair @ unmix.T
