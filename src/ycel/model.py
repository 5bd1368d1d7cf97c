"""Atomic preparation and master-equation coefficients for the three-mode model.

The gain medium is a beam of four-level atoms in a Y configuration: two upper
levels (3 and 2) decay to a common intermediate level (1), which decays to the
ground level (0).  Each transition is resonant with one cavity mode, so the
cavity field has three modes: mode 3 on 3->1, mode 2 on 2->1, mode 1 on 1->0.
Atoms enter the cavity at rate r_a, prepared in a coherent superposition of
the two upper levels and the ground level with real nonnegative amplitudes;
the intermediate level starts empty.

After tracing out the atoms, the field master equation is fixed by one rate
scale and six dimensionless weights:

    gain_scale = 2 * r_a * g**2 / gamma**2

and, writing rho_jj for the initial populations,

    gain3  = rho33 / 2      gain of mode 3
    gain2  = rho22 / 2      gain of mode 2
    loss1  = rho00 / 2      absorption of mode 1
    cross32 = rho32 / 2 = sqrt(gain3 * gain2)
    cross31 = rho30 / 2 = sqrt(gain3 * loss1)
    cross21 = rho20 / 2 = sqrt(gain2 * loss1)

The preparation is parametrised by the two population inversions
eta1 = rho00 - rho33 and eta2 = rho00 - rho22.  Requiring all three
populations to be nonnegative confines (eta1, eta2) to the triangle with
vertices (1, 1), (0, -1) and (-1, 0).

Special preparations worth remembering: (1, 1) puts every atom in the ground
level (pure absorption on mode 1); (0, 0) distributes coherence evenly, all
six weights equal 1/6; (-0.5, -0.5) empties the ground level and decouples
mode 1; (0, 0.5) empties level 2, silencing mode 2.  In that last case the
vanishing weights are gain2, cross32 and cross21, while cross31 = 1/4; one
published account of this case lists cross31 among the zeros, which the
closed forms contradict.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import namedtuple

from .errors import ConfigurationError, ConsistencyError, PreparationError

__all__ = [
    "AtomPreparation",
    "FockConfig",
    "GoodCavityWarning",
    "ModelParams",
    "Prefactors",
    "PreparationVerdict",
    "populations_from_inversions",
    "prefactors",
    "prefactors_from_inversions",
    "validate_physical",
]

# The noise conventions and the trajectory routes of the moment engine in
# dynamics, and the largest n1 x n2 grid entanglement.sweep takes, named
# here so that the CLI checks its arguments without numpy.  About 37.5% of
# a grid over [-1, 1]^2 is physical, so the largest map returns about
# 375,000 points.
BACKENDS = ("ehrenfest", "paper-literal")
ROUTES = ("closed-form", "ode")
MAX_SWEEP_POINTS = 1_000_000

# Bounds the oracle's breadth-first search over the reachable support and
# the sparse operator it assembles, which grow about as n_max**3.  From
# vacuum at (0, 0), A = 1, n_max = 16 (a1 <= 16, b <= 32) marches 4,233
# coordinates under 38,233 operator entries.  Marching it to t = 2 at
# dt = 0.01 with the dt/2 check, the process peaks at 58.0 MB RSS, 49.4 MB
# of it imports and 2 MB the 20-interval block of the two runs marched
# together (x86-64 Linux, Python 3.11, numpy 2.4, scipy 1.17).
_N_MAX_LIMIT = 16

# Most fixed steps one oracle march takes (t_final / dt); the dt/2
# convergence check marches twice as many.  The acceptance runs take at
# most 2,000.
_MAX_STEPS = 1_000_000

# Populations this far below zero are treated as boundary roundoff.  The
# tolerance applies to the populations as validate_physical computes them
# in floating point, not to their exact values: at eta1 = eta2 =
# 1.000000000003 the exact rho33 is -1.0000149e-12, beyond it, but the
# computed one is -0.99994e-12, and that point is accepted.
BOUNDARY_TOL = 1e-12

# Required agreement of a Prefactors' weights with the sum rule and the
# product rules.
CROSS_CHECK_TOL = 1e-12

# The adiabatic elimination of the atoms wants gamma at least this many
# times kappa.
GOOD_CAVITY_FACTOR = 10.0


class GoodCavityWarning(UserWarning):
    """Atomic decay is not fast enough relative to the cavity damping."""


def _record(name: str, fields: str):
    """The named-tuple base of a record whose class checks its fields in
    __new__.  Its _make, and with it _replace, builds through the class, so
    no way of building a record skips the checks."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class PreparationVerdict(_record("PreparationVerdict", "valid rho33 rho22 rho00 violated")):
    """Outcome of a domain check on (eta1, eta2).

    Total function output: populations are reported raw (possibly negative
    or not finite) and ``violated`` names every population that came out
    below -1e-12 or not finite, so NaN or infinite inversions are refused.
    The bound applies to the populations as computed here in floating
    point, whose rounding can differ from the exact value by a few ulps.
    """

    __slots__ = ()


def validate_physical(eta1: float, eta2: float) -> PreparationVerdict:
    """Check whether two inversions correspond to a physical preparation."""
    rho00 = (1.0 + (eta1 + eta2)) / 3.0
    rho22 = (1.0 + eta1 - 2.0 * eta2) / 3.0
    rho33 = (1.0 + eta2 - 2.0 * eta1) / 3.0
    violated = tuple(
        name
        for name, value in (("rho33", rho33), ("rho22", rho22), ("rho00", rho00))
        if not -BOUNDARY_TOL <= value < math.inf
    )
    return PreparationVerdict(not violated, rho33, rho22, rho00, violated)


class AtomPreparation(_record("AtomPreparation", "rho33 rho22 rho00 rho32 rho30 rho20")):
    """Initial single-atom state: level populations and real coherences.

    The intermediate level is empty, so rho33 + rho22 + rho00 = 1.  For the
    pure superposition considered here every coherence is the geometric mean
    of the populations it connects.
    """

    __slots__ = ()

    def __new__(cls, rho33: float, rho22: float, rho00: float,
                rho32: float, rho30: float, rho20: float):
        self = super().__new__(cls, rho33, rho22, rho00, rho32, rho30, rho20)
        for name in ("rho33", "rho22", "rho00"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise PreparationError(f"population {name}={value!r} outside [0, 1]")
        total = self.rho33 + self.rho22 + self.rho00
        if abs(total - 1.0) > 1e-9:
            raise PreparationError(f"populations sum to {total!r}, not 1")
        for name, lhs, a, b in (
            ("rho32", self.rho32, self.rho33, self.rho22),
            ("rho30", self.rho30, self.rho33, self.rho00),
            ("rho20", self.rho20, self.rho22, self.rho00),
        ):
            if abs(lhs - math.sqrt(a * b)) > 1e-9:
                raise PreparationError(
                    f"coherence {name}={lhs!r} is not the geometric mean of its populations"
                )
        return self

    @property
    def eta1(self) -> float:
        return self.rho00 - self.rho33

    @property
    def eta2(self) -> float:
        return self.rho00 - self.rho22


def populations_from_inversions(eta1: float, eta2: float) -> AtomPreparation:
    """Build the full preparation from the two population inversions.

    Raises
    ------
    PreparationError
        If (eta1, eta2) lies outside the physical triangle by more than
        1e-12 in any population, or either is not finite.  The message
        names the violated populations.
    """
    verdict = validate_physical(eta1, eta2)
    if not verdict.valid:
        values = {"rho33": verdict.rho33, "rho22": verdict.rho22, "rho00": verdict.rho00}
        detail = ", ".join(
            f"{name}={values[name]:.6g} " + ("< 0" if values[name] < 0 else "is not finite")
            for name in verdict.violated
        )
        raise PreparationError(
            f"unphysical preparation eta1={eta1!r}, eta2={eta2!r}: {detail}"
        )
    rho33, rho22, rho00 = verdict.rho33, verdict.rho22, verdict.rho00
    if rho00 == 0.0:
        # eta1 = rho00 - rho33 and eta2 = rho00 - rho22 give the other two
        # exactly, with rho22 + rho33 = 1, so the drift on this edge is
        # exactly marginal at A = 1 (the formulas above miss by an ulp)
        rho33, rho22 = -eta1, -eta2
    # Boundary roundoff clamps into [0, 1] so the radicals below stay real.
    rho33, rho22, rho00 = (min(max(v, 0.0), 1.0) for v in (rho33, rho22, rho00))
    return AtomPreparation(
        rho33=rho33,
        rho22=rho22,
        rho00=rho00,
        rho32=math.sqrt(rho33 * rho22),
        rho30=math.sqrt(rho33 * rho00),
        rho20=math.sqrt(rho22 * rho00),
    )


class ModelParams(_record("ModelParams", "r_a g gamma kappa eta1 eta2")):
    """Physical inputs of a run.

    Rates carry whatever unit kappa carries; the library is unit agnostic.
    eta1 and eta2 are the ground-minus-upper population inversions selecting
    the preparation.  Construction validates positivity of the rates and the
    physical triangle, and warns (GoodCavityWarning) when gamma is less than
    GOOD_CAVITY_FACTOR times kappa, where the moment-level treatment of the
    medium starts to lose accuracy.
    """

    __slots__ = ()

    def __new__(cls, r_a: float, g: float, gamma: float, kappa: float,
                eta1: float, eta2: float):
        self = super().__new__(cls, r_a, g, gamma, kappa, eta1, eta2)
        for name in ("r_a", "g", "gamma", "kappa"):
            value = getattr(self, name)
            if not value > 0.0 or not math.isfinite(value):
                raise PreparationError(f"{name}={value!r} must be a positive finite rate")
        populations_from_inversions(self.eta1, self.eta2)
        if self.gamma < GOOD_CAVITY_FACTOR * self.kappa:
            warnings.warn(
                f"gamma/kappa = {self.gamma / self.kappa:.3g} < {GOOD_CAVITY_FACTOR:g}; "
                "the adiabatic elimination of the atoms assumes a good cavity",
                GoodCavityWarning,
                stacklevel=2,
            )
        return self


class Prefactors(_record("Prefactors", "gain_scale gain3 gain2 loss1 cross32 cross31 cross21")):
    """The seven coefficients of the field master equation.

    gain_scale is the linear gain rate 2*r_a*g**2/gamma**2; the six weights
    are dimensionless, each in [0, 1/2], and satisfy
    gain3 + gain2 + loss1 = 1/2 plus the product rules
    cross32 = sqrt(gain3*gain2), cross31 = sqrt(gain3*loss1),
    cross21 = sqrt(gain2*loss1).  Construction enforces all of this.
    """

    __slots__ = ()

    def __new__(cls, gain_scale: float, gain3: float, gain2: float, loss1: float,
                cross32: float, cross31: float, cross21: float):
        self = super().__new__(cls, gain_scale, gain3, gain2, loss1, cross32, cross31, cross21)
        if not self.gain_scale > 0.0 or not math.isfinite(self.gain_scale):
            raise ConsistencyError(f"gain_scale={self.gain_scale!r} must be positive")
        for name in ("gain3", "gain2", "loss1", "cross32", "cross31", "cross21"):
            value = getattr(self, name)
            if not -BOUNDARY_TOL <= value <= 0.5 + BOUNDARY_TOL:
                raise ConsistencyError(f"{name}={value!r} outside [0, 1/2]")
        if abs(self.gain3 + self.gain2 + self.loss1 - 0.5) > CROSS_CHECK_TOL:
            raise ConsistencyError("gain3 + gain2 + loss1 != 1/2")
        for name, lhs, a, b in (
            ("cross32", self.cross32, self.gain3, self.gain2),
            ("cross31", self.cross31, self.gain3, self.loss1),
            ("cross21", self.cross21, self.gain2, self.loss1),
        ):
            if abs(lhs - math.sqrt(a * b)) > CROSS_CHECK_TOL:
                raise ConsistencyError(f"{name} violates its product rule")
        return self


def prefactors_from_inversions(
    eta1: float, eta2: float, gain_scale: float
) -> Prefactors:
    """Prefactors straight from the inversions and the gain rate.

    The cross coefficients are returned in product form, which is exactly
    symmetric under eta1 <-> eta2 together with the mode 2 <-> 3 relabeling.
    Each is built from the halved weights, sqrt(gain3 * gain2) and so on,
    so the product rules hold where a population halves below the normal
    range; elsewhere it equals rho32 / 2 and its kin bit for bit.
    """
    prep = populations_from_inversions(eta1, eta2)
    gain3, gain2, loss1 = prep.rho33 / 2.0, prep.rho22 / 2.0, prep.rho00 / 2.0
    return Prefactors(
        gain_scale=gain_scale,
        gain3=gain3,
        gain2=gain2,
        loss1=loss1,
        cross32=math.sqrt(gain3 * gain2),
        cross31=math.sqrt(gain3 * loss1),
        cross21=math.sqrt(gain2 * loss1),
    )


def prefactors(params: ModelParams) -> Prefactors:
    """Master-equation coefficients for a parameter set.

    Raises PreparationError when the gain rate 2 r_a g**2 / gamma**2, or a
    square or product on the way to it, overflows or falls below the normal
    floating-point range, where it keeps fewer significant bits than the
    rates (0 included).
    """
    try:
        g2, gamma2 = params.g**2, params.gamma**2
        product = 2.0 * params.r_a * g2
        scale = product / gamma2
    except (OverflowError, ZeroDivisionError):
        g2 = gamma2 = product = scale = math.inf
    if not all(sys.float_info.min <= x < math.inf for x in (g2, gamma2, product, scale)):
        raise PreparationError(
            f"gain rate 2 r_a g**2 / gamma**2 = {scale!r} is out of floating-point range "
            f"for r_a={params.r_a!r}, g={params.g!r}, gamma={params.gamma!r}"
        )
    return prefactors_from_inversions(params.eta1, params.eta2, scale)


class FockConfig(_record("FockConfig", "n_max dt t_final edge_tol")):
    """Discretisation knobs for a brute-force run of the Fock-space oracle.

    n_max is the photon cutoff of a1 (b holds up to n_max times the number
    of modes with nonzero gain), dt the fixed integrator step, t_final the
    horizon, and edge_tol the largest population allowed in any edge Fock
    layer (occupation == cutoff in some mode) before the run refuses to
    continue.
    """

    __slots__ = ()

    def __new__(cls, n_max: int = 5, dt: float = 0.01, t_final: float = 20.0,
                edge_tol: float = 1e-6):
        self = super().__new__(cls, n_max, dt, t_final, edge_tol)
        if not isinstance(n_max, int) or isinstance(n_max, bool):
            raise ConfigurationError("n_max must be an integer")
        if n_max < 1:
            raise ConfigurationError("n_max must be at least 1")
        if n_max > _N_MAX_LIMIT:
            raise ConfigurationError(f"n_max={n_max} exceeds the supported limit {_N_MAX_LIMIT}")
        if not (dt > 0.0) or not math.isfinite(dt):
            raise ConfigurationError("dt must be positive and finite")
        if not (t_final >= 0.0) or not math.isfinite(t_final):
            raise ConfigurationError("t_final must be nonnegative and finite")
        if t_final / dt > _MAX_STEPS:
            raise ConfigurationError(
                f"t_final/dt = {t_final / dt:.3g} steps exceeds the limit {_MAX_STEPS}"
            )
        if not (0.0 < edge_tol < 1.0):
            raise ConfigurationError("edge_tol must lie in (0, 1)")
        return self
