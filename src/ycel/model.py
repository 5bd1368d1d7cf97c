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
import warnings
from dataclasses import dataclass

from .errors import ConsistencyError, PreparationError

__all__ = [
    "AtomPreparation",
    "GoodCavityWarning",
    "ModelParams",
    "Prefactors",
    "PreparationVerdict",
    "populations_from_inversions",
    "prefactors",
    "prefactors_from_inversions",
    "validate_physical",
]

# Populations this far below zero are treated as boundary roundoff.
BOUNDARY_TOL = 1e-12

# Least radicand accepted below.  Each radicand is 9 rho_a rho_b: one
# population may sit BOUNDARY_TOL below zero while the other is at most 1,
# and the polynomial adds a few ulps of its own.
RADICAND_FLOOR = -10.0 * BOUNDARY_TOL

# Required agreement between the polynomial radicals and the product forms
# of the cross coefficients.
CROSS_CHECK_TOL = 1e-12

# The adiabatic elimination of the atoms wants gamma at least this many
# times kappa.
GOOD_CAVITY_FACTOR = 10.0


class GoodCavityWarning(UserWarning):
    """Atomic decay is not fast enough relative to the cavity damping."""


@dataclass(frozen=True)
class PreparationVerdict:
    """Outcome of a domain check on (eta1, eta2).

    Total function output: populations are reported raw (possibly negative
    or not finite) and ``violated`` names every population that came out
    below -1e-12 or not finite, so NaN or infinite inversions are refused.
    """

    valid: bool
    rho33: float
    rho22: float
    rho00: float
    violated: tuple[str, ...]


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


@dataclass(frozen=True)
class AtomPreparation:
    """Initial single-atom state: level populations and real coherences.

    The intermediate level is empty, so rho33 + rho22 + rho00 = 1.  For the
    pure superposition considered here every coherence is the geometric mean
    of the populations it connects.
    """

    rho33: float
    rho22: float
    rho00: float
    rho32: float
    rho30: float
    rho20: float

    def __post_init__(self):
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


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs of a run.

    Rates carry whatever unit kappa carries; the library is unit agnostic.
    eta1 and eta2 are the ground-minus-upper population inversions selecting
    the preparation.  Construction validates positivity of the rates and the
    physical triangle, and warns (GoodCavityWarning) when gamma is less than
    GOOD_CAVITY_FACTOR times kappa, where the moment-level treatment of the
    medium starts to lose accuracy.
    """

    r_a: float
    g: float
    gamma: float
    kappa: float
    eta1: float
    eta2: float

    def __post_init__(self):
        for name in ("r_a", "g", "gamma", "kappa"):
            value = getattr(self, name)
            if not value > 0.0 or not math.isfinite(value):
                raise PreparationError(f"{name}={value!r} must be a positive finite rate")
        verdict = validate_physical(self.eta1, self.eta2)
        if not verdict.valid:
            raise PreparationError(
                f"unphysical preparation eta1={self.eta1!r}, eta2={self.eta2!r}: "
                + ", ".join(verdict.violated)
            )
        if self.gamma < GOOD_CAVITY_FACTOR * self.kappa:
            warnings.warn(
                f"gamma/kappa = {self.gamma / self.kappa:.3g} < {GOOD_CAVITY_FACTOR:g}; "
                "the adiabatic elimination of the atoms assumes a good cavity",
                GoodCavityWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class Prefactors:
    """The seven coefficients of the field master equation.

    gain_scale is the linear gain rate 2*r_a*g**2/gamma**2; the six weights
    are dimensionless, each in [0, 1/2], and satisfy
    gain3 + gain2 + loss1 = 1/2 plus the product rules
    cross32 = sqrt(gain3*gain2), cross31 = sqrt(gain3*loss1),
    cross21 = sqrt(gain2*loss1).  Construction enforces all of this.
    """

    gain_scale: float
    gain3: float
    gain2: float
    loss1: float
    cross32: float
    cross31: float
    cross21: float

    def __post_init__(self):
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


# Polynomial radicands of the three cross coefficients, as functions of the
# inversions.  They factor into the population products used below; both are
# evaluated and must agree, which guards the implementation against typos.
def _radicands(eta1: float, eta2: float) -> tuple[float, float, float]:
    e1sq = eta1 * eta1
    e2sq = eta2 * eta2
    r32 = 1.0 - eta1 - eta2 + 5.0 * (eta1 * eta2) - 2.0 * (e1sq + e2sq)
    r31 = 1.0 - eta1 + 2.0 * eta2 - (eta1 * eta2) - 2.0 * e1sq + e2sq
    r21 = 1.0 - eta2 + 2.0 * eta1 - (eta1 * eta2) - 2.0 * e2sq + e1sq
    return r32, r31, r21


def prefactors_from_inversions(
    eta1: float, eta2: float, gain_scale: float
) -> Prefactors:
    """Prefactors straight from the inversions and the gain rate.

    The cross coefficients are returned in product form, which is exactly
    symmetric under eta1 <-> eta2 together with the mode 2 <-> 3 relabeling;
    the equivalent polynomial radicals are evaluated as a cross-check.
    """
    prep = populations_from_inversions(eta1, eta2)
    pref = Prefactors(
        gain_scale=gain_scale,
        gain3=prep.rho33 / 2.0,
        gain2=prep.rho22 / 2.0,
        loss1=prep.rho00 / 2.0,
        cross32=prep.rho32 / 2.0,
        cross31=prep.rho30 / 2.0,
        cross21=prep.rho20 / 2.0,
    )
    for name, value, radicand in zip(
        ("cross32", "cross31", "cross21"),
        (pref.cross32, pref.cross31, pref.cross21),
        _radicands(eta1, eta2),
    ):
        if radicand < RADICAND_FLOOR:
            raise ConsistencyError(
                f"negative radicand {radicand!r} for {name} at eta1={eta1!r}, eta2={eta2!r}"
            )
        # Compared on the squares: near the triangle boundary the radicand is
        # an O(ulp) residual whose square root would amplify roundoff to 1e-8.
        if abs(max(radicand, 0.0) - 36.0 * value * value) > CROSS_CHECK_TOL:
            radical = math.sqrt(max(radicand, 0.0)) / 6.0
            raise ConsistencyError(
                f"{name}: radical {radical!r} disagrees with product form {value!r}"
            )
    return pref


def prefactors(params: ModelParams) -> Prefactors:
    """Master-equation coefficients for a parameter set.

    Raises PreparationError when the gain rate 2 r_a g**2 / gamma**2
    overflows or underflows to 0 in floating point.
    """
    try:
        scale = 2.0 * params.r_a * params.g**2 / params.gamma**2
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise PreparationError(
            f"gain rate 2 r_a g**2 / gamma**2 = {scale!r} is out of floating-point range "
            f"for r_a={params.r_a!r}, g={params.g!r}, gamma={params.gamma!r}"
        )
    return prefactors_from_inversions(params.eta1, params.eta2, scale)
