"""Exception types shared across the package."""


class YcelError(Exception):
    """Base class for every error raised by ycel."""


class PreparationError(YcelError, ValueError):
    """Atomic preparation parameters outside the physical domain."""


class ConsistencyError(YcelError):
    """An internal algebraic identity failed beyond tolerance."""


class UnstableDriftError(YcelError):
    """The drift matrix has no decaying steady state."""


class HorizonError(YcelError):
    """Requested time would overflow the growing solution of an unstable drift."""


class ConfigurationError(YcelError, ValueError):
    """Simulation configuration is inconsistent (dimensions, steps, ranges)."""


class TruncationError(YcelError):
    """Fock-space truncation too small for the requested evolution."""


class IntegrationError(YcelError):
    """Fixed-step integration failed an accuracy check."""


class DegenerateWitnessError(YcelError, ValueError):
    """A witness gain choice that cannot certify anything (zero gains or zero bound)."""
