"""Three-mode correlated-emission laser toolkit.

Moment-level dynamics of the three cavity modes, a truncated Fock-space
master-equation oracle, and continuous-variable tripartite entanglement
witnesses, all driven by the atomic preparation of a Y-configuration
four-level medium.
"""

from .errors import (
    ConfigurationError,
    ConsistencyError,
    DegenerateWitnessError,
    FloatRangeError,
    HorizonError,
    IntegrationError,
    PreparationError,
    TruncationError,
    UnstableDriftError,
    YcelError,
)
from .model import (
    AtomPreparation,
    GoodCavityWarning,
    ModelParams,
    Prefactors,
    PreparationVerdict,
    populations_from_inversions,
    prefactors,
    prefactors_from_inversions,
    validate_physical,
)
from .dynamics import (
    NegativeOccupationWarning,
    SecondMoments,
    StabilityReport,
    diffusion_matrix,
    drift_matrix,
    evolve_first_moments,
    evolve_second_moments,
    is_stable,
    second_moment_trajectory,
    stability,
    steady_state_moments,
)
from .entanglement import (
    BIPARTITIONS,
    CovarianceMatrix,
    SubVacuumWarning,
    SweepTable,
    VlfReport,
    WitnessRecord,
    covariance_from_moments,
    optimize_gains,
    sweep,
    vlf_evaluate,
)

__version__ = "0.1.0"

# The Fock-space oracle needs scipy.sparse, which takes most of the package's
# import time; its names load on first access (PEP 562), so only a caller
# that uses the oracle pays for it.
_ORACLE_NAMES = frozenset({
    "DensityState",
    "FockConfig",
    "MomentTable",
    "OracleRun",
    "integrate",
})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import fock_oracle

        return getattr(fock_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)
