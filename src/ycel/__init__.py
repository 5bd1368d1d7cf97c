"""Three-mode correlated-emission laser toolkit.

Moment-level dynamics of the three cavity modes, a truncated Fock-space
master-equation oracle, and continuous-variable tripartite entanglement
witnesses, all driven by the atomic preparation of a Y-configuration
four-level medium.
"""

from .errors import (
    ConfigurationError,
    ConsistencyError,
    DegenerateSteadyStateError,
    DegenerateWitnessError,
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
    steady_state_moments,
)
from .fock_oracle import (
    DensityState,
    FockConfig,
    MomentTable,
    OracleRun,
    integrate,
    liouvillian_apply,
    master_equation_terms,
    mode_annihilators,
    moments_from_state,
)
from .entanglement import (
    BIPARTITIONS,
    CovarianceMatrix,
    SubVacuumWarning,
    SweepPoint,
    VlfReport,
    WitnessRecord,
    covariance_from_moments,
    optimize_gains,
    sweep,
    vlf_evaluate,
)

__version__ = "0.1.0"
