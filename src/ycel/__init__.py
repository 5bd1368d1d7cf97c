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

__version__ = "0.1.0"

# Names whose modules import numpy (dynamics, entanglement, fock_oracle) load
# on first access (PEP 562), so `import ycel`, the CLI's parser and `ycel
# prefactors` load no numpy, and a caller pays only for the modules it uses.
# No scipy module loads with them: the oracle loads scipy's compiled sparse
# kernels at its first `integrate` call without importing any scipy package,
# and dynamics imports scipy.integrate on the ode route.
_LAZY = {
    **dict.fromkeys(("NegativeOccupationWarning", "SecondMoments", "StabilityReport",
                     "diffusion_matrix", "drift_matrix", "evolve_first_moments",
                     "evolve_second_moments", "is_stable", "second_moment_trajectory",
                     "stability", "steady_state_moments"), "dynamics"),
    **dict.fromkeys(("BIPARTITIONS", "CovarianceMatrix", "SweepTable", "VlfReport",
                     "WitnessRecord", "covariance_from_moments", "optimize_gains",
                     "sweep", "vlf_evaluate"), "entanglement"),
    **dict.fromkeys(("DensityState", "FockConfig", "MomentTable", "OracleRun", "integrate"),
                    "fock_oracle"),
}

# `from ycel import *` binds every public name but those of the oracle, the
# referee that tests and `ycel oracle` import by name, and the four modules
# that hold the others.
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")}
    | {name for name, module in _LAZY.items() if module != "fock_oracle"}
    | {"dynamics", "entanglement"}
)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
