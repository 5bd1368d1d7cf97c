"""The model's records as a caller sees them.

PreparationVerdict, AtomPreparation, ModelParams, Prefactors and the
oracle's FockConfig: their fields and order, repr, equality and hash,
immutability, every refusal message, FockConfig's defaults and the
good-cavity warning.
"""

import math
import re
import warnings

import pytest

from ycel.errors import ConfigurationError, ConsistencyError, PreparationError
from ycel.model import (
    AtomPreparation,
    FockConfig,
    GoodCavityWarning,
    ModelParams,
    Prefactors,
    PreparationVerdict,
    populations_from_inversions,
    prefactors_from_inversions,
    validate_physical,
)

nan, inf = math.nan, math.inf

# Each record: its class, its field names in order, one valid value per
# field and the repr of the record they make.
RECORDS = {
    "PreparationVerdict": (
        PreparationVerdict, ("valid", "rho33", "rho22", "rho00", "violated"),
        (False, -1.0, 1.0, 1.0, ("rho33",)),
        "PreparationVerdict(valid=False, rho33=-1.0, rho22=1.0, rho00=1.0, violated=('rho33',))",
    ),
    "AtomPreparation": (
        AtomPreparation, ("rho33", "rho22", "rho00", "rho32", "rho30", "rho20"),
        (0.5, 0.0, 0.5, 0.0, 0.5, 0.0),
        "AtomPreparation(rho33=0.5, rho22=0.0, rho00=0.5, rho32=0.0, rho30=0.5, rho20=0.0)",
    ),
    "ModelParams": (
        ModelParams, ("r_a", "g", "gamma", "kappa", "eta1", "eta2"),
        (1.0, 5.0, 50.0, 1.0, 0.0, 0.5),
        "ModelParams(r_a=1.0, g=5.0, gamma=50.0, kappa=1.0, eta1=0.0, eta2=0.5)",
    ),
    "Prefactors": (
        Prefactors,
        ("gain_scale", "gain3", "gain2", "loss1", "cross32", "cross31", "cross21"),
        (1.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0),
        "Prefactors(gain_scale=1.0, gain3=0.25, gain2=0.0, loss1=0.25, cross32=0.0, "
        "cross31=0.25, cross21=0.0)",
    ),
    "FockConfig": (
        FockConfig, ("n_max", "dt", "t_final", "edge_tol"),
        (8, 0.02, 4.0, 1e-4),
        "FockConfig(n_max=8, dt=0.02, t_final=4.0, edge_tol=0.0001)",
    ),
}

# Each refused record: its class, the values of all its fields, the error
# and its whole message.  The checks run in field order, so a record with
# several faults is refused for the first.
REFUSALS = [
    (AtomPreparation, (1.5, 0.0, -0.5, 0.0, 0.0, 0.0), PreparationError,
     "population rho33=1.5 outside [0, 1]"),
    (AtomPreparation, (0.5, nan, 0.5, 0.0, 0.5, 0.0), PreparationError,
     "population rho22=nan outside [0, 1]"),
    (AtomPreparation, (0.5, 0.0, -0.25, 0.0, 0.0, 0.0), PreparationError,
     "population rho00=-0.25 outside [0, 1]"),
    (AtomPreparation, (0.5, 0.5, 0.5, 0.5, 0.5, 0.5), PreparationError,
     "populations sum to 1.5, not 1"),
    (AtomPreparation, (0.5, 0.0, 0.5, 0.1, 0.5, 0.0), PreparationError,
     "coherence rho32=0.1 is not the geometric mean of its populations"),
    (AtomPreparation, (0.5, 0.0, 0.5, 0.0, 0.4, 0.0), PreparationError,
     "coherence rho30=0.4 is not the geometric mean of its populations"),
    (AtomPreparation, (0.5, 0.0, 0.5, 0.0, 0.5, 0.2), PreparationError,
     "coherence rho20=0.2 is not the geometric mean of its populations"),
    (AtomPreparation, (0.5, 0.5, 0.0, 0.5, 0.0, inf), PreparationError,
     "coherence rho20=inf is not the geometric mean of its populations"),
    (ModelParams, (0.0, 5.0, 50.0, 1.0, 0.0, 0.5), PreparationError,
     "r_a=0.0 must be a positive finite rate"),
    (ModelParams, (1.0, -5.0, 50.0, 1.0, 0.0, 0.5), PreparationError,
     "g=-5.0 must be a positive finite rate"),
    (ModelParams, (1.0, 5.0, inf, 1.0, 0.0, 0.5), PreparationError,
     "gamma=inf must be a positive finite rate"),
    (ModelParams, (1.0, 5.0, 50.0, nan, 0.0, 0.5), PreparationError,
     "kappa=nan must be a positive finite rate"),
    (ModelParams, (0.0, 5.0, 50.0, 1.0, 2.0, 0.0), PreparationError,
     "r_a=0.0 must be a positive finite rate"),
    (ModelParams, (1.0, 5.0, 50.0, 1.0, 2.0, 0.0), PreparationError,
     "unphysical preparation eta1=2.0, eta2=0.0: rho33=-1 < 0"),
    (ModelParams, (1.0, 5.0, 50.0, 1.0, nan, 0.0), PreparationError,
     "unphysical preparation eta1=nan, eta2=0.0: rho33=nan is not finite, "
     "rho22=nan is not finite, rho00=nan is not finite"),
    # refused before the good-cavity check, so it does not warn
    (ModelParams, (1.0, 5.0, 5.0, 1.0, 2.0, 0.0), PreparationError,
     "unphysical preparation eta1=2.0, eta2=0.0: rho33=-1 < 0"),
    (Prefactors, (0.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0), ConsistencyError,
     "gain_scale=0.0 must be positive"),
    (Prefactors, (-1.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0), ConsistencyError,
     "gain_scale=-1.0 must be positive"),
    (Prefactors, (inf, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0), ConsistencyError,
     "gain_scale=inf must be positive"),
    (Prefactors, (nan, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0), ConsistencyError,
     "gain_scale=nan must be positive"),
    (Prefactors, (1.0, 0.6, 0.0, -0.1, 0.0, 0.0, 0.0), ConsistencyError,
     "gain3=0.6 outside [0, 1/2]"),
    (Prefactors, (1.0, 0.25, 0.0, 0.25, 0.0, nan, 0.0), ConsistencyError,
     "cross31=nan outside [0, 1/2]"),
    (Prefactors, (1.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25), ConsistencyError,
     "gain3 + gain2 + loss1 != 1/2"),
    (Prefactors, (1.0, 0.25, 0.0, 0.25, 0.1, 0.25, 0.0), ConsistencyError,
     "cross32 violates its product rule"),
    (Prefactors, (1.0, 0.25, 0.0, 0.25, 0.0, 0.2, 0.0), ConsistencyError,
     "cross31 violates its product rule"),
    (Prefactors, (1.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.1), ConsistencyError,
     "cross21 violates its product rule"),
    (FockConfig, (8.0, 0.02, 4.0, 1e-4), ConfigurationError, "n_max must be an integer"),
    (FockConfig, (True, 0.02, 4.0, 1e-4), ConfigurationError, "n_max must be an integer"),
    (FockConfig, (0, 0.02, 4.0, 1e-4), ConfigurationError, "n_max must be at least 1"),
    (FockConfig, (17, 0.02, 4.0, 1e-4), ConfigurationError,
     "n_max=17 exceeds the supported limit 16"),
    # n_max is checked before dt
    (FockConfig, (17, -1.0, 4.0, 1e-4), ConfigurationError,
     "n_max=17 exceeds the supported limit 16"),
    (FockConfig, (8, 0.0, 4.0, 1e-4), ConfigurationError, "dt must be positive and finite"),
    (FockConfig, (8, nan, 4.0, 1e-4), ConfigurationError, "dt must be positive and finite"),
    (FockConfig, (8, inf, 4.0, 1e-4), ConfigurationError, "dt must be positive and finite"),
    (FockConfig, (8, 0.02, -1.0, 1e-4), ConfigurationError,
     "t_final must be nonnegative and finite"),
    (FockConfig, (8, 0.02, inf, 1e-4), ConfigurationError,
     "t_final must be nonnegative and finite"),
    (FockConfig, (8, 1e-7, 1.0, 1e-4), ConfigurationError,
     "t_final/dt = 1e+07 steps exceeds the limit 1000000"),
    (FockConfig, (8, 0.02, 4.0, 0.0), ConfigurationError, "edge_tol must lie in (0, 1)"),
    (FockConfig, (8, 0.02, 4.0, 1.0), ConfigurationError, "edge_tol must lie in (0, 1)"),
    (FockConfig, (8, 0.02, 4.0, nan), ConfigurationError, "edge_tol must lie in (0, 1)"),
]

GOOD_CAVITY = ("gamma/kappa = 5 < 10; the adiabatic elimination of the atoms "
               "assumes a good cavity")


@pytest.mark.parametrize("name", RECORDS)
def test_fields_in_order_and_repr(name):
    cls, names, values, text = RECORDS[name]
    record = cls(*values)
    assert [getattr(record, n) for n in names] == list(values)
    assert cls(**dict(zip(names, values))) == record
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_alike(name):
    cls, names, values, _ = RECORDS[name]
    one, other = cls(*values), cls(**dict(zip(names, values)))
    assert one == other and one is not other
    assert hash(one) == hash(other) == hash(tuple(values))
    assert not one != other


@pytest.mark.parametrize("name", ["ModelParams", "Prefactors"])
def test_records_with_another_value_differ(name):
    cls, _, values, _ = RECORDS[name]
    changed = cls(2.0, *values[1:])
    assert changed != cls(*values)
    assert not changed == cls(*values)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    cls, names, values, _ = RECORDS[name]
    record = cls(*values)
    for field in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, values[0])
    assert repr(record) == RECORDS[name][3]


def test_fock_config_defaults():
    cfg = FockConfig()
    assert cfg == FockConfig(5, 0.01, 20.0, 1e-6)
    assert repr(cfg) == "FockConfig(n_max=5, dt=0.01, t_final=20.0, edge_tol=1e-06)"
    assert FockConfig(n_max=8) == FockConfig(8, 0.01, 20.0, 1e-6)


def test_the_builders_return_the_records():
    assert validate_physical(2.0, 0.0) == PreparationVerdict(*RECORDS["PreparationVerdict"][2])
    assert populations_from_inversions(0.0, 0.5) == AtomPreparation(
        *RECORDS["AtomPreparation"][2])
    assert prefactors_from_inversions(0.0, 0.5, 1.0) == Prefactors(*RECORDS["Prefactors"][2])
    prep = AtomPreparation(*RECORDS["AtomPreparation"][2])
    assert (prep.eta1, prep.eta2) == (0.0, 0.5)


@pytest.mark.parametrize("cls,values,error,message", REFUSALS)
def test_refusal_messages(cls, values, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cls(*values)


def test_good_cavity_warning_message():
    with pytest.warns(GoodCavityWarning) as caught:
        record = ModelParams(1.0, 5.0, 5.0, 1.0, 0.0, 0.0)
    assert [str(w.message) for w in caught] == [GOOD_CAVITY]
    assert record.gamma == 5.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ModelParams(*RECORDS["ModelParams"][2])


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_named_tuples_of_their_fields(name):
    cls, names, values, _ = RECORDS[name]
    record = cls(*values)
    assert cls._fields == names
    assert tuple(record) == values and isinstance(record, tuple)
    assert record._asdict() == dict(zip(names, values))
    assert cls._make(values) == record and type(cls._make(values)) is cls
    assert record._replace() == record and type(record._replace()) is cls


@pytest.mark.parametrize("cls,values,error,message", REFUSALS)
def test_make_and_replace_refuse_alike(cls, values, error, message):
    names, good = next((n, v) for c, n, v, _ in RECORDS.values() if c is cls)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cls._make(values)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cls(*good)._replace(**dict(zip(names, values)))


def test_good_cavity_warning_names_the_callers_line():
    with pytest.warns(GoodCavityWarning) as caught:
        ModelParams(1.0, 5.0, 5.0, 1.0, 0.0, 0.0)
    assert caught[0].filename == __file__
