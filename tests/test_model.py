"""Preparation domain, prefactor values, and their algebraic identities."""

import math
import re
import warnings

import numpy as np
import pytest

from ycel.errors import ConsistencyError, PreparationError
from ycel.model import (
    GoodCavityWarning,
    ModelParams,
    Prefactors,
    populations_from_inversions,
    prefactors,
    prefactors_from_inversions,
    validate_physical,
)


def triangle_grid(n):
    """All (eta1, eta2) on an n x n grid of [-1,1]^2 that are physical."""
    values = np.linspace(-1.0, 1.0, n)
    return [
        (float(e1), float(e2))
        for e1 in values
        for e2 in values
        if validate_physical(e1, e2).valid
    ]


# The four reference preparations: eta pair -> (gain3, gain2, loss1, cross32, cross31, cross21)
FIXTURES = {
    (1.0, 1.0): (0.0, 0.0, 0.5, 0.0, 0.0, 0.0),
    (0.0, 0.0): (1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6),
    (0.0, 0.5): (0.25, 0.0, 0.25, 0.0, 0.25, 0.0),
    (-0.5, -0.5): (0.25, 0.25, 0.0, 0.25, 0.0, 0.0),
}


@pytest.mark.parametrize("etas,expected", sorted(FIXTURES.items()))
def test_prefactor_fixtures(etas, expected):
    pref = prefactors_from_inversions(*etas, gain_scale=1.0)
    got = (pref.gain3, pref.gain2, pref.loss1, pref.cross32, pref.cross31, pref.cross21)
    assert got == pytest.approx(expected, abs=1e-12)


def test_mode2_silenced_case_keeps_cross31():
    # At (0, 0.5) the vanishing set is {gain2, cross32, cross21}; cross31 = 1/4.
    pref = prefactors_from_inversions(0.0, 0.5, gain_scale=1.0)
    assert pref.cross31 == pytest.approx(0.25, abs=1e-12)
    assert pref.gain2 == 0.0 and pref.cross32 == 0.0 and pref.cross21 == 0.0


def test_populations_match_inversions_round_trip():
    for e1, e2 in triangle_grid(31):
        prep = populations_from_inversions(e1, e2)
        assert prep.eta1 == pytest.approx(e1, abs=1e-12)
        assert prep.eta2 == pytest.approx(e2, abs=1e-12)
        assert prep.rho33 + prep.rho22 + prep.rho00 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "e1,e2,bad",
    [
        (2.0, 0.0, "rho33"),
        (0.0, 2.0, "rho22"),
        (-1.0, -1.0, "rho00"),
        (1.5, 1.5, "rho33"),
    ],
)
def test_out_of_triangle_names_population(e1, e2, bad):
    with pytest.raises(PreparationError, match=bad):
        populations_from_inversions(e1, e2)


def test_triangle_vertices_and_boundary_roundoff():
    for vertex in [(1.0, 1.0), (0.0, -1.0), (-1.0, 0.0)]:
        populations_from_inversions(*vertex)
    # a population 1e-13 below zero clamps instead of raising
    prep = populations_from_inversions(-0.5, -0.5 - 1.5e-13)
    assert prep.rho00 == 0.0


# Inside the 1e-12 tolerance of validate_physical: rho22 is -9.7e-13 at the
# first, rho00 is 1 + 2e-12 at the second.
TOLERATED_POINTS = [(-2.9e-12, 0.5), (1.000000000003, 1.000000000003)]


@pytest.mark.parametrize("eta1, eta2", TOLERATED_POINTS)
def test_points_within_the_boundary_tolerance_clamp(eta1, eta2):
    assert validate_physical(eta1, eta2).valid
    prep = populations_from_inversions(eta1, eta2)
    assert all(0.0 <= rho <= 1.0 for rho in (prep.rho33, prep.rho22, prep.rho00))
    pref = prefactors_from_inversions(eta1, eta2, gain_scale=1.0)
    assert 0.0 in (pref.gain3, pref.gain2)


def test_model_accepts_exactly_what_validate_physical_accepts():
    # points along the three triangle edges, nudged across them by up to 3e-12
    vertices = [(1.0, 1.0), (0.0, -1.0), (-1.0, 0.0), (1.0, 1.0)]
    nudges = [-3e-12, -2e-12, -1e-12, 0.0, 1e-12, 2e-12, 3e-12]
    for (a1, a2), (b1, b2) in zip(vertices, vertices[1:]):
        for t in np.linspace(0.0, 1.0, 41):
            for d1 in nudges:
                for d2 in nudges:
                    eta1 = float(a1 + t * (b1 - a1)) + d1
                    eta2 = float(a2 + t * (b2 - a2)) + d2
                    if validate_physical(eta1, eta2).valid:
                        prefactors_from_inversions(eta1, eta2, gain_scale=1.0)
                    else:
                        with pytest.raises(PreparationError):
                            prefactors_from_inversions(eta1, eta2, gain_scale=1.0)


def test_grid_identities():
    for e1, e2 in triangle_grid(41):
        p = prefactors_from_inversions(e1, e2, gain_scale=2.0)
        assert abs(p.gain3 + p.gain2 + p.loss1 - 0.5) < 1e-12
        assert abs(p.cross32 - math.sqrt(p.gain3 * p.gain2)) < 1e-12
        assert abs(p.cross31 - math.sqrt(p.gain3 * p.loss1)) < 1e-12
        assert abs(p.cross21 - math.sqrt(p.gain2 * p.loss1)) < 1e-12


def test_swap_symmetry_is_exact():
    # eta1 <-> eta2 exchanges modes 2 and 3: gain3<->gain2, cross31<->cross21,
    # and fixes loss1 and cross32, all bitwise thanks to the product forms.
    for e1, e2 in triangle_grid(21):
        p = prefactors_from_inversions(e1, e2, gain_scale=1.0)
        q = prefactors_from_inversions(e2, e1, gain_scale=1.0)
        assert (q.gain3, q.gain2) == (p.gain2, p.gain3)
        assert (q.cross31, q.cross21) == (p.cross21, p.cross31)
        assert q.loss1 == p.loss1
        assert q.cross32 == p.cross32


def test_empty_ground_level_sums_the_other_populations_to_one():
    # on rho00 = 0 the gains sum to exactly 1/2 and the absorption is 0, so
    # the drift margin kappa/2 + A (loss1 - gain2 - gain3) is exactly 0 at A = 1
    edge = 0
    for e1 in np.linspace(-1.0, 0.0, 1001).tolist():
        e2 = -1.0 - e1
        if e1 + e2 != -1.0:
            continue
        edge += 1
        p = prefactors_from_inversions(e1, e2, gain_scale=1.0)
        assert (p.loss1, p.gain2 + p.gain3) == (0.0, 0.5), (e1, e2)
    assert edge == 1001


def test_gain_scale_formula():
    params = ModelParams(r_a=3.0, g=0.5, gamma=25.0, kappa=1.0, eta1=0.0, eta2=0.0)
    pref = prefactors(params)
    assert pref.gain_scale == pytest.approx(2 * 3.0 * 0.25 / 625.0, rel=1e-15)


# Rates whose gain rate 2 r_a g**2 / gamma**2 leaves the float range: g**2
# overflows, the product overflows to inf, the quotient underflows to 0, and
# gamma**2 underflows to 0.
OUT_OF_RANGE_RATES = [(1e200, 1e200, 1e-10), (1e300, 1e10, 1.0), (1e-300, 1e-10, 1e10),
                      (1.0, 1.0, 1e-200)]


@pytest.mark.parametrize("r_a, g, gamma", OUT_OF_RANGE_RATES)
def test_gain_rate_out_of_float_range_is_refused(r_a, g, gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GoodCavityWarning)
        params = ModelParams(r_a=r_a, g=g, gamma=gamma, kappa=1.0, eta1=0.1, eta2=0.2)
    named = re.escape(f"r_a={r_a!r}, g={g!r}, gamma={gamma!r}")
    with pytest.raises(PreparationError, match=named):
        prefactors(params)


def test_validate_physical_is_total():
    verdict = validate_physical(5.0, -7.0)
    assert not verdict.valid
    assert verdict.violated
    ok = validate_physical(0.1, 0.1)
    assert ok.valid and ok.violated == ()


@pytest.mark.parametrize(
    "eta1, eta2",
    [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf), (math.inf, math.inf)],
)
def test_validate_physical_refuses_non_finite(eta1, eta2):
    verdict = validate_physical(eta1, eta2)
    assert not verdict.valid and verdict.violated
    with pytest.raises(PreparationError, match="unphysical"):
        populations_from_inversions(eta1, eta2)


def test_model_params_validation():
    with pytest.raises(PreparationError, match="kappa"):
        ModelParams(r_a=1.0, g=1.0, gamma=10.0, kappa=0.0, eta1=0.0, eta2=0.0)
    with pytest.raises(PreparationError):
        ModelParams(r_a=1.0, g=1.0, gamma=100.0, kappa=1.0, eta1=2.0, eta2=0.0)


def test_good_cavity_warning():
    with pytest.warns(GoodCavityWarning):
        ModelParams(r_a=1.0, g=1.0, gamma=5.0, kappa=1.0, eta1=0.0, eta2=0.0)
    with pytest.warns(GoodCavityWarning, match="< 10"):
        ModelParams(r_a=1.0, g=1.0, gamma=19.9, kappa=2.0, eta1=0.0, eta2=0.0)
    # the threshold is gamma = 10 kappa, inclusive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ModelParams(r_a=1.0, g=1.0, gamma=20.0, kappa=2.0, eta1=0.0, eta2=0.0)


def test_prefactors_type_rejects_inconsistent_values():
    with pytest.raises(ConsistencyError):
        Prefactors(1.0, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0)  # sum rule broken
    with pytest.raises(ConsistencyError):
        Prefactors(1.0, 0.25, 0.25, 0.0, 0.1, 0.0, 0.0)  # product rule broken


def test_module_documents_silenced_mode_correction():
    import ycel.model as model

    doc = model.__doc__
    assert "cross31 = 1/4" in doc and "(0, 0.5)" in doc
