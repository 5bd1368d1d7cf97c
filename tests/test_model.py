"""Preparation domain, prefactor values, and their algebraic identities."""

import math
import re
import warnings

import numpy as np
import pytest

from ycel.entanglement import _prefactor_columns
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

from test_sweep_equivalence import grid


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
# first; at the second rho00 is 1 + 2e-12 and rho33 = rho22 are computed as
# -0.99994e-12, though exactly they are -1.0000149e-12.
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


def radicands(eta1, eta2):
    """9 rho33 rho22, 9 rho33 rho00 and 9 rho22 rho00 as polynomials in the
    inversions: 36 times the squares of cross32, cross31 and cross21."""
    e1sq = eta1 * eta1
    e2sq = eta2 * eta2
    r32 = 1.0 - eta1 - eta2 + 5.0 * (eta1 * eta2) - 2.0 * (e1sq + e2sq)
    r31 = 1.0 - eta1 + 2.0 * eta2 - (eta1 * eta2) - 2.0 * e1sq + e2sq
    r21 = 1.0 - eta2 + 2.0 * eta1 - (eta1 * eta2) - 2.0 * e2sq + e1sq
    return r32, r31, r21


def test_cross_coefficients_match_the_polynomial_radicands():
    # Compared on the squares: near the triangle boundary a radicand is an
    # O(ulp) residual whose square root would amplify roundoff to 1e-8.  A
    # radicand may fall below zero by 9 rho_a rho_b with one population
    # 1e-12 below zero, plus a few ulps of the polynomial.
    edge = edge_probes(np.random.default_rng(21), 10_000).tolist()
    points = triangle_grid(41) + [p for p in edge if validate_physical(*p).valid]
    assert len(points) > 10_000
    for e1, e2 in points:
        p = prefactors_from_inversions(e1, e2, gain_scale=2.0)
        for value, radicand in zip((p.cross32, p.cross31, p.cross21), radicands(e1, e2)):
            assert radicand >= -1e-11, (e1, e2)
            assert abs(max(radicand, 0.0) - 36.0 * value * value) <= 1e-12, (e1, e2)


def edge_probes(rng, n):
    """n points on the three triangle edges, each coordinate moved by up to 8
    ulps of 1 scaled by 10**-3 to 10**3, so the populations straddle the
    1e-12 boundary tolerance; about one in 17 coordinates is not moved."""
    vertices = np.array([(1.0, 1.0), (0.0, -1.0), (-1.0, 0.0)])
    side = rng.integers(0, 3, n)
    start, end = vertices[side], vertices[(side + 1) % 3]
    points = start + rng.uniform(0.0, 1.0, (n, 1)) * (end - start)
    ulps = rng.integers(-8, 9, (n, 2)) * np.spacing(1.0)
    return points + ulps * 10.0 ** rng.uniform(-3.0, 3.0, (n, 2))


def prefactor_probes():
    """(eta1, eta2) rows: 10,000 uniform over [-1.2, 1.2]^2, 10,000 edge
    probes, the grids of the sweep equivalence tests, the tolerated points,
    and inversions that are not finite or whose populations overflow."""
    rng = np.random.default_rng(21)
    grids = [(e1, e2) for n in (17, 33) for e1 in grid(n) for e2 in grid(n)]
    # (-5e-324, -1) and its mirror: a population that halves to 0
    special = [*TOLERATED_POINTS, (1.0, 1.0), (0.0, -1.0), (-1.0, 0.0), (-0.5, -0.5),
               (-5e-324, -1.0), (-1.0, -5e-324),
               (math.nan, 0.0), (0.0, math.inf), (-math.inf, -math.inf),
               (1e308, 1e308), (-1e308, 1e308), (1e308, -1e308)]
    return np.concatenate([rng.uniform(-1.2, 1.2, (10_000, 2)), edge_probes(rng, 10_000),
                           np.array(grids), np.array(special)])


def refusal(eta1, eta2, verdict):
    """The PreparationError message of an unphysical (eta1, eta2)."""
    values = {"rho33": verdict.rho33, "rho22": verdict.rho22, "rho00": verdict.rho00}
    detail = ", ".join(
        f"{name}={values[name]:.6g} " + ("< 0" if values[name] < 0 else "is not finite")
        for name in verdict.violated
    )
    return f"unphysical preparation eta1={eta1!r}, eta2={eta2!r}: {detail}"


def test_prefactor_columns_match_the_scalar_calls():
    # the sweep's array builder against validate_physical and
    # prefactors_from_inversions, bit for bit (float.hex tells -0.0 from
    # 0.0); every refusal is a PreparationError with its exact message
    points = prefactor_probes()
    physical, cols = _prefactor_columns(points[:, 0], points[:, 1], 0.5)
    mask, rows = [], []
    for e1, e2 in points.tolist():
        verdict = validate_physical(e1, e2)
        mask.append(verdict.valid)
        try:
            pref = prefactors_from_inversions(e1, e2, 0.5)
        except PreparationError as exc:
            assert not verdict.valid and str(exc) == refusal(e1, e2, verdict), (e1, e2)
        else:
            assert verdict.valid, (e1, e2)
            rows.append([v.hex() for v in tuple(pref)])
    assert physical.tolist() == mask
    assert [[v.hex() for v in row] for row in cols.tolist()] == rows
    # both sides of every edge, the exactly empty ground level among them
    assert 1000 < len(rows) < len(points) - 1000
    assert np.count_nonzero(cols[:, 3] == 0.0) > 100


@pytest.mark.parametrize("gain_scale", [0.0, -1.0, math.nan, math.inf])
def test_prefactor_columns_refuse_the_gain_scale_of_the_scalar_call(gain_scale):
    points = prefactor_probes()
    e1, e2 = points[[validate_physical(*p).valid for p in points.tolist()].index(True)]
    with pytest.raises(ConsistencyError) as scalar:
        prefactors_from_inversions(float(e1), float(e2), gain_scale)
    with pytest.raises(ConsistencyError, match=f"^{re.escape(str(scalar.value))}$"):
        _prefactor_columns(points[:, 0], points[:, 1], gain_scale)
    # with no physical point there is nothing to refuse
    physical, cols = _prefactor_columns(np.array([2.0, math.nan]), np.zeros(2), gain_scale)
    assert not physical.any() and cols.shape == (0, 7)


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
# overflows, the product overflows to inf, the quotient underflows to 0,
# gamma**2 underflows to 0, g**2 is subnormal (the quotient 2e-10 would keep
# only the few bits of g**2), and the product and quotient are subnormal.
OUT_OF_RANGE_RATES = [(1e200, 1e200, 1e-10), (1e300, 1e10, 1.0), (1e-300, 1e-10, 1e10),
                      (1.0, 1.0, 1e-200), (1.0, 1e-155, 1e-150), (1e-300, 1e-5, 1.0)]


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
