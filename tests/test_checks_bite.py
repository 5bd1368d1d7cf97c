"""The independent cross-checks fail on a perturbed model.

A check that passes whatever the engine computes vouches for nothing.
Each test here runs a check's own comparison with one side scaled by a
stated relative epsilon, and requires the check to fail on it and to pass
at epsilon 0.  README ("Testing") records each check's resolution: the
smallest epsilon it catches.
"""

from dataclasses import replace

import pytest

from test_acceptance import ORACLE_BOUND, oracle_deviation, oracle_runs_at
from test_dynamics import route_pairs, routes_agree

MOMENTS = ("n1", "n2", "n3", "c32", "c31", "c21")


@pytest.fixture(scope="module")
def pairs():
    return route_pairs()


@pytest.mark.parametrize("eps, caught", [(0.0, False), (1e-7, True)])
@pytest.mark.parametrize("name", MOMENTS)
def test_route_check_catches_one_closed_form_moment_scaled(pairs, name, eps, caught):
    # ode vs closed form, as test_route_equivalence_on_random_stable_sets
    # compares them, with one closed-form moment times (1 + eps)
    agree = [routes_agree(replace(closed, **{name: getattr(closed, name) * (1.0 + eps)}), ode)
             for closed, ode in pairs]
    assert (not all(agree)) == caught


@pytest.mark.parametrize("eps, caught", [(0.0, False), (1e-4, True), (1e-3, True)])
def test_oracle_check_catches_the_oracle_gain_scaled(eps, caught):
    # oracle vs engine, as criterion 6 compares them, with the oracle run at
    # the gain scale times (1 + eps)
    assert (oracle_deviation(oracle_runs_at(1.0 + eps)) >= ORACLE_BOUND) == caught
