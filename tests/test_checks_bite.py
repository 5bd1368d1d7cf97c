"""The independent cross-checks fail on a perturbed model.

A check that passes whatever the engine computes vouches for nothing.
Each test here runs a check's own comparison with one side scaled by a
stated relative epsilon, or with one coordinate of the march's support or
one term of its generator dropped, and requires the check to fail on it and
to pass unperturbed.  README ("Testing") records each check's resolution:
the smallest epsilon it catches.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from ycel import fock_oracle

from test_acceptance import ORACLE_BOUND, oracle_deviation, oracle_runs_at
from test_dynamics import route_pairs, routes_agree
from test_fock_oracle import (MARCH_BOUND, SECTOR_KAPPA, SECTOR_N_MAX, SECTOR_POINTS, dense_tables,
                              pref, run_tables, sector_run, table_gap)

MOMENTS = ("n1", "n2", "n3", "c32", "c31", "c21")


@pytest.fixture(scope="module")
def pairs():
    return route_pairs()


# the resolution is 1.0e-10 to 1.22e-10 (README "Testing")
@pytest.mark.parametrize("eps, caught", [(0.0, False), (2e-10, True)])
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


def without_coordinate(j):
    """_explore with the support's j-th coordinate, its row and its column removed."""
    explore = fock_oracle._explore

    def explore_without(maps, dim, seeds):
        keys, lop = explore(maps, dim, seeds)
        lop = sp.csr_matrix((lop.data, lop.indices, lop.indptr), shape=lop.shape)
        keep = np.delete(np.arange(keys.size), j)
        return keys[keep], lop[keep][:, keep]

    return "_explore", explore_without


def without_term(k):
    """_reduced_model with the generator's k-th term removed."""
    reduced = fock_oracle._reduced_model

    def reduced_without(*args):
        cutoffs, modes, terms = reduced(*args)
        return cutoffs, modes, terms[:k] + terms[k + 1:]

    return "_reduced_model", reduced_without


@pytest.fixture(scope="module")
def restricted_marches():
    """The restricted march at the first sector point: unperturbed (None),
    and with each coordinate but the vacuum, or each term, dropped in turn.
    A dropped population or term breaks the trace, so the trace audit is
    off here: the march checks, not the audit, must catch the change."""
    eta = SECTOR_POINTS[0]
    size = sector_run(eta, True).support_size
    count = len(fock_oracle._reduced_model(pref(*eta, a=0.7), SECTOR_KAPPA, SECTOR_N_MAX)[2])
    drops = {"coordinate": map(without_coordinate, range(1, size)),
             "term": map(without_term, range(count))}
    marches = {None: [sector_run(eta, True)]}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fock_oracle, "_TRACE_TOL", math.inf)
        for kind, patches in drops.items():
            marches[kind] = []
            for name, patched in patches:
                with pytest.MonkeyPatch.context() as drop:
                    drop.setattr(fock_oracle, name, patched)
                    marches[kind].append(sector_run(eta, True))
    return marches


@pytest.mark.parametrize("dropped, caught", [(None, False), ("coordinate", True), ("term", True)])
def test_restricted_march_check_catches_a_dropped_coordinate_or_term(restricted_marches,
                                                                     dropped, caught):
    # restricted vs dense, as test_sector_march_matches_dense_reference
    # compares them, with one side perturbed
    dense = dense_tables(SECTOR_POINTS[0])
    gaps = [table_gap(run, dense) for run in restricted_marches[dropped]]
    assert all((gap >= MARCH_BOUND) == caught for gap in gaps), gaps


@pytest.mark.parametrize("dropped, caught", [(None, False), ("coordinate", True), ("term", True)])
def test_unrestricted_march_check_catches_a_dropped_coordinate_or_term(restricted_marches,
                                                                       dropped, caught):
    # restrict=False vs restricted, as test_sector_march_matches_dense_reference
    # compares them, with the restricted side perturbed
    full = run_tables(sector_run(SECTOR_POINTS[0], False))
    gaps = [table_gap(run, full) for run in restricted_marches[dropped]]
    assert all((gap >= MARCH_BOUND) == caught for gap in gaps), gaps
