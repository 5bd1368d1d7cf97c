"""The oracle's kernel march and stacked support search against the code they
replaced, kept verbatim in ``oracle_reference``: equal bit for bit."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from ycel import fock_oracle
from ycel.cli import main
from ycel.errors import IntegrationError, TruncationError
from ycel.fock_oracle import DensityState, FockConfig, integrate
from ycel.model import prefactors_from_inversions

import oracle_reference

# (eta1, eta2, n_max, restrict): fully coupled, one-sided both ways, the
# zero-gain corner (1, 1), where a1 alone is marched, and every coordinate
CASES = [
    (0.0, 0.0, 5, True),
    (0.25, 0.25, 4, True),
    (0.0, 0.5, 5, True),
    (0.5, 0.0, 5, True),
    (1.0, 1.0, 5, True),
    (0.0, 0.0, 3, False),
    (0.25, 0.25, 3, False),
]
# a remainder step before the second and third samples, none before the first
SAMPLES = np.array([0.3, 1.01, 1.37])
DT = 0.05


def operator(eta1, eta2, n_max, restrict, a=0.5):
    """The term maps, seeds and cutoffs ``integrate`` explores from."""
    p = prefactors_from_inversions(eta1, eta2, gain_scale=a)
    cutoffs, modes, terms = fock_oracle._reduced_model(p, 1.0, n_max)
    dim = math.prod(n + 1 for n in cutoffs)
    seeds = np.zeros(1, dtype=np.int64)
    if not restrict:
        seeds = np.ravel_multi_index(np.triu_indices(dim), (dim, dim))
    return fock_oracle._term_maps(terms, dim), dim, seeds, cutoffs, modes


def both_marches(case, samples, dt, edge_tol):
    """(reference, live) march results, or the exception each raised."""
    maps, dim, seeds, cutoffs, modes = operator(*case)
    keys, lop = fock_oracle._explore(maps, dim, seeds)
    moment_maps = fock_oracle._folded_moment_maps(fock_oracle._Support(cutoffs, keys), modes)
    vec0 = np.zeros(keys.size)
    vec0[0] = 1.0
    out = []
    for march, mat, support in (
        (oracle_reference._march, lop, oracle_reference.Support(cutoffs, keys)),
        (fock_oracle._march, fock_oracle._matvec(lop), fock_oracle._Support(cutoffs, keys)),
    ):
        try:
            out.append(march(mat, support, moment_maps, vec0, samples, dt, edge_tol))
        except (IntegrationError, TruncationError) as exc:
            out.append(exc)
    return out


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[:2]}-n{c[2]}-restrict{c[3]}")
def test_explore_equals_the_per_term_search(case):
    maps, dim, seeds, _, _ = operator(*case)
    want_keys, want = oracle_reference._explore(maps, dim, seeds)
    keys, got = fock_oracle._explore(maps, dim, seeds)
    assert np.array_equal(keys, want_keys)
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[:2]}-n{c[2]}-restrict{c[3]}")
def test_kernel_march_equals_the_operator_march(case):
    want, got = both_marches(case, SAMPLES, DT, 0.5)
    *want_tables, want_vec = want[:4]
    *tables, vec = got[:4]
    for want_table, table in zip(want_tables[0], tables[0], strict=True):
        for field in ("first", "cross", "pair"):
            assert np.array_equal(getattr(table, field), getattr(want_table, field)), field
    assert tables[1:] == want_tables[1:]  # trace residues and edge populations
    assert np.array_equal(vec, want_vec)
    # 6 steps to 0.3, 14 and a remainder to 1.01, 7 and a remainder to 1.37
    assert got[4] == 6 + 15 + 8


@pytest.mark.parametrize("dt, edge_tol, error", [
    (2.0, 0.999, IntegrationError),  # diverges at t = 2
    (0.02, 1e-6, TruncationError),   # an edge layer fills by t = 0.12
])
def test_failing_marches_raise_the_same_error(dt, edge_tol, error):
    want, got = both_marches((0.0, 0.0, 2, True), np.array([20.0]), dt, edge_tol)
    assert type(want) is type(got) is error
    assert str(got) == str(want)


def test_kernel_matvec_equals_the_matmul_operator():
    rng = np.random.default_rng(7)
    maps, dim, seeds, _, _ = operator(0.25, 0.25, 4, True)
    _, lop = fock_oracle._explore(maps, dim, seeds)
    wide = sp.random(40, 60, density=0.2, format="csr", random_state=3)
    wide.indices, wide.indptr = wide.indices.astype(np.int64), wide.indptr.astype(np.int64)
    for mat in (lop, wide):
        apply = fock_oracle._matvec(mat)
        for _ in range(5):
            x = rng.standard_normal(mat.shape[1])
            assert np.array_equal(apply(x), mat @ x)


def reference_march(lop, support, *rest):
    """The reference march in ``integrate``'s place; it counts no steps, which
    no document prints."""
    reference_support = oracle_reference.Support(support.cutoffs, support.keys)
    return (*oracle_reference._march(lop, reference_support, *rest), 0)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("point", [("0", "0", "5", "0.05"), ("0", "0.5", "6", "0.04"),
                                   ("0.25", "0.25", "4", "0.05")])
def test_oracle_documents_equal_the_reference_march(point, fmt, capsys, monkeypatch):
    eta1, eta2, n_max, dt = point
    argv = ["oracle", "--eta1", eta1, "--eta2", eta2, "--A", "0.5", "--nmax", n_max,
            "--dt", dt, "--edge-tol", "1e-3", "--times", "0.7,2.5,4", "--format", fmt]

    def document():
        assert main(argv) == 0
        return capsys.readouterr().out

    live = document()
    monkeypatch.setattr(fock_oracle, "_explore", oracle_reference._explore)
    monkeypatch.setattr(fock_oracle, "_matvec", lambda lop: lop)
    monkeypatch.setattr(fock_oracle, "_march", reference_march)
    assert document() == live


def test_run_counts_its_steps_and_operator_entries():
    maps, dim, seeds, _, _ = operator(0.0, 0.0, 5, True)
    lop = oracle_reference._explore(maps, dim, seeds)[1]
    cfg = FockConfig(n_max=5, dt=DT, t_final=SAMPLES[-1], edge_tol=0.5)
    p = prefactors_from_inversions(0.0, 0.0, gain_scale=0.5)
    single, checked = (
        integrate(DensityState.vacuum(5), cfg, p, 1.0, sample_times=SAMPLES,
                  check_convergence=check)
        for check in (False, True)
    )
    assert single.operator_nnz == checked.operator_nnz == lop.nnz
    assert single.steps == 6 + 15 + 8
    # at dt/2: 12 steps to 0.3, 28 and a remainder to 1.01, 14 and a remainder to 1.37
    assert checked.steps == single.steps + 12 + 29 + 15
