"""The oracle's kernel march and stacked support search against the code they
replaced, kept verbatim in ``oracle_reference``: equal bit for bit."""

import math
import warnings

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
        (fock_oracle._march, lop, fock_oracle._Support(cutoffs, keys)),
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


# the first failing step is 187 (t = 1.87) at n_max = 3, edge_tol = 2e-4, and
# 172 (t = 1.72) at n_max = 4, edge_tol = 1e-5, both at dt = 0.01
N3, N4 = (0.0, 0.0, 3, True), (0.0, 0.0, 4, True)


@pytest.mark.parametrize("case, samples, dt, edge_tol, block_rows, error", [
    # diverges at t = 2
    pytest.param((0.0, 0.0, 2, True), [20.0], 2.0, 0.999, None, IntegrationError,
                 id="2.0-0.999-IntegrationError"),
    # an edge layer fills by t = 0.12
    pytest.param((0.0, 0.0, 2, True), [20.0], 0.02, 1e-6, None, TruncationError,
                 id="0.02-1e-06-TruncationError"),
    pytest.param(N3, [20.0], 0.01, 2e-4, None, TruncationError, id="n3-mid-block"),
    pytest.param(N3, [20.0], 0.01, 2e-4, 17, TruncationError, id="n3-last-row"),
    pytest.param(N3, [20.0], 0.01, 2e-4, 31, TruncationError, id="n3-next-first-row"),
    pytest.param(N4, [20.0], 0.01, 1e-5, None, TruncationError, id="n4-mid-block"),
    pytest.param(N4, [20.0], 0.01, 1e-5, 43, TruncationError, id="n4-last-row"),
    pytest.param(N4, [20.0], 0.01, 1e-5, 19, TruncationError, id="n4-next-first-row"),
    # 150 full steps to 1.5, 36 more and a remainder to 1.869, which fails
    pytest.param(N3, [1.5, 1.869], 0.01, 2e-4, None, TruncationError, id="n3-remainder"),
])
def test_failing_marches_raise_the_same_error(case, samples, dt, edge_tol, block_rows, error,
                                              monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(fock_oracle, "_BLOCK_ROWS", block_rows)
    want, got = both_marches(case, np.array(samples), dt, edge_tol)
    assert type(want) is type(got) is error
    assert str(got) == str(want)


def test_trace_drift_after_the_first_block_raises_the_same_error(monkeypatch):
    # a uniform decay of 1.5e-6 per unit time drifts the trace past 1e-6 near
    # t = 0.67, in the second block of 64 steps of 0.01
    explore = fock_oracle._explore

    def leaky(*args):
        keys, lop = explore(*args)
        return keys, (lop - 1.5e-6 * sp.identity(keys.size, format="csr")).tocsr()

    monkeypatch.setattr(fock_oracle, "_explore", leaky)
    want, got = both_marches(N3, np.array([20.0]), 0.01, 0.5)
    assert type(want) is type(got) is IntegrationError
    assert str(got) == str(want)
    assert "trace drifted" in str(got)


def test_an_overflowing_first_step_warns_as_the_reference():
    # a first step of 1e200 overflows: the block redoes it under the default
    # error handling, so it warns as the reference march does
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        want, got = both_marches((0.0, 0.0, 2, True), np.array([1e200]), 1e200, 0.999)
    messages = [str(w.message) for w in caught]
    assert messages and messages[:len(messages) // 2] == messages[len(messages) // 2:]
    assert type(want) is type(got) is IntegrationError
    assert str(got) == str(want)


def test_block_audit_equals_the_per_step_audit():
    # every coordinate at n_max = 5 puts 36 states on the diagonal, enough for
    # the order of a row sum to show in the trace residue
    maps, dim, seeds, cutoffs, _ = operator(0.0, 0.0, 5, False)
    keys, lop = fock_oracle._explore(maps, dim, seeds)
    step = fock_oracle._rk4_step(lop)
    block = np.empty((64, keys.size))
    vec = np.zeros(keys.size)
    vec[0] = 1.0
    for row in block:
        step(vec, DT, row)
        vec = row
    times = [DT * (i + 1) for i in range(len(block))]
    residues, edges = fock_oracle._audit(fock_oracle._Support(cutoffs, keys), block, 0.5, times)
    support = oracle_reference.Support(cutoffs, keys)
    want = [oracle_reference._audit(support, row, 0.5, t) for row, t in zip(block, times)]
    assert residues.tolist() == [r for r, _ in want]
    assert edges.tolist() == [e for _, e in want]


def square_int64_matrix(n, seed):
    mat = sp.random(n, n, density=0.2, format="csr", random_state=seed)
    mat.indices, mat.indptr = mat.indices.astype(np.int64), mat.indptr.astype(np.int64)
    return mat


def test_kernel_matvec_equals_the_matmul_operator():
    rng = np.random.default_rng(7)
    maps, dim, seeds, _, _ = operator(0.25, 0.25, 4, True)
    _, lop = fock_oracle._explore(maps, dim, seeds)
    for mat in (lop, square_int64_matrix(60, 3)):
        step = fock_oracle._rk4_step(mat)
        for h in (DT, 1.01 - 20 * DT):  # a full step and a remainder
            for _ in range(3):
                vec = rng.standard_normal(mat.shape[0])
                want = oracle_reference._rk4(mat, vec, h)
                out = np.empty_like(vec)
                step(vec, h, out)
                assert np.array_equal(out, want)
                step(vec, h, vec)  # in place, as a block of one row steps
                assert np.array_equal(vec, want)


def test_csr_matvec_adds_into_its_output():
    # the step zeroes its stage buffers once and relies on y += A x; small
    # integers keep every sum exact in any order
    rng = np.random.default_rng(5)
    for mat in (sp.random(40, 60, density=0.2, format="csr", random_state=3),
                square_int64_matrix(60, 4)):
        mat.data = rng.integers(-4, 5, mat.nnz).astype(float)
        x = rng.integers(-4, 5, mat.shape[1]).astype(float)
        y = rng.integers(-4, 5, mat.shape[0]).astype(float)
        out = y.copy()
        fock_oracle.csr_matvec(*mat.shape, mat.indptr, mat.indices, mat.data, x, out)
        assert np.array_equal(out, y + mat @ x)


def assert_runs_equal(got, want):
    for field in ("times", "moments", "trace_residues", "edge_populations",
                  "convergence_delta", "support_size", "operator_nnz", "steps",
                  "min_eigenvalue"):
        assert getattr(got, field) == getattr(want, field), field
    for table, want_table in zip(got.tables, want.tables, strict=True):
        for field in ("first", "cross", "pair"):
            assert np.array_equal(getattr(table, field), getattr(want_table, field)), field


@pytest.mark.parametrize("case", CASES[:3] + CASES[5:6],
                         ids=lambda c: f"{c[:2]}-n{c[2]}-restrict{c[3]}")
def test_block_length_changes_no_result(case, monkeypatch):
    eta1, eta2, n_max, restrict = case
    p = prefactors_from_inversions(eta1, eta2, gain_scale=0.5)
    cfg = FockConfig(n_max=n_max, dt=DT, t_final=4.0, edge_tol=0.5)

    def run():
        return integrate(DensityState.vacuum(n_max), cfg, p, 1.0, restrict=restrict,
                         sample_times=[0.3, 1.01, 1.37, 4.0, 1.01], track_spectrum=True)

    want = run()
    for rows in (1, 7):
        monkeypatch.setattr(fock_oracle, "_BLOCK_ROWS", rows)
        assert_runs_equal(run(), want)


def test_divergent_march_raises_no_runtime_warning():
    # steps of 1e8 grow the state about 1e31-fold each, so later rows of the
    # block that holds the first failing one overflow in numpy's arithmetic
    cfg = FockConfig(n_max=2, dt=1e8, t_final=1e10, edge_tol=0.999)
    p = prefactors_from_inversions(0.0, 0.0, gain_scale=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IntegrationError, match=r"diverged near t=1e\+08 "):
            integrate(DensityState.vacuum(2), cfg, p, 1.0, sample_times=[1e10],
                      check_convergence=False)


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
