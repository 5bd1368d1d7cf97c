"""The oracle's kernel march, stacked support search and index-arithmetic
set-up against the code they replaced, kept verbatim in ``oracle_reference``:
equal bit for bit.  The dt/2 run of the convergence check is pinned to a
halved march built here from the reference's RK4 step and audit."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from ycel import fock_oracle
from ycel.cli import main
from ycel.errors import IntegrationError, TruncationError
from ycel.fock_oracle import DensityState, FockConfig, integrate
from ycel.model import prefactors_from_inversions

import oracle_reference

# (eta1, eta2, n_max, restrict): fully coupled, one-sided both ways, the
# zero-gain corner (1, 1), where a1 alone is marched, every coordinate, and
# the loss-free corner (-0.5, -0.5), where loss1 = 0 drops the cross terms
CASES = [
    (0.0, 0.0, 5, True),
    (0.25, 0.25, 4, True),
    (0.0, 0.5, 5, True),
    (0.5, 0.0, 5, True),
    (1.0, 1.0, 5, True),
    (0.0, 0.0, 3, False),
    (0.25, 0.25, 3, False),
    (-0.5, -0.5, 4, True),
]
# a remainder step before the second and third samples, none before the first
SAMPLES = np.array([0.3, 1.01, 1.37])
DT = 0.05


def operator(eta1, eta2, n_max, restrict, a=0.5):
    """The term maps, seeds, cutoffs and modes ``integrate`` explores from."""
    p = prefactors_from_inversions(eta1, eta2, gain_scale=a)
    cutoffs, modes, maps = fock_oracle._reduced_model(p, 1.0, n_max)
    dim = math.prod(n + 1 for n in cutoffs)
    seeds = np.zeros(1, dtype=np.int64)
    if not restrict:
        seeds = np.ravel_multi_index(np.triu_indices(dim), (dim, dim))
    return maps, dim, seeds, cutoffs, modes


def case_id(case):
    return f"{case[:2]}-n{case[2]}-restrict{case[3]}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_term_maps_equal_the_sparse_build(case):
    maps, dim, _, cutoffs, _ = operator(*case)
    p = prefactors_from_inversions(*case[:2], gain_scale=0.5)
    want_cutoffs, _, terms = oracle_reference._reduced_model(p, 1.0, case[2])
    want = oracle_reference._term_maps(terms, dim)
    assert cutoffs == want_cutoffs
    assert len(maps) == len(want)
    for term, want_term in zip(maps, want):
        assert term[0] == want_term[0]
        for field, want_field in zip(term[1:], want_term[1:], strict=True):
            assert field.dtype == want_field.dtype
            assert np.array_equal(field, want_field)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_moment_maps_equal_the_sparse_build(case):
    # positions and weights in the order the sparse operators store them;
    # a mode with zero gain reads explicit zero weights, and its products read
    # nothing, since a sparse product drops the zeros it computes
    maps, dim, seeds, cutoffs, modes = operator(*case)
    p = prefactors_from_inversions(*case[:2], gain_scale=0.5)
    support = fock_oracle._Support(cutoffs, fock_oracle._explore(maps, dim, seeds)[0])
    got = fock_oracle._folded_moment_maps(support, modes)
    want = oracle_reference._folded_moment_maps(
        support, oracle_reference._reduced_model(p, 1.0, case[2])[1])
    flat = [got[0], *got[1], *got[2]]
    want_flat = [want[0], *want[1], *want[2]]
    for row, want_row in zip(flat, want_flat, strict=True):
        for (pos, weight), (want_pos, want_weight) in zip(row, want_row, strict=True):
            assert pos.dtype == want_pos.dtype and weight.dtype == want_weight.dtype
            assert np.array_equal(pos, want_pos)
            assert np.array_equal(weight, want_weight)


def matrix(lop):
    """The live operator's CSR arrays as the scipy matrix the reference takes."""
    return sp.csr_matrix((lop.data, lop.indices, lop.indptr), shape=lop.shape)


def march_inputs(case):
    """The operator, support, moment maps and vacuum a march of ``case`` takes."""
    maps, dim, seeds, cutoffs, modes = operator(*case)
    keys, lop = fock_oracle._explore(maps, dim, seeds)
    lop = matrix(lop)
    support = fock_oracle._Support(cutoffs, keys)
    vec0 = np.zeros(keys.size)
    vec0[0] = 1.0
    return lop, support, fock_oracle._folded_moment_maps(support, modes), vec0


def one_run_march(lop, support, maps, vec, samples, dt, edge_tol):
    """The live march of one run, laid out as the reference's, then its steps."""
    (run,), steps = fock_oracle._march(lop, support, maps, vec, samples, (dt,), edge_tol)
    return (*run, steps)


def halved_march(lop, support, maps, vec, samples, dt, edge_tol):
    """The dt/2 run as the reference takes it: each step of a dt run, full or
    remainder, as two halves of ``oracle_reference._rk4``, each state audited
    on its own by ``oracle_reference._audit`` at its time and the state at
    each sample again at the sample time.  Returns the tables, trace residues
    and edge populations at the samples, the final vector, the steps taken,
    and each audited (time, state bytes), in order."""
    support = oracle_reference.Support(support.cutoffs, support.keys)
    tables, residues, edges, audited = [], [], [], []
    t_prev, steps = 0.0, 0

    def audit(vec, t):
        audited.append((t, vec.tobytes()))
        return oracle_reference._audit(support, vec, edge_tol, t)

    for t in samples:
        nfull, rem = fock_oracle._split(t - t_prev, dt)
        for _ in range(2 * nfull):
            vec = oracle_reference._rk4(lop, vec, 0.5 * dt)
            t_prev += 0.5 * dt
            audit(vec, t_prev)
        if rem:
            vec = oracle_reference._rk4(lop, vec, 0.5 * rem)
            audit(vec, t_prev + 0.5 * rem)
            vec = oracle_reference._rk4(lop, vec, 0.5 * rem)
        steps += 2 * (nfull + bool(rem))
        t_prev = t
        residue, edge = audit(vec, t)
        tables.append(fock_oracle._table_at(maps, vec))
        residues.append(residue)
        edges.append(edge)
    return tables, residues, edges, vec, steps, audited


def both_marches(case, samples, dt, edge_tol):
    """(reference, live) march results, or the exception each raised."""
    lop, live_support, moment_maps, vec0 = march_inputs(case)
    out = []
    for march, mat, support in (
        (oracle_reference._march, lop,
         oracle_reference.Support(live_support.cutoffs, live_support.keys)),
        (one_run_march, lop, live_support),
    ):
        try:
            out.append(march(mat, support, moment_maps, vec0, samples, dt, edge_tol))
        except (IntegrationError, TruncationError) as exc:
            out.append(exc)
    return out


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_explore_equals_the_per_term_search(case):
    maps, dim, seeds, _, _ = operator(*case)
    want_keys, want = oracle_reference._explore(maps, dim, seeds)
    keys, got = fock_oracle._explore(maps, dim, seeds)
    assert np.array_equal(keys, want_keys)
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("case", CASES, ids=case_id)
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


FAILING_MARCHES = [
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
]


@pytest.mark.parametrize("case, samples, dt, edge_tol, block_rows, error", FAILING_MARCHES)
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
        return keys, (matrix(lop) - 1.5e-6 * sp.identity(keys.size, format="csr")).tocsr()

    monkeypatch.setattr(fock_oracle, "_explore", leaky)
    want, got = both_marches(N3, np.array([20.0]), 0.01, 0.5)
    assert type(want) is type(got) is IntegrationError
    assert str(got) == str(want)
    assert "trace drifted" in str(got)


def test_an_overflowing_first_step_raises_as_the_reference_without_warning():
    # a first step of 1e200 overflows: the reference march warns on its way to
    # the refusal, and the live march refuses the state that is not finite,
    # with the same message, silently
    lop, support, maps, vec0 = march_inputs((0.0, 0.0, 2, True))
    samples = np.array([1e200])
    reference_support = oracle_reference.Support(support.cutoffs, support.keys)
    got, got_warnings = outcome(
        lambda: one_run_march(lop, support, maps, vec0, samples, 1e200, 0.999))
    want, want_warnings = outcome(
        lambda: oracle_reference._march(lop, reference_support, maps, vec0, samples, 1e200, 0.999))
    assert type(got) is type(want) is IntegrationError
    assert str(got) == str(want)
    assert got_warnings == [] and "overflow encountered in multiply" in want_warnings


@pytest.mark.parametrize("value, peak", [(-1.5, "1.500e+00"), (np.inf, "inf"),
                                         (-np.inf, "inf"), (np.nan, "nan")])
def test_audit_refuses_a_diverged_row_as_the_reference(value, peak):
    maps, dim, seeds, cutoffs, _ = operator(0.0, 0.0, 2, True)
    keys = fock_oracle._explore(maps, dim, seeds)[0]
    row = np.zeros(keys.size)
    row[0], row[-1] = 1.0, value
    with pytest.raises(IntegrationError) as want:
        oracle_reference._audit(oracle_reference.Support(cutoffs, keys), row, 0.5, 0.25)
    # under the error handling the march audits with
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError) as got:
        fock_oracle._audit(fock_oracle._Support(cutoffs, keys), row[None], 0.5, (0.25,))
    assert str(got.value) == str(want.value)
    assert str(got.value) == (f"integration diverged near t=0.25 (peak element {peak}); "
                              "reduce dt")


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
        step(vec, fock_oracle._sizes(DT), row)
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
    lop = matrix(fock_oracle._explore(maps, dim, seeds)[1])
    for mat in (lop, square_int64_matrix(60, 3)):
        step = fock_oracle._rk4_step(mat)
        for h in (DT, 1.01 - 20 * DT):  # a full step and a remainder
            for _ in range(3):
                vec = rng.standard_normal(mat.shape[0])
                want = oracle_reference._rk4(mat, vec, h)
                out = np.empty_like(vec)
                step(vec, fock_oracle._sizes(h), out)
                assert np.array_equal(out, want)
                step(vec, fock_oracle._sizes(h), vec)  # in place, as a block of one row steps
                assert np.array_equal(vec, want)


def test_stacked_step_equals_one_step_per_row():
    # two states, each by its own size, into rows 0 and 2 of an interval as the
    # two-run march writes them, and in place
    rng = np.random.default_rng(11)
    maps, dim, seeds, _, _ = operator(0.25, 0.25, 4, True)
    lop = matrix(fock_oracle._explore(maps, dim, seeds)[1])
    for mat in (lop, square_int64_matrix(60, 3)):
        n = mat.shape[0]
        pair = fock_oracle._rk4_step(mat, runs=2)
        for hs in ((DT, DT / 2), (1.01 - 20 * DT, 0.3 - 11 * DT / 2)):
            sizes = fock_oracle._sizes(np.repeat(hs, n))
            vec = rng.standard_normal((2, n))
            want = [oracle_reference._rk4(mat, row, h) for row, h in zip(vec, hs)]
            rows = np.empty((3, n))
            pair(vec, sizes, rows[::2])
            assert np.array_equal(rows[0], want[0]) and np.array_equal(rows[2], want[1])
            pair(vec, sizes, vec)
            assert np.array_equal(vec, np.array(want))


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
        csr_matvec(*mat.shape, mat.indptr, mat.indices, mat.data, x, out)
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
                         ids=case_id)
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


@pytest.mark.parametrize("check_convergence", [False, True], ids=["one-run", "checked"])
@pytest.mark.parametrize("dt, t_final", [(1e8, 1e10), (1e200, 1e200)],
                         ids=["later-rows", "first-row"])
def test_divergent_march_raises_no_runtime_warning(dt, t_final, check_convergence, monkeypatch):
    # steps of 1e8 grow the state about 1e31-fold each, so later rows of the
    # block that holds the first failing one overflow in numpy's arithmetic; a
    # step of 1e200 overflows in the block's first row.  Checked, both the
    # attempt and the replay march.
    cfg = FockConfig(n_max=2, dt=dt, t_final=t_final, edge_tol=0.999)
    p = prefactors_from_inversions(0.0, 0.0, gain_scale=0.5)
    calls = counting_march(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=re.escape(f"diverged near t={dt:.6g} (")):
            integrate(DensityState.vacuum(2), cfg, p, 1.0, sample_times=[t_final],
                      check_convergence=check_convergence)
    assert calls == ([(dt, 0.5 * dt), (dt,)] if check_convergence else [(dt,)])


def reference_march(lop, support, maps, vec, samples, dts, edge_tol):
    """The reference marches in ``integrate``'s place, the dt run and then the
    halved one; it counts no steps, which no document prints."""
    reference_support = oracle_reference.Support(support.cutoffs, support.keys)
    dt = dts[0]
    runs = [oracle_reference._march(lop, reference_support, maps, vec, samples, dt, edge_tol)]
    if len(dts) == 2:
        runs.append(halved_march(lop, support, maps, vec, samples, dt, edge_tol)[:4])
    return runs, 0


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
    # the dt/2 run takes each step of the dt run as two
    assert checked.steps == 3 * single.steps


# a remainder before the second and third samples, and the fourth; and a span
# a hair short of four steps, which takes four and leaves the next span a
# remainder of 3.5e-11
TWO_RUN_SAMPLES = [
    pytest.param(SAMPLES, id="two-remainders"),
    pytest.param(np.array([0.3, 1.01, 1.37, 1.66]), id="three-remainders"),
    pytest.param(np.array([0.3, 0.3 + DT * (4 - 7e-10), 1.0]), id="a-tiny-remainder"),
]


def audit_spy(monkeypatch):
    """Patch ``_audit`` to record each state it audits, with its time."""
    seen, audit = [], fock_oracle._audit

    def spy(support, rows, edge_tol, times):
        seen.extend((t, row.tobytes()) for t, row in zip(times, rows, strict=True))
        return audit(support, rows, edge_tol, times)

    monkeypatch.setattr(fock_oracle, "_audit", spy)
    return seen


@pytest.mark.parametrize("samples", TWO_RUN_SAMPLES)
@pytest.mark.parametrize("case", CASES, ids=case_id)
@pytest.mark.parametrize("block_rows", [64, 1, 7])
def test_two_run_march_equals_the_one_run_and_halved_marches(case, samples, block_rows,
                                                            monkeypatch):
    monkeypatch.setattr(fock_oracle, "_BLOCK_ROWS", block_rows)
    lop, support, maps, vec0 = march_inputs(case)
    audited = audit_spy(monkeypatch)
    want = [one_run_march(lop, support, maps, vec0, samples, DT, 0.5),
            halved_march(lop, support, maps, vec0, samples, DT, 0.5)]
    want_audited = sorted(audited + want[1][5])
    audited.clear()
    runs, steps = fock_oracle._march(lop, support, maps, vec0, samples, (DT, DT / 2), 0.5)
    # every state of both runs audited, at its time, as the one-run march and
    # the halved reference audit it
    assert sorted(audited) == want_audited
    assert steps == want[0][4] + want[1][4] == 3 * want[0][4]
    for (tables, residues, edges, vec), want_run in zip(runs, want, strict=True):
        for table, want_table in zip(tables, want_run[0], strict=True):
            for field in ("first", "cross", "pair"):
                assert np.array_equal(getattr(table, field), getattr(want_table, field)), field
        assert (residues, edges) == (want_run[1], want_run[2])
        assert np.array_equal(vec, want_run[3])


def reference_outcomes(case, samples, dt, edge_tol):
    """What ``integrate`` with the dt/2 check must raise and warn: the error
    of the dt run marched alone, or else of the halved reference march,
    which overflows silently as the live march does, and the warnings of
    the runs marched."""
    eta1, eta2, n_max, restrict = case
    p = prefactors_from_inversions(eta1, eta2, gain_scale=0.5)
    cfg = FockConfig(n_max=n_max, dt=dt, t_final=max(samples), edge_tol=edge_tol)
    error, caught = outcome(
        lambda: integrate(DensityState.vacuum(n_max), cfg, p, 1.0, sample_times=samples,
                          restrict=restrict, check_convergence=False))
    if error is None:
        with np.errstate(over="ignore", invalid="ignore"):
            error, warned = outcome(lambda: halved_march(*march_inputs(case), np.unique(samples),
                                                         dt, edge_tol))
        caught += warned
    return error, caught


def outcome(run):
    """The error ``run()`` raised, or None, and the messages it warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run()
        except (IntegrationError, TruncationError) as exc:
            return exc, [str(w.message) for w in caught]
    return None, [str(w.message) for w in caught]


def checked_run_outcome(case, samples, dt, edge_tol):
    eta1, eta2, n_max, restrict = case
    p = prefactors_from_inversions(eta1, eta2, gain_scale=0.5)
    cfg = FockConfig(n_max=n_max, dt=dt, t_final=max(samples), edge_tol=edge_tol)
    return outcome(
        lambda: integrate(DensityState.vacuum(n_max), cfg, p, 1.0, sample_times=samples,
                          restrict=restrict))


def counting_march(monkeypatch):
    """Patch ``_march`` to record the step sizes of each call."""
    calls, march = [], fock_oracle._march

    def counted(*args):
        calls.append(args[5])
        return march(*args)

    monkeypatch.setattr(fock_oracle, "_march", counted)
    return calls


@pytest.mark.parametrize("case, samples, dt, edge_tol, block_rows, error", [
    *FAILING_MARCHES,
    # a first step of 1e200 overflows, and the replay warns as the one-run march
    pytest.param((0.0, 0.0, 2, True), [1e200], 1e200, 0.999, None, IntegrationError,
                 id="1e200-overflow"),
])
def test_failing_checked_runs_replay_the_one_run_errors(case, samples, dt, edge_tol, block_rows,
                                                       error, monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(fock_oracle, "_BLOCK_ROWS", block_rows)
    want, want_warnings = reference_outcomes(case, samples, dt, edge_tol)
    calls = counting_march(monkeypatch)
    got, got_warnings = checked_run_outcome(case, samples, dt, edge_tol)
    assert type(got) is type(want) is error
    assert str(got) == str(want)
    assert got_warnings == want_warnings
    dts = (dt, 0.5 * dt)
    assert calls[0] == dts and calls[1] == dts[:1]  # the attempt, then the replay


def test_a_failing_dt2_run_alone_is_replayed():
    # the edge layers fill monotonically from vacuum here, and the dt/2 run
    # holds more edge population at t = 1 than the dt run, so a bound between
    # the two refuses the dt/2 run alone, at its last step
    case, samples, dt = (0.0, 0.0, 3, True), [1.0], 0.1
    lop, support, maps, vec0 = march_inputs(case)
    edges = [march(lop, support, maps, vec0, np.array(samples), dt, 0.5)[2][0]
             for march in (one_run_march, halved_march)]
    assert edges[0] < edges[1]
    edge_tol = 0.5 * (edges[0] + edges[1])
    cfg = FockConfig(n_max=3, dt=dt, t_final=1.0, edge_tol=edge_tol)
    integrate(DensityState.vacuum(3), cfg, prefactors_from_inversions(0.0, 0.0, gain_scale=0.5),
              1.0, sample_times=samples, check_convergence=False)  # the dt run passes
    want, want_warnings = reference_outcomes(case, samples, dt, edge_tol)
    assert isinstance(want, TruncationError) and "near t=1;" in str(want)
    got, got_warnings = checked_run_outcome(case, samples, dt, edge_tol)
    assert type(got) is type(want) and str(got) == str(want)
    assert got_warnings == want_warnings == []


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_a_passing_checked_run_marches_once(case, monkeypatch):
    calls = counting_march(monkeypatch)
    got, _ = checked_run_outcome(case, list(SAMPLES), DT, 0.5)
    assert got is None
    assert calls == [(DT, 0.5 * DT)]


def test_a_refused_checked_run_replays_the_dt_run_alone(monkeypatch):
    # the dt run passes and the dt/2 run is refused, as in the test above:
    # the one replay march of the dt run passes, and the refusal caught
    # side by side is raised
    case, samples, dt = (0.0, 0.0, 3, True), [1.0], 0.1
    lop, support, maps, vec0 = march_inputs(case)
    edges = [march(lop, support, maps, vec0, np.array(samples), dt, 0.5)[2][0]
             for march in (one_run_march, halved_march)]
    calls = counting_march(monkeypatch)
    got, _ = checked_run_outcome(case, samples, dt, 0.5 * (edges[0] + edges[1]))
    assert isinstance(got, TruncationError)
    assert calls == [(dt, 0.5 * dt), (dt,)]
