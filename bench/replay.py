"""Traced replay of CLI operations through the public library calls.

Each operation is replayed as the sequence of public calls its command
makes, each wrapped in a span.  Spans live in memory until the run ends.
The replayed document is rendered exactly as the command renders it, which
the benchmark's tests pin byte for byte.  Nothing here reaches into
``ycel`` internals, so it survives refactors behind the public names.
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import contextmanager

import numpy as np

from ycel import (
    BIPARTITIONS,
    DensityState,
    FockConfig,
    HorizonError,
    UnstableDriftError,
    YcelError,
    covariance_from_moments,
    drift_matrix,
    evolve_second_moments,
    integrate,
    is_stable,
    optimize_gains,
    populations_from_inversions,
    prefactors_from_inversions,
    second_moment_trajectory,
    steady_state_moments,
    validate_physical,
    vlf_evaluate,
)
from ycel.cli import MOMENT_COLUMNS
from ycel.serialize import csv_document, format_value, json_document


class Tracer:
    """In-memory spans: [name, op_id, parent_index, start_ns, end_ns, tags]."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []

    @contextmanager
    def span(self, name: str, **tags):
        rec = [name, self.op_id, self._stack[-1] if self._stack else None,
               time.perf_counter_ns(), None, tags]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec[5]
        finally:
            rec[4] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name) as tags:
            try:
                return fn(*args, **kwargs)
            except YcelError as exc:
                tags["error"] = type(exc).__name__
                raise

    def trajectory(self, name: str, fn, *args, **kwargs):
        """A moment-trajectory call, tagged when it fell back to the ODE route."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with self.span(name) as tags:
                try:
                    out = fn(*args, **kwargs)
                except YcelError as exc:
                    tags["error"] = type(exc).__name__
                    raise
                finally:
                    tags["fallback"] = any("falling back" in str(w.message) for w in caught)
        return out, caught


def _render(tr: Tracer, fmt: str, command: str, recorded: dict, columns, rows, payload, notes):
    with tr.span(f"serialize.{fmt}_document") as tags:
        if fmt == "json":
            text = json_document(command, recorded, payload, notes=notes)
        else:
            text = csv_document(command, recorded, columns, rows, notes=notes)
        tags["bytes"] = len(text.encode("utf-8"))
    return text


def _rates(p: dict) -> dict:
    return {"kappa": 1.0, "units": "kappa", "A": p["A"]}


def _prefactors(tr: Tracer, op) -> str:
    p = op.params
    notes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pref = tr.call("model.prefactors_from_inversions", prefactors_from_inversions,
                       p["eta1"], p["eta2"], p["A"])
        prep = tr.call("model.populations_from_inversions", populations_from_inversions,
                       p["eta1"], p["eta2"])
    notes += [f"warning: {w.message}" for w in caught]
    residues = {
        "residue_sum_rule": abs(pref.gain3 + pref.gain2 + pref.loss1 - 0.5),
        "residue_cross32": abs(pref.cross32 - math.sqrt(pref.gain3 * pref.gain2)),
        "residue_cross31": abs(pref.cross31 - math.sqrt(pref.gain3 * pref.loss1)),
        "residue_cross21": abs(pref.cross21 - math.sqrt(pref.gain2 * pref.loss1)),
    }
    populations = {"rho00": prep.rho00, "rho22": prep.rho22, "rho33": prep.rho33}
    coefficients = {name: getattr(pref, name) for name in
                    ("gain_scale", "gain3", "gain2", "loss1", "cross32", "cross31", "cross21")}
    recorded = {"eta1": p["eta1"], "eta2": p["eta2"], **_rates(p)}
    payload = {"populations": populations, "prefactors": coefficients, "residues": residues}
    rows = [[k, v] for k, v in (populations | coefficients | residues).items()]
    return _render(tr, op.fmt, "prefactors", recorded, ("quantity", "value"), rows, payload, notes)


def _evolve(tr: Tracer, op) -> str:
    p = op.params
    times = [p["t"] * i / (p["samples"] - 1) for i in range(p["samples"])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pref = tr.call("model.prefactors_from_inversions", prefactors_from_inversions,
                       p["eta1"], p["eta2"], p["A"])
    moments, traj_caught = tr.trajectory("dynamics.second_moment_trajectory",
                                         second_moment_trajectory, pref, 1.0, times,
                                         backend="ehrenfest", route="closed-form")
    notes = [f"warning: {w.message}" for w in [*caught, *traj_caught]]
    recorded = {"eta1": p["eta1"], "eta2": p["eta2"], **_rates(p), "backend": "ehrenfest",
                "route": "closed-form", "times": times}
    rows = [[t, m.n1, m.n2, m.n3, m.c32, m.c31, m.c21] for t, m in zip(times, moments)]
    columns = ("time", *MOMENT_COLUMNS)
    return _render(tr, op.fmt, "evolve", recorded, columns, rows,
                   {"columns": list(columns), "rows": rows}, notes)


def _steady(tr: Tracer, op) -> str:
    p = op.params
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pref = tr.call("model.prefactors_from_inversions", prefactors_from_inversions,
                       p["eta1"], p["eta2"], p["A"])
        m = tr.call("dynamics.drift_matrix", drift_matrix, pref, 1.0)
        report = tr.call("dynamics.is_stable", is_stable, m)
        moments = tr.call("dynamics.steady_state_moments", steady_state_moments, pref, 1.0,
                          backend="ehrenfest")
    notes = [f"warning: {w.message}" for w in caught]
    notes.append(f"stability margin = {format_value(report.margin)}")
    recorded = {"eta1": p["eta1"], "eta2": p["eta2"], **_rates(p), "backend": "ehrenfest"}
    row = [moments.n1, moments.n2, moments.n3, moments.c32, moments.c31, moments.c21]
    return _render(tr, op.fmt, "steady", recorded, MOMENT_COLUMNS, [row],
                   {"columns": list(MOMENT_COLUMNS), "rows": [row]}, notes)


def _sweep_point(tr: Tracer, e1, e2, gain, at_time, optimize):
    pref = tr.call("model.prefactors_from_inversions", prefactors_from_inversions, e1, e2, gain)
    m = tr.call("dynamics.drift_matrix", drift_matrix, pref, 1.0)
    report = tr.call("dynamics.is_stable", is_stable, m)
    try:
        if at_time is None:
            moments = tr.call("dynamics.steady_state_moments", steady_state_moments, pref, 1.0,
                              backend="ehrenfest")
        else:
            moments, _ = tr.trajectory("dynamics.evolve_second_moments", evolve_second_moments,
                                       pref, 1.0, at_time, backend="ehrenfest")
    except YcelError as exc:
        return report, None, None, str(exc)
    cov = tr.call("entanglement.covariance_from_moments", covariance_from_moments, moments)
    if optimize:
        vlf = tr.call("entanglement.optimize_gains", optimize_gains, cov)
    else:
        vlf = tr.call("entanglement.vlf_evaluate", vlf_evaluate, cov)
    return report, moments, vlf, None


def _sweep(tr: Tracer, op) -> str:
    p = op.params
    n1, n2 = (int(x) for x in p["grid"].split("x"))
    grid = [(float(a), float(b)) for a in np.linspace(-1.0, 1.0, n1)
            for b in np.linspace(-1.0, 1.0, n2)
            if tr.call("model.validate_physical", validate_physical, float(a), float(b)).valid]
    nan = float("nan")
    rows = []
    for e1, e2 in grid:
        report, m, vlf, failure = _sweep_point(tr, e1, e2, p["A"], p["at_time"], p["optimize"])
        row = [e1, e2, "valid" if failure is None else "invalid", report.margin]
        row += [nan] * 6 if m is None else [m.n1, m.n2, m.n3, m.c32, m.c31, m.c21]
        if vlf is None:
            row += [nan, ""] * len(BIPARTITIONS) + [""]
        else:
            for bip in BIPARTITIONS:
                rec = vlf.record(bip.name)
                row += [rec.ratio, rec.violated]
            row.append(vlf.fully_inseparable)
        row.append(failure if failure is not None else "")
        rows.append(row)
    recorded = {"eta_grid": p["grid"], "eta1_range": "-1:1", "eta2_range": "-1:1", "A": p["A"],
                "kappa": 1.0, "units": "kappa", "backend": "ehrenfest",
                "at_time": p["at_time"], "optimize": p["optimize"]}
    columns = ["eta1", "eta2", "status", "margin", *MOMENT_COLUMNS]
    for bip in BIPARTITIONS:
        columns += [f"ratio_{bip.name}", f"violated_{bip.name}"]
    columns += ["fully_inseparable", "failure"]
    return _render(tr, op.fmt, "sweep", recorded, columns, rows,
                   {"columns": columns, "rows": rows}, ())


def _oracle_setup(p: dict):
    times = [float(t) for t in p["times"]]
    cfg = FockConfig(n_max=p["nmax"], dt=p["dt"], t_final=times[-1], edge_tol=p["edge_tol"])
    return times, cfg


def _oracle(tr: Tracer, op) -> str:
    p = op.params
    times, cfg = _oracle_setup(p)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pref = tr.call("model.prefactors_from_inversions", prefactors_from_inversions,
                       p["eta1"], p["eta2"], p["A"])
        rho0 = tr.call("fock_oracle.DensityState.vacuum", DensityState.vacuum, p["nmax"])
        with tr.span("fock_oracle.integrate", reach=p["reach"]) as tags:
            run = integrate(rho0, cfg, pref, 1.0, sample_times=times, check_convergence=True)
            tags.update(edge=max(run.edge_populations), trace=max(run.trace_residues),
                        delta=run.convergence_delta)
    notes = [f"warning: {w.message}" for w in caught]
    notes.append(f"convergence delta = {format_value(run.convergence_delta)}")
    notes.append(f"closure leakage = {format_value(run.closure_leakage())}")
    recorded = {"eta1": p["eta1"], "eta2": p["eta2"], **_rates(p), "nmax": p["nmax"],
                "dt": p["dt"], "edge_tol": p["edge_tol"], "check_convergence": True,
                "times": times}
    columns = ("time", *MOMENT_COLUMNS, "trace_residue", "edge_population")
    rows = [[t, m.n1, m.n2, m.n3, m.c32, m.c31, m.c21, res, edge]
            for t, m, res, edge in zip(times, run.moments, run.trace_residues,
                                       run.edge_populations)]
    return _render(tr, op.fmt, "oracle", recorded, columns, rows,
                   {"columns": list(columns), "rows": rows}, notes)


_REPLAYS = {
    "prefactors": _prefactors,
    "evolve": _evolve,
    "steady": _steady,
    "sweep": _sweep,
    "oracle": _oracle,
}


def replay(tr: Tracer, op, op_id) -> str:
    """Replay one operation under a root span; returns the rendered document.

    An oracle operation is followed by a second root span that repeats its
    integrate call with the convergence check off, which prices the check.
    """
    tr.op_id = op_id
    with tr.span(f"cli.{op.kind}"):
        text = _REPLAYS[op.kind](tr, op)
    if op.kind == "oracle":
        p = op.params
        times, cfg = _oracle_setup(p)
        pref = prefactors_from_inversions(p["eta1"], p["eta2"], p["A"])
        rho0 = DensityState.vacuum(p["nmax"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with tr.span("fock_oracle.integrate.nocheck"):
                integrate(rho0, cfg, pref, 1.0, sample_times=times, check_convergence=False)
    return text


def rk4_steps(times, dt: float) -> int:
    """RK4 steps of a march to these sample times plus its dt/2 re-march."""
    def march(h):
        steps, prev = 0, 0.0
        for t in times:
            span = t - prev
            full = int(math.floor(span / h + 1e-9))
            rem = span - full * h
            steps += full + (rem > 1e-12 * max(h, 1.0))
            prev = t
        return steps

    return march(dt) + march(0.5 * dt)


def layer_metrics(spans, ops, rounds: int) -> dict:
    """Per-round self times, counts and ratios from the recorded spans."""
    n = len(spans)
    child_ns = [0] * n
    for _, _, parent, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    self_s = [(s[4] - s[3] - child_ns[i]) / 1e9 for i, s in enumerate(spans)]

    def total(pred):
        return sum(sv for s, sv in zip(spans, self_s) if pred(s)) / rounds

    def count(pred):
        return sum(1 for s in spans if pred(s)) / rounds

    def named(*names):
        return lambda s: s[0] in names

    traj = named("dynamics.second_moment_trajectory", "dynamics.evolve_second_moments")

    def fallback(s):
        return traj(s) and s[5].get("fallback")

    integ = named("fock_oracle.integrate")
    nocheck = named("fock_oracle.integrate.nocheck")
    oracle_ops = [op for op in ops if op.kind == "oracle"]
    steps = sum(rk4_steps(op.params["times"], op.params["dt"]) for op in oracle_ops)
    integ_s = total(integ)
    audits = [s[5] for s in spans if integ(s)]
    traj_calls = count(traj)
    return {
        "model.calls": count(lambda s: s[0].startswith("model.")),
        "model.self_s": total(lambda s: s[0].startswith("model.")),
        "dynamics.stability.self_s": total(named("dynamics.drift_matrix", "dynamics.is_stable")),
        "dynamics.steady.calls": count(named("dynamics.steady_state_moments")),
        "dynamics.steady.self_s": total(named("dynamics.steady_state_moments")),
        "dynamics.trajectory.calls": traj_calls,
        "dynamics.trajectory.self_s": total(traj),
        "dynamics.fallback.calls": count(fallback),
        "dynamics.fallback.self_s": total(fallback),
        "dynamics.fallback_ratio": count(fallback) / traj_calls if traj_calls else 0.0,
        "dynamics.refused": count(lambda s: s[5].get("error") in (
            UnstableDriftError.__name__, HorizonError.__name__)),
        "entanglement.covariance.self_s": total(named("entanglement.covariance_from_moments")),
        "entanglement.vlf_evaluate.calls": count(named("entanglement.vlf_evaluate")),
        "entanglement.vlf_evaluate.self_s": total(named("entanglement.vlf_evaluate")),
        "entanglement.optimize_gains.calls": count(named("entanglement.optimize_gains")),
        "entanglement.optimize_gains.self_s": total(named("entanglement.optimize_gains")),
        "serialize.self_s": total(lambda s: s[0].startswith("serialize.")),
        "serialize.bytes": sum(s[5]["bytes"] for s in spans if s[0].startswith("serialize."))
        / rounds,
        "fock_oracle.vacuum.self_s": total(named("fock_oracle.DensityState.vacuum")),
        "fock_oracle.vacuum.bytes": float(sum((op.params["nmax"] + 1) ** 6 * 16
                                              for op in oracle_ops)),
        "fock_oracle.integrate.coupled_s": total(lambda s: integ(s) and s[5]["reach"] == "coupled"),
        "fock_oracle.integrate.sparse_s": total(lambda s: integ(s) and s[5]["reach"] == "sparse"),
        "fock_oracle.recheck_s": integ_s - total(nocheck),
        "fock_oracle.rk4_steps": float(steps),
        "fock_oracle.steps_per_s": steps / integ_s if integ_s else 0.0,
        "fock_oracle.edge_max": max((a["edge"] for a in audits), default=0.0),
        "fock_oracle.trace_residue_max": max((a["trace"] for a in audits), default=0.0),
        "fock_oracle.convergence_delta_max": max((a["delta"] for a in audits), default=0.0),
        "trace.spans": n / rounds,
    }
