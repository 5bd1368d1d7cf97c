"""Seeded operation lists, output parsing and the per-op correctness gate.

Every operation is one ``ycel.cli.main(argv)`` call.  The gate re-derives
what each output document must satisfy from the public library functions
and runs after the timed calls, never inside them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import warnings
from dataclasses import dataclass, field

import numpy as np

from ycel import (
    SecondMoments,
    covariance_from_moments,
    diffusion_matrix,
    drift_matrix,
    is_stable,
    prefactors_from_inversions,
    second_moment_trajectory,
    validate_physical,
    vlf_evaluate,
)

WORKLOADS = ("sweep-map", "point-calls", "oracle-xcheck")

KAPPA = 1.0
LYAPUNOV_TOL = 1e-9
ROUTE_TOL = 1e-8
ORACLE_TOL = 1e-3
MIN_MARGIN = 0.05  # smallest drift stability margin of a point-calls preparation
# The ODE fallback's cost grows with the horizon; one fixed horizon keeps the
# seed from moving the p99 work.
EVOLVE_T = 10.0
# The ODE route runs at rtol 1e-12, so closed-form vs ODE deviations below
# this level are roundoff, not answers; they are reported at this floor so
# that roundoff drift between commits does not read as a regression.
ROUTE_RESOLUTION = 1e-10
MOMENTS = ("n1", "n2", "n3", "c32", "c31", "c21")

# oracle-xcheck preparations: (eta1, eta2, n_max, dt, reach).  The first two
# are fully coupled in their charge sector; (0, 0.5) reaches 670 of 55,252
# sector elements.  The last sample time is fixed at 20.
ORACLE_POINTS = (
    (0.0, 0.0, 8, 0.04, "coupled"),
    (0.25, 0.25, 7, 0.05, "coupled"),
    (0.0, 0.5, 9, 0.04, "sparse"),
)
ORACLE_GAIN = 0.5
ORACLE_T_LAST = 20.0


@dataclass
class Op:
    """One CLI call: its argv (without --format/--out) and what the gate needs."""

    kind: str
    argv: list
    fmt: str
    params: dict = field(default_factory=dict)

    def full_argv(self, out_path: str) -> list:
        return [*self.argv, "--format", self.fmt, "--out", out_path]


def _flag(name: str, x: float) -> str:
    # repr round-trips, so the CLI parses exactly the float the gate uses; the
    # --flag=value form keeps argparse from reading "-8e-05" as an option
    return f"--{name}={float(x)!r}"


def _stable(e1: float, e2: float, a: float) -> bool:
    # steady photon numbers grow as 1/margin; a margin floor keeps a few
    # near-marginal points from dominating the witness statistics
    return is_stable(drift_matrix(prefactors_from_inversions(e1, e2, a), KAPPA)).margin >= MIN_MARGIN


def _stable_preparation(rng: random.Random, avoid_line: bool):
    """A physical, stable (eta1, eta2, A) off the defective line if asked."""
    while True:
        e1, e2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        if not validate_physical(e1, e2).valid:
            continue
        if avoid_line and abs(e1 + e2 - 0.5) < 0.02:
            continue
        a = rng.uniform(0.2, 1.2)
        if _stable(e1, e2, a):
            return e1, e2, a


def _defective_preparation(rng: random.Random):
    """A stable preparation exactly on eta1 + eta2 = 0.5 (dyadic, so exact)."""
    while True:
        e1 = rng.randint(0, 32) / 64.0
        e2 = 0.5 - e1
        a = rng.uniform(0.2, 1.2)
        if _stable(e1, e2, a):
            return e1, e2, a


def _sweep_ops(rng: random.Random, smoke: bool) -> list:
    a = rng.uniform(0.45, 0.55)
    t = rng.uniform(4.0, 6.0)
    grid_opt = "5x5" if smoke else "21x21"
    grid_map = "5x5" if smoke else "41x41"
    return [
        Op("sweep", ["sweep", "--eta-grid", grid_opt, _flag("A", a)], "json",
           {"A": a, "grid": grid_opt, "at_time": None, "optimize": True}),
        Op("sweep", ["sweep", "--eta-grid", grid_map, _flag("A", a), _flag("at-time", t),
                     "--no-optimize"], "csv",
           {"A": a, "grid": grid_map, "at_time": t, "optimize": False}),
    ]


def _point_ops(rng: random.Random, smoke: bool) -> list:
    n_evolve, n_steady, n_pref = (10, 5, 5) if smoke else (400, 300, 300)
    ops = []
    for j in range(n_evolve):
        defective = j % 10 == 0  # exactly one evolve in ten on eta1 + eta2 = 0.5
        e1, e2, a = _defective_preparation(rng) if defective else _stable_preparation(rng, True)
        ops.append(Op("evolve",
                      ["evolve", _flag("eta1", e1), _flag("eta2", e2), _flag("A", a),
                       _flag("t", EVOLVE_T)],
                      "csv" if j % 2 == 0 else "json",
                      {"eta1": e1, "eta2": e2, "A": a, "t": EVOLVE_T, "samples": 11}))
    for kind, count in (("steady", n_steady), ("prefactors", n_pref)):
        for j in range(count):
            e1, e2, a = _stable_preparation(rng, False)
            ops.append(Op(kind, [kind, _flag("eta1", e1), _flag("eta2", e2), _flag("A", a)],
                          "csv" if j % 2 == 0 else "json", {"eta1": e1, "eta2": e2, "A": a}))
    rng.shuffle(ops)
    # every 20th evolve in call order is re-run on the ODE route by the gate
    evolves = [op for op in ops if op.kind == "evolve"]
    for k, op in enumerate(evolves):
        op.params["ode_check"] = k % 20 == 0
    return ops


def _oracle_ops(rng: random.Random, smoke: bool) -> list:
    t1 = rng.uniform(0.5, 2.5)
    t2 = rng.uniform(3.0, 8.0)
    if smoke:
        points, times = ((0.0, 0.0, 5, 0.05, "coupled"),), [0.25, 0.5, 1.0]
        edge_tol = 1e-3
    else:
        points, times = ORACLE_POINTS, [t1, t2, ORACLE_T_LAST]
        edge_tol = 1e-6
    ops = []
    for e1, e2, n_max, dt, reach in points:
        argv = ["oracle", _flag("eta1", e1), _flag("eta2", e2), _flag("A", ORACLE_GAIN),
                f"--nmax={n_max}", _flag("dt", dt), _flag("edge-tol", edge_tol),
                "--times=" + ",".join(repr(float(t)) for t in times)]
        ops.append(Op("oracle", argv, "json",
                      {"eta1": e1, "eta2": e2, "A": ORACLE_GAIN, "nmax": n_max, "dt": dt,
                       "edge_tol": edge_tol, "times": times, "reach": reach}))
    return ops


def make_ops(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's operation list; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-map":
        return _sweep_ops(rng, smoke)
    if workload == "point-calls":
        return _point_ops(rng, smoke)
    if workload == "oracle-xcheck":
        return _oracle_ops(rng, smoke)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------- parsing


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_document(text: str, fmt: str) -> dict:
    """{"columns", "rows"} of a CSV or JSON document.

    A prefactors document's quantity/value table becomes its rows in both
    formats.
    """
    if fmt == "json":
        doc = json.loads(text)
        if "columns" in doc:
            return {"columns": doc["columns"], "rows": doc["rows"]}
        rows = [[k, v] for section in ("populations", "prefactors", "residues")
                for k, v in doc[section].items()]
        return {"columns": ["quantity", "value"], "rows": rows}
    body = [line for line in text.splitlines() if not line.startswith("#")]
    table = list(csv.reader(io.StringIO("\n".join(body))))
    return {"columns": table[0], "rows": [[_cell(c) for c in row] for row in table[1:]]}


def _moments(row: dict) -> SecondMoments:
    return SecondMoments(*(float(row[k]) for k in MOMENTS))


def _max_rel(a: SecondMoments, b: SecondMoments) -> float:
    va, vb = np.array(a.as_tuple()), np.array(b.as_tuple())
    scale = float(np.abs(vb).max())
    return float(np.abs(va - vb).max() / scale) if scale else float(np.abs(va).max())


def _lyapunov_residual(pref, s: SecondMoments) -> float:
    """max |M S + S M^T - Q|, relative to the size of its terms.

    The scale includes |M| |S| because CSV moments carry 12 significant
    digits, so large occupations leave an absolute residual of that size.
    """
    m = drift_matrix(pref, KAPPA)
    q = diffusion_matrix(pref, "ehrenfest")
    sm = s.as_matrix()
    scale = max(1.0, float(np.abs(q).max()), float(np.abs(m).max() * np.abs(sm).max()))
    return float(np.abs(m @ sm + sm @ m.T - q).max() / scale)


def fingerprint(op: Op, doc: dict) -> list:
    """The document's columns and rows with numbers at 9 significant digits.

    Values below 1e-10 in magnitude (trace residues, roundoff) read as 0, so
    the fingerprint tracks answers rather than the last bits of roundoff.
    """
    def norm(v):
        if isinstance(v, float):
            if math.isnan(v):
                return "nan"
            return 0.0 if abs(v) < 1e-10 else float("%.9g" % v)
        return v

    return [op.kind, doc["columns"], [[norm(v) for v in row] for row in doc["rows"]]]


def digest(parts: list) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:16]


# ------------------------------------------------------------------ gate


@dataclass
class Verdict:
    """Gate outcome for one output plus the answer statistics it yields."""

    ok: bool = True
    reasons: list = field(default_factory=list)
    ratios: list = field(default_factory=list)  # witness ratios behind witness_ratio_mean
    max_dev: float = 0.0  # largest relative deviation from an independent method
    improved: int = 0  # bipartitions where optimize_gains beat the default gains
    optimized: int = 0

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reasons.append(reason)


def _check_sweep(op: Op, doc: dict, v: Verdict) -> None:
    cols = doc["columns"]
    rows = [dict(zip(cols, r)) for r in doc["rows"]]
    n1, n2 = (int(x) for x in op.params["grid"].split("x"))
    expected = sum(validate_physical(float(a), float(b)).valid
                   for a in np.linspace(-1, 1, n1) for b in np.linspace(-1, 1, n2))
    if len(rows) != expected:
        v.fail(f"sweep has {len(rows)} rows, expected {expected}")
    gain, at_time = op.params["A"], op.params["at_time"]
    bips = [c[len("ratio_"):] for c in cols if c.startswith("ratio_")]
    routed = 0
    for row in rows:
        pref = prefactors_from_inversions(float(row["eta1"]), float(row["eta2"]), gain)
        stable = is_stable(drift_matrix(pref, KAPPA)).stable
        valid = row["status"] == "valid"
        where = f"({row['eta1']}, {row['eta2']})"
        if at_time is None and valid != stable:
            v.fail(f"{where}: status {row['status']} but is_stable says {stable}")
        if at_time is not None and not valid:
            v.fail(f"{where}: transient point failed: {row['failure']}")
        if not valid:
            continue
        moments = _moments(row)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            default = vlf_evaluate(covariance_from_moments(moments))
        if at_time is None:
            residual = _lyapunov_residual(pref, moments)
            if residual > LYAPUNOV_TOL:
                v.fail(f"{where}: Lyapunov residual {residual:.3g}")
        for name in bips:
            ratio = float(row[f"ratio_{name}"])
            ref = default.record(name).ratio
            if op.params["optimize"]:
                v.optimized += 1
                v.improved += ratio < ref - 1e-12
                if ratio > ref + 1e-12:
                    v.fail(f"{where} {name}: optimised ratio {ratio!r} above default {ref!r}")
                v.ratios.append(ratio)
            elif abs(ratio - ref) > 1e-9 * max(1.0, abs(ref)):
                v.fail(f"{where} {name}: ratio {ratio!r} is not the default-gain {ref!r}")
        if at_time is not None:
            routed += 1
            if routed % 20 == 1:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    ode = second_moment_trajectory(pref, KAPPA, [at_time], route="ode")[0]
                _route_check(v, where, moments, ode)


def _route_check(v: Verdict, where: str, got: SecondMoments, ode: SecondMoments) -> None:
    dev = _max_rel(got, ode)
    v.max_dev = max(v.max_dev, dev)
    if dev > ROUTE_TOL:
        v.fail(f"{where}: deviates from the ODE route by {dev:.3g}")


def _check_evolve(op: Op, doc: dict, v: Verdict) -> None:
    p = op.params
    cols = doc["columns"]
    rows = [dict(zip(cols, r)) for r in doc["rows"]]
    times = [p["t"] * i / (p["samples"] - 1) for i in range(p["samples"])]
    if [float(r["time"]) for r in rows] != [float("%.12g" % t) if op.fmt == "csv" else t for t in times]:
        v.fail("evolve sample times differ from the request")
        return
    if any(float(rows[0][k]) != 0.0 for k in MOMENTS):
        v.fail("evolve t=0 row is not the vacuum")
    if not p["ode_check"]:
        return
    pref = prefactors_from_inversions(p["eta1"], p["eta2"], p["A"])
    ode = second_moment_trajectory(pref, KAPPA, times, route="ode")
    for row, ref in zip(rows[1:], ode[1:]):
        _route_check(v, f"t={row['time']}", _moments(row), ref)


def _check_steady(op: Op, doc: dict, v: Verdict) -> None:
    p = op.params
    row = dict(zip(doc["columns"], doc["rows"][0]))
    pref = prefactors_from_inversions(p["eta1"], p["eta2"], p["A"])
    moments = _moments(row)
    residual = _lyapunov_residual(pref, moments)
    if residual > LYAPUNOV_TOL:
        v.fail(f"steady Lyapunov residual {residual:.3g}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = vlf_evaluate(covariance_from_moments(moments))
    v.ratios.extend(r.ratio for r in report.records)


def _check_prefactors(op: Op, doc: dict, v: Verdict) -> None:
    table = {k: float(val) for k, val in doc["rows"]}
    for name in ("residue_sum_rule", "residue_cross32", "residue_cross31", "residue_cross21"):
        if not table[name] <= 1e-12:
            v.fail(f"prefactors {name} = {table[name]!r}")
    total = table["rho00"] + table["rho22"] + table["rho33"]
    if abs(total - 1.0) > 1e-11:
        v.fail(f"populations sum to {total!r}")
    if abs(table["gain3"] + table["gain2"] + table["loss1"] - 0.5) > 1e-11:
        v.fail("gain3 + gain2 + loss1 != 1/2")


def _check_oracle(op: Op, doc: dict, v: Verdict) -> None:
    p = op.params
    cols = doc["columns"]
    rows = [dict(zip(cols, r)) for r in doc["rows"]]
    pref = prefactors_from_inversions(p["eta1"], p["eta2"], p["A"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # defective-drift fallback at (0.25, 0.25)
        engine = second_moment_trajectory(pref, KAPPA, [float(r["time"]) for r in rows])
    for row, ref in zip(rows, engine):
        dev = _max_rel(_moments(row), ref)
        v.max_dev = max(v.max_dev, dev)
        if not dev < ORACLE_TOL:
            v.fail(f"oracle at t={row['time']} deviates from the moment engine by {dev:.3g}")
        if not float(row["edge_population"]) <= p["edge_tol"]:
            v.fail(f"edge population {row['edge_population']} above {p['edge_tol']}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = vlf_evaluate(covariance_from_moments(_moments(rows[-1])))
    v.ratios.extend(r.ratio for r in report.records)


_CHECKS = {
    "sweep": _check_sweep,
    "evolve": _check_evolve,
    "steady": _check_steady,
    "prefactors": _check_prefactors,
    "oracle": _check_oracle,
}


def check(op: Op, text: str) -> tuple:
    """(Verdict, parsed document or None) for one output document."""
    v = Verdict()
    try:
        doc = parse_document(text, op.fmt)
        _CHECKS[op.kind](op, doc, v)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        v.fail(f"unreadable {op.kind} document: {exc!r}")
        return v, None
    return v, doc
