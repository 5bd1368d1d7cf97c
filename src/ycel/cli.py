"""Command-line front end.

Subcommands: prefactors, evolve, steady, oracle, sweep.  All rates and
times are entered in units of the cavity decay kappa unless
--absolute-units is given; with the default kappa of 1 the two conventions
coincide.  Output is deterministic: the same parameters always produce
byte-identical text, and every JSON document can be fed back through
--config to reproduce its run.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings

import numpy as np

from .dynamics import (
    BACKENDS,
    ROUTES,
    drift_matrix,
    is_stable,
    second_moment_trajectory,
    steady_state_moments,
)
from .entanglement import BIPARTITIONS, MAX_SWEEP_POINTS, sweep as run_sweep
from .errors import ConfigurationError, PreparationError, YcelError
from .fock_oracle import DensityState, FockConfig, integrate
from .model import ModelParams, Prefactors, populations_from_inversions, prefactors, prefactors_from_inversions
from .serialize import csv_document, format_value, json_document, load_config

MOMENT_COLUMNS = ("n1", "n2", "n3", "c32", "c31", "c21")

# Most sample times one evolve or oracle run takes.  The closed-form route
# stacks one 10x10 propagator per sample, about 8 kB with its temporaries:
# 10,000 samples peak near 85 MB above the interpreter.
MAX_SAMPLES = 10_000


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad time list {text!r}: {exc}") from None


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigurationError(f"{flag} {text!r} must look like lo:hi")
    try:
        lo, hi = (float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"{flag} {text!r} must be two numbers lo:hi") from None
    if not -math.inf < lo <= hi < math.inf:
        raise ConfigurationError(f"{flag} {text!r} must be finite and nondecreasing")
    return lo, hi


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigurationError(f"grid {text!r} must look like NxM")
    try:
        n1, n2 = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigurationError(f"grid {text!r}: {exc}") from None
    if n1 < 1 or n2 < 1:
        raise ConfigurationError("grid sizes must be at least 1")
    if n1 * n2 > MAX_SWEEP_POINTS:
        raise ConfigurationError(
            f"grid {text!r} has {n1 * n2} points; a sweep takes at most {MAX_SWEEP_POINTS}"
        )
    return n1, n2


_CHOICES = {"backend": BACKENDS, "route": ROUTES, "units": ("kappa", "absolute")}

# What each --config value must be; keys whose schema default is None may
# also be null.
_NUMBER = ((int, float), "a number")
_CONFIG_TYPES = {
    **dict.fromkeys(
        ("eta1", "eta2", "kappa", "A", "r_a", "g", "gamma", "t", "dt", "edge_tol", "at_time"),
        _NUMBER,
    ),
    **dict.fromkeys(("nmax", "samples"), (int, "an integer")),
    **dict.fromkeys(("check_convergence", "optimize"), (bool, "true or false")),
    **dict.fromkeys(
        ("units", "backend", "route", "eta_grid", "eta1_range", "eta2_range"), (str, "a string")
    ),
    "times": (list, "a list of numbers"),
}


def _config_value_ok(key: str, value, default) -> bool:
    if value is None:
        return default is None
    if key == "times":
        return isinstance(value, list) and all(_config_value_ok("t", v, 0.0) for v in value)
    types = _CONFIG_TYPES[key][0]
    return isinstance(value, types) and (types is bool or not isinstance(value, bool))


def _resolve(schema: dict, args: argparse.Namespace, command: str) -> dict:
    """Merge defaults, --config values, and explicit flags, in that order.

    Refuses mistyped config values and a non-positive or infinite --kappa or --A.
    """
    params = dict(schema)
    if args.config is not None:
        cfg_command, cfg = load_config(args.config)
        if cfg_command is not None and cfg_command != command:
            raise ConfigurationError(
                f"config was written by {cfg_command!r}, not {command!r}"
            )
        for key, value in cfg.items():
            if key not in schema:
                raise ConfigurationError(f"unknown config key {key!r} for {command}")
            if not _config_value_ok(key, value, schema[key]):
                raise ConfigurationError(
                    f"config key {key!r} must be {_CONFIG_TYPES[key][1]}, not {value!r}"
                )
            if key in _CHOICES and value not in _CHOICES[key]:
                raise ConfigurationError(
                    f"config key {key!r} must be one of {', '.join(_CHOICES[key])}, not {value!r}"
                )
            params[key] = value
    for key in schema:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    for key in ("kappa", "A"):
        value = params.get(key)
        if value is not None and not (isinstance(value, (int, float)) and 0.0 < value < math.inf):
            raise ConfigurationError(f"--{key} must be a positive finite rate, got {value!r}")
    return params


_REQUIRED = object()


def _check_required(params: dict, command: str) -> None:
    missing = [k for k, v in params.items() if v is _REQUIRED]
    if missing:
        raise ConfigurationError(
            f"{command} needs " + ", ".join(f"--{k.replace('_', '-')}" for k in missing)
        )


_POINT_SCHEMA = {
    "eta1": _REQUIRED,
    "eta2": _REQUIRED,
}

_RATE_SCHEMA = {
    "kappa": 1.0,
    "units": "kappa",
    "A": None,
    "r_a": None,
    "g": None,
    "gamma": None,
}


def _rate_scale(params: dict) -> float:
    """Multiplier turning entered rates into absolute rates."""
    return params["kappa"] if params["units"] == "kappa" else 1.0


def _time_scale(params: dict) -> float:
    """Multiplier turning entered times into absolute times."""
    return 1.0 / params["kappa"] if params["units"] == "kappa" else 1.0


def _build_prefactors(params: dict) -> Prefactors:
    trio = [params["r_a"], params["g"], params["gamma"]]
    named = [v for v in trio if v is not None]
    if named and len(named) != 3:
        raise ConfigurationError("--r-a, --g and --gamma must be given together")
    if named and params["A"] is not None:
        raise ConfigurationError("give either --A or the --r-a/--g/--gamma trio")
    scale = _rate_scale(params)
    if named:
        model = ModelParams(
            r_a=params["r_a"] * scale,
            g=params["g"] * scale,
            gamma=params["gamma"] * scale,
            kappa=params["kappa"],
            eta1=params["eta1"],
            eta2=params["eta2"],
        )
        return prefactors(model)
    gain = params["A"] if params["A"] is not None else 1.0
    return prefactors_from_inversions(params["eta1"], params["eta2"], gain * scale)


def _recorded_rates(params: dict) -> dict:
    out = {"kappa": params["kappa"], "units": params["units"]}
    if params["r_a"] is not None:
        out.update(r_a=params["r_a"], g=params["g"], gamma=params["gamma"])
    else:
        out["A"] = params["A"] if params["A"] is not None else 1.0
    return out


def _resolve_times(params: dict, command: str) -> list[float]:
    if params.get("times"):
        if len(params["times"]) > MAX_SAMPLES:
            raise ConfigurationError(
                f"--times lists {len(params['times'])} times; at most {MAX_SAMPLES} are taken"
            )
        times = [float(t) for t in params["times"]]
        if not all(0.0 <= t < math.inf for t in times) or times != sorted(times):
            raise ConfigurationError("--times must be finite, nonnegative and nondecreasing")
        return times
    if params.get("t") is None:
        raise ConfigurationError(f"{command} needs --t or --times")
    t, samples = float(params["t"]), int(params["samples"])
    if not 0.0 < t < math.inf or samples < 1:
        raise ConfigurationError("--t must be positive and finite and --samples at least 1")
    if samples > MAX_SAMPLES:
        raise ConfigurationError(f"--samples {samples} exceeds the limit {MAX_SAMPLES}")
    if samples == 1:
        return [t]
    return [t * i / (samples - 1) for i in range(samples)]


class _NoteCollector(list):
    """Warnings raised while computing, replayed as '#' notes in the output."""

    def __enter__(self):
        self._ctx = warnings.catch_warnings(record=True)
        self._caught = self._ctx.__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc_info):
        self._ctx.__exit__(*exc_info)
        for item in self._caught:
            self.append(f"warning: {item.message}")
        return False


def _table(args, command: str, recorded: dict, columns, rows, notes=()) -> str:
    """The run as a JSON or CSV table document, per --format."""
    if args.format == "json":
        payload = {"columns": list(columns), "rows": rows}
        return json_document(command, recorded, payload, notes=notes)
    return csv_document(command, recorded, columns, rows, notes=notes)


def _moment_rows(times, moments) -> list[list[float]]:
    return [[t, m.n1, m.n2, m.n3, m.c32, m.c31, m.c21] for t, m in zip(times, moments)]


def cmd_prefactors(args: argparse.Namespace) -> str:
    schema = {**_POINT_SCHEMA, **_RATE_SCHEMA}
    params = _resolve(schema, args, "prefactors")
    _check_required(params, "prefactors")
    notes = _NoteCollector()
    with notes:
        pref = _build_prefactors(params)
        prep = populations_from_inversions(params["eta1"], params["eta2"])
    residues = {
        "residue_sum_rule": abs(pref.gain3 + pref.gain2 + pref.loss1 - 0.5),
        "residue_cross32": abs(pref.cross32 - math.sqrt(pref.gain3 * pref.gain2)),
        "residue_cross31": abs(pref.cross31 - math.sqrt(pref.gain3 * pref.loss1)),
        "residue_cross21": abs(pref.cross21 - math.sqrt(pref.gain2 * pref.loss1)),
    }
    populations = {"rho00": prep.rho00, "rho22": prep.rho22, "rho33": prep.rho33}
    coefficients = {
        "gain_scale": pref.gain_scale,
        "gain3": pref.gain3,
        "gain2": pref.gain2,
        "loss1": pref.loss1,
        "cross32": pref.cross32,
        "cross31": pref.cross31,
        "cross21": pref.cross21,
    }
    recorded = {
        "eta1": params["eta1"],
        "eta2": params["eta2"],
        **_recorded_rates(params),
    }
    if args.format == "json":
        return json_document(
            "prefactors",
            recorded,
            {
                "populations": populations,
                "prefactors": coefficients,
                "residues": residues,
            },
            notes=notes,
        )
    rows = [[k, v] for k, v in (populations | coefficients | residues).items()]
    return csv_document("prefactors", recorded, ("quantity", "value"), rows, notes=notes)


def cmd_evolve(args: argparse.Namespace) -> str:
    schema = {
        **_POINT_SCHEMA,
        **_RATE_SCHEMA,
        "backend": "ehrenfest",
        "route": "closed-form",
        "times": None,
        "t": None,
        "samples": 11,
    }
    params = _resolve(schema, args, "evolve")
    _check_required(params, "evolve")
    times = _resolve_times(params, "evolve")
    notes = _NoteCollector()
    with notes:
        pref = _build_prefactors(params)
        moments = second_moment_trajectory(
            pref,
            params["kappa"],
            [t * _time_scale(params) for t in times],
            backend=params["backend"],
            route=params["route"],
        )
    recorded = {
        "eta1": params["eta1"],
        "eta2": params["eta2"],
        **_recorded_rates(params),
        "backend": params["backend"],
        "route": params["route"],
        "times": times,
    }
    rows = _moment_rows(times, moments)
    return _table(args, "evolve", recorded, ("time", *MOMENT_COLUMNS), rows, notes)


def cmd_steady(args: argparse.Namespace) -> str:
    schema = {**_POINT_SCHEMA, **_RATE_SCHEMA, "backend": "ehrenfest"}
    params = _resolve(schema, args, "steady")
    _check_required(params, "steady")
    notes = _NoteCollector()
    with notes:
        pref = _build_prefactors(params)
        report = is_stable(drift_matrix(pref, params["kappa"]))
        moments = steady_state_moments(pref, params["kappa"], backend=params["backend"])
    notes.append(f"stability margin = {format_value(report.margin)}")
    recorded = {
        "eta1": params["eta1"],
        "eta2": params["eta2"],
        **_recorded_rates(params),
        "backend": params["backend"],
    }
    row = [moments.n1, moments.n2, moments.n3, moments.c32, moments.c31, moments.c21]
    return _table(args, "steady", recorded, MOMENT_COLUMNS, [row], notes)


def cmd_oracle(args: argparse.Namespace) -> str:
    schema = {
        **_POINT_SCHEMA,
        **_RATE_SCHEMA,
        "nmax": 6,
        "dt": 0.01,
        "edge_tol": 1e-3,
        "times": None,
        "t": None,
        "samples": 11,
        "check_convergence": True,
    }
    params = _resolve(schema, args, "oracle")
    _check_required(params, "oracle")
    if not params.get("times") and params.get("t") is None:
        # default horizon matches the library's FockConfig
        params["t"] = 20.0
    times = _resolve_times(params, "oracle")
    if times[-1] <= 0:
        raise ConfigurationError("oracle needs a positive final time")
    tscale = _time_scale(params)
    notes = _NoteCollector()
    with notes:
        pref = _build_prefactors(params)
        cfg = FockConfig(
            n_max=int(params["nmax"]),
            dt=float(params["dt"]) * tscale,
            t_final=times[-1] * tscale,
            edge_tol=float(params["edge_tol"]),
        )
        run = integrate(
            DensityState.vacuum(cfg.n_max),
            cfg,
            pref,
            params["kappa"],
            sample_times=[t * tscale for t in times],
            check_convergence=bool(params["check_convergence"]),
        )
    if run.convergence_delta is not None:
        notes.append(f"convergence delta = {format_value(run.convergence_delta)}")
    notes.append(f"closure leakage = {format_value(run.closure_leakage())}")
    recorded = {
        "eta1": params["eta1"],
        "eta2": params["eta2"],
        **_recorded_rates(params),
        "nmax": int(params["nmax"]),
        "dt": float(params["dt"]),
        "edge_tol": float(params["edge_tol"]),
        "check_convergence": bool(params["check_convergence"]),
        "times": times,
    }
    columns = ("time", *MOMENT_COLUMNS, "trace_residue", "edge_population")
    rows = [
        [t, m.n1, m.n2, m.n3, m.c32, m.c31, m.c21, residue, edge]
        for t, m, residue, edge in zip(
            times, run.moments, run.trace_residues, run.edge_populations
        )
    ]
    return _table(args, "oracle", recorded, columns, rows, notes)


def cmd_sweep(args: argparse.Namespace) -> str:
    schema = {
        **_RATE_SCHEMA,
        "eta_grid": "21x21",
        "eta1_range": "-1:1",
        "eta2_range": "-1:1",
        "backend": "ehrenfest",
        "at_time": None,
        "optimize": True,
    }
    params = _resolve(schema, args, "sweep")
    _check_required(params, "sweep")
    n1, n2 = _parse_grid(params["eta_grid"])
    lo1, hi1 = _parse_range(params["eta1_range"], "--eta1-range")
    lo2, hi2 = _parse_range(params["eta2_range"], "--eta2-range")
    gain = params["A"] if params["A"] is not None else 1.0
    if params["r_a"] is not None:
        raise ConfigurationError("sweep takes --A, not the rate trio")
    at_time = params["at_time"]
    if at_time is not None and not 0.0 <= at_time < math.inf:
        raise ConfigurationError(f"--at-time must be finite and nonnegative, got {at_time!r}")
    points = run_sweep(
        [float(v) for v in np.linspace(lo1, hi1, n1)],
        [float(v) for v in np.linspace(lo2, hi2, n2)],
        gain_scale=gain * _rate_scale(params),
        kappa=params["kappa"],
        backend=params["backend"],
        at_time=None if at_time is None else float(at_time) * _time_scale(params),
        optimize=bool(params["optimize"]),
    )
    recorded = {
        "eta_grid": params["eta_grid"],
        "eta1_range": params["eta1_range"],
        "eta2_range": params["eta2_range"],
        "A": gain,
        "kappa": params["kappa"],
        "units": params["units"],
        "backend": params["backend"],
        "at_time": at_time,
        "optimize": bool(params["optimize"]),
    }
    columns = ["eta1", "eta2", "status", "margin", *MOMENT_COLUMNS]
    for bip in BIPARTITIONS:
        columns += [f"ratio_{bip.name}", f"violated_{bip.name}"]
    columns += ["fully_inseparable", "failure"]
    nan = float("nan")
    rows = []
    for pt in points:
        row: list = [pt.eta1, pt.eta2, "valid" if pt.failure is None else "invalid", pt.margin]
        if pt.moments is None:
            row += [nan] * 6
        else:
            m = pt.moments
            row += [m.n1, m.n2, m.n3, m.c32, m.c31, m.c21]
        if pt.report is None:
            row += [nan, ""] * len(BIPARTITIONS) + [""]
        else:
            for bip in BIPARTITIONS:
                rec = pt.report.record(bip.name)
                row += [rec.ratio, rec.violated]
            row.append(pt.report.fully_inseparable)
        row.append(pt.failure if pt.failure is not None else "")
        rows.append(row)
    return _table(args, "sweep", recorded, columns, rows)


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with parameters (a previous run's JSON output works)")
    parser.add_argument("--out", help="write here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="moment-equation noise convention (see README)",
    )


def _add_rate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--A", type=float, default=None, help="linear gain rate (default 1)")
    parser.add_argument("--r-a", dest="r_a", type=float, default=None, help="atomic injection rate")
    parser.add_argument("--g", type=float, default=None, help="atom-field coupling")
    parser.add_argument("--gamma", type=float, default=None, help="atomic decay rate")
    parser.add_argument("--kappa", type=float, default=None, help="cavity decay rate (default 1)")
    parser.add_argument(
        "--absolute-units",
        dest="units",
        action="store_const",
        const="absolute",
        default=None,
        help="rates and times are absolute, not multiples of kappa",
    )


def _add_point_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta1", type=float, default=None, help="inversion rho00 - rho33")
    parser.add_argument("--eta2", type=float, default=None, help="inversion rho00 - rho22")


def _add_time_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t", type=float, default=None, help="final time")
    parser.add_argument("--samples", type=int, default=None, help="row count for --t (default 11)")
    parser.add_argument("--times", type=_float_list, default=None, help="comma-separated sample times")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ycel",
        description="Three-mode correlated-emission laser: moments, oracles, entanglement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prefactors", help="master-equation coefficients for a preparation")
    _add_io_flags(p)
    _add_point_flags(p)
    _add_rate_flags(p)
    p.set_defaults(func=cmd_prefactors)

    p = sub.add_parser("evolve", help="second-moment trajectory from vacuum")
    _add_io_flags(p)
    _add_point_flags(p)
    _add_rate_flags(p)
    _add_time_flags(p)
    p.add_argument("--route", choices=ROUTES, default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("steady", help="steady-state second moments")
    _add_io_flags(p)
    _add_point_flags(p)
    _add_rate_flags(p)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("oracle", help="truncated Fock-space master equation run")
    _add_io_flags(p)
    _add_point_flags(p)
    _add_rate_flags(p)
    _add_time_flags(p)
    p.add_argument("--nmax", type=int, default=None, help="per-mode photon cutoff (default 6)")
    p.add_argument("--dt", type=float, default=None, help="integrator step (default 0.01)")
    p.add_argument(
        "--edge-tol",
        dest="edge_tol",
        type=float,
        default=None,
        help="edge-population guard (default 1e-3; oracle-grade checks want 1e-6)",
    )
    p.add_argument(
        "--no-convergence-check",
        dest="check_convergence",
        action="store_const",
        const=False,
        default=None,
        help="skip the step-halving audit (3x faster)",
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="preparation-plane steady or fixed-time survey")
    _add_io_flags(p)
    _add_rate_flags(p)
    p.add_argument("--eta-grid", dest="eta_grid", default=None, help="NxM grid (default 21x21)")
    p.add_argument("--eta1-range", dest="eta1_range", default=None, help="lo:hi (default -1:1)")
    p.add_argument("--eta2-range", dest="eta2_range", default=None, help="lo:hi (default -1:1)")
    p.add_argument("--at-time", dest="at_time", type=float, default=None,
                   help="survey moments at this time instead of the steady state")
    p.add_argument("--no-optimize", dest="optimize", action="store_const", const=False,
                   default=None, help="evaluate default witness gains only")
    p.set_defaults(func=cmd_sweep)
    return parser


# argparse takes a separate negative number as an option's value only in
# plain or decimal form; in exponent form it reads an unknown option.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _attach_negative_numbers(argv: list[str]) -> list[str]:
    """Rewrite '--flag -8.2e-05' as '--flag=-8.2e-05'."""
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        takes_value = len(prev) > 2 and prev.startswith("--") and "=" not in prev
        if takes_value and _NEGATIVE_NUMBER.fullmatch(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_numbers(sys.argv[1:] if argv is None else list(argv)))
    try:
        text = args.func(args)
    except (PreparationError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except YcelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
