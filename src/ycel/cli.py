"""Command-line front end.

Subcommands: prefactors, evolve, steady, oracle, sweep.  All rates and
times are entered in units of the cavity decay kappa unless
--absolute-units is given.  A kappa-unit run computes at kappa = 1, so no
number of its document but the recorded kappa depends on --kappa.  Output
is deterministic: the same parameters always produce byte-identical text,
and every JSON document can be fed back through --config to reproduce its
run.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import warnings

from .errors import ConfigurationError, PreparationError, YcelError
from .model import (BACKENDS, MAX_SWEEP_POINTS, ROUTES, FockConfig, ModelParams, Prefactors,
                    populations_from_inversions, prefactors, prefactors_from_inversions)
from .serialize import csv_document, format_value, json_document, load_config, table_document

# The numerical modules, and numpy with them, are imported by the commands
# that use them, after their arguments are checked, so the parser, --help,
# prefactors and every refused argument run without numpy.  serialize loads
# json and csv with the first document or --config that needs them, and a
# command's parser adds its arguments when it first parses, so a start pays
# only for the command it runs.

MOMENT_COLUMNS = ("n1", "n2", "n3", "c32", "c31", "c21")

# Most sample times one evolve or oracle run takes, which bounds the
# document: 10,000 closed-form samples peak near 8 MB of allocations as
# CSV and 14 MB as JSON.
MAX_SAMPLES = 10_000


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad time list {text!r}: {exc}") from None


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


def _axis(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced values from lo to hi, each the float nearest its exact
    value, so a printed grid coordinate reads back as the one that ran.

    lo + (hi - lo) i / m is an exact ratio of integers, and int / int rounds
    correctly to the nearest float.
    """
    (ln, ld), (hn, hd), m = lo.as_integer_ratio(), hi.as_integer_ratio(), max(n - 1, 1)
    return [(ln * hd * (m - i) + hn * ld * i) / (ld * hd * m) for i in range(n)]


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


def _number(value) -> bool:
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max  # JSON integers have no bound
    return isinstance(value, float)


_REQUIRED = object()
_NUMBER = (_number, "a number")
_INTEGER = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_BOOLEAN = (lambda v: isinstance(v, bool), "true or false")
_STRING = (lambda v: isinstance(v, str), "a string")
_NUMBERS = (lambda v: isinstance(v, list) and all(map(_number, v)), "a list of numbers")

# Every parameter once: its default (_REQUIRED if it must be given), what a
# --config value must be (a parameter defaulting to None may also be null),
# the values it may take, and the argparse keywords of its flag, which is
# --<name> with dashes unless "flag" names another.
PARAMETERS = {
    "eta1": (_REQUIRED, _NUMBER, (), {"type": float, "help": "inversion rho00 - rho33"}),
    "eta2": (_REQUIRED, _NUMBER, (), {"type": float, "help": "inversion rho00 - rho22"}),
    "kappa": (1.0, _NUMBER, (), {"type": float, "help": "cavity decay rate (default 1)"}),
    "units": ("kappa", _STRING, ("kappa", "absolute"), {
        "flag": "--absolute-units", "action": "store_const", "const": "absolute",
        "help": "rates and times are absolute, not multiples of kappa"}),
    "A": (None, _NUMBER, (), {"type": float, "help": "linear gain rate (default 1)"}),
    "r_a": (None, _NUMBER, (), {"type": float, "help": "atomic injection rate"}),
    "g": (None, _NUMBER, (), {"type": float, "help": "atom-field coupling"}),
    "gamma": (None, _NUMBER, (), {"type": float, "help": "atomic decay rate"}),
    "backend": ("ehrenfest", _STRING, BACKENDS, {
        "help": "moment-equation noise convention (see README)"}),
    "route": ("closed-form", _STRING, ROUTES, {}),
    "times": (None, _NUMBERS, (), {
        "type": _float_list, "help": "comma-separated sample times"}),
    "t": (None, _NUMBER, (), {"type": float, "help": "final time"}),
    "samples": (11, _INTEGER, (), {"type": int, "help": "row count for --t (default 11)"}),
    "nmax": (6, _INTEGER, (), {
        "type": int,
        "help": "photon cutoff of a1; b holds up to the summed cutoffs of the modes "
                "with nonzero gain (default 6)"}),
    "dt": (0.01, _NUMBER, (), {"type": float, "help": "integrator step (default 0.01)"}),
    "edge_tol": (1e-3, _NUMBER, (), {
        "type": float,
        "help": "edge-population guard (default 1e-3; oracle-grade checks want 1e-6)"}),
    "check_convergence": (True, _BOOLEAN, (), {
        "flag": "--no-convergence-check", "action": "store_const", "const": False,
        "help": "skip the step-halving audit (3x faster)"}),
    "eta_grid": ("21x21", _STRING, (), {"help": "NxM grid (default 21x21)"}),
    "eta1_range": ("-1:1", _STRING, (), {"help": "lo:hi (default -1:1)"}),
    "eta2_range": ("-1:1", _STRING, (), {"help": "lo:hi (default -1:1)"}),
    "at_time": (None, _NUMBER, (), {
        "type": float, "help": "survey moments at this time instead of the steady state"}),
    "optimize": (True, _BOOLEAN, (), {
        "flag": "--no-optimize", "action": "store_const", "const": False,
        "help": "evaluate default witness gains only"}),
}


def _resolve(args: argparse.Namespace) -> dict:
    """The run's parameters, as its document records them under "params".

    Merges defaults, --config values and explicit flags, in that order.  A
    number becomes the float (or int) its flag gives, --t/--samples become
    "times", and A is 1 unless the --r-a/--g/--gamma trio is given; the
    unused side of that choice is dropped.  Refuses mistyped config values,
    a non-positive or infinite --kappa or --A, a missing required
    parameter, an --A, --dt or --at-time below the normal range, malformed
    times, then a partial trio or both A and the trio.
    """
    command = args.command
    params = {key: PARAMETERS[key][0] for key in COMMANDS[command][2]}
    if args.config is not None:
        cfg_command, cfg = load_config(args.config)
        if cfg_command is not None and cfg_command != command:
            raise ConfigurationError(
                f"config was written by {cfg_command!r}, not {command!r}"
            )
        for key, value in cfg.items():
            if key not in params:
                raise ConfigurationError(f"unknown config key {key!r} for {command}")
            default, (valid, kind), choices, _ = PARAMETERS[key]
            if not (default is None if value is None else valid(value)):
                raise ConfigurationError(f"config key {key!r} must be {kind}, not {value!r}")
            if choices and value not in choices:
                raise ConfigurationError(
                    f"config key {key!r} must be one of {', '.join(choices)}, not {value!r}"
                )
            params[key] = value
    for key in params:
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    for key in ("kappa", "A"):
        value = params.get(key)
        if value is not None and not 0.0 < value < math.inf:
            raise ConfigurationError(f"--{key} must be a positive finite rate, got {value!r}")
    missing = [k for k, v in params.items() if v is _REQUIRED]
    if missing:
        raise ConfigurationError(
            f"{command} needs " + ", ".join(f"--{k.replace('_', '-')}" for k in missing)
        )
    for key, value in params.items():
        cast = PARAMETERS[key][3].get("type")
        if value is not None and cast in (float, int):
            params[key] = cast(value)
    for key in ("A", "dt", "at_time"):
        if params.get(key) is not None:
            _check_normal(params[key], "--" + key.replace("_", "-"))
    if "times" in params:
        params["times"] = _resolve_times(params, command)
        del params["t"], params["samples"]
    trio = [params.get(key) for key in _TRIO]
    if any(v is not None for v in trio):
        if None in trio:
            raise ConfigurationError("--r-a, --g and --gamma must be given together")
        if params["A"] is not None:
            raise ConfigurationError("give either --A or the --r-a/--g/--gamma trio")
        del params["A"]
    else:
        for key in _TRIO:
            params.pop(key, None)
        if params["A"] is None:
            params["A"] = 1.0
    return params


def _engine_kappa(params: dict) -> float:
    """The kappa the engine, the oracle and the sweep run at.  The moments
    depend only on the rates over kappa and on kappa t, so a run entered in
    kappa units runs its values as entered at kappa = 1, and only an
    --absolute-units run hands over --kappa."""
    return params["kappa"] if params["units"] == "absolute" else 1.0


def _check_normal(value: float, flag: str) -> None:
    """Refuses a positive value below the normal floating-point range:
    subnormal, with fewer significant bits than a float carries."""
    if 0.0 < value < sys.float_info.min:
        raise ConfigurationError(f"{flag} {value!r} is below the normal floating-point range")


def _build_prefactors(params: dict, notes: _NoteCollector) -> Prefactors:
    """The run's prefactors.  Only the rate trio's ModelParams can warn (of a
    bad cavity), and notes records that warning."""
    if "A" in params:
        return prefactors_from_inversions(params["eta1"], params["eta2"], params["A"])
    with notes:
        model = ModelParams(
            r_a=params["r_a"],
            g=params["g"],
            gamma=params["gamma"],
            kappa=_engine_kappa(params),
            eta1=params["eta1"],
            eta2=params["eta2"],
        )
    return prefactors(model)


def _resolve_times(params: dict, command: str) -> list[float]:
    t = params["t"]
    if t is None and command == "oracle":
        t = FockConfig().t_final
    if params["times"] is not None:
        if not params["times"]:
            raise ConfigurationError("--times lists no times")
        if len(params["times"]) > MAX_SAMPLES:
            raise ConfigurationError(
                f"--times lists {len(params['times'])} times; at most {MAX_SAMPLES} are taken"
            )
        times = [float(v) for v in params["times"]]
        if not all(0.0 <= v < math.inf for v in times) or times != sorted(times):
            raise ConfigurationError("--times must be finite, nonnegative and nondecreasing")
    elif t is None:
        raise ConfigurationError(f"{command} needs --t or --times")
    else:
        samples = params["samples"]
        if not 0.0 < t < math.inf or samples < 1:
            raise ConfigurationError("--t must be positive and finite and --samples at least 1")
        if samples > MAX_SAMPLES:
            raise ConfigurationError(f"--samples {samples} exceeds the limit {MAX_SAMPLES}")
        times = [t] if samples == 1 else [t * i / (samples - 1) for i in range(samples)]
        if times[-1] == math.inf:  # the grid multiplies before it divides
            raise ConfigurationError(
                f"--t over --samples {samples} is out of floating-point range"
            )
    if command == "oracle" and times[-1] <= 0:
        raise ConfigurationError("oracle needs a positive final time")
    _check_normal(next((v for v in times if v > 0.0), 0.0), "--t/--times")
    return times


class _NoteCollector(list):
    """Warnings raised while computing, replayed as '#' notes in the output.
    Each ``with`` block appends the warnings it caught, so the notes keep
    the order the warnings were raised in.  A block's exit drops every
    warning filter set inside it, and numpy and scipy set some at import,
    so a command imports the numerical modules it needs after its checks
    and before its computation's block."""

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


def cmd_prefactors(args: argparse.Namespace) -> str:
    params = _resolve(args)
    notes = _NoteCollector()
    pref = _build_prefactors(params, notes)
    prep = populations_from_inversions(params["eta1"], params["eta2"])
    residues = {
        "residue_sum_rule": abs(pref.gain3 + pref.gain2 + pref.loss1 - 0.5),
        "residue_cross32": abs(pref.cross32 - math.sqrt(pref.gain3 * pref.gain2)),
        "residue_cross31": abs(pref.cross31 - math.sqrt(pref.gain3 * pref.loss1)),
        "residue_cross21": abs(pref.cross21 - math.sqrt(pref.gain2 * pref.loss1)),
    }
    populations = {"rho00": prep.rho00, "rho22": prep.rho22, "rho33": prep.rho33}
    coefficients = pref._asdict()
    if args.format == "json":
        return json_document(
            "prefactors",
            params,
            {
                "populations": populations,
                "prefactors": coefficients,
                "residues": residues,
            },
            notes=notes,
        )
    rows = [[k, v] for k, v in (populations | coefficients | residues).items()]
    return csv_document("prefactors", params, ("quantity", "value"), rows, notes=notes)


def cmd_evolve(args: argparse.Namespace) -> str:
    params = _resolve(args)
    times = params["times"]
    notes = _NoteCollector()
    pref = _build_prefactors(params, notes)
    from .dynamics import _trajectory_rows
    if params["route"] == "ode":
        import scipy.integrate  # noqa: F401 -- the ode route's solver, outside the note scope
    with notes:
        rows = _trajectory_rows(pref, _engine_kappa(params), times, params["backend"],
                                params["route"])
    cells = [times, *zip(*rows)]
    columns = ("time", *MOMENT_COLUMNS)
    return table_document(args.format, args.command, params, columns, cells, notes)


def cmd_steady(args: argparse.Namespace) -> str:
    params = _resolve(args)
    notes = _NoteCollector()
    pref = _build_prefactors(params, notes)
    from .dynamics import _steady_state
    with notes:
        margin, moments = _steady_state(pref, _engine_kappa(params), params["backend"])
    notes.append(f"stability margin = {format_value(margin)}")
    cells = [(v,) for v in moments.as_tuple()]
    return table_document(args.format, args.command, params, MOMENT_COLUMNS, cells, notes)


def cmd_oracle(args: argparse.Namespace) -> str:
    params = _resolve(args)
    times = params["times"]
    notes = _NoteCollector()
    pref = _build_prefactors(params, notes)
    cfg = FockConfig(params["nmax"], params["dt"], times[-1], params["edge_tol"])
    from .fock_oracle import DensityState, integrate
    import scipy.sparse  # noqa: F401 -- integrate's operator, outside the note scope
    with notes:
        run = integrate(
            DensityState.vacuum(cfg.n_max),
            cfg,
            pref,
            _engine_kappa(params),
            sample_times=times,
            check_convergence=params["check_convergence"],
        )
    if run.convergence_delta is not None:
        notes.append(f"convergence delta = {format_value(run.convergence_delta)}")
    notes.append(f"closure leakage = {format_value(run.closure_leakage())}")
    columns = ("time", *MOMENT_COLUMNS, "trace_residue", "edge_population")
    cells = [times, *zip(*(m.as_tuple() for m in run.moments)),
             run.trace_residues, run.edge_populations]
    return table_document(args.format, args.command, params, columns, cells, notes)


def cmd_sweep(args: argparse.Namespace) -> str:
    params = _resolve(args)
    n1, n2 = _parse_grid(params["eta_grid"])
    lo1, hi1 = _parse_range(params["eta1_range"], "--eta1-range")
    lo2, hi2 = _parse_range(params["eta2_range"], "--eta2-range")
    at_time = params["at_time"]
    if at_time is not None and not 0.0 <= at_time < math.inf:
        raise ConfigurationError(f"--at-time must be finite and nonnegative, got {at_time!r}")
    kappa = _engine_kappa(params)
    from .dynamics import _eigen_margins
    from .entanglement import BIPARTITIONS, sweep as run_sweep

    table = run_sweep(
        _axis(lo1, hi1, n1),
        _axis(lo2, hi2, n2),
        gain_scale=params["A"],
        kappa=kappa,
        backend=params["backend"],
        at_time=at_time,
        optimize=params["optimize"],
    )
    columns = ["eta1", "eta2", "status", "margin", *MOMENT_COLUMNS]
    for bip in BIPARTITIONS:
        columns += [f"ratio_{bip.name}", f"violated_{bip.name}"]
    columns += ["fully_inseparable", "failure"]
    # the margin column is the eigensolver's, as is_stable reports it; the
    # verdict and the refusal reason come from the exact margin
    margins = _eigen_margins(table.prefactors, kappa)
    # a failed point prints NaN ratios and empty verdicts
    solved = [not f for f in table.failure]

    def verdicts(flags):
        return [v if ok else "" for v, ok in zip(flags.tolist(), solved)]

    cells = [table.eta1.tolist(), table.eta2.tolist(),
             ["valid" if ok else "invalid" for ok in solved], margins.tolist(),
             *table.moments.T.tolist()]
    for ratio, flags in zip(table.ratio.T.tolist(), table.violated.T):
        cells += [ratio, verdicts(flags)]
    cells += [verdicts(table.fully_inseparable), table.failure]
    return table_document(args.format, args.command, params, columns, cells)


class _Parser(argparse.ArgumentParser):
    """A command's parser.  It reports a malformed command line as
    ConfigurationError, not usage and exit, and adds the command's
    arguments when it first parses or its flags are first read."""

    def error(self, message):
        raise ConfigurationError(message)

    def parse_known_args(self, args=None, namespace=None):
        self.flags  # adds the command's arguments on the first parse
        return super().parse_known_args(args, namespace)

    @functools.cached_property
    def flags(self) -> dict:
        """The Action each of the command's option strings names, once the
        command's arguments are added."""
        actions = [
            self.add_argument("--config",
                              help="JSON file with parameters (a previous run's JSON output works)"),
            self.add_argument("--out", help="write here instead of stdout"),
            self.add_argument("--format", choices=("csv", "json"), default="csv"),
        ]
        for key in COMMANDS[self.get_default("command")][2]:
            _, _, choices, flag = PARAMETERS[key]
            flag = dict(flag, dest=key)
            if choices and "action" not in flag:
                flag["choices"] = choices
            actions.append(self.add_argument(flag.pop("flag", "--" + key.replace("_", "-")),
                                             **flag))
        return {option: action for action in actions for option in action.option_strings}

    @functools.cached_property
    def defaults(self) -> argparse.Namespace:
        """The namespace of an empty line."""
        return self.parse_args([])


class _CommandLine(argparse.ArgumentParser):
    """The full parser.  It reports a malformed line as a command's parser
    does, and refuses a command's option given ahead of the command, where
    argparse would take the option as unknown and its value as the
    command."""

    error = _Parser.error

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        flag = args[0].split("=", 1)[0] if args else ""
        if any(flag in command.flags for command in self.commands.values()):
            raise ConfigurationError(f"option {flag} goes after the command name")
        return super().parse_args(args, namespace)


_TRIO = ("r_a", "g", "gamma")
_POINT = ("eta1", "eta2", "kappa", "units", "A", *_TRIO)
_TIMES = ("times", "t", "samples")

# Each command: its function, its help line, and the parameters it reads,
# which are exactly its flags and the keys its --config accepts, in the
# order its document records them.
COMMANDS = {
    "prefactors": (cmd_prefactors, "master-equation coefficients for a preparation", _POINT),
    "evolve": (cmd_evolve, "second-moment trajectory from vacuum",
               (*_POINT, "backend", "route", *_TIMES)),
    "steady": (cmd_steady, "steady-state second moments", (*_POINT, "backend")),
    "oracle": (cmd_oracle, "truncated Fock-space master equation run",
               (*_POINT, "nmax", "dt", "edge_tol", "check_convergence", *_TIMES)),
    "sweep": (cmd_sweep, "preparation-plane steady or fixed-time survey",
              ("eta_grid", "eta1_range", "eta2_range", "A", "kappa", "units", "backend",
               "at_time", "optimize")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ycel parser, built once per process: parse_args keeps no state.

    Its ``commands`` maps each command name to that command's parser, which
    holds the command's help line, function and name.  A command's parser
    adds its arguments, and builds its ``flags``, the Action each of its
    option strings names, when it first parses or its ``flags`` are first
    read; its ``defaults`` is the namespace of an empty line.  The full
    parser reads the commands' ``flags`` only for a line that does not
    start with a command.
    """
    parser = _CommandLine(
        prog="ycel",
        description="Three-mode correlated-emission laser: moments, oracles, entanglement.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (func, text, _) in COMMANDS.items():
        sub.add_parser(command, help=text).set_defaults(func=func, command=command)
    parser.commands = sub.choices
    return parser


# argparse takes a separate value that starts with '-' as an option's value
# only when it is a plain or decimal number; it reads '-8.2e-05' or
# '-0.5:1' as an unknown option.
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _attach_negative_numbers(argv: list[str]) -> list[str]:
    """Attach each value led by '-' and a digit or '.': '--flag -0.5:1' -> '--flag=-0.5:1'."""
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        takes_value = len(prev) > 2 and prev.startswith("--") and "=" not in prev
        if takes_value and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def _parse_exact(parser: argparse.ArgumentParser, argv: list[str]):
    """The namespace ``parser.parse_args(argv)`` gives, when every token of
    argv is one of the command's exact option strings or the value one
    takes; None otherwise, and argparse parses the line.

    Each flag sets its dest on a copy of the empty line's namespace, the
    last occurrence winning.  Left to argparse, so that its help and every
    refusal keep their wording: an abbreviation, -h/--help, a positional,
    '--', a value given to a store_const flag, a missing value, a separate
    value led by '-', the value '--' (argparse drops it), and a value that
    fails its type or lies outside its choices.
    """
    args = argparse.Namespace()
    args.__dict__.update(parser.defaults.__dict__)
    tokens = iter(argv)
    for token in tokens:
        flag, attached, value = token.partition("=")
        action = parser.flags.get(flag)
        if action is None:
            return None
        if action.nargs == 0:  # store_const
            if attached:
                return None
            setattr(args, action.dest, action.const)
            continue
        if not attached:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        elif value == "--":
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        setattr(args, action.dest, value)
    return args


def _write_file(path: str, data: bytes) -> None:
    """Replace the file at path with data, as open(path, "w") would."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def main(argv=None) -> int:
    argv = _attach_negative_numbers(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser()
    # The full parser would classify every token, then hand them all to the
    # command's parser; that parser alone gives the same namespace and errors.
    args = None
    if argv and argv[0] in parser.commands:
        parser, argv = parser.commands[argv[0]], argv[1:]
        args = _parse_exact(parser, argv)
    try:
        if args is None:
            args = parser.parse_args(argv)
        text = args.func(args)
    except (PreparationError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except YcelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            _write_file(args.out, text.encode("utf-8"))
        except OSError as exc:
            print(f"error: cannot write output {args.out!r}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
