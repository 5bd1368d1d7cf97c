"""ycel benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-map --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --seed 3          # all three workloads, one after another

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a separate traced run.  Every run times
``import ycel.cli`` plus ``build_parser()`` in fresh interpreters, then runs
the workload in a fresh process (``worker.py``) against the checkout's
``src/`` without installing it, and checks every output.  The last stdout
line is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_S, REF_SETUP_CODE, REF_SETUP_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep-map", "point-calls", "oracle-xcheck")
FINGERPRINTS = BENCH / "fingerprints.json"
SETUP_REPS = 5
RUN_LIMIT_S = 170.0  # one benchmark run must end within 180 s
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import ycel.cli\n"
    "t1 = time.perf_counter()\n"
    "ycel.cli.build_parser()\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t0)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    # one client, at most nproc (2) threads: BLAS stays single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _time_child(code: str) -> list:
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return [float(x) for x in out.stdout.split()]


def measure_setup(reps: int) -> tuple:
    """Median (import_s, setup_s, raw setup_s) over fresh interpreters.

    Each set-up time is scaled to the reference speed by the reference
    set-up timed just before and just after it (see speed.py); import_s
    stays raw.
    """
    imports, setups, scaled = [], [], []
    for _ in range(reps):
        before = _time_child(REF_SETUP_CODE)[0]
        t_import, t_setup = _time_child(SETUP_CODE)
        after = _time_child(REF_SETUP_CODE)[0]
        imports.append(t_import)
        setups.append(t_setup)
        scaled.append(t_setup * REF_SETUP_S / (0.5 * (before + after)))
    return statistics.median(imports), statistics.median(scaled), statistics.median(setups)


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
               timeout: float) -> dict:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tmp", str(out_dir / f"tmp-{os.getpid()}-{workload}")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint_note(workload: str, seed: int, digest: str, record: bool) -> str:
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    known = table.get(workload, {}).get(str(seed))
    if record:
        table.setdefault(workload, {})[str(seed)] = digest
        FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    if known is None:
        return "not recorded for this seed"
    if known == digest:
        return "matches the recorded fingerprint"
    return f"CHANGED: recorded {known}; an answer moved at 9 significant digits"


def one_workload(args, spec: dict, workload: str, setup: tuple) -> tuple:
    import_s, setup_s, raw_setup_s, setup_elapsed = setup
    budget = RUN_LIMIT_S - setup_elapsed
    res = run_worker(workload, args.seed, args.seconds, args.trace, args.smoke, budget)
    if args.trace:
        values = {**res["layers"], "cli.import_s": import_s}
        wanted = spec["per_layer"]
    else:
        values = {**res, "setup_s": setup_s,
                  "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"== {workload}  seed {args.seed}  trace {args.trace}: {res['rounds']} round(s) x "
          f"{res['ops_per_round']} ops, {res['calls']} cli.main calls")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:<14.6g} {m['unit']}")
    if not args.trace:
        print(f"  unscaled: setup_s {raw_setup_s:.6g} s, wall_s {res['raw_wall_s']:.6g} s; "
              f"reference kernel {res['ref_ms']:.6g} ms, mean of {res['ref_samples']} "
              f"(scaled times read as if it took {1e3 * REF_S:g} ms, and the reference "
              f"set-up {REF_SETUP_S:g} s)")
    if not args.smoke:
        note = fingerprint_note(workload, args.seed, res["fingerprint"], args.record)
        print(f"  fingerprint {res['fingerprint']}: {note}")
    if args.trace:
        print(f"  spans written to {res['trace_file']}")
    for reason in res["reasons"]:
        print(f"  FAILED CHECK {reason}")
    print(f"  correct: {str(res['failed'] == 0).lower()} "
          f"(attempted {res['attempted']}, failed {res['failed']})")
    return res, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all three in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one setup sample: checks the harness, not the speed")
    parser.add_argument("--record", action="store_true",
                        help="store this run's output fingerprint in fingerprints.json")
    args = parser.parse_args()
    if not (ROOT / "src" / "ycel" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/ycel to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Every child inherits one CPU.  The default sweep runs a two-thread pool
    # under the GIL; handing the GIL between two virtual CPUs made the same
    # sweep take 26.6 s or 37.5 s on a 2-vCPU VM, against 24.4 s and 25.9 s
    # pinned.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    t0 = time.perf_counter()
    try:
        setup = (*measure_setup(1 if args.smoke else SETUP_REPS), time.perf_counter() - t0)
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = [(w, *one_workload(args, spec, w, setup)) for w in names]
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for _, r, _ in results)
    failed = sum(r["failed"] for _, r, _ in results)
    if args.workload:
        metrics = results[0][2]
    else:
        metrics = {f"{w}/{name}": m for w, _, ms in results for name, m in ms.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
