"""One workload in a fresh process: timed CLI calls, then the gate.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread count pinned to 1.  A single client drives
``ycel.cli.main`` in a closed loop: the next call starts when the previous
one returns.  The loop repeats the workload's operation list in rounds
until ``--seconds`` have passed (at least one round).  Prints one JSON
object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import ycel
import ycel.cli

import workloads
from replay import Tracer, layer_metrics, replay
from speed import SpeedProbe


def _run_cli(op, out_path: Path):
    """(seconds, exit code, document text) for one timed CLI call."""
    argv = op.full_argv(str(out_path))
    start = time.perf_counter()
    try:
        code = ycel.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed op, not a crashed benchmark
        print(f"op {op.argv}: {exc!r}", file=sys.stderr)
        code = -1
    elapsed = time.perf_counter() - start
    text = out_path.read_text(encoding="utf-8") if code == 0 and out_path.exists() else None
    if out_path.exists():
        out_path.unlink()
    return elapsed, code, text


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, tmp: Path) -> dict:
    ops = workloads.make_ops(workload, seed, smoke)
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    first_texts = [None] * len(ops)
    failures = set()  # (round, op index)
    latencies, round_walls, replay_walls, cli_self = [], [], [], []
    probe = SpeedProbe()  # machine speed, sampled throughout the loop
    start = time.perf_counter()
    rounds = 0
    with probe:
        while rounds == 0 or time.perf_counter() - start < seconds:
            round_wall = 0.0
            for i, op in enumerate(ops):
                probe.call_started()
                elapsed, code, text = _run_cli(op, tmp / f"op{i}.{op.fmt}")
                probe.call_ended(elapsed)
                latencies.append(elapsed)
                round_wall += elapsed
                if code != 0 or text is None:
                    failures.add((rounds, i))
                elif rounds == 0:
                    first_texts[i] = text
                elif text != first_texts[i]:
                    failures.add((rounds, i))  # the CLI promises byte-identical output
                if tracer is not None:
                    op_id = f"{rounds}:{i}"
                    mark = len(tracer.spans)
                    replay(tracer, op, op_id)
                    root = tracer.spans[mark]
                    library = sum(s[4] - s[3] for s in tracer.spans[mark:] if s[2] == mark)
                    cli_self.append(elapsed - library / 1e9)
                    replay_walls.append((rounds, (root[4] - root[3]) / 1e9))
            round_walls.append(round_wall)
            if rounds == 0:
                # later rounds reuse what the first left behind (caches, freed
                # heap), so the peak through one pass is what the work needs
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rounds += 1

    ratios, max_dev, improved, optimized, reasons, parts = [], 0.0, 0, 0, [], []
    for i, (op, text) in enumerate(zip(ops, first_texts)):
        if text is None:
            reasons.append(f"{op.kind} {op.argv[1:]}: exit code was not 0")
            continue
        verdict, doc = workloads.check(op, text)
        if not verdict.ok:
            failures.update((r, i) for r in range(rounds))  # same output every round
            reasons.append(f"{op.kind} {op.argv[1:]}: {'; '.join(verdict.reasons[:3])}")
        ratios += verdict.ratios
        max_dev = max(max_dev, verdict.max_dev)
        improved += verdict.improved
        optimized += verdict.optimized
        parts.append(workloads.fingerprint(op, doc) if doc is not None else None)

    speed = probe.factor()
    result = {
        "attempted": rounds * len(ops),
        "failed": len(failures),
        "reasons": reasons[:10],
        "rounds": rounds,
        "ops_per_round": len(ops),
        "calls": len(latencies),
        "fingerprint": workloads.digest(parts),
        "wall_s": speed * statistics.median(round_walls),
        "op_p50_ms": speed * 1e3 * _percentile(latencies, 50),
        "op_p99_ms": speed * 1e3 * _percentile(latencies, 99),
        "raw_wall_s": statistics.median(round_walls),
        "ref_ms": 1e3 * probe.mean_s(),
        "ref_samples": len(probe.samples),
        "witness_ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
        "oracle_max_dev": max_dev if workload == "oracle-xcheck"
        else max(max_dev, workloads.ROUTE_RESOLUTION),
    }
    if tracer is not None:
        traced = [0.0] * rounds
        for r, wall in replay_walls:
            traced[r] += wall
        layers = layer_metrics(tracer.spans, ops, rounds)
        layers.update({
            "cli.self_ms": 1e3 * statistics.median(cli_self),
            "entanglement.optimize_gains.improved_ratio": improved / optimized if optimized else 0.0,
            "trace.wall_s": statistics.median(traced),
            "trace.untraced_wall_s": result["raw_wall_s"],
            "trace.wall_diff_s": statistics.median(traced) - result["raw_wall_s"],
        })
        result["layers"] = layers
        trace_file = tmp.parent / f"trace-{workload}-{seed}.jsonl"
        with trace_file.open("w", encoding="utf-8") as fh:
            for name, op_id, parent, t0, t1, tags in tracer.spans:
                fh.write(json.dumps({"name": name, "op": op_id, "parent": parent,
                                     "start_ns": t0, "end_ns": t1, **tags}) + "\n")
        result["trace_file"] = str(trace_file)
    result["peak_rss_mb"] = peak_rss_mb
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tmp", required=True, help="scratch directory for CLI output files")
    args = parser.parse_args()
    src = Path(__file__).resolve().parents[1] / "src"
    if Path(ycel.__file__).resolve().parents[1] != src:
        print(f"error: imported ycel from {ycel.__file__}, not from {src}", file=sys.stderr)
        return 2
    tmp = Path(args.tmp)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
