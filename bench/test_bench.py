"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import csv
import io
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import ycel.cli  # noqa: E402
import workloads  # noqa: E402
from replay import Tracer, replay  # noqa: E402
from speed import LONG_CALL_S, SpeedProbe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_op(op, tmp_path: Path) -> str:
    out = tmp_path / f"out.{op.fmt}"
    assert ycel.cli.main(op.full_argv(str(out))) == 0
    return out.read_text(encoding="utf-8")


def _smoke_ops(workload):
    return workloads.make_ops(workload, seed=7, smoke=True)


def _scale_moment(text: str, fmt: str, row: int, column: str, factor: float) -> str:
    """The document with one moment of one row multiplied by factor."""
    if fmt == "json":
        doc = json.loads(text)
        idx = doc["columns"].index(column)
        doc["rows"][row][idx] *= factor
        return json.dumps(doc, indent=2) + "\n"
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[head].split(",")
    cells = next(csv.reader(io.StringIO(lines[head + 1 + row])))
    cells[columns.index(column)] = repr(float(cells[columns.index(column)]) * factor)
    lines[head + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        pattern = rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}$"
        assert any(re.match(pattern, line) for line in lines), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_replay_renders_the_command_document(workload, tmp_path):
    for i, op in enumerate(_smoke_ops(workload)):
        assert replay(Tracer(), op, i) == _run_op(op, tmp_path), op.argv


def _perturbation_cases():
    steady = next(op for op in _smoke_ops("point-calls") if op.kind == "steady")
    checked = next(op for op in _smoke_ops("point-calls")
                   if op.kind == "evolve" and op.params["ode_check"])
    sweep_opt, sweep_map = _smoke_ops("sweep-map")
    oracle = _smoke_ops("oracle-xcheck")[0]
    # (op, row, column, factor): each factor is far outside its check's tolerance
    return [
        (steady, 0, "n3", 1 + 1e-6),
        (checked, 5, "c31", 1 + 1e-6),
        (sweep_opt, 3, "n2", 1 + 1e-6),
        (sweep_map, 0, "n3", 1 + 1e-6),
        (oracle, 2, "n3", 1.01),
    ]


@pytest.mark.parametrize("case", range(5))
def test_gate_catches_a_perturbed_moment(case, tmp_path):
    op, row, column, factor = _perturbation_cases()[case]
    text = _run_op(op, tmp_path)
    verdict, _ = workloads.check(op, text)
    assert verdict.ok, verdict.reasons
    verdict, _ = workloads.check(op, _scale_moment(text, op.fmt, row, column, factor))
    assert not verdict.ok


def test_gate_catches_a_relabelled_sweep_row(tmp_path):
    op = _smoke_ops("sweep-map")[0]
    doc = json.loads(_run_op(op, tmp_path))
    status = doc["columns"].index("status")
    row = next(r for r in doc["rows"] if r[status] == "valid")
    row[status] = "invalid"
    verdict, _ = workloads.check(op, json.dumps(doc))
    assert not verdict.ok


def test_fingerprint_tracks_nine_significant_digits(tmp_path):
    op = next(op for op in _smoke_ops("point-calls") if op.kind == "steady")
    text = _run_op(op, tmp_path)

    def digest(t):
        return workloads.digest([workloads.fingerprint(op, workloads.parse_document(t, op.fmt))])

    assert digest(text) == digest(_scale_moment(text, op.fmt, 0, "n1", 1 + 1e-12))
    assert digest(text) != digest(_scale_moment(text, op.fmt, 0, "n1", 1 + 1e-7))


def test_inputs_follow_the_seed_and_keep_their_defining_property():
    first = workloads.make_ops("point-calls", 11)
    assert [op.argv for op in first] == [op.argv for op in workloads.make_ops("point-calls", 11)]
    assert [op.argv for op in first] != [op.argv for op in workloads.make_ops("point-calls", 12)]
    assert len(first) >= 1000
    evolves = [op for op in first if op.kind == "evolve"]
    on_line = [op for op in evolves if op.params["eta1"] + op.params["eta2"] == 0.5]
    assert len(on_line) * 10 == len(evolves)
    assert sum(op.fmt == "csv" for op in first) * 2 == len(first)
    sweep_opt, sweep_map = workloads.make_ops("sweep-map", 11)
    assert 0.45 <= sweep_opt.params["A"] <= 0.55 and 4.0 <= sweep_map.params["at_time"] <= 6.0
    oracle = workloads.make_ops("oracle-xcheck", 11)
    assert [op.params["times"][-1] for op in oracle] == [20.0] * 3
    assert [op.params["reach"] for op in oracle] == ["coupled", "coupled", "sparse"]


def test_speed_probe_samples_inside_long_calls_only():
    with SpeedProbe() as probe:
        probe.call_started()
        time.sleep(LONG_CALL_S / 2)
        assert probe.samples == []  # a short call is never interrupted
        probe.call_ended(LONG_CALL_S / 2)
        probe.call_started()
        time.sleep(3 * LONG_CALL_S)
        assert len(probe.samples) >= 2  # sampled while the long call ran
        probe.call_ended(3 * LONG_CALL_S)
    assert probe.factor() > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point-calls", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
