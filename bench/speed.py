"""Machine-speed reference: a fixed kernel timed alongside the workload.

On a shared host the same code can run 1.7x slower for minutes at a time,
because other tenants contend for the cores and caches.  Raw wall times of
two runs of the same commit then differ by more than a regression bound.
The benchmark therefore times a fixed reference kernel, which does not use
``ycel``, throughout the timed calls, and scales every end-to-end time by

    REF_S / (mean reference time of the run)

so that a time reads as it would on a machine where the kernel takes
``REF_S``.  The kernel mixes the kinds of work the CLI does: argparse,
small dense linear algebra, JSON rendering and float arithmetic.  None of
it releases the GIL, so no other thread runs in the middle of a kernel.
The raw, unscaled times are printed beside the scaled ones.

Set-up time is scaled the same way by a reference set-up instead of the
kernel: a fresh interpreter that imports numpy and a fixed list of standard
library modules (``REF_SETUP_CODE``), timed just before and just after each
measured set-up.  Imports read and execute many small files, which slow
down under contention less than the kernel does.

Samples are taken two ways, so that they spread evenly over the run:
bursts between calls, and a background thread that samples while a call
that has already run for ``LONG_CALL_S`` is still running.  Short calls are
never interrupted.  Every timed kernel follows an untimed one that reloads
the caches the workload evicted, and is timed by the CPU time of its own
thread, so time spent descheduled or waiting for the GIL is not counted.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import threading
import time

import numpy as np

# About the kernel's time on a quiet 2-vCPU VM (the machine the benchmark
# was written on); only the unit of the scaled times depends on it.
REF_S = 1.0e-3
# The reference set-up's time on the same VM.
REF_SETUP_S = 0.2
REF_SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import argparse, asyncio, csv, decimal, email.parser, fractions, http.client, json\n"
    "import numpy, unittest, xml.dom.minidom\n"
    "print(time.perf_counter() - t0)\n"
)
# Reference time spent per second of timed calls.
SHARE = 0.05
# Calls shorter than this are sampled between calls, in bursts of at least
# BURST_S; longer calls are sampled while they run, every SAMPLE_EVERY_S
# (one untimed and one timed kernel each time).
LONG_CALL_S = 0.1
BURST_S = 0.005
SAMPLE_EVERY_S = 2 * REF_S / SHARE

_MATRIX = np.arange(36.0).reshape(6, 6) / 36.0 + 3.0 * np.eye(6)
_FLOATS = [i / 4096.0 for i in range(4096)]


def kernel() -> float:
    """One reference unit of work; returns a value so nothing is skipped."""
    parser = argparse.ArgumentParser(prog="ref")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b"):
        p = sub.add_parser(name)
        for flag in ("x", "y", "z", "w"):
            p.add_argument(f"--{flag}", type=float)
    args = parser.parse_args(["a", "--x=1.5", "--y=-2.5e-3"])
    total = args.x + args.y
    for _ in range(3):
        total += float(np.linalg.eigvals(_MATRIX).real.sum())
        total += float(np.linalg.solve(_MATRIX, _MATRIX[0]).sum())
    total += len(json.dumps({"rows": [[float(v) for v in row] for row in _MATRIX]}))
    return total + sum(x * x for x in _FLOATS)


def _timed_kernel() -> float:
    # without collections the kernel's time does not depend on how much the
    # calling process has allocated
    gc.disable()
    try:
        t0 = time.thread_time()
        kernel()
        return time.thread_time() - t0
    finally:
        gc.enable()


class SpeedProbe:
    """Reference-kernel times collected over one run."""

    def __init__(self):
        self.samples = []
        self._debt = 0.0  # reference time owed for the short calls so far
        self._call_start = None
        self._stop = threading.Event()
        self._thread = None

    def sample(self, seconds: float = 0.0) -> None:
        """Time a burst of kernels lasting about ``seconds`` (at least 3).

        The first kernel of a burst only warms the caches the workload's
        calls evicted and is not recorded.
        """
        kernel()
        start = time.perf_counter()
        count = 0
        while count < 3 or time.perf_counter() - start < seconds:
            self.samples.append(_timed_kernel())
            count += 1

    def call_started(self) -> None:
        self._call_start = time.perf_counter()

    def call_ended(self, elapsed: float) -> None:
        """Between calls: pay the short part of the call in a burst if due."""
        self._call_start = None
        self._debt += SHARE * min(elapsed, LONG_CALL_S)
        if self._debt >= BURST_S:
            t0 = time.perf_counter()
            self.sample(self._debt)
            self._debt -= time.perf_counter() - t0

    def _watch(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            start = self._call_start
            if start is not None and time.perf_counter() - start > LONG_CALL_S:
                kernel()
                self.samples.append(_timed_kernel())

    def __enter__(self):
        self._thread = threading.Thread(target=self._watch, name="speed-probe", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()
        self.sample(max(self._debt, 0.0))

    def mean_s(self) -> float:
        """Kernel time averaged over the run, its top and bottom tenth cut.

        A run's wall time adds up its slow and fast stretches, so the mean
        tracks it; the median jumps when slow stretches fill half the run.
        """
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    def factor(self) -> float:
        """Multiplier that brings this run's times to the reference speed."""
        return REF_S / self.mean_s()
