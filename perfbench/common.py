"""Shared plumbing: paths, child-process environment, statistics, timing
and the result line."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything a run writes lives here (listed in the root .gitignore).
WORK = os.path.join(ROOT, ".perfbench_work")
#: Bytecode of every child interpreter goes to one prefix inside the
#: work directory: children then start from warm .pyc files whatever
#: the caller's environment says, and the checkout itself stays clean.
PYCACHE = os.path.join(WORK, "pycache")

clock = time.perf_counter

#: Steps of the calibration loop (1.2-2.2 ms on the reference host, a
#: 2-vCPU Intel Xeon container).
CALIBRATION_STEPS = 2_000
#: The calibration time every reported duration is scaled to: the
#: reference host's typical one, so that scaled and wall times agree
#: there.
NOMINAL_CALIBRATION_S = 0.002


def calibration_sample() -> float:
    """Seconds the host takes for a fixed piece of pure-Python work.

    The work is shaped like an abstract interpreter's: small frozensets
    joined into a dictionary store and tuples hashed as keys.  A slow
    host slows that kind of work more than plain arithmetic, so this
    loop tracks the analyzers' speed more closely than a numeric one.
    """
    started = clock()
    store: dict = {}
    for step in range(CALIBRATION_STEPS):
        slot = step * 7 % 64
        value = frozenset((step % 5, step % 3))
        old = store.get(slot)
        store[slot] = value if old is None else old | value
        store[("seen", step % 200)] = hash((slot, value, len(store)))
    return clock() - started


class HostSpeed:
    """The host's current speed, sampled between ops.

    A shared host changes speed by up to 60% over periods of 5-30 s,
    for all processes on it, so raw wall times of one run say more about
    the neighbours than about the program.  Every duration the
    benchmark reports is therefore multiplied by `factor`, taken just
    before it was measured: nominal over recent calibration time, on
    every CPU this process may use (children and the server run on any
    of them).  The figures read as durations on a host of fixed speed;
    the loop is benchmark code, so no change to the program can move it.
    """

    PERIOD_S = 0.05
    WINDOW = 5

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: list[float] = []
        self.last = -math.inf

    def factor(self) -> float:
        if clock() - self.last > self.PERIOD_S:
            self.samples.append(self._sample())
            self.last = clock()
        return NOMINAL_CALIBRATION_S / statistics.median(
            self.samples[-self.WINDOW:]
        )

    def _sample(self) -> float:
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(calibration_sample())
        finally:
            os.sched_setaffinity(0, self.cpus)
        return statistics.fmean(times)


def child_env() -> dict:
    """The environment of every Python child the benchmark starts."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    return env


def python_child(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python <args>`` to completion with the benchmark's
    environment, capturing its output."""
    return subprocess.run(
        [sys.executable, *args],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def timed_child(
    args: list[str], speed: HostSpeed
) -> tuple[float, subprocess.CompletedProcess]:
    """Scaled seconds of one Python child, from spawn to exit."""
    factor = speed.factor()
    started = clock()
    proc = python_child(args)
    return (clock() - started) * factor, proc


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set among waited-for children, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


#: Fewest ops a window of rounds holds, so that its p90 has at least
#: two ops above it.
WINDOW_OPS = 20


def round_metrics(rounds: list[list[float]]) -> dict:
    """``ops_per_s``, ``latency_p50_ms`` and ``latency_p90_ms`` from the
    op latencies (seconds) of each round of a run.  Consecutive rounds
    are pooled into windows of at least `WINDOW_OPS` ops; each figure is
    the median over windows of that window's figure, so a slow stretch
    of the host that covers fewer than half the windows does not move
    it."""
    windows: list[list[float]] = [[]]
    for ops in rounds:
        if len(windows[-1]) >= WINDOW_OPS:
            windows.append([])
        windows[-1].extend(ops)
    if len(windows) > 1 and len(windows[-1]) < WINDOW_OPS:
        windows[-2].extend(windows.pop())
    return {
        "ops_per_s": metric(median(len(ops) / sum(ops) for ops in windows),
                            "1/s"),
        "latency_p50_ms": metric(
            1000 * median(percentile(ops, 50) for ops in windows), "ms"
        ),
        "latency_p90_ms": metric(
            1000 * median(percentile(ops, 90) for ops in windows), "ms"
        ),
    }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            sort_keys=True,
        ),
        flush=True,
    )
