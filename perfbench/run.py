"""The analyzer's end-to-end benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload families --seed 1 --seconds 15 --trace 0

Workloads (see each module's docstring for why it exists):

- ``cli``             cold ``python -m repro analyze FILE`` per op
- ``families``        in-process ``analyze_*`` calls on the Section 6.2 families
- ``serve``           ``repro serve`` under a closed loop of 2 clients
- ``large-programs``  source text to JSON on 20-80-let programs

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ledger.  Progress goes to stderr; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything the run writes goes to ``.perfbench_work``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cli", "families", "serve", "large-programs")
#: In-process workloads take ``setup_s`` from this many fresh
#: interpreters that each import the program and build the inputs.
SETUP_PROBES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _module(workload: str):
    from perfbench import (
        cli_workload,
        families,
        large_programs,
        serve_workload,
    )

    return {
        "cli": cli_workload,
        "families": families,
        "serve": serve_workload,
        "large-programs": large_programs,
    }[workload]


def _probe_setup_s(workload: str, seed: int) -> float:
    """Median (scaled) time of fresh interpreters running the workload's
    set-up, after one untimed run that warms the bytecode cache."""
    from perfbench.common import HostSpeed, median, timed_child

    command = [os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    speed = HostSpeed()
    samples = []
    for attempt in range(SETUP_PROBES + 1):
        elapsed, proc = timed_child(command, speed)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if attempt:
            samples.append(elapsed)
    return median(samples)


def declared_metrics(trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` declares for
    the mode: every end-to-end metric, or every per-layer one."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path[:1] = [ROOT, os.path.join(ROOT, "src")]
    # Unwind on SIGTERM too, so that a stopped run stops its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    module = _module(args.workload)
    if args.setup_probe:
        module.setup(args.seed)
        return 0
    from perfbench.common import emit_result, log, metric

    log(f"perfbench: {args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}")
    correct, attempted, failed, metrics = module.run(
        args.seed, args.seconds, bool(args.trace)
    )
    if args.trace:
        from perfbench import ledger
        from perfbench.common import HostSpeed

        correct &= ledger.fill(metrics, args.seed, HostSpeed())
    elif "setup_s" not in metrics:
        metrics["setup_s"] = metric(
            _probe_setup_s(args.workload, args.seed), "s"
        )
    printed = {name: value["unit"] for name, value in metrics.items()}
    if printed != declared_metrics(bool(args.trace)):
        raise RuntimeError(
            f"the run measured {sorted(printed.items())}, not the metrics "
            "BENCHMARK.json declares"
        )
    emit_result(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
