"""cli: one cold ``python -m repro analyze FILE`` per op, run one after
another with default options.

This is what a CLI user waits for.  Interpreter start-up and imports
dominate (the analysis of these inputs takes milliseconds), so lazy
imports show here; for analysis-only changes the prediction is no
change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

from perfbench import check, gen
from perfbench.common import (
    WORK,
    HostSpeed,
    children_peak_rss_mb,
    clock,
    median,
    metric,
    round_metrics,
    timed_child,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
TRACE_WRAPPER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "cli_trace.py")


def write_inputs(directory: str) -> dict[str, str]:
    """Write every universe program to its own file; returns
    ``id -> path``."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    paths = {}
    for index, (program_id, source) in enumerate(
        sorted(gen.cli_universe().items())
    ):
        path = os.path.join(directory, f"{index:03d}.scm")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source + "\n")
        paths[program_id] = path
    return paths


def analyze_command(path: str) -> list[str]:
    return ["-m", "repro", "analyze", path]


def in_process(source: str, path: str):
    """What the CLI prints for ``path``, rendered in this process, and
    the comparison report behind it: ``(text, report, term, domain)``."""
    from repro.api import prepare, run_comparison
    from repro.cli import main
    from repro.domains import ConstPropDomain, Lattice
    from repro.lang.syntax import free_variables

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["analyze", path])
    term = prepare(source)
    domain = ConstPropDomain()
    lattice = Lattice(domain)
    top = lattice.of_num(domain.top)
    report = run_comparison(
        term, domain, initial={n: top for n in free_variables(term)}
    )
    return out.getvalue(), report, term, domain


def trust(paths: dict[str, str], reference: dict) -> dict[str, bool]:
    """Check every input once in process: the CLI text and the report
    (answers, stores, stats) against their reference digests and, for
    closed inputs, the report against a concrete run."""
    universe = gen.cli_universe()
    trusted = {}
    for program_id, path in paths.items():
        stdout, report, term, domain = in_process(universe[program_id], path)
        ok = check.agrees(
            reference, f"cli-stdout/{program_id}", stdout
        ) and check.agrees(
            reference,
            f"cli/{program_id}",
            [r.to_dict() for r in report.results],
        )
        if ok and check.is_closed(term):
            ok = all(check.sound(r, term, domain) for r in report.results)
        trusted[program_id] = ok
    return trusted


def reference_entries(directory: str) -> dict[str, str]:
    universe = gen.cli_universe()
    entries = {}
    for program_id, path in write_inputs(directory).items():
        stdout, report, _, _ = in_process(universe[program_id], path)
        entries[f"cli-stdout/{program_id}"] = check.digest(stdout)
        entries[f"cli/{program_id}"] = check.digest(
            [r.to_dict() for r in report.results]
        )
    shutil.rmtree(directory, ignore_errors=True)
    return entries


def run(seed: int, seconds: float, trace: bool) -> tuple:
    directory = os.path.join(WORK, f"cli-{os.getpid()}")
    reference = check.load_reference()
    passes = gen.cli_passes(seed)
    first = sorted(gen.cli_universe())[0]
    speed = HostSpeed()
    # Untimed: fills the bytecode cache the children start from.
    write_inputs(directory)
    timed_child(analyze_command(os.path.join(directory, "000.scm")), speed)
    setups = []
    for _ in range(SETUPS):
        factor = speed.factor()
        started = clock()
        paths = write_inputs(directory)
        _, warm = timed_child(analyze_command(paths[first]), speed)
        setups.append((clock() - started) * factor)
    trusted = trust(paths, reference)
    attempted = failed = 0
    measured = 0.0
    rounds: list[list[float]] = []
    ledger: dict[str, list[float]] = {}
    # Whole passes only, so that every run has the same mix.
    while measured < seconds:
        latencies: list[float] = []
        rounds.append(latencies)
        for program_id in next(passes):
            attempted += 1
            elapsed, proc = timed_child(
                analyze_command(paths[program_id]), speed
            )
            if not (
                proc.returncode == 0
                and trusted[program_id]
                and check.agrees(
                    reference, f"cli-stdout/{program_id}", proc.stdout
                )
            ):
                failed += 1
            else:
                latencies.append(elapsed)
                if trace:
                    measured += _traced_op(paths[program_id], ledger, speed)
            measured += elapsed
    shutil.rmtree(directory, ignore_errors=True)
    correct = failed == 0 and warm.returncode == 0 and all(trusted.values())
    if not trace:
        metrics = {
            "setup_s": metric(median(setups), "s"),
            "peak_rss_mb": metric(children_peak_rss_mb(), "MB"),
            **round_metrics(rounds),
        }
        return correct, attempted, failed, metrics
    layers = {name: median(values) for name, values in ledger.items()}
    wall = layers.pop("wall")
    metrics = {
        name: metric(1000 * value, "ms") for name, value in layers.items()
    }
    metrics["unaccounted_ms"] = metric(
        1000 * (wall - sum(layers.values())), "ms"
    )
    metrics["trace.overhead_ms"] = metric(
        1000 * (wall - median(op for ops in rounds for op in ops)), "ms"
    )
    return correct, attempted, failed, metrics


def _traced_op(path: str, ledger: dict, speed: HostSpeed) -> float:
    """One traced CLI run and one bare interpreter start; returns their
    scaled duration."""
    factor = speed.factor()
    wall, proc = timed_child([TRACE_WRAPPER, path], speed)
    spans = json.loads(proc.stderr.strip().splitlines()[-1])
    bare, _ = timed_child(["-c", "pass"], speed)
    for name, value in spans.items():
        ledger.setdefault(name, []).append(value * factor)
    ledger.setdefault("startup.bare_python_ms", []).append(bare)
    ledger.setdefault("wall", []).append(wall)
    return wall + bare
