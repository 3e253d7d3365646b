"""The rest of a traced run's per-layer ledger.

Every traced run prints every per-layer metric.  A workload measures
the layers its own ops go through; `fill` measures each remaining
layer, through the same public functions, on the *probe set*: the cli
workload's light programs (the light corpus and small generated
spines), in a seeded order.  The probe set is the same in every
workload, so a layer that a workload does not exercise reads alike in
all of them, and an optimisation of that layer still shows.
"""

from __future__ import annotations

import json
import os
import random
import shutil

from perfbench import check, families, gen
from perfbench.common import WORK, clock, median, metric

#: Repeats of the CLI start-up probe.
STARTUP_REPEATS = 3

GROUPS = {
    "startup": ("startup.bare_python_ms", "startup.import_api_ms",
                "startup.import_cli_ms", "cli.main_ms"),
    "front": ("lang.parse_ms", "lang.nodes_per_op", "anf.normalize_ms",
              "cps.transform_ms", "serialize.pretty_ms",
              "serialize.json_ms"),
    "plans": ("machine.compile_anf_ms", "machine.compile_cps_ms"),
    "analysis": tuple(f"analysis.{name}_ms" for name in gen.ANALYZERS)
    + tuple(f"analysis.{name}" for name in families.STATS),
    "eval_cache": ("perf.eval_cache_hit_ratio",),
    "serve": ("serve.cache_hit_ratio", "serve.cache_lookup_ms",
              "serve.queue_wait_ms", "serve.execute_ms",
              "serve.serialize_ms", "http.overhead_ms", "hit_p50_ms",
              "miss_p50_ms"),
}


def probe_set(seed: int) -> list[tuple[str, str]]:
    """``(id, source)`` of every probe program, in a seeded order."""
    programs = sorted(gen.cli_universe().items())
    random.Random(f"ledger-{seed}").shuffle(programs)
    return programs


def fill(metrics: dict, seed: int, speed) -> bool:
    """Add every per-layer metric of `GROUPS` that ``metrics`` lacks,
    measured on the probe set.  Returns whether every answer the probes
    produced agreed with the reference."""
    from perfbench import cli_workload, large_programs, serve_workload

    programs = probe_set(seed)
    reference = check.load_reference()
    measured: dict = {}
    correct = True
    missing = {
        group for group, names in GROUPS.items()
        if any(name not in metrics for name in names)
    }
    if "startup" in missing:
        measured |= _startup(cli_workload, programs, speed)
    if "front" in missing or "plans" in missing:
        measured |= _front(large_programs, programs, speed)
    if "analysis" in missing or "eval_cache" in missing:
        found, ok = _analysis(programs, reference, speed)
        measured |= found
        correct &= ok
    if "serve" in missing:
        found, ok = _serve(serve_workload, seed, reference, speed)
        measured |= found
        correct &= ok
    for group in missing:
        for name in GROUPS[group]:
            metrics.setdefault(name, measured[name])
    return correct


def _startup(cli_workload, programs, speed) -> dict:
    """The CLI's start-up spans on one probe program, and a bare
    interpreter start, after one untimed run that warms the bytecode
    cache."""
    directory = os.path.join(WORK, f"ledger-{os.getpid()}")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "probe.scm")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(programs[0][1] + "\n")
    spans: dict[str, list[float]] = {}
    try:
        cli_workload._traced_op(path, {}, speed)
        for _ in range(STARTUP_REPEATS):
            cli_workload._traced_op(path, spans, speed)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        name: metric(1000 * median(spans[name]), "ms")
        for name in GROUPS["startup"]
    }


def _front(large_programs, programs, speed) -> dict:
    """Front end, serialization and plan compilers on every probe
    program."""
    spans: dict[str, list] = {}
    for _, source in programs:
        factor = speed.factor()
        large_programs.answer(source, spans, factor)
        large_programs._time_plan_compilers(source, spans, factor)
    found = {
        name: metric(1000 * median(values), "ms")
        for name, values in spans.items()
        if name != "lang.nodes_per_op"
    }
    found["lang.nodes_per_op"] = metric(
        median(spans["lang.nodes_per_op"]), "count"
    )
    return found


def _assume_top(source: str):
    def assumptions(lattice) -> dict:
        from repro.lang.parser import parse
        from repro.lang.syntax import free_variables

        top = lattice.of_num(lattice.domain.top)
        return {name: top for name in free_variables(parse(source))}

    return assumptions


def _analysis(programs, reference, speed) -> tuple[dict, bool]:
    """Every analyzer on every probe program, as the CLI calls it
    (``⊤`` for free variables), then again with the eval cache.  The
    answers must be the ones the CLI reference pins."""
    from repro.obs.metrics import Metrics

    spans: dict[str, list[float]] = {}
    counts = dict.fromkeys(families.STATS, 0)
    calls = hits = probes = 0
    results: dict[str, list] = {}
    for program_id, source in programs:
        results[program_id] = []
        for analyzer in gen.ANALYZERS:
            prep = families.Prepared(program_id, source, analyzer, False,
                                     _assume_top(source))
            factor = speed.factor()
            started = clock()
            result = prep.run()
            spans.setdefault(analyzer, []).append(
                (clock() - started) * factor
            )
            results[program_id].append(result.to_dict())
            calls += 1
            for name in families.STATS:
                counts[name] += getattr(result.stats, name)
            prep.cache = True
            registry = Metrics()
            prep.run(metrics=registry)
            values = registry.snapshot()["counters"]
            prefix = f"perf.{analyzer}."
            hits += values.get(prefix + "eval_cache_hits", 0)
            probes += sum(
                values.get(prefix + key, 0)
                for key in ("eval_cache_hits", "eval_cache_misses",
                            "eval_cache_rejects")
            )
    found = {
        f"analysis.{analyzer}_ms": metric(1000 * median(values), "ms")
        for analyzer, values in spans.items()
    }
    for name, value in counts.items():
        found[f"analysis.{name}"] = metric(value / calls, "count")
    found["perf.eval_cache_hit_ratio"] = metric(hits / probes, "ratio")
    # The CLI reference pins the four analyzers' answers in this order.
    ok = all(
        check.agrees(reference, f"cli/{program_id}", answers)
        for program_id, answers in results.items()
    )
    return found, ok


def _serve(serve_workload, seed: int, reference: dict,
           speed) -> tuple[dict, bool]:
    """One server, the serve workload's hot set sent three times over:
    with server timing while the cache is cold (misses), with server
    timing again (hits), and bare (hits)."""
    from repro.serve.jobs import execute_request

    payloads = list(gen.hot_universe().items())
    random.Random(f"ledger-serve-{seed}").shuffle(payloads)
    passes: list[list[tuple[float, dict | None]]] = []
    server = serve_workload.Server(speed)
    ok = True
    try:
        hits_before, misses_before = server.cache_counts()
        for timed in (True, True, False):
            records = []
            for hot_id, payload in payloads:
                request = dict(payload, server_timing=True) if timed \
                    else payload
                factor = speed.factor()
                started = clock()
                status, body = server.post(request)
                elapsed = (clock() - started) * factor
                document = json.loads(body) if status == 200 else {}
                timing = document.pop("server_timing", None)
                if timing is not None:
                    timing = {name: value * factor
                              for name, value in timing.items()
                              if isinstance(value, float)}
                ok &= (
                    status == 200
                    and document == execute_request("analyze", payload)
                    and check.agrees(reference, hot_id, document["result"])
                )
                records.append((elapsed, timing))
            passes.append(records)
        hits_after, misses_after = server.cache_counts()
    finally:
        server.stop()
    hits = hits_after - hits_before
    misses = misses_after - misses_before
    ok &= misses == len(payloads) and hits == 2 * len(payloads)
    cold, warm, bare = passes

    def ms(values) -> dict:
        return metric(1000 * median(values), "ms")

    return {
        "serve.cache_hit_ratio": metric(hits / (hits + misses), "ratio"),
        "serve.cache_lookup_ms": ms(t["total_s"] for _, t in warm),
        "serve.queue_wait_ms": ms(t["queue_wait_s"] for _, t in cold),
        "serve.execute_ms": ms(t["analyze_s"] for _, t in cold),
        "serve.serialize_ms": ms(t["serialize_s"] for _, t in cold),
        "http.overhead_ms": ms(e - t["total_s"] for e, t in cold + warm),
        "hit_p50_ms": ms(e for e, _ in bare),
        # With the timing splice: a miss cannot be repeated bare.
        "miss_p50_ms": ms(e for e, _ in cold),
    }, ok
