"""large-programs: in-process runs from source text to a JSON answer on
20-80-let programs that are not in A-normal form.

The front end and serialization do most of the work here (`parse`,
`normalize`, `cps_transform`, and above all `cps_pretty`, which
re-renders every subterm at each nesting level), and the direct
analysis is linear.  No other workload measures these layers: corpus
programs spend under a millisecond in them.  Every round also attempts the over-limit
inputs, which fail until the front end bounds its recursion; they are
counted as attempted and failed but kept out of the latency and
throughput samples.
"""

from __future__ import annotations

import json

from perfbench import check, gen
from perfbench.common import (
    HostSpeed,
    clock,
    median,
    metric,
    round_metrics,
    self_peak_rss_mb,
)


#: The op's layers, in order.
LAYERS = (
    "lang.parse_ms",
    "anf.normalize_ms",
    "cps.transform_ms",
    "analysis.direct_ms",
    "serialize.pretty_ms",
    "serialize.json_ms",
)


def answer(source: str, spans: dict | None = None, factor: float = 1.0) -> str:
    """The timed op: source text to the JSON document a front end
    would hand on (the A-normal form, its CPS transform, and the
    direct analysis of it).  With ``spans``, records each layer's
    duration there, multiplied by ``factor``."""
    from repro.analysis import analyze_direct
    from repro.anf import normalize
    from repro.cps import cps_pretty, cps_transform
    from repro.domains import ConstPropDomain, Lattice
    from repro.lang.parser import parse
    from repro.lang.pretty import pretty_flat
    from repro.lang.syntax import free_variables, term_size

    marks = [clock()]
    term = parse(source)
    marks.append(clock())
    anf = normalize(term)
    marks.append(clock())
    cps = cps_transform(anf)
    marks.append(clock())
    domain = ConstPropDomain()
    top = Lattice(domain).of_num(domain.top)
    initial = {name: top for name in sorted(free_variables(anf))}
    result = analyze_direct(anf, domain, initial=initial)
    marks.append(clock())
    anf_text = pretty_flat(anf)
    cps_text = cps_pretty(cps)
    marks.append(clock())
    document = json.dumps(
        {"anf": anf_text, "cps": cps_text, "direct": result.to_dict()},
        sort_keys=True,
        ensure_ascii=False,
    )
    marks.append(clock())
    if spans is not None:
        for name, start, end in zip(LAYERS, marks, marks[1:]):
            spans.setdefault(name, []).append((end - start) * factor)
        spans.setdefault("lang.nodes_per_op", []).append(term_size(term))
    return document


def _time_plan_compilers(source: str, spans: dict, factor: float) -> None:
    """Time the compiled-plan compilers on the op's program.  They are
    off the default path, so this is not part of the op."""
    try:
        from repro.machine.absplan import compile_anf_plan, compile_cps_plan
    except ImportError:  # the plan engine may be removed
        return
    from repro.anf import normalize
    from repro.cps import cps_transform
    from repro.lang.parser import parse

    anf = normalize(parse(source))
    cps = cps_transform(anf)
    started = clock()
    compile_anf_plan(anf)
    middle = clock()
    compile_cps_plan(cps)
    spans.setdefault("machine.compile_anf_ms", []).append(
        (middle - started) * factor
    )
    spans.setdefault("machine.compile_cps_ms", []).append(
        (clock() - middle) * factor
    )


def setup(seed: int) -> dict[str, str]:
    """Import the program and generate the universe."""
    import repro.api  # noqa: F401

    return gen.large_universe()


def trust(universe: dict[str, str], reference: dict) -> dict[str, bool]:
    """Check each closed program once against its concrete run."""
    from repro.analysis import analyze_direct
    from repro.anf import normalize
    from repro.domains import ConstPropDomain
    from repro.lang.parser import parse

    trusted = {}
    for program_id, source in universe.items():
        ok = check.agrees(reference, program_id, answer(source))
        term = normalize(parse(source))
        if ok and check.is_closed(term):
            domain = ConstPropDomain()
            ok = check.sound(analyze_direct(term, domain), term, domain)
        trusted[program_id] = ok
    return trusted


def reference_entries() -> dict[str, str]:
    return {
        program_id: check.digest(answer(source))
        for program_id, source in gen.large_universe().items()
    }


def run(seed: int, seconds: float, trace: bool) -> tuple:
    universe = setup(seed)
    reference = check.load_reference()
    trusted = trust(universe, reference)
    rounds = gen.large_rounds(seed)
    speed = HostSpeed()
    attempted = failed = over_limit_failed = 0
    measured = 0.0
    rounds_done: list[list[float]] = []
    spans: dict[str, list] = {}
    while measured < seconds:
        latencies: list[float] = []
        rounds_done.append(latencies)
        for program_id in next(rounds):
            attempted += 1
            if program_id in gen.OVER_LIMIT:
                try:
                    answer(gen.OVER_LIMIT[program_id])
                except Exception:
                    failed += 1
                    over_limit_failed += 1
                continue
            factor = speed.factor()
            started = clock()
            document = answer(universe[program_id])
            elapsed = (clock() - started) * factor
            measured += elapsed
            if not (
                trusted[program_id]
                and check.agrees(reference, program_id, document)
            ):
                failed += 1
                continue
            latencies.append(elapsed)
            if trace:
                factor = speed.factor()
                started = clock()
                answer(universe[program_id], spans, factor)
                elapsed = (clock() - started) * factor
                spans.setdefault("total", []).append(elapsed)
                measured += elapsed
                _time_plan_compilers(universe[program_id], spans, factor)
    correct = failed == over_limit_failed and all(trusted.values())
    if not trace:
        metrics = {
            "peak_rss_mb": metric(self_peak_rss_mb(), "MB"),
            **round_metrics(rounds_done),
        }
        return correct, attempted, failed, metrics
    total = spans.pop("total")
    nodes = spans.pop("lang.nodes_per_op")
    metrics = {
        name: metric(1000 * median(values), "ms")
        for name, values in sorted(spans.items())
    }
    metrics["lang.nodes_per_op"] = metric(median(nodes), "count")
    layer_sum = [
        sum(spans[name][i] for name in LAYERS) for i in range(len(total))
    ]
    metrics["unaccounted_ms"] = metric(
        1000 * median(t - s for t, s in zip(total, layer_sum)), "ms"
    )
    metrics["trace.overhead_ms"] = metric(
        1000 * (
            median(total) - median(op for ops in rounds_done for op in ops)
        ),
        "ms",
    )
    return correct, attempted, failed, metrics
