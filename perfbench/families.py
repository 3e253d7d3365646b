"""families: in-process analyzer calls on the Section 6.2 families.

Analysis and the abstract store do nearly all the work; the front end
runs during set-up.  This is where store, engine or eval-cache changes
show, and where CLI-startup or HTTP changes should not.
"""

from __future__ import annotations

from perfbench import check, gen
from perfbench.common import (
    HostSpeed,
    clock,
    median,
    metric,
    round_metrics,
    self_peak_rss_mb,
)

STATS = ("visits", "joins", "widenings", "loop_cuts", "max_store_size")


def initial_for(family: str, lattice):
    """The family's free-variable assumptions, as in the paper's
    experiments: unknown tests and addends are ⊤, and ``f`` in the
    call-site chain is bound to two closures returning 0 and 1."""
    from repro.analysis import AbsClo
    from repro.lang.ast import Num

    if family == "call-site-chain":
        return {"f": lattice.of_clos(AbsClo("p0", Num(0)),
                                     AbsClo("p1", Num(1)))}
    top = lattice.of_num(lattice.domain.top)
    return {f"x{i}": top for i in range(1, 41)} | {"y": top}


class Prepared:
    """One analyzer call on one program, parsed and transformed during
    set-up.  ``assumptions`` maps a lattice to the free variables'
    initial values."""

    def __init__(self, program_id: str, source: str, analyzer: str,
                 cache: bool, assumptions) -> None:
        from repro.analysis.delta import delta_store
        from repro.anf import normalize
        from repro.cps import cps_transform
        from repro.domains import ConstPropDomain, Lattice
        from repro.domains.store import AbsStore
        from repro.lang.parser import parse
        from repro.lang.syntax import free_variables

        self.id = program_id
        self.analyzer = analyzer
        self.cache = cache
        self.domain = ConstPropDomain()
        lattice = Lattice(self.domain)
        self.term = normalize(parse(source))
        free = free_variables(self.term)
        self.initial = {
            name: value
            for name, value in assumptions(lattice).items()
            if name in free
        }
        self.cps_term = cps_transform(self.term)
        self.cps_initial = dict(
            delta_store(AbsStore(lattice, self.initial)).items()
        )

    @classmethod
    def row(cls, row, knob: int) -> "Prepared":
        """An instance of a `gen.FAMILY_ROWS` row."""
        family, size, analyzer, cache = row
        return cls(
            gen.family_row_id(row, knob),
            gen.family_source(family, size, knob),
            analyzer,
            cache,
            lambda lattice: initial_for(family, lattice),
        )

    def run(self, metrics=None):
        """The timed op: one public ``analyze_*`` call with default
        options (plus the eval cache on the cache row)."""
        from repro.analysis import (
            analyze_direct,
            analyze_pushdown,
            analyze_semantic_cps,
            analyze_syntactic_cps,
        )

        cache = True if self.cache else None
        if self.analyzer == "syntactic-cps":
            return analyze_syntactic_cps(
                self.cps_term, self.domain, initial=self.cps_initial,
                cache=cache, metrics=metrics,
            )
        analyze = {
            "direct": analyze_direct,
            "semantic-cps": analyze_semantic_cps,
            "pushdown": analyze_pushdown,
        }[self.analyzer]
        return analyze(self.term, self.domain, initial=self.initial,
                       cache=cache, metrics=metrics)


def _instances() -> dict:
    return {
        (index, knob): Prepared.row(row, knob)
        for index, row in enumerate(gen.FAMILY_ROWS)
        for knob in gen.FAMILY_KNOBS
    }


def setup(seed: int) -> dict:
    """Import the analyzers and prepare every row instance a run can
    draw."""
    return _instances()


def trust(prepared: dict, reference: dict) -> dict[str, bool]:
    """Check each closed instance once against its concrete run; every
    op on it must then reproduce the checked digest."""
    trusted = {}
    for prep in prepared.values():
        if prep.id not in trusted:
            result = prep.run()
            trusted[prep.id] = check.agrees(
                reference, prep.id, result.to_dict()
            ) and (
                not check.is_closed(prep.term)
                or check.sound(result, prep.term, prep.domain)
            )
    return trusted


def reference_entries() -> dict[str, str]:
    """Digests for ``reference.json``."""
    return {
        prep.id: check.digest(prep.run().to_dict())
        for prep in _instances().values()
    }


def run(seed: int, seconds: float, trace: bool) -> tuple:
    """Whole rounds until ``seconds`` of (scaled) analysis time are
    measured.  Traced runs pair every op with a traced repeat that
    passes a `repro.obs` metrics registry, for the per-layer ledger."""
    from repro.obs.metrics import Metrics

    prepared = setup(seed)
    reference = check.load_reference()
    trusted = trust(prepared, reference)
    rounds = gen.families_rounds(seed)
    speed = HostSpeed()
    attempted = failed = 0
    measured = 0.0
    rounds_done: list[list[float]] = []
    traced: list[tuple[float, float]] = []
    by_analyzer: dict[str, list[float]] = {}
    counts = dict.fromkeys(STATS, 0)
    cache_hits = cache_probes = 0
    while measured < seconds:
        latencies: list[float] = []
        rounds_done.append(latencies)
        for index, knob in next(rounds):
            prep = prepared[(index, knob)]
            attempted += 1
            factor = speed.factor()
            started = clock()
            result = prep.run()
            elapsed = (clock() - started) * factor
            measured += elapsed
            if not (
                trusted[prep.id]
                and check.agrees(reference, prep.id, result.to_dict())
            ):
                failed += 1
                continue
            latencies.append(elapsed)
            if not trace:
                continue
            factor = speed.factor()
            started = clock()
            registry = Metrics()
            span_start = clock()
            result = prep.run(metrics=registry)
            span = (clock() - span_start) * factor
            total = (clock() - started) * factor
            measured += total
            traced.append((total, span))
            by_analyzer.setdefault(prep.analyzer, []).append(span)
            for name in STATS:
                counts[name] += getattr(result.stats, name)
            if prep.cache:
                values = registry.snapshot()["counters"]
                prefix = f"perf.{prep.analyzer}."
                hits = values[prefix + "eval_cache_hits"]
                cache_hits += hits
                cache_probes += (
                    hits
                    + values[prefix + "eval_cache_misses"]
                    + values[prefix + "eval_cache_rejects"]
                )
    correct = failed == 0 and all(trusted.values())
    if not trace:
        metrics = {
            "peak_rss_mb": metric(self_peak_rss_mb(), "MB"),
            **round_metrics(rounds_done),
        }
        return correct, attempted, failed, metrics
    metrics = {
        f"analysis.{name}_ms": metric(1000 * median(spans), "ms")
        for name, spans in sorted(by_analyzer.items())
    }
    for name, value in counts.items():
        metrics[f"analysis.{name}"] = metric(value / len(traced), "count")
    metrics["perf.eval_cache_hit_ratio"] = metric(
        cache_hits / cache_probes, "ratio"
    )
    metrics["unaccounted_ms"] = metric(
        1000 * median(total - span for total, span in traced), "ms"
    )
    metrics["trace.overhead_ms"] = metric(
        1000 * (
            median(total for total, _ in traced)
            - median(op for ops in rounds_done for op in ops)
        ),
        "ms",
    )
    return correct, attempted, failed, metrics
