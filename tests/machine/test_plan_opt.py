"""Differential tests: a plan served from a shared `PlanCache` replays
a freshly compiled plan bit for bit.

A plan reaches a plan engine either straight from `compile_anf_plan` /
`compile_cps_plan` (``plan_cache=None``) or through a `PlanCache`,
which hands the same plan object to every later run of the same term:
across number domains, analyzers, eval-cache settings and loop modes.
That sharing is only sound if running a plan leaves no trace on it, so
a run on a cached plan that has already been executed must be
indistinguishable from a run on a fresh compile: same answer value,
same final abstract store, same visit count, same loop cuts, same
widenings (the full `AnalysisStats` dict).  These tests compare the
two sources over:

- the full corpus, for all four plan analyzers, over every number
  domain;
- the Section 6.2 parametric families (including an ``unroll``
  loop-mode case);
- 300 seeded random open terms (⊤ initial assumptions);
- the `repro.perf` caches stacked on top.

Work-budget agreement is part of the contract: when one run raises
`BudgetExceeded`, every run must raise it.  Plan ≡ tree is pinned
separately by ``tests/analysis/test_engine_differential.py``.
"""

import random

import pytest

from repro.analysis.common import BudgetExceeded
from repro.analysis.delta import delta_store
from repro.analysis.engine import (
    DirectPlanAnalyzer,
    PolyvariantPlanAnalyzer,
    SemanticCpsPlanAnalyzer,
    SyntacticCpsPlanAnalyzer,
)
from repro.anf import normalize
from repro.corpus.programs import (
    PROGRAMS,
    call_site_chain,
    conditional_chain,
    loop_feeding_conditional,
    top_conditional_chain,
)
from repro.cps import cps_transform
from repro.domains import (
    ConstPropDomain,
    IntervalDomain,
    Lattice,
    ParityDomain,
    SignDomain,
    UnitDomain,
)
from repro.domains.store import AbsStore
from repro.gen.random_terms import random_open_term
from repro.lang.syntax import free_variables
from repro.machine.absplan import PlanCache

BUDGET = 100_000

DOMAINS = {
    "constprop": ConstPropDomain,
    "unit": UnitDomain,
    "parity": ParityDomain,
    "sign": SignDomain,
    "interval": IntervalDomain,
}

#: One cache for the whole module, so a plan is reused across the
#: domain, analyzer and cache parametrizations, not just within a test.
SHARED = PlanCache(capacity=4096)


def _fingerprint(run):
    """Everything observable about one analysis run, or the budget
    outcome — every plan source must produce the same tuple."""
    try:
        result = run()
    except BudgetExceeded:
        return ("budget-exceeded",)
    return (
        "ok",
        result.value,
        dict(result.store.items()),
        result.stats.as_dict(),
    )


def _poly_fingerprint(run):
    try:
        result = run()
    except BudgetExceeded:
        return ("budget-exceeded",)
    return (
        "ok",
        result.value,
        dict(result._store.items()),
        result.analyzer.stats.as_dict(),
    )


def _assert_sources_agree(make, fingerprint=_fingerprint):
    """Run a fresh compile, then the plan the shared cache hands out
    (a certain hit: constructing an analyzer looks its plan up)."""
    fresh = fingerprint(lambda: make(None).run())
    make(SHARED)
    hits = SHARED.hits
    shared = fingerprint(lambda: make(SHARED).run())
    assert SHARED.hits > hits
    assert shared == fresh


def _assert_direct_agrees(term, domain, initial, cache=None):
    _assert_sources_agree(
        lambda plans: DirectPlanAnalyzer(
            term,
            domain,
            initial,
            max_visits=BUDGET,
            cache=cache,
            plan_cache=plans,
        )
    )


def _assert_semantic_agrees(
    term, domain, initial, loop_mode="top", unroll_bound=32, cache=None
):
    _assert_sources_agree(
        lambda plans: SemanticCpsPlanAnalyzer(
            term,
            domain,
            initial,
            loop_mode=loop_mode,
            unroll_bound=unroll_bound,
            max_visits=BUDGET,
            cache=cache,
            plan_cache=plans,
        )
    )


def _assert_syntactic_agrees(
    cterm, domain, cps_initial, loop_mode="top", unroll_bound=32, cache=None
):
    _assert_sources_agree(
        lambda plans: SyntacticCpsPlanAnalyzer(
            cterm,
            domain,
            cps_initial,
            loop_mode=loop_mode,
            unroll_bound=unroll_bound,
            max_visits=BUDGET,
            cache=cache,
            plan_cache=plans,
        )
    )


def _assert_polyvariant_agrees(term, domain, initial, k, cache=None):
    _assert_sources_agree(
        lambda plans: PolyvariantPlanAnalyzer(
            term,
            domain,
            k,
            initial,
            max_visits=BUDGET,
            cache=cache,
            plan_cache=plans,
        ),
        fingerprint=_poly_fingerprint,
    )


def _cps_side(term, lattice, initial):
    return cps_transform(term), dict(
        delta_store(AbsStore(lattice, initial)).items()
    )


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestCorpusAllDomains:
    """Full corpus x all four plan analyzers x every number domain."""

    def test_direct(self, name, domain_name):
        domain = DOMAINS[domain_name]()
        program = PROGRAMS[name]
        initial = program.initial_for(Lattice(domain))
        _assert_direct_agrees(program.term, domain, initial)

    def test_semantic_cps(self, name, domain_name):
        domain = DOMAINS[domain_name]()
        program = PROGRAMS[name]
        initial = program.initial_for(Lattice(domain))
        _assert_semantic_agrees(program.term, domain, initial)

    def test_syntactic_cps(self, name, domain_name):
        domain = DOMAINS[domain_name]()
        program = PROGRAMS[name]
        lattice = Lattice(domain)
        initial = program.initial_for(lattice)
        cterm, cps_initial = _cps_side(program.term, lattice, initial)
        _assert_syntactic_agrees(cterm, domain, cps_initial)

    def test_polyvariant(self, name, domain_name):
        domain = DOMAINS[domain_name]()
        program = PROGRAMS[name]
        initial = program.initial_for(Lattice(domain))
        _assert_polyvariant_agrees(program.term, domain, initial, k=1)


@pytest.mark.parametrize(
    "program",
    [
        conditional_chain(8),
        call_site_chain(6),
        top_conditional_chain(10),
        loop_feeding_conditional(3),
    ],
    ids=lambda p: p.name,
)
def test_families(program):
    domain = ConstPropDomain()
    lattice = Lattice(domain)
    initial = program.initial_for(lattice)
    _assert_direct_agrees(program.term, domain, initial)
    _assert_semantic_agrees(program.term, domain, initial)
    cterm, cps_initial = _cps_side(program.term, lattice, initial)
    _assert_syntactic_agrees(cterm, domain, cps_initial)


def test_loop_unroll_mode():
    """The `loop` handling must agree in `unroll` mode too (the bound
    changes the answer, identically for every plan source)."""
    program = loop_feeding_conditional(3)
    domain = ConstPropDomain()
    lattice = Lattice(domain)
    initial = program.initial_for(lattice)
    _assert_semantic_agrees(
        program.term, domain, initial, loop_mode="unroll", unroll_bound=8
    )
    cterm, cps_initial = _cps_side(program.term, lattice, initial)
    _assert_syntactic_agrees(
        cterm, domain, cps_initial, loop_mode="unroll", unroll_bound=8
    )


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_corpus_with_caches_stacked(name):
    """`repro.perf` caches on top of a shared plan must not change the
    (already cache-perturbed) statistics relative to a fresh plan with
    the same caches."""
    domain = ConstPropDomain()
    program = PROGRAMS[name]
    lattice = Lattice(domain)
    initial = program.initial_for(lattice)
    _assert_direct_agrees(program.term, domain, initial, cache=True)
    _assert_semantic_agrees(program.term, domain, initial, cache=True)
    cterm, cps_initial = _cps_side(program.term, lattice, initial)
    _assert_syntactic_agrees(cterm, domain, cps_initial, cache=True)
    _assert_polyvariant_agrees(
        program.term, domain, initial, k=1, cache=True
    )


@pytest.mark.parametrize("chunk", range(10))
def test_random_open_terms(chunk):
    """300 seeded random open programs (30 per chunk), all three
    monovariant analyzers, ⊤ assumptions for the free inputs."""
    domain = ConstPropDomain()
    lattice = Lattice(domain)
    for seed in range(chunk * 30, (chunk + 1) * 30):
        term = normalize(random_open_term(random.Random(seed), 4))
        initial = {
            name: lattice.of_num(domain.top)
            for name in free_variables(term)
        }
        cache = True if seed % 5 == 0 else None
        _assert_direct_agrees(term, domain, initial, cache=cache)
        _assert_semantic_agrees(term, domain, initial, cache=cache)
        cterm, cps_initial = _cps_side(term, lattice, initial)
        _assert_syntactic_agrees(cterm, domain, cps_initial, cache=cache)
