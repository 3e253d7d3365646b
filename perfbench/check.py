"""Answer checks: digests pinned in ``reference.json`` and soundness
against a concrete run (the paper's Section 4.3 criterion)."""

from __future__ import annotations

import hashlib
import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: Step budget of the concrete runs; every closed input finishes far
#: inside it.
FUEL = 2_000_000


def digest(payload) -> str:
    """A short stable digest of a JSON-ready value or of text."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def agrees(reference: dict, input_id: str, answer) -> bool:
    """Does ``answer`` carry the digest pinned for ``input_id``?"""
    expected = reference.get(input_id)
    return expected is not None and digest(answer) == expected


def load_reference() -> dict[str, str]:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _describes_direct(domain, abstract, concrete) -> bool:
    from repro.analysis import A_DEC, A_INC, AbsClo
    from repro.interp.values import Closure, PrimVal

    if isinstance(concrete, int):
        return domain.abstracts(abstract.num, concrete)
    if isinstance(concrete, PrimVal):
        return (A_INC if concrete.tag == "inc" else A_DEC) in abstract.clos
    if isinstance(concrete, Closure):
        return AbsClo(concrete.param, concrete.body) in abstract.clos
    return False


def _describes_cps(domain, abstract, concrete) -> bool:
    from repro.analysis import A_DECK, A_INCK, AbsCpsClo
    from repro.interp.values import CoKont, CpsClosure, PrimVal, StopKont

    if isinstance(concrete, int):
        return domain.abstracts(abstract.num, concrete)
    if isinstance(concrete, PrimVal):
        return (A_INCK if concrete.tag == "inck" else A_DECK) in abstract.clos
    if isinstance(concrete, CpsClosure):
        return (
            AbsCpsClo(concrete.param, concrete.kparam, concrete.body)
            in abstract.clos
        )
    # Continuations are tracked separately by the analysis.
    return isinstance(concrete, (CoKont, StopKont))


def sound(result, term, domain) -> bool:
    """Does ``result`` describe the concrete run of the closed program
    ``term``: its final value and every binding the run made?  Results
    of the syntactic-CPS analyzer are compared with a run of the CPS
    program, the others with a direct run."""
    from repro.cps import cps_transform
    from repro.interp import run_direct, run_syntactic_cps

    if result.analyzer == "syntactic-cps":
        answer = run_syntactic_cps(cps_transform(term), fuel=FUEL)
        describes = _describes_cps
    else:
        answer = run_direct(term, fuel=FUEL)
        describes = _describes_direct
    if not describes(domain, result.value, answer.value):
        return False
    return all(
        describes(domain, result.value_of(loc.name), value)
        for loc, value in answer.store.items()
    )


def is_closed(term) -> bool:
    from repro.lang.syntax import free_variables

    return not free_variables(term)
