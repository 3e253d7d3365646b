"""Seeded inputs for every workload, as source text.

Every function here is pure: the same arguments give byte-identical
programs, and nothing here imports the analyzer, so a change to the
program cannot change what the benchmark feeds it.

Each workload draws its inputs from a fixed *universe* of programs
(``*_universe``) whose answers are pinned in ``reference.json``; the
run seed decides which programs are drawn, in which order, and with
which abstract-value-neutral edit knobs.  The serve tail is the one
place where every request must be new: there the seed draws a fresh
knob per request, and the knob sits where it cannot change any
abstract value, so one reference answer covers every knob.
"""

from __future__ import annotations

import random
from typing import Iterator

#: The light (non-heavy) corpus programs, copied verbatim so that the
#: benchmark's inputs never drift with the corpus module.
LIGHT_CORPUS: dict[str, str] = {
    "theorem-5.1": "(let (a1 (f 1)) (let (a2 (f 2)) a2))",
    "shivers-p33": "(let (id (lambda (x) x)) (let (a1 (id 1)) (let (a2 (id 2)) a2)))",
    "theorem-5.2-conditional": (
        "(let (a1 (if0 x 0 1)) (let (a2 (if0 a1 (+ a1 3) (+ a1 2))) a2))"
    ),
    "theorem-5.2-two-closures": (
        "(let (a1 (f 3)) (let (a2 (if0 a1 5 (if0 (sub1 a1) 5 6))) a2))"
    ),
    "constants": "(let (a (+ 1 2)) (let (b (* a a)) (let (c (- b 4)) c)))",
    "higher-order": (
        "(let (twice (lambda (f) (lambda (n) (f (f n)))))"
        " (let (inc2 (twice add1)) (inc2 0)))"
    ),
    "branchy": "(let (t (if0 0 10 20)) (let (u (if0 t 1 2)) (+ t u)))",
    "factorial": (
        "(let (fact (lambda (self) (lambda (n)"
        " (if0 n 1 (* n ((self self) (- n 1)))))))"
        " ((fact fact) 6))"
    ),
    "even-odd": (
        "(let (mk (lambda (self) (lambda (flag) (lambda (n)"
        " (if0 n (if0 flag 1 0) (((self self) (- 1 flag)) (- n 1)))))))"
        " (((mk mk) 0) 10))"
    ),
    "church": (
        "(let (three (lambda (f) (lambda (z) (f (f (f z))))))"
        " ((three add1) 0))"
    ),
    "church-pairs": (
        "(let (pair (lambda (x) (lambda (y) (lambda (f) ((f x) y)))))"
        " (let (fst (lambda (p) (p (lambda (a) (lambda (b) a)))))"
        " (let (snd (lambda (q) (q (lambda (c) (lambda (d) d)))))"
        " (let (pr ((pair 3) 4)) (+ (fst pr) (snd pr))))))"
    ),
    "mini-evaluator": (
        "(let (econst (lambda (n) (lambda (c) (lambda (a) (c n)))))"
        " (let (eadd (lambda (l) (lambda (r) (lambda (c2) (lambda (a2) ((a2 l) r))))))"
        " (let (ev (lambda (self) (lambda (e) ((e (lambda (n2) n2))"
        " (lambda (l2) (lambda (r2) (+ ((self self) l2) ((self self) r2))))))))"
        " (let (e1 ((eadd ((eadd (econst 1)) (econst 2)))"
        " ((eadd (econst 3)) (econst 4))))"
        " ((ev ev) e1)))))"
    ),
}

#: The analyzers every comparison and the serve hot set draw from.
ANALYZERS = ("direct", "semantic-cps", "syntactic-cps", "pushdown")


# ----------------------------------------------------------------------
# Random let spines: closures, unknown conditionals, nested right-hand
# sides (so the text is not in A-normal form)
# ----------------------------------------------------------------------


def _int_expr(rng: random.Random, ints: list[str], depth: int) -> str:
    """An integer expression over the variables ``ints``."""
    if depth <= 0 or rng.random() < 0.3:
        if ints and rng.random() < 0.75:
            return rng.choice(ints)
        return str(rng.randint(0, 9))
    roll = rng.random()
    left = _int_expr(rng, ints, depth - 1)
    if roll < 0.25:
        return f"(add1 {left})"
    if roll < 0.4:
        return f"(sub1 {left})"
    if roll < 0.5:
        return f"(* {left} 2)"
    right = _int_expr(rng, ints, depth - 1)
    op = "+" if roll < 0.8 else "-"
    return f"({op} {left} {right})"


def spine_program(
    rng: random.Random,
    lets: int,
    unknowns: tuple[str, ...] = (),
    max_ifs: int | None = None,
) -> str:
    """A let spine of ``lets`` bindings.

    Bindings are integers or int-to-int closures that capture earlier
    integers; closures are only ever applied to integers, so a closed
    spine always runs to a number.  Conditionals test the free
    ``unknowns`` (⊤ to the analyzers) or, in a closed spine, computed
    integers.  ``max_ifs`` bounds the conditionals, which is what keeps
    the CPS analyzers' duplication small.
    """
    ints: list[str] = []
    funs: list[str] = []
    ifs = 0
    tests = list(unknowns)

    def may_branch() -> bool:
        return (max_ifs is None or ifs < max_ifs) and bool(tests or ints)

    lines = []
    for i in range(lets):
        name = f"v{i}"
        roll = rng.random()
        scope = ints + list(unknowns)
        if i == 0 or not scope:
            rhs = _int_expr(rng, scope, 2)
            ints.append(name)
        elif roll < 0.2:
            param = f"p{i}"
            body = _int_expr(rng, scope + [param], 2)
            if may_branch() and rng.random() < 0.5:
                ifs += 1
                test = rng.choice(tests or [param])
                other = _int_expr(rng, scope + [param], 1)
                body = f"(if0 {test} {body} {other})"
            rhs = f"(lambda ({param}) {body})"
            funs.append(name)
        elif roll < 0.4 and funs:
            rhs = f"({rng.choice(funs)} {_int_expr(rng, scope, 1)})"
            ints.append(name)
        elif roll < 0.55 and may_branch():
            ifs += 1
            test = rng.choice(tests or ints)
            rhs = (
                f"(if0 {test} {_int_expr(rng, scope, 1)}"
                f" {_int_expr(rng, scope, 1)})"
            )
            ints.append(name)
        elif roll < 0.75:
            inner = f"t{i}"
            rhs = (
                f"(let ({inner} {_int_expr(rng, scope, 1)})"
                f" {_int_expr(rng, scope + [inner], 1)})"
            )
            ints.append(name)
        else:
            rhs = _int_expr(rng, scope, 2)
            ints.append(name)
        lines.append(f"(let ({name} {rhs})")
    return "\n".join(lines) + f"\n{ints[-1]}" + ")" * lets


# ----------------------------------------------------------------------
# Section 6.2 families, each with an edit knob
# ----------------------------------------------------------------------


def conditional_chain(k: int, knob: int = 1) -> str:
    """``k`` conditionals on independent unknown tests ``x1..xk``."""
    lines = [f"(let (a1 (if0 x1 {knob} {knob + 1}))"]
    for i in range(2, k + 1):
        lines.append(f"(let (a{i} (if0 x{i} (+ a{i-1} 1) (+ a{i-1} 2)))")
    return "\n".join(lines) + f"\na{k}" + ")" * k


def top_conditional_chain(k: int, knob: int = 1) -> str:
    """``k`` unknown conditionals whose arms are the same two ⊤
    values; ``knob`` is the addend of the unknown ``y``."""
    lines = [f"(let (p (+ y {knob}))", "(let (q (+ y 2))"]
    for i in range(1, k + 1):
        lines.append(f"(let (a{i} (if0 x{i} p q))")
    return "\n".join(lines) + f"\na{k}" + ")" * (k + 2)


def call_site_chain(k: int, knob: int | str = 0) -> str:
    """``k`` chained calls of ``f``, the first on ``knob``; the initial
    store binds ``f`` to two closures (see `families.initial_for`)."""
    lines = [f"(let (a1 (f {knob}))"]
    for i in range(2, k + 1):
        lines.append(f"(let (a{i} (f a{i-1}))")
    return "\n".join(lines) + f"\na{k}" + ")" * k


def call_site_chain_closed_over(k: int, knob: int = 0) -> str:
    """`call_site_chain` with ``f`` chosen in the program by an unknown
    test ``z``, so that a text-only request can carry it; the knob is
    added to ``z``, so the first argument is ⊤ whatever its value."""
    return (
        "(let (f (if0 z (lambda (d0) 0) (lambda (d1) 1)))\n"
        f"(let (a0 (+ z {knob}))\n" + call_site_chain(k, "a0") + "))"
    )


_ACKERMANN = (
    "(let (ack (lambda (self) (lambda (m) (lambda (n)"
    " (if0 m (add1 n) (if0 n (((self self) (- m 1)) 1)"
    " (((self self) (- m 1)) (((self self) m) (- n 1)))))))))\n"
)


def ackermann() -> str:
    """Ackermann A(2, 3): closed, so checked against a concrete run."""
    return _ACKERMANN + "(((ack ack) 2) 3))"


def ackermann_open(knob: int = 1) -> str:
    """Ackermann A(2, y + knob) on an unknown ``y``."""
    return _ACKERMANN + f"(let (u (+ y {knob})) (((ack ack) 2) u)))"


# ----------------------------------------------------------------------
# cli: light corpus programs plus small generated spines
# ----------------------------------------------------------------------

CLI_GENERATED = 12


def cli_universe() -> dict[str, str]:
    """Every program the cli workload can draw, by id."""
    programs = {f"corpus/{name}": src for name, src in LIGHT_CORPUS.items()}
    for index in range(CLI_GENERATED):
        rng = random.Random(f"cli-{index}")
        unknowns = ("u0", "u1") if index % 2 == 0 else ()
        programs[f"spine/{index}"] = spine_program(
            rng, lets=rng.randint(6, 14), unknowns=unknowns, max_ifs=2
        )
    return programs


def cli_passes(seed: int) -> Iterator[list[str]]:
    """Endless shuffled passes over the cli universe: every seed runs
    the same mix, in another order."""
    universe = sorted(cli_universe())
    rng = random.Random(f"cli-draw-{seed}")
    while True:
        batch = list(universe)
        rng.shuffle(batch)
        yield batch


# ----------------------------------------------------------------------
# families: Section 6.2 family × size × analyzer rows
# ----------------------------------------------------------------------

#: ``(family, size, analyzer, eval_cache)``.  Exponential CPS rows,
#: linear direct and pushdown rows, one eval-cache row.  Syntactic CPS
#: stops at call-site-chain-3 (K=4 makes 69,985 visits) and skips
#: closed Ackermann, which it blows up on.
FAMILY_ROWS: tuple[tuple[str, int, str, bool], ...] = (
    ("conditional-chain", 8, "semantic-cps", False),
    ("conditional-chain", 10, "semantic-cps", False),
    ("conditional-chain", 6, "syntactic-cps", False),
    ("conditional-chain", 8, "syntactic-cps", False),
    ("conditional-chain", 7, "semantic-cps", False),
    ("top-conditional-chain", 8, "semantic-cps", False),
    ("top-conditional-chain", 10, "semantic-cps", False),
    ("top-conditional-chain", 7, "syntactic-cps", False),
    ("top-conditional-chain", 8, "syntactic-cps", False),
    ("call-site-chain", 6, "semantic-cps", False),
    ("call-site-chain", 8, "semantic-cps", False),
    ("call-site-chain", 2, "syntactic-cps", False),
    ("call-site-chain", 3, "syntactic-cps", False),
    ("ackermann", 0, "semantic-cps", False),
    ("conditional-chain", 40, "direct", False),
    ("conditional-chain", 40, "pushdown", False),
    ("top-conditional-chain", 12, "direct", False),
    ("top-conditional-chain", 12, "pushdown", False),
    ("call-site-chain", 8, "direct", False),
    ("call-site-chain", 8, "pushdown", False),
    ("ackermann", 0, "direct", False),
    ("ackermann", 0, "pushdown", False),
    ("top-conditional-chain", 12, "semantic-cps", True),
)

FAMILY_KNOBS = (3, 5, 7, 9)

_FAMILY_SOURCES = {
    "conditional-chain": conditional_chain,
    "top-conditional-chain": top_conditional_chain,
    "call-site-chain": call_site_chain,
}


def family_row_id(row: tuple[str, int, str, bool], knob: int) -> str:
    family, size, analyzer, cache = row
    name = family if family == "ackermann" else f"{family}-{size}"
    suffix = "+cache" if cache else ""
    knob_part = "" if family == "ackermann" else f"/knob{knob}"
    return f"{name}/{analyzer}{suffix}{knob_part}"


def family_source(family: str, size: int, knob: int) -> str:
    if family == "ackermann":
        return ackermann()
    return _FAMILY_SOURCES[family](size, knob)


def families_rounds(seed: int) -> Iterator[list[tuple[int, int]]]:
    """Endless rounds of ``(row index, knob)`` pairs: every row once
    per round, in a seeded order with seeded knobs."""
    rng = random.Random(f"families-draw-{seed}")
    while True:
        order = list(range(len(FAMILY_ROWS)))
        rng.shuffle(order)
        yield [(index, rng.choice(FAMILY_KNOBS)) for index in order]


# ----------------------------------------------------------------------
# large-programs: 20-80 nested lets, not in A-normal form
# ----------------------------------------------------------------------

LARGE_SIZES = (20, 30, 40, 50, 60, 70, 80)
LARGE_VARIANTS = 12

#: Inputs past the front end's recursion limits: 200 nested ``add1``
#: and a 200-let straight-line chain.  Attempted once per round and
#: expected to fail until the front end bounds its recursion.
OVER_LIMIT = {
    "over-limit/nested-add1-200": "(add1 " * 200 + "0" + ")" * 200,
    "over-limit/let-chain-200": "".join(
        f"(let (c{i} (+ {i} 1)) " for i in range(200)
    )
    + "c199"
    + ")" * 200,
}


def large_universe() -> dict[str, str]:
    """Every well-formed large program, by id.  Even variants have two
    unknown inputs; odd variants are closed."""
    programs = {}
    for size in LARGE_SIZES:
        for variant in range(LARGE_VARIANTS):
            rng = random.Random(f"large-{size}-{variant}")
            unknowns = ("u0", "u1") if variant % 2 == 0 else ()
            programs[f"large/{size}/{variant}"] = spine_program(
                rng, lets=size, unknowns=unknowns
            )
    return programs


def large_rounds(seed: int) -> Iterator[list[str]]:
    """Endless rounds of program ids: one program of every size, in a
    seeded order, then the over-limit inputs.  Each size runs through
    its variants in seeded cycles, so every run draws them evenly."""
    rng = random.Random(f"large-draw-{seed}")
    cycles: dict[int, list[int]] = {size: [] for size in LARGE_SIZES}
    while True:
        sizes = list(LARGE_SIZES)
        rng.shuffle(sizes)
        round_ids = []
        for size in sizes:
            if not cycles[size]:
                cycles[size] = list(range(LARGE_VARIANTS))
                rng.shuffle(cycles[size])
            round_ids.append(f"large/{size}/{cycles[size].pop()}")
        yield round_ids + sorted(OVER_LIMIT)


# ----------------------------------------------------------------------
# serve: a hot set that hits the result cache, a never-repeated tail
# ----------------------------------------------------------------------

def hot_universe() -> dict[str, dict]:
    """The hot set: every light corpus program under every analyzer,
    by name.  At 48 entries it stays far inside the server's 256-entry
    result cache."""
    return {
        f"hot/{name}/{analyzer}": {"corpus": name, "analyzer": analyzer}
        for name in LIGHT_CORPUS
        for analyzer in ANALYZERS
    }


def _tail_spine(index: int, knob: int) -> str:
    rng = random.Random(f"tail-spine-{index}")
    spine = spine_program(
        rng, lets=rng.randint(10, 18), unknowns=("u0", "u1"), max_ifs=3
    )
    return f"(let (knob (+ u0 {knob}))\n{spine})"


#: Tail templates: ``id -> (analyzer, source builder taking the knob)``.
#: Every knob position is abstract-value neutral: it is added to an
#: unknown (so the sum is ⊤) or is an argument the callees ignore.
TAIL_TEMPLATES: dict[str, tuple[str, object]] = {}
for _analyzer in ANALYZERS:
    for _k in (4, 5, 6):
        TAIL_TEMPLATES[f"tail/conditional-chain-{_k}/{_analyzer}"] = (
            _analyzer, lambda knob, k=_k: conditional_chain(k, knob)
        )
    for _k in (6, 8):
        TAIL_TEMPLATES[f"tail/top-conditional-chain-{_k}/{_analyzer}"] = (
            _analyzer, lambda knob, k=_k: top_conditional_chain(k, knob)
        )
    TAIL_TEMPLATES[f"tail/call-site-chain-3/{_analyzer}"] = (
        _analyzer, lambda knob: call_site_chain_closed_over(3, knob)
    )
    for _index in range(4):
        TAIL_TEMPLATES[f"tail/spine-{_index}/{_analyzer}"] = (
            _analyzer, lambda knob, i=_index: _tail_spine(i, knob)
        )
for _analyzer in ("direct", "pushdown", "semantic-cps"):
    TAIL_TEMPLATES[f"tail/ackermann-open/{_analyzer}"] = (
        _analyzer, ackermann_open
    )


def tail_request(template: str, knob: int) -> dict:
    analyzer, build = TAIL_TEMPLATES[template]
    return {"program": build(knob), "analyzer": analyzer}


def serve_streams(seed: int) -> tuple[Iterator[str], Iterator[tuple]]:
    """The two endless request streams: hot request ids, running
    through the whole hot set in seeded orders again and again; and
    tail ``(template, knob)`` pairs, running through every template in
    seeded orders, each with a knob drawn once.  Each stream has its own
    generator, so one yields the same sequence however far the other
    is read."""
    hot_rng = random.Random(f"serve-hot-{seed}")
    tail_rng = random.Random(f"serve-tail-{seed}")

    def hot() -> Iterator[str]:
        while True:
            batch = sorted(hot_universe())
            hot_rng.shuffle(batch)
            yield from batch

    def tail() -> Iterator[tuple]:
        seen: set[int] = set()
        while True:
            batch = sorted(TAIL_TEMPLATES)
            tail_rng.shuffle(batch)
            for template in batch:
                knob = tail_rng.randrange(10**6, 10**9)
                while knob in seen:
                    knob = tail_rng.randrange(10**6, 10**9)
                seen.add(knob)
                yield template, knob

    return hot(), tail()
