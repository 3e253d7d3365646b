"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import check, families, gen, large_programs  # noqa: E402
from perfbench.common import round_metrics  # noqa: E402


def _inputs(seed: int) -> str:
    """Every input the workloads would draw first for ``seed``, as one
    text."""
    cli = gen.cli_universe()
    large = gen.large_universe() | gen.OVER_LIMIT
    drawn = {
        "cli": [cli[pid] for pid in next(gen.cli_passes(seed))],
        "families": [
            gen.family_source(*gen.FAMILY_ROWS[index][:2], knob)
            for index, knob in itertools.chain.from_iterable(
                itertools.islice(gen.families_rounds(seed), 3)
            )
        ],
        "large-programs": [
            large[pid]
            for pid in itertools.chain.from_iterable(
                itertools.islice(gen.large_rounds(seed), 3)
            )
        ],
    }
    hot, tail = gen.serve_streams(seed)
    drawn["serve"] = [next(hot) for _ in range(100)] + [
        gen.tail_request(*next(tail)) for _ in range(100)
    ]
    return json.dumps(drawn, sort_keys=True)


class TestSeededInputs:
    def test_same_seed_gives_identical_inputs(self):
        assert _inputs(7) == _inputs(7)

    def test_another_seed_gives_other_inputs(self):
        first, second = json.loads(_inputs(7)), json.loads(_inputs(8))
        for workload in first:
            assert first[workload] != second[workload], workload


class TestChecker:
    def test_genuine_family_answer_agrees(self):
        reference = check.load_reference()
        prep = families.Prepared.row(gen.FAMILY_ROWS[0], gen.FAMILY_KNOBS[0])
        assert check.agrees(reference, prep.id, prep.run().to_dict())

    def test_corrupted_family_answer_is_flagged(self):
        reference = check.load_reference()
        prep = families.Prepared.row(gen.FAMILY_ROWS[0], gen.FAMILY_KNOBS[0])
        answer = prep.run().to_dict()
        answer["stats"]["visits"] += 1
        assert not check.agrees(reference, prep.id, answer)

    def test_corrupted_document_is_flagged(self):
        reference = check.load_reference()
        program_id, source = sorted(gen.large_universe().items())[0]
        document = large_programs.answer(source)
        assert check.agrees(reference, program_id, document)
        assert not check.agrees(reference, program_id, document + " ")

    def test_unknown_input_never_agrees(self):
        assert not check.agrees({}, "no/such/input", "anything")

    def test_unsound_answer_is_flagged(self):
        ackermann = families.Prepared.row(("ackermann", 0, "direct", False), 0)
        result = ackermann.run()
        assert check.sound(result, ackermann.term, ackermann.domain)
        lattice = result.lattice
        wrong = dataclasses.replace(
            result,
            answer=dataclasses.replace(
                result.answer, value=lattice.of_const(1000)
            ),
        )
        assert not check.sound(wrong, ackermann.term, ackermann.domain)


class TestRoundMetrics:
    def test_short_rounds_are_pooled(self):
        metrics = round_metrics([[0.01] * 7 for _ in range(6)])
        assert metrics["ops_per_s"]["value"] == pytest.approx(100.0)
        assert metrics["latency_p90_ms"]["value"] == pytest.approx(10.0)

    def test_a_slow_stretch_does_not_move_the_medians(self):
        rounds = [[0.01] * 25] * 3 + [[0.1] * 25]
        metrics = round_metrics(rounds)
        assert metrics["ops_per_s"]["value"] == pytest.approx(100.0)
        assert metrics["latency_p50_ms"]["value"] == pytest.approx(10.0)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", _declared()["workloads"])
def test_prints_exactly_the_declared_metrics(workload, trace):
    """Every workload prints every metric of its mode (end-to-end with
    ``--trace 0``, per-layer with ``--trace 1``), in its unit, and no
    other."""
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    printed = {name: value["unit"]
               for name, value in result["metrics"].items()}
    assert printed == _declared()[trace]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "families", "--seed", "1", "--seconds", "1",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
