"""Delivery oracle and failure accounting.

The oracle is the per-pair ``ThematicMatcher.match`` path over the
scalar ``SparseVector`` measure, with the matcher parameters of the
default factory. It runs in the parent process, before any pass starts,
so it is never inside a timed region or a measured process.

Accounting: an expected delivery or a registration call is one
operation. A delivery fails if it is missing, extra, dead-lettered, on
the wrong event, or scored beyond ``PARITY_TOLERANCE`` from the oracle.
An extra delivery counts as an attempted operation too, so ``failed``
never exceeds ``attempted``.
"""

from __future__ import annotations

import types
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.core.matcher import ThematicMatcher
from repro.evaluation.harness import thematic_matcher_factory
from repro.knowledge.corpus import build_corpus
from repro.knowledge.eurovoc import default_thesaurus
from repro.semantics.cache import RelatednessCache
from repro.semantics.kernel import PARITY_TOLERANCE
from repro.semantics.measures import CachedMeasure, ThematicMeasure
from repro.semantics.pvsm import ParametricVectorSpace

from perfbench.inputs import Inputs, registrations

__all__ = [
    "Check",
    "check",
    "expected_deliveries",
    "pairs_needed",
    "score_pairs",
]

#: registration number -> {event index: oracle score} of every delivery
#: the registration must receive.
Expected = dict[int, dict[int, float]]


def pairs_needed(inputs: Inputs) -> list[tuple[int, int]]:
    """Every (pool slot, event index) pair some registration sees."""
    return sorted(
        {(reg.slot, j) for reg in registrations(inputs) for j in range(reg.start, reg.end)}
    )


def score_pairs(job: tuple[Inputs, list[tuple[int, int]]]) -> dict[tuple[int, int], float | None]:
    """Oracle score of each pair, or ``None`` when it must not deliver."""
    inputs, pairs = job
    space = ParametricVectorSpace(build_corpus(default_thesaurus()))
    default = thematic_matcher_factory(types.SimpleNamespace(space=space))()
    oracle = ThematicMatcher(
        CachedMeasure(ThematicMeasure(space), RelatednessCache()),
        k=default.k,
        threshold=default.threshold,
        min_relatedness=default.min_relatedness,
        calibration=default.calibration,
    )
    scores: dict[tuple[int, int], float | None] = {}
    for slot, j in pairs:
        result = oracle.match(inputs.pool[slot], inputs.events[j])
        matched = result is not None and result.is_match(oracle.threshold)
        scores[(slot, j)] = result.score if matched else None
    return scores


def expected_deliveries(
    inputs: Inputs, scores: dict[tuple[int, int], float | None] | None = None
) -> Expected:
    """Oracle deliveries for every registration over its live range.

    ``scores`` takes pair scores computed elsewhere (in parallel, by
    :func:`score_pairs`); without it they are computed here.
    """
    if scores is None:
        scores = score_pairs((inputs, pairs_needed(inputs)))
    expected: Expected = {}
    for reg in registrations(inputs):
        expected[reg.number] = {
            j: scores[(reg.slot, j)]
            for j in range(reg.start, reg.end)
            if scores[(reg.slot, j)] is not None
        }
    return expected


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    problems: Counter = field(default_factory=Counter)

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.update(other.problems)


def check(observation: dict, expected: Expected, tolerance: float = PARITY_TOLERANCE) -> Check:
    """Account one pass's observation against the oracle."""
    result = Check()
    result.attempted += observation["registration_calls"]
    result.failed += observation["registration_failures"]
    if observation["registration_failures"]:
        result.problems["registration"] += observation["registration_failures"]
    dead = set(map(tuple, observation["dead_letters"]))
    # registration number -> {sequence: score, or None for a delivery
    # that carried another event than the one published at its sequence}
    seen: dict[int, dict[int, float | None]] = defaultdict(dict)
    for number, sequence, index, score, _ in observation["deliveries"]:
        if sequence in seen[number] or sequence not in expected.get(number, {}):
            result.attempted += 1
            result.failed += 1
            result.problems["extra"] += 1
            continue
        seen[number][sequence] = score if index == sequence else None
    for number, wanted in expected.items():
        for sequence, score in wanted.items():
            result.attempted += 1
            got = seen[number].get(sequence, "missing")
            if (number, sequence) in dead:
                problem = "dead_lettered"
            elif got == "missing":
                problem = "missing"
            elif got is None:
                problem = "wrong_event"
            elif abs(got - score) > tolerance:
                problem = "score"
            else:
                continue
            result.failed += 1
            result.problems[problem] += 1
    return result

