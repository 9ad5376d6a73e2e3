"""Seeded benchmark inputs: themed events, subscriptions and churn schedule.

Everything the system under test receives is built here, in the parent
process, from ``--seed`` alone; the pass processes get the finished
objects and never see the seed. The corpus is not an input: it is fixed,
and each pass builds it as part of its own set-up.

The seed drives four things: seed-event generation (48 seeds, expanded
to ~760 events), the fig9 theme combination (12 subscription tags, 4
event tags, via ``sample_combination``), the per-event theme draws of
``theme_churn`` and the order in which ``subscriber_churn`` registers
its pool of subscriptions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import random
import types
from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.events import Event
from repro.core.subscriptions import Subscription
from repro.datasets.seeds import generate_seed_events
from repro.evaluation.brokers import sample_combination
from repro.evaluation.expansion import expand_events
from repro.evaluation.subscriptions import generate_subscriptions
from repro.evaluation.workload import WorkloadConfig
from repro.knowledge import rewrite
from repro.knowledge.eurovoc import default_thesaurus

__all__ = [
    "ChurnStep",
    "Inputs",
    "OFFERED_RATE",
    "Registration",
    "WORKLOADS",
    "make_inputs",
    "registrations",
    "draw_seeds",
]

WORKLOADS = ("theme_churn", "subscriber_churn")

#: Open-loop offered rate (events/s) of the latency pass, per workload.
#: A constant, never derived from a capacity measured at run time; each
#: sits well below the slowest micro-batched capacity seen across seeds
#: on a 2-CPU Xeon box (theme churn 95-138 ev/s, subscriber churn
#: 280-430 ev/s). At 150 rather than 100 ev/s a collector pause delays
#: more than 1% of a subscriber_churn pass's deliveries, so the p99
#: falls inside a pause's tail rather than at its edge: per-draw p99
#: varied 15% (CV) instead of 18% over six seeds, and a pass takes 5 s
#: instead of 7.6 s.
OFFERED_RATE = {
    "theme_churn": 60.0,
    "subscriber_churn": 150.0,
}

EVENT_TAGS = 4
SUBSCRIPTION_TAGS = 12
#: Churn cadence of ``subscriber_churn``: events between flush
#: boundaries, and subscribers retired (and as many registered) at each.
#: Fixed, so every seed pays the same number of reconfigurations.
CHURN_EVERY = 95
CHURN_RETIRE = 3


@dataclass(frozen=True)
class ChurnStep:
    """Before publishing event ``at``: flush, retire the ``retire``
    oldest live subscribers (drain, then unsubscribe), then register
    the pool subscriptions ``add`` in order."""

    at: int
    retire: int
    add: tuple[int, ...]


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs; identical for identical seeds."""

    workload: str
    seed: int
    events: tuple[Event, ...]
    #: Themed subscriptions; registrations refer to them by index.
    pool: tuple[Subscription, ...]
    initial: tuple[int, ...]
    churn: tuple[ChurnStep, ...]
    rate: float
    durable: bool


@dataclass(frozen=True)
class Registration:
    """The ``number``-th subscribe call: pool slot and the half-open
    range of event indices published while it was live."""

    number: int
    slot: int
    start: int
    end: int


def _rng(seed: int, purpose: str) -> random.Random:
    # String seeds hash through SHA-512, so they are stable across
    # interpreter runs (unlike hash()-based seeding).
    return random.Random(f"perfbench/{seed}/{purpose}")


def draw_seeds(seed: int) -> Iterator[int]:
    """The seed of each input draw of a run: the run's seed first, then
    seeds derived from it, so every draw measures other inputs."""
    yield seed
    derive = _rng(seed, "draws")
    while True:
        yield derive.randrange(2**31)


@contextlib.contextmanager
def _memoized_term_table() -> Iterator[None]:
    """Memoize the thesaurus term table while events are expanded.

    The expansion rebuilds the same table for every term it looks up
    (~6 s per 48 seeds); the table is a pure function of the immutable
    thesaurus, so memoizing it in the generating process changes no
    generated event (a test checks this). Pass processes are forked
    before any generation and never see the memo.
    """
    original = getattr(rewrite, "_term_table", None)
    if original is None:
        yield
        return
    rewrite._term_table = functools.lru_cache(maxsize=None)(original)
    try:
        yield
    finally:
        rewrite._term_table = original


def make_inputs(workload: str, seed: int) -> Inputs:
    """Build the inputs of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (expected {WORKLOADS})")
    config = WorkloadConfig.small()
    thesaurus = default_thesaurus()
    seeds = generate_seed_events(dataclasses.replace(config.seeds, seed=seed))
    with _memoized_term_table():
        expanded = expand_events(seeds, thesaurus, config.expansion)
    base_events = [item.event for item in expanded]
    subscriptions = list(generate_subscriptions(seeds, config.subscriptions).approximate)
    # sample_combination reads only the workload's thesaurus.
    combination = sample_combination(
        types.SimpleNamespace(thesaurus=thesaurus),
        event_tags=EVENT_TAGS,
        subscription_tags=SUBSCRIPTION_TAGS,
        seed=_rng(seed, "combination").randrange(2**31),
    )
    if workload == "theme_churn":
        draws = _rng(seed, "themes")
        events = tuple(
            event.with_theme(draws.sample(combination.subscription_tags, EVENT_TAGS))
            for event in base_events
        )
    else:
        events = tuple(event.with_theme(combination.event_tags) for event in base_events)
    initial = tuple(range(len(subscriptions)))
    churn: tuple[ChurnStep, ...] = ()
    if workload == "subscriber_churn":
        extra = generate_subscriptions(
            seeds,
            dataclasses.replace(config.subscriptions, seed=config.subscriptions.seed + 1),
        ).approximate
        subscriptions.extend(extra)
        churn = _churn_schedule(_rng(seed, "churn"), len(events), len(initial), len(subscriptions))
    pool = tuple(sub.with_theme(combination.subscription_tags) for sub in subscriptions)
    return Inputs(
        workload=workload,
        seed=seed,
        events=events,
        pool=pool,
        initial=initial,
        churn=churn,
        rate=OFFERED_RATE[workload],
        durable=workload == "subscriber_churn",
    )


def _churn_schedule(
    rng: random.Random, events: int, live: int, pool: int
) -> tuple[ChurnStep, ...]:
    """Flush-boundary churn in a seeded order: retired slots rejoin the
    back of the free queue, so every pool subscription is registered
    before any repeats."""
    free = list(range(live, pool))
    rng.shuffle(free)
    live_slots = list(range(live))
    steps = []
    for at in range(CHURN_EVERY, events, CHURN_EVERY):
        retired, live_slots = live_slots[:CHURN_RETIRE], live_slots[CHURN_RETIRE:]
        add = tuple(free[:CHURN_RETIRE])
        free = free[CHURN_RETIRE:] + retired
        live_slots.extend(add)
        steps.append(ChurnStep(at=at, retire=CHURN_RETIRE, add=add))
    return tuple(steps)


def registrations(inputs: Inputs) -> list[Registration]:
    """Every subscribe call the schedule makes, with its live range."""
    live: list[list[int]] = []  # [number, slot, start], oldest first
    done: list[Registration] = []
    number = 0
    for slot in inputs.initial:
        live.append([number, slot, 0])
        number += 1
    for step in inputs.churn:
        for reg_number, slot, start in live[: step.retire]:
            done.append(Registration(reg_number, slot, start, step.at))
        live = live[step.retire :]
        for slot in step.add:
            live.append([number, slot, step.at])
            number += 1
    end = len(inputs.events)
    done.extend(Registration(n, slot, start, end) for n, slot, start in live)
    return sorted(done, key=lambda reg: reg.number)
