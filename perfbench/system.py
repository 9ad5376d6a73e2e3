"""One benchmark pass, run in a process of its own that runs only the system.

``run.py`` calls :func:`run_pass` in a fresh worker forked from its
zygote (see ``zygote.py``). The worker holds no oracle and no
generator, so its peak resident memory is the system's, and it starts
with no cache warmed by another pass: each pass builds its own corpus,
space, matcher and broker.

Passes:

* ``inline`` -- ``ThematicBroker``, synchronous ``publish``, closed loop;
* ``batched`` -- ``ShardedBroker(BrokerConfig(shards=1))``, micro-batched
  on its dispatcher thread, closed loop (back-to-back publishes);
* ``open`` -- the same broker driven open loop at the workload's fixed
  offered rate; latency runs from each event's scheduled send time, and
  the schedule stands still while the producer churns subscribers;
* ``matcher`` -- no broker: ``match_batch(..., scores_only=True)`` once
  per event over the live subscriptions (the paper's Figure 9 number).
"""

from __future__ import annotations

import resource
import time
import traceback
import types
from collections import deque

from repro.broker import ShardedBroker, ThematicBroker
from repro.broker.config import BrokerConfig
from repro.broker.durability import DurabilityPolicy
from repro.evaluation.harness import matcher_cache_hit_rate, thematic_matcher_factory
from repro.knowledge.corpus import build_corpus
from repro.knowledge.eurovoc import default_thesaurus
from repro.semantics.pvsm import ParametricVectorSpace

from perfbench import ledger
from perfbench.inputs import Inputs

__all__ = ["PASSES", "percentile", "run_pass"]

PASSES = ("inline", "batched", "open", "matcher")

clock = time.perf_counter


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class _Pass:
    """State of one pass: the broker, the live registrations, and every
    observation the parent checks against the oracle."""

    def __init__(self, kind: str, inputs: Inputs, wal_dir: str | None,
                 recorder: ledger.Recorder | None) -> None:
        self.kind = kind
        self.inputs = inputs
        self.recorder = recorder
        self.event_index = {id(event): j for j, event in enumerate(inputs.events)}
        self.deliveries: list[tuple[int, int, int, float, float]] = []
        self.registration_calls = 0
        self.registration_failures = 0
        self.live: deque = deque()  # (registration number, handle or subscription)
        self.next_number = 0

        self.started = started = clock()
        thesaurus = default_thesaurus()
        space = ParametricVectorSpace(build_corpus(thesaurus))
        built = clock()
        if recorder is not None:
            recorder.record("knowledge.build", started, built)
        self.space = space
        # The factory reads only the workload's space.
        self.matcher = thematic_matcher_factory(types.SimpleNamespace(space=space))()
        self.broker = None
        if kind != "matcher":
            durability = DurabilityPolicy(directory=wal_dir) if wal_dir else None
            if kind == "inline":
                self.broker = ThematicBroker(self.matcher, BrokerConfig(durability=durability))
            else:
                self.broker = ShardedBroker(
                    self.matcher, BrokerConfig(shards=1, durability=durability)
                )
        for slot in inputs.initial:
            self._register(slot)
        self.setup_s = clock() - started
        self.knowledge_s = built - started

    # -- registrations ------------------------------------------------------

    def _register(self, slot: int) -> None:
        number = self.next_number
        self.next_number += 1
        subscription = self.inputs.pool[slot]
        if self.broker is None:
            self.live.append((number, subscription))
            return
        sink = self.deliveries
        index = self.event_index

        def on_delivery(delivery: object, number: int = number) -> None:
            sink.append((number, delivery.sequence, index.get(id(delivery.event), -1),
                         delivery.score, clock()))

        self.registration_calls += 1
        try:
            handle = self.broker.subscribe(subscription, on_delivery)
        except Exception:  # a failed operation: counted, and the pass goes on
            traceback.print_exc()
            self.registration_failures += 1
            return
        self.live.append((number, handle))

    def churn(self, retire: int, add: tuple[int, ...]) -> None:
        broker = self.broker
        if broker is not None and hasattr(broker, "flush"):
            broker.flush()
        for _ in range(retire):
            _, handle = self.live.popleft()
            if broker is None:
                continue
            handle.drain()
            self.registration_calls += 1
            try:
                if not broker.unsubscribe(handle):
                    self.registration_failures += 1
            except Exception:  # a failed operation: counted, and the pass goes on
                traceback.print_exc()
                self.registration_failures += 1
        for slot in add:
            self._register(slot)
        if broker is not None and broker.durability is not None:
            # Checkpoint after each reconfiguration, so recovery replays
            # only the journal written since the last churn boundary.
            broker.durability.snapshot_now()

    # -- the pass -----------------------------------------------------------

    def run(self) -> dict:
        events = self.inputs.events
        steps = {step.at: step for step in self.inputs.churn}
        scheduled: list[float] = []
        lateness: list[float] = []
        grids: list[tuple[list[int], list]] = []
        broker = self.broker
        interval = 1.0 / self.inputs.rate
        # The open loop's schedule stands still while the producer
        # reconfigures: churn waits for a flush only so that deliveries
        # are deterministic, and its cost shows in throughput and in the
        # ledger, not as publish -> delivery latency.
        paused = 0.0
        start = clock()
        for j, event in enumerate(events):
            step = steps.get(j)
            if step is not None:
                churn_started = clock()
                self.churn(step.retire, step.add)
                paused += clock() - churn_started
            if self.kind == "matcher":
                numbers = [number for number, _ in self.live]
                batch = self.matcher.match_batch(
                    [sub for _, sub in self.live], [event], scores_only=True
                )
                grids.append((numbers, batch.scores))
                continue
            if self.kind == "open":
                due = start + j * interval + paused
                now = clock()
                if now < due:
                    time.sleep(due - now)
                    now = clock()
                scheduled.append(due)
                lateness.append(now - due)
            broker.publish(event)
        if broker is not None and hasattr(broker, "flush"):
            broker.flush()
        end = clock()

        observation: dict = {
            "pass": self.kind,
            "setup_s": self.setup_s,
            "knowledge_s": self.knowledge_s,
            "wall_s": end - start,
            "window": (start, end),
            # set-up and timed region, for the speed probe
            "pass_window": (self.started, end),
            "events": len(events),
            "registration_calls": self.registration_calls,
            "registration_failures": self.registration_failures,
        }
        threshold = self.matcher.threshold
        if self.kind == "matcher":
            self.deliveries = [
                (number, j, j, column[0], 0.0)
                for j, (numbers, scores) in enumerate(grids)
                for number, column in zip(numbers, scores, strict=True)
                if column[0] >= threshold
            ]
            observation["dead_letters"] = []
        else:
            observation["dead_letters"] = [
                (record.subscriber_id, record.delivery.sequence)
                for record in broker.dead_letters.peek()
            ]
            for _, handle in self.live:
                handle.drain()
        observation["deliveries"] = self.deliveries
        if self.kind == "open":
            observation["latency_ms"] = [
                (t - scheduled[seq]) * 1000.0
                for _, seq, _, _, t in self.deliveries
                if 0 <= seq < len(scheduled)
            ]
            observation["lateness_ms"] = [late * 1000.0 for late in lateness]
        return observation

    def close(self) -> None:
        if self.broker is not None:
            self.broker.close()


def _ledger_metrics(state: _Pass, observation: dict, every: list[ledger.Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans."""
    start, end = observation["window"]
    spans = [span for span in every if start <= span.start <= end]
    selfs = ledger.self_times(every)
    names = {span.id: span.name for span in every}
    layers = ledger.layer_self_times(every, (start, end))

    def self_s(layer: str) -> float:
        return layers.get(layer, 0.0)

    def outermost(layer: str) -> list[ledger.Span]:
        return [s for s in spans if s.name == layer and names.get(s.parent) != layer]

    wall = observation["wall_s"]
    metrics: dict[str, float] = {
        "knowledge.build_s": state.knowledge_s,
        "core.pipeline.self_s": self_s("core.pipeline"),
        "core.mapping.self_s": self_s("core.mapping"),
        "core.mapping.calls": float(len(outermost("core.mapping"))),
        "semantics.self_s": self_s("semantics"),
        "semantics.pairs_scored": float(sum(s.count for s in outermost("semantics"))),
        "semantics.cache_hit_ratio": matcher_cache_hit_rate(state.matcher) or 0.0,
        "semantics.space.projections": float(state.space.cache_stats()["projections"]),
        "semantics.kernel.rows": float(state.space.kernel().cache_stats()["rows"]),
        # The producer and the dispatcher rarely work at once, so the
        # self time of every thread's spans adds up to the wall they cover.
        "trace.coverage": sum(selfs[span.id] for span in spans) / wall,
    }
    pairs = candidates = term_pairs = unique = built = 0
    for span in outermost("core.pipeline"):
        stats = span.result.stats
        pairs += stats.pairs
        candidates += stats.candidates
        term_pairs += stats.term_pairs
        unique += stats.unique_term_pairs
        if span.result.results is not None:
            built += sum(r is not None for row in span.result.results for r in row)
    metrics["core.pipeline.candidates"] = float(candidates)
    metrics["core.pipeline.candidate_ratio"] = candidates / pairs if pairs else 0.0
    metrics["core.pipeline.dedup_ratio"] = 1.0 - unique / term_pairs if term_pairs else 0.0
    if state.broker is None:
        return metrics

    dispatches = outermost("broker.reliability.dispatch")
    counters = state.broker.metrics.registry.snapshot()["counters"]
    appends = [s for s in spans if s.name == "broker.durability.append"]
    engine = outermost("core.engine")
    metrics.update({
        "broker.publish_s": self_s("broker.publish"),
        "broker.subscribe_s": self_s("broker.subscribe"),
        "broker.reliability.dispatch_s": self_s("broker.reliability.dispatch"),
        "broker.reliability.deliveries": float(len(dispatches)),
        "broker.reliability.retries": float(counters.get("reliability.retries", 0)),
        "broker.reliability.dead_letters": float(counters.get("reliability.dead_letters", 0)),
        "broker.durability.journal_s": self_s("broker.durability.journal"),
        "broker.durability.append_s": self_s("broker.durability.append"),
        "broker.durability.records": float(len(appends)),
        "broker.durability.bytes": float(sum(s.result or 0 for s in appends)),
        "broker.durability.sync_s": self_s("broker.durability.sync"),
        "broker.durability.syncs": float(sum(s.name == "broker.durability.sync" for s in spans)),
        "broker.durability.snapshot_s": self_s("broker.durability.snapshot"),
        "core.engine.self_s": self_s("core.engine"),
        "core.engine.batches": float(len(engine)),
        "core.engine.pairs": float(sum(s.count for s in engine)),
        "core.pipeline.results_per_delivery": built / len(dispatches) if dispatches else 0.0,
    })
    if state.kind != "inline":
        metrics["broker.ingress_s"] = self_s("broker.ingress")
        published = {s.events[0]: s.start for s in spans if s.name == "broker.publish"}
        waits = [
            (span.start - published[j]) * 1000.0
            for span in engine
            for j in span.events or ()
            if j in published
        ]
        metrics["broker.ingress_wait_ms_p50"] = percentile(waits, 50)
        metrics["broker.batch_events_mean"] = (
            sum(len(s.events or ()) for s in engine) / len(engine) if engine else 0.0
        )
    if state.kind == "open":
        metrics["generator.lateness_ms_p99"] = percentile(observation["lateness_ms"], 99)
    return metrics


def run_pass(spec: dict) -> dict:
    """Run one pass from its spec; returns the observation."""
    inputs: Inputs = spec["inputs"]
    recorder = ledger.Recorder(clock) if spec["trace"] else None
    restore = None
    if recorder is not None:
        restore = ledger.install(
            recorder, {id(event): j for j, event in enumerate(inputs.events)}
        )
    try:
        state = _Pass(spec["pass"], inputs, spec.get("wal_dir"), recorder)
        try:
            observation = state.run()
        finally:
            state.close()
        if recorder is not None:
            spans = recorder.spans
            observation["ledger"] = _ledger_metrics(state, observation, spans)
            if spec.get("trace_out"):
                ledger.dump(spans, spec["trace_out"])
    finally:
        if restore is not None:
            restore()
    del observation["window"]
    observation["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return observation

