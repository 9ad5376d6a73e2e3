"""Outside-in layer ledger: spans recorded around public entry points.

The benchmark does not instrument the program. It replaces each layer's
public functions, for the duration of one traced pass, with wrappers
that delegate unchanged and record a span: name, start, end, parent span,
thread, and the indices of the events the call covers. Spans stay in
memory; :func:`dump` writes them out when the pass ends.

A span's *self time* is its duration minus the part of it that child
spans cover. Summing self time per layer gives a ledger whose rows add
up to the traced time of each thread.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from typing import Any, NamedTuple

__all__ = [
    "Recorder",
    "Span",
    "dump",
    "install",
    "layer_self_times",
    "self_times",
]

class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    #: Indices of the events the call covers; ``None`` inherits the
    #: parent's (mapping solvers and measures see no events).
    events: tuple[int, ...] | None
    #: Work count given by the layer's wrapper (pairs, lookups).
    count: int = 0
    #: The call's return value, kept only where the ledger reads counts
    #: from it after the pass (pipeline batches, WAL bytes).
    result: Any = None


class Recorder:
    """In-memory span sink shared by every wrapper of one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._raw: list[tuple] = []
        self._local = threading.local()
        # next() on a count is atomic under the interpreter lock.
        self._ids = itertools.count()

    @property
    def spans(self) -> list[Span]:
        return [Span._make(raw) for raw in self._raw]

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        events: Callable[..., tuple[int, ...]] | None = None,
        count: Callable[..., int] | None = None,
        keep_result: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` behind a span; ``events``/``count`` see its arguments."""
        clock = self.clock
        raw = self._raw
        local = self._local
        ids = self._ids
        thread = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            covered = events(*args, **kwargs) if events is not None else None
            work = count(*args, **kwargs) if count is not None else 0
            result = None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                raw.append((span_id, name, start, end, parent, thread(), covered, work,
                            result if keep_result else None))

        return wrapper

    def record(self, name: str, start: float, end: float) -> None:
        """Add a root span for work the benchmark timed itself (set-up)."""
        span = (next(self._ids), name, start, end, None, threading.get_ident(), None, 0, None)
        self._raw.append(span)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its
    children's intervals, clipped to the span."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = (span.end - span.start) - covered
    return out


def layer_self_times(
    spans: Iterable[Span], window: tuple[float, float] | None = None
) -> dict[str, float]:
    """Self time summed per layer name, optionally only for spans that
    start inside ``window``."""
    spans = list(spans)
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if window is not None and not window[0] <= span.start <= window[1]:
            continue
        totals[span.name] += selfs[span.id]
    return dict(totals)


def dump(spans: Iterable[Span], path: str) -> None:
    """Write spans as gzipped JSON lines (start/end in seconds of the
    pass clock); a traced ``theme_churn`` pass has ~500k spans."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        for span in spans:
            out.write(
                json.dumps(
                    {
                        "id": span.id,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "thread": span.thread,
                        "events": list(span.events) if span.events is not None else None,
                        "count": span.count,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


# -- wrappers ---------------------------------------------------------------


def _patch(owner: Any, attr: str, wrapper: Callable[..., Any], undo: list) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    undo.append((owner, attr, original))
    setattr(owner, attr, wrapper)


def _method(
    recorder: Recorder,
    owner: type,
    attr: str,
    name: str,
    undo: list,
    events: Callable[..., tuple[int, ...]] | None = None,
    count: Callable[..., int] | None = None,
    keep_result: bool = False,
) -> None:
    wrapper = recorder.wrap(name, owner.__dict__[attr], events, count, keep_result)
    _patch(owner, attr, wrapper, undo)


def _function_everywhere(
    recorder: Recorder, module: Any, attr: str, name: str, undo: list
) -> None:
    """Wrap a module-level function in its module and in every loaded
    ``repro`` module that imported it by name."""
    original = getattr(module, attr)
    wrapper = recorder.wrap(name, original)
    for loaded in list(sys.modules.values()):
        loaded_name = getattr(loaded, "__name__", "")
        if not loaded_name.startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                _patch(loaded, key, wrapper, undo)


def install(recorder: Recorder, event_index: dict[int, int]) -> Callable[[], None]:
    """Wrap every layer's public entry points; returns the undo function.

    ``event_index`` maps ``id(event)`` to the event's index in the pass,
    so spans can name the events they cover.
    """
    from repro.broker import ShardedBroker, ThematicBroker
    from repro.broker import ingress
    from repro.broker.durability import BrokerDurability, WriteAheadLog
    from repro.broker.reliability import ReliableDelivery
    from repro.core import mapping
    from repro.core.engine import ThematicEventEngine
    from repro.core.pipeline import StagedBatchPipeline
    from repro.semantics import kernel, measures

    def one(_self: Any, event: Any, *_a: Any, **_k: Any) -> tuple[int, ...]:
        return (event_index.get(id(event), -1),)

    def many(_self: Any, events: Any, *_a: Any, **_k: Any) -> tuple[int, ...]:
        return tuple(event_index.get(id(event), -1) for event in events)

    def pipeline_events(_self: Any, _subs: Any, events: Any, *_a: Any, **_k: Any) -> tuple:
        return many(_self, events)

    def delivered(_self: Any, _handle: Any, delivery: Any, *_a: Any, **_k: Any) -> tuple[int, ...]:
        return one(_self, delivery.event)

    def engine_pairs_one(engine: Any, *_a: Any, **_k: Any) -> int:
        return engine.subscription_count()

    def engine_pairs_many(engine: Any, events: Any, *_a: Any, **_k: Any) -> int:
        return engine.subscription_count() * len(events)

    def lookups(_self: Any, batch: Any, *_a: Any, **_k: Any) -> int:
        return len(batch) if hasattr(batch, "__len__") else 0

    undo: list = []
    for broker in (ThematicBroker, ShardedBroker):
        _method(recorder, broker, "publish", "broker.publish", undo, events=one)
        _method(recorder, broker, "subscribe", "broker.subscribe", undo)
        _method(recorder, broker, "unsubscribe", "broker.subscribe", undo)
    _function_everywhere(recorder, ingress, "collect_batch", "broker.ingress", undo)
    _method(
        recorder, ReliableDelivery, "dispatch", "broker.reliability.dispatch", undo,
        events=delivered,
    )
    _method(recorder, WriteAheadLog, "append", "broker.durability.append", undo, keep_result=True)
    _method(recorder, WriteAheadLog, "sync", "broker.durability.sync", undo)
    _method(recorder, BrokerDurability, "snapshot_now", "broker.durability.snapshot", undo)
    for attr in list(vars(BrokerDurability)):
        if attr.startswith("log_"):
            _method(recorder, BrokerDurability, attr, "broker.durability.journal", undo)
    _method(
        recorder, ThematicEventEngine, "process", "core.engine", undo,
        events=one, count=engine_pairs_one,
    )
    _method(
        recorder, ThematicEventEngine, "snapshot_batch", "core.engine", undo,
        events=many, count=engine_pairs_many,
    )
    _method(
        recorder, StagedBatchPipeline, "run", "core.pipeline", undo,
        events=pipeline_events, keep_result=True,
    )
    for attr in mapping.__all__:
        if inspect.isfunction(getattr(mapping, attr)):
            _function_everywhere(recorder, mapping, attr, "core.mapping", undo)
    for module in (measures, kernel):
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or getattr(cls, "_is_protocol", False):
                continue
            if "score" in cls.__dict__:
                _method(recorder, cls, "score", "semantics", undo, count=lambda *_a, **_k: 1)
            if "score_batch" in cls.__dict__:
                _method(recorder, cls, "score_batch", "semantics", undo, count=lookups)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
