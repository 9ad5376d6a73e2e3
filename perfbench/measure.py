"""What one benchmark run measures: draws of passes, the ledger, the metrics.

Imported by ``run.py`` only once the system under test is importable.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from collections.abc import Callable
from pathlib import Path

from perfbench import oracle, reference, system
from perfbench.inputs import make_inputs, draw_seeds

__all__ = ["DRAWS", "END_TO_END", "PER_LAYER", "Bench", "figures", "traced", "untraced"]

PASSES = system.PASSES
CLOSED_PASSES = tuple(name for name in PASSES if name != "open")

END_TO_END = {
    "setup_s": "s",
    "rss_peak_mb": "MB",
    "inline.throughput_eps": "ev/s",
    "batched.throughput_eps": "ev/s",
    "matcher.throughput_eps": "ev/s",
    "batched.latency_p50_ms": "ms",
    "batched.latency_p99_ms": "ms",
}

_BROKER_LAYERS = {
    "knowledge.build_s": "s",
    "broker.publish_s": "s",
    "broker.subscribe_s": "s",
    "broker.reliability.dispatch_s": "s",
    "broker.reliability.deliveries": "count",
    "broker.reliability.retries": "count",
    "broker.reliability.dead_letters": "count",
    "broker.durability.journal_s": "s",
    "broker.durability.append_s": "s",
    "broker.durability.records": "count",
    "broker.durability.bytes": "bytes",
    "broker.durability.sync_s": "s",
    "broker.durability.syncs": "count",
    "broker.durability.snapshot_s": "s",
    "core.engine.self_s": "s",
    "core.engine.batches": "count",
    "core.engine.pairs": "count",
    "core.pipeline.self_s": "s",
    "core.pipeline.candidates": "count",
    "core.pipeline.candidate_ratio": "ratio",
    "core.pipeline.dedup_ratio": "ratio",
    "core.pipeline.results_per_delivery": "ratio",
    "core.mapping.self_s": "s",
    "core.mapping.calls": "count",
    "semantics.self_s": "s",
    "semantics.pairs_scored": "count",
    "semantics.cache_hit_ratio": "ratio",
    "semantics.space.projections": "count",
    "semantics.kernel.rows": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}
_MATCHER_LAYERS = {
    name: unit
    for name, unit in _BROKER_LAYERS.items()
    if not name.startswith("broker.")
    and name not in {"core.engine.self_s", "core.engine.batches", "core.engine.pairs",
                     "core.pipeline.results_per_delivery"}
}
#: Ledger rows of the batched pass read from its traced open-loop twin,
#: where ingress waiting and batch sizes reflect the offered rate rather
#: than a closed-loop backlog.
_OPEN_LAYERS = {
    "broker.ingress_s": "s",
    "broker.ingress_wait_ms_p50": "ms",
    "broker.batch_events_mean": "count",
    "generator.lateness_ms_p99": "ms",
}
PER_LAYER = {
    **{f"inline.{name}": unit for name, unit in _BROKER_LAYERS.items()},
    **{f"batched.{name}": unit for name, unit in _BROKER_LAYERS.items()},
    **{f"batched.{name}": unit for name, unit in _OPEN_LAYERS.items()},
    **{f"matcher.{name}": unit for name, unit in _MATCHER_LAYERS.items()},
}


#: Input draws per ``--trace 0`` run and pass: draw ``i`` (from its own
#: seed, the run's seed first) runs every pass whose count exceeds
#: ``i``. More draws average over inputs as well as over machine noise;
#: the latency tail, set by a few collector pauses per pass, and the
#: shortest passes (~2 s or less), which the machine's speed flips move
#: most, need them most. The matcher pass varies most with the inputs
#: of the closed passes (per-draw CV ~0.12 on ``theme_churn``); the
#: inline pass least (~0.05), so its spread is the machine's, which
#: the speed probe takes out. On 2 CPUs a ``theme_churn`` draw costs
#: ~6 s of oracle, 7/7/5.6 s inline/batched/matcher and 13 s open; a
#: ``subscriber_churn`` draw ~2.5 s of oracle, 3.5/2/1.4 s closed and
#: 5.1 s open. The plan keeps a run near 60 s.
DRAWS = {
    "theme_churn": {"inline": 1, "batched": 2, "open": 2, "matcher": 2},
    "subscriber_churn": {"inline": 2, "batched": 4, "open": 4, "matcher": 4},
}


class Bench:
    """One run's machinery: passes in fresh zygote workers, every
    observation checked against the oracle of its draw's inputs, and the
    probe that times the pass CPU."""

    def __init__(self, zygote, probe, scratch: Path) -> None:
        self.zygote = zygote
        self.probe = probe
        self.scratch = scratch
        self.check = oracle.Check()

    def prepare(self, workload: str, seed: int) -> tuple:
        """Inputs for ``seed`` and their oracle, scored by two workers on
        alternating events."""
        inputs = make_inputs(workload, seed)
        pairs = oracle.pairs_needed(inputs)
        halves = [[p for p in pairs if p[1] % 2 == part] for part in (0, 1)]
        scores: dict = {}
        for part in self.zygote.run([(oracle.score_pairs, (inputs, half)) for half in halves]):
            scores.update(part)
        return inputs, oracle.expected_deliveries(inputs, scores)

    def run_pass(self, prepared: tuple, name: str, trace_out: Path | None = None) -> dict:
        inputs, expected = prepared
        wal_dir = None
        if inputs.durable:
            self.scratch.mkdir(parents=True, exist_ok=True)
            wal_dir = tempfile.mkdtemp(prefix="wal-", dir=self.scratch)
        spec = {
            "pass": name,
            "inputs": inputs,
            "trace": trace_out is not None,
            "trace_out": str(trace_out) if trace_out else None,
            "wal_dir": wal_dir,
        }
        try:
            observation = self.zygote.run([(system.run_pass, spec)])[0]
        finally:
            if wal_dir is not None:
                shutil.rmtree(wal_dir, ignore_errors=True)
        self.check.add(oracle.check(observation, expected))
        return observation


def _throughput(observation: dict) -> float:
    return observation["events"] / observation["wall_s"]


def figures(draws: list[dict[str, dict]], slowdown: Callable[[dict], float]) -> dict[str, float]:
    """The end-to-end time figures of ``draws`` (pass name -> observation,
    one dict per draw), each pass's figures as they would read at the
    nominal speed: rates (``*_eps``) times the pass's ``slowdown``,
    durations divided by it. Throughput is the median over the draws that
    measured it and ``setup_s`` the median over every broker pass; each
    latency percentile is the mean over the open draws of the draw's
    percentile. Pooling the draws' deliveries instead lets the draw that
    ran in the CPUs' slow state set the tail: a collector pause leaves a
    backlog that takes longer to drain there, so the p99 grows faster
    than the slowdown (log-log slope 1.4 on ``theme_churn``)."""
    setup: list[float] = []
    rates: dict[str, list[float]] = {name: [] for name in CLOSED_PASSES}
    tails: dict[int, list[float]] = {50: [], 99: []}
    for one in draws:
        for name, observation in one.items():
            factor = slowdown(observation)
            if name != "matcher":
                setup.append(observation["setup_s"] / factor)
            if name in rates:
                rates[name].append(_throughput(observation) * factor)
            if name == "open":
                for q, values in tails.items():
                    values.append(system.percentile(observation["latency_ms"], q) / factor)
    return {
        "setup_s": statistics.median(setup),
        **{f"{name}.throughput_eps": statistics.median(v) for name, v in rates.items()},
        "batched.latency_p50_ms": statistics.mean(tails[50]),
        "batched.latency_p99_ms": statistics.mean(tails[99]),
    }


def untraced(bench: Bench, workload: str, seed: int) -> tuple[dict, dict]:
    """The draws of ``DRAWS[workload]``, every figure at the nominal
    speed of the pass CPU (``reference.py``)."""
    plan = DRAWS[workload]
    draws: list[dict[str, dict]] = []
    seeds = draw_seeds(seed)
    for i in range(max(plan.values())):
        prepared = bench.prepare(workload, next(seeds))
        draws.append({name: bench.run_pass(prepared, name) for name in PASSES if i < plan[name]})
    samples = bench.probe.samples()
    speeds = {id(o): reference.slowdown(samples, o["pass_window"]) for d in draws for o in d.values()}
    metrics = figures(draws, lambda o: speeds[id(o)])
    metrics["rss_peak_mb"] = max(o["rss_mb"] for d in draws for o in d.values())
    details = {
        "draws": [_draw_details(s, one, speeds) for s, one in zip(draw_seeds(seed), draws)],
        "unscaled": figures(draws, lambda o: 1.0),
        "slowdown": statistics.median(speeds.values()),
        "probe_samples": {cpu: len(timed) for cpu, timed in samples.items()},
    }
    return metrics, details


def _draw_details(seed: int, one: dict[str, dict], speeds: dict[int, float]) -> dict:
    """One draw's unscaled figures and each pass's slowdown."""
    draw: dict = {"seed": seed}
    for name, observation in one.items():
        draw[f"{name}.slowdown"] = speeds[id(observation)]
        if name in CLOSED_PASSES:
            draw[f"{name}.throughput_eps"] = _throughput(observation)
    if "open" in one:
        latency, lateness = one["open"]["latency_ms"], one["open"]["lateness_ms"]
        draw.update({
            "latency_p50_ms": system.percentile(latency, 50),
            "latency_p99_ms": system.percentile(latency, 99),
            "latency_samples": len(latency),
            "generator_lateness_ms_p50": system.percentile(lateness, 50),
            "generator_lateness_ms_p99": system.percentile(lateness, 99),
            "generator_lateness_ms_max": max(lateness),
        })
    return draw


def traced(bench: Bench, workload: str, seed: int, trace_dir: Path) -> dict:
    """One untraced and one traced run of each pass on the run's seed;
    returns the ledger."""
    prepared = bench.prepare(workload, seed)
    plain = {name: bench.run_pass(prepared, name) for name in CLOSED_PASSES}
    spans = {
        name: bench.run_pass(prepared, name, trace_dir / f"{workload}-seed{seed}-{name}.jsonl.gz")
        for name in PASSES
    }
    metrics: dict[str, float] = {}
    for name in CLOSED_PASSES:
        ledger = dict(spans[name]["ledger"])
        ledger["trace.overhead"] = _throughput(spans[name]) / _throughput(plain[name])
        if name == "batched":
            ledger.update({key: spans["open"]["ledger"][key] for key in _OPEN_LAYERS})
        for key, value in ledger.items():
            metrics[f"{name}.{key}"] = value
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise RuntimeError(f"ledger lacks {sorted(missing)}")
    return {name: metrics[name] for name in PER_LAYER}
