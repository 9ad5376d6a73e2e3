"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import inputs as inputs_module
from perfbench import ledger, oracle, reference, system
from perfbench.inputs import WORKLOADS, make_inputs, registrations
from perfbench.measure import END_TO_END, PER_LAYER, figures
from perfbench.zygote import Zygote

ROOT = Path(__file__).resolve().parents[2]


# -- the oracle flags a single mutated delivery --------------------------------


def _observation(deliveries, dead=()):
    return {
        "registration_calls": 2,
        "registration_failures": 0,
        "dead_letters": list(dead),
        "deliveries": list(deliveries),
    }


EXPECTED = {0: {0: 0.75, 2: 0.9}, 1: {1: 0.6}}
GOOD = [(0, 0, 0, 0.75, 0.0), (1, 1, 1, 0.6, 0.0), (0, 2, 2, 0.9, 0.0)]


def test_oracle_accepts_exact_deliveries():
    result = oracle.check(_observation(GOOD), EXPECTED)
    assert (result.attempted, result.failed) == (2 + 3, 0)


@pytest.mark.parametrize(
    ("deliveries", "dead", "problem"),
    [
        (GOOD[:2], (), "missing"),
        (GOOD[:2] + [(0, 2, 2, 0.9 + 1e-6, 0.0)], (), "score"),
        (GOOD + [(1, 2, 2, 0.9, 0.0)], (), "extra"),
        (GOOD + [GOOD[0]], (), "extra"),
        (GOOD[:2] + [(0, 2, 1, 0.9, 0.0)], (), "wrong_event"),
        (GOOD[:2], ((0, 2),), "dead_lettered"),
    ],
)
def test_oracle_flags_one_mutated_delivery(deliveries, dead, problem):
    result = oracle.check(_observation(deliveries, dead), EXPECTED)
    assert result.failed == 1
    assert dict(result.problems) == {problem: 1}
    assert result.attempted >= 5


def test_oracle_tolerates_parity_noise():
    noisy = [(0, 0, 0, 0.75 + 1e-12, 0.0)] + GOOD[1:]
    assert oracle.check(_observation(noisy), EXPECTED).failed == 0


def test_registration_failures_count():
    observation = _observation(GOOD)
    observation["registration_failures"] = 1
    result = oracle.check(observation, EXPECTED)
    assert (result.failed, dict(result.problems)) == (1, {"registration": 1})


# -- self-time arithmetic ---------------------------------------------------------


def _span(span_id, name, start, end, parent=None, thread=1):
    return ledger.Span(span_id, name, start, end, parent, thread, None)


def test_self_time_subtracts_children():
    spans = [
        _span(0, "broker.publish", 0.0, 10.0),
        _span(1, "core.engine", 1.0, 9.0, parent=0),
        _span(2, "core.pipeline", 2.0, 8.0, parent=1),
        _span(3, "core.mapping", 3.0, 4.0, parent=2),
        _span(4, "core.mapping", 5.0, 7.0, parent=2),
        _span(5, "semantics", 5.5, 6.0, parent=4),
    ]
    selfs = ledger.self_times(spans)
    assert selfs == pytest.approx({0: 2.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.5, 5: 0.5})
    layers = ledger.layer_self_times(spans)
    assert layers["core.mapping"] == pytest.approx(2.5)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_self_time_clips_overlapping_children():
    spans = [
        _span(0, "a", 0.0, 10.0),
        _span(1, "b", -1.0, 3.0, parent=0),
        _span(2, "b", 2.0, 5.0, parent=0),
        _span(3, "b", 9.0, 12.0, parent=0),
    ]
    assert ledger.self_times(spans)[0] == pytest.approx(4.0)


def test_layer_window_keeps_spans_that_start_inside():
    spans = [_span(0, "a", 0.0, 1.0), _span(1, "a", 2.0, 3.0), _span(2, "b", 5.0, 6.0)]
    assert ledger.layer_self_times(spans, window=(1.5, 5.5)) == pytest.approx(
        {"a": 1.0, "b": 1.0}
    )


def test_recorder_nests_spans():
    ticks = iter(range(100))
    recorder = ledger.Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda: "x")
    outer = recorder.wrap("outer", lambda n: inner(), events=lambda n: (n,), count=lambda n: 7)
    assert outer(3) == "x"
    inner_span, outer_span = recorder.spans
    assert inner_span.parent == outer_span.id and outer_span.parent is None
    assert (outer_span.events, outer_span.count) == ((3,), 7)
    assert ledger.self_times(recorder.spans) == {inner_span.id: 1.0, outer_span.id: 2.0}


def test_recorder_keeps_the_span_of_a_failing_call():
    recorder = ledger.Recorder()

    def fail():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        recorder.wrap("failing", fail)()
    assert [span.name for span in recorder.spans] == ["failing"]


def test_install_wraps_and_restores_imported_solvers():
    from repro.core import mapping, pipeline

    original = mapping.top_k_mappings
    restore = ledger.install(ledger.Recorder(), {})
    try:
        assert pipeline.top_k_mappings is not original
        assert mapping.top_k_mappings is pipeline.top_k_mappings
    finally:
        restore()
    assert pipeline.top_k_mappings is original and mapping.top_k_mappings is original


# -- deterministic generators -----------------------------------------------------

_DIGEST = """
import hashlib, json, sys
sys.path[:0] = [{root!r}, {src!r}]
from perfbench.inputs import make_inputs
def canon(item):
    return [sorted(item.theme), [[p.attribute, p.value] for p in getattr(item, "payload", ())],
            [[p.attribute, p.value, p.approx_attribute, p.approx_value, p.operator]
             for p in getattr(item, "predicates", ())]]
out = {{}}
for workload in {workloads!r}:
    inputs = make_inputs(workload, {seed})
    out[workload] = hashlib.sha256(json.dumps([
        [canon(e) for e in inputs.events], [canon(s) for s in inputs.pool],
        list(inputs.initial), [[c.at, c.retire, list(c.add)] for c in inputs.churn],
        inputs.rate, inputs.durable,
    ]).encode()).hexdigest()
print(json.dumps(out))
"""


def _digests(seed: int, hash_seed: str) -> dict:
    code = _DIGEST.format(root=str(ROOT), src=str(ROOT / "src"), workloads=WORKLOADS, seed=seed)
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"}, timeout=300,
    )
    return json.loads(completed.stdout)


def test_generators_are_deterministic_per_seed():
    first = _digests(3, "1")
    assert first == _digests(3, "2")
    assert len(set(first.values())) == len(WORKLOADS)
    assert _digests(4, "1") != first


def test_memoized_generation_changes_no_event():
    from repro.datasets.seeds import generate_seed_events
    from repro.evaluation.expansion import expand_events
    from repro.evaluation.workload import WorkloadConfig
    from repro.knowledge.eurovoc import default_thesaurus

    config = WorkloadConfig.small()
    seeds = generate_seed_events(dataclasses.replace(config.seeds, seed=6))
    plain = expand_events(seeds, default_thesaurus(), config.expansion)
    with inputs_module._memoized_term_table():
        memoized = expand_events(seeds, default_thesaurus(), config.expansion)
    assert memoized == plain


def test_churn_schedule_keeps_the_live_set_size():
    inputs = make_inputs("subscriber_churn", 2)
    assert inputs.churn
    live_at = {}
    for reg in registrations(inputs):
        for j in range(reg.start, reg.end):
            live_at[j] = live_at.get(j, 0) + 1
    assert set(live_at.values()) == {len(inputs.initial)}
    assert len(live_at) == len(inputs.events)


# -- delivery determinism of the micro-batched path ---------------------------------


def _signature(observation):
    """Per registration, its deliveries in arrival order."""
    streams = {}
    for number, sequence, index, score, _ in observation["deliveries"]:
        streams.setdefault(number, []).append((sequence, index, score))
    return streams


def test_two_batched_subscriber_churn_runs_deliver_identically(tmp_path):
    inputs = make_inputs("subscriber_churn", 5)
    expected = oracle.expected_deliveries(inputs)
    runs = [
        system.run_pass(
            {"pass": "batched", "inputs": inputs, "trace": False, "wal_dir": str(tmp_path / str(i))}
        )
        for i in range(2)
    ]
    assert _signature(runs[0]) == _signature(runs[1])
    for run in runs:
        assert oracle.check(run, expected).failed == 0


# -- worker processes ----------------------------------------------------------------


def _pid(_argument):
    return os.getpid()


def test_zygote_runs_each_job_in_a_fresh_worker():
    zygote = Zygote(timeout=60)
    try:
        assert zygote.run([(abs, -3), (abs, 4)]) == [3, 4]
        pids = zygote.run([(_pid, None), (_pid, None)])
        assert len(set(pids)) == 2 and os.getpid() not in pids and zygote.pid not in pids
        with pytest.raises(RuntimeError, match="invalid literal"):
            zygote.run([(int, "not a number")])
        assert zygote.run([(abs, -1)]) == [1]
    finally:
        zygote.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(zygote.pid, os.WNOHANG)


def test_figures_read_each_pass_at_the_nominal_speed():
    def observation(name, wall_s, speed, latency_ms=()):
        return {"pass": name, "events": 100, "wall_s": wall_s, "setup_s": 0.2 * speed,
                "latency_ms": list(latency_ms), "speed": speed}

    draws = [
        {"inline": observation("inline", 1.0, 1.25), "batched": observation("batched", 0.5, 1.0),
         "open": observation("open", 4.0, 2.0, [10.0, 20.0]),
         "matcher": observation("matcher", 0.25, 1.0)},
        {"batched": observation("batched", 1.0, 2.0), "open": observation("open", 4.0, 1.0, [40.0])},
    ]
    assert figures(draws, lambda o: o["speed"]) == pytest.approx({
        "setup_s": 0.2,
        "inline.throughput_eps": 125.0,
        "batched.throughput_eps": 200.0,
        "matcher.throughput_eps": 400.0,
        "batched.latency_p50_ms": 22.5,
        "batched.latency_p99_ms": 25.0,
    })


def test_slowdown_is_the_geometric_mean_of_the_cpus_medians():
    nominal = reference.NOMINAL_S
    samples = {
        0: [(0.0, 9 * nominal), (1.0, nominal), (2.0, 2 * nominal), (3.0, 4 * nominal),
            (3.994, nominal)],
        1: [(1.5, 8 * nominal)],
    }
    assert reference.slowdown(samples, (0.5, 3.995)) == pytest.approx(4.0)
    with pytest.raises(RuntimeError):
        reference.slowdown(samples, (2.5, 3.995))


def test_probe_samples_every_cpu_until_closed():
    probe = reference.Probe()
    try:
        time.sleep(0.3)
        first = probe.samples()
        time.sleep(0.2)
        second = probe.samples()
    finally:
        probe.close()
    assert set(first) == set(second) == reference.bench_cpus()
    for cpu, timed in second.items():
        assert 0 < len(first[cpu]) < len(timed) and timed[:len(first[cpu])] == first[cpu]
        assert all(seconds > 0 for _, seconds in timed)
    for _, _, process in probe._probes:
        with pytest.raises(ChildProcessError):
            os.waitpid(process.pid, os.WNOHANG)


# -- the contract -----------------------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_system(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theme_churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""



def test_reports_into_a_fresh_checkout(tmp_path, monkeypatch, capsys):
    import perfbench.measure
    from perfbench import run

    monkeypatch.setattr(perfbench.measure, "untraced",
                        lambda bench, workload, seed: (dict.fromkeys(END_TO_END, 1.5), {}))
    bench = types.SimpleNamespace(check=oracle.Check(attempted=3))
    args = argparse.Namespace(workload="theme_churn", seed=1, seconds=1.0, trace=0)
    out_dir = tmp_path / ".perfbench"
    assert run._measure(args, bench, out_dir) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0
    assert result["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    assert (out_dir / "result-theme_churn-seed1-trace0.json").is_file()
