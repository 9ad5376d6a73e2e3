"""Steadiness record: run the benchmark on several seeds per workload.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 --sets 2 --out perfbench/STEADINESS.md

Each set runs ``run.py`` once per seed (seeds 1..runs) and workload,
untraced, with ``run_seconds`` from ``BENCHMARK.json``; the sets run one
after the other on the same seeds. Per set, workload and end-to-end
metric it reports the median, the quartiles and the spread: the
distance between the quartiles (``statistics.quantiles(values, n=4)``)
as a share of the median, next to the metric's bound, and the same for
the figures before scaling to the nominal speed. With two or more
sets it compares each later set's medians with the first set's. Last,
it fits how each unscaled figure follows the run's slowdown.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    return {"details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def _table(rows: list[tuple[str, list[float], object]]) -> list[str]:
    lines = ["| metric | median | q1 | q3 | spread | bound |", "|---|---|---|---|---|---|"]
    for name, values, bound in rows:
        median, q1, q3, share = spread(values)
        lines.append(f"| {name} | {median:.4g} | {q1:.4g} | {q3:.4g} | {share:.3f} | {bound} |")
    return lines


def report(runs: list[dict], bounds: dict[str, float]) -> list[str]:
    """Markdown lines for one set of runs of one workload."""
    failed = sum(r["result"]["failed"] for r in runs)
    lateness = [r["details"]["draws"][0]["generator_lateness_ms_p99"] for r in runs]
    walls = [r["details"]["wall_s"] for r in runs]
    slowdowns = [r["details"]["slowdown"] for r in runs]
    lines = [
        f"correct in {sum(r['result']['correct'] for r in runs)}/{len(runs)} runs, "
        f"{failed} failed operations; wall per run {min(walls):.0f}-{max(walls):.0f} s; "
        f"generator lateness p99 (first draw) {min(lateness):.1f}-{max(lateness):.1f} ms; "
        f"slowdown (median over the run's passes) {min(slowdowns):.3f}-{max(slowdowns):.3f}.",
        "",
    ]
    lines += _table([
        (name, [r["result"]["metrics"][name]["value"] for r in runs], bound)
        for name, bound in bounds.items()
    ])
    lines += ["", "Before scaling to the nominal speed:", ""]
    lines += _table([
        (name, [r["details"]["unscaled"][name] for r in runs], bound)
        for name, bound in bounds.items()
        if name in runs[0]["details"]["unscaled"]
    ])
    return lines


def compare(first: list[dict], later: list[dict], bounds: dict[str, float]) -> list[str]:
    """Each metric's later median against the first set's, as a share."""
    lines = ["| metric | first median | later median | change | bound |", "|---|---|---|---|---|"]
    for name, bound in bounds.items():
        a = statistics.median(r["result"]["metrics"][name]["value"] for r in first)
        b = statistics.median(r["result"]["metrics"][name]["value"] for r in later)
        lines.append(f"| {name} | {a:.4g} | {b:.4g} | {b / a - 1:+.3f} | {bound} |")
    return lines


def follow(runs: list[dict], bounds: dict[str, float]) -> dict[str, tuple[float, float]]:
    """How each unscaled figure moves with the run's slowdown: the
    log-log slope and the correlation over ``runs`` (-1 for a rate or +1
    for a time means the figure follows the reference fully)."""
    x = [math.log(r["details"]["slowdown"]) for r in runs]
    fits = {}
    for name in bounds:
        if name not in runs[0]["details"]["unscaled"]:
            continue
        y = [math.log(r["details"]["unscaled"][name]) for r in runs]
        slope, _ = statistics.linear_regression(x, y)
        fits[name] = (slope, statistics.correlation(x, y))
    return fits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    lines = [
        f"Sets: {args.sets}, one after the other; runs per set and workload: {args.runs} "
        f"(seeds {seeds[0]}..{seeds[-1]}); --seconds {bench['run_seconds']}; untraced.",
        "",
    ]
    raw: dict = {}
    for number in range(1, args.sets + 1):
        for workload in workloads:
            runs = [run_once(workload, seed, bench["run_seconds"]) for seed in seeds]
            raw.setdefault(workload, []).append(runs)
            section = [f"## Set {number}: {workload}", ""] + report(runs, bounds) + [""]
            print("\n".join(section), flush=True)
            lines += section
    for workload in workloads:
        for number, runs in enumerate(raw[workload][1:], start=2):
            section = [f"## Set {number} against set 1: {workload}", ""]
            section += compare(raw[workload][0], runs, bounds) + [""]
            print("\n".join(section), flush=True)
            lines += section
    lines += ["## How the unscaled figures follow the reference", "",
              "Log-log slope against the run's slowdown over every run of the workload, "
              "with the correlation in brackets.", "",
              "| metric | " + " | ".join(workloads) + " |", "|---|" + "---|" * len(workloads)]
    fits = {w: follow([r for runs in raw[w] for r in runs], bounds) for w in workloads}
    for name in fits[workloads[0]]:
        lines.append(f"| {name} | " + " | ".join(
            f"{fits[w][name][0]:+.2f} ({fits[w][name][1]:+.2f})" for w in workloads) + " |")
    if args.out:
        args.out.write_text("# Steadiness record\n\n" + "\n".join(lines))
        args.out.with_suffix(".json").write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
