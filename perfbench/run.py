"""The repository's benchmark of record: publish -> delivery on themed streams.

Usage (from the repository root)::

    python3 perfbench/run.py --workload subscriber_churn --seed 1 --seconds 60 --trace 0

One producer thread drives the system through its public API. Inputs
come from ``--seed`` (``inputs.py``); every delivery of every pass is
checked against the scalar oracle (``oracle.py``), computed before the
passes start. Each pass (``system.py``) runs in a fresh process forked
from a zygote (``zygote.py``) that holds only the system.

``--trace 0`` runs the four passes (inline, batched, open, matcher) on
several input draws and reports the end-to-end metrics at the nominal
speed of the CPUs the passes run on, which probe processes time while
they run (``measure.untraced``, ``reference.py``).
``--trace 1`` runs the closed-loop passes once untraced and every pass
once traced, and reports the per-layer ledger (``measure.traced``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (machine fingerprint, per-draw values, generator
lateness, oracle problems). Spans of traced passes and the details are
also written under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A seed kept out of every run made while the benchmark was tuned; a
#: later change that claims a gain checks that it also holds here.
HELD_OUT_SEED = 7919
#: Upper bound on one worker process, far above the slowest pass seen.
PASS_TIMEOUT_S = 150


def fingerprint() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    # Part of the command line BENCHMARK.json describes; the draw plan
    # (measure.DRAWS) sets how long a run takes.
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no system under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.inputs import WORKLOADS
    from perfbench.measure import Bench
    from perfbench.reference import Probe, bench_cpus
    from perfbench.zygote import Zygote

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    out_dir = ROOT / ".perfbench"
    # Forked before any input or oracle work, so its workers start cold.
    # Every process forked from here on inherits the CPUs the probes time.
    os.sched_setaffinity(0, bench_cpus())
    zygote = Zygote(PASS_TIMEOUT_S)
    try:
        probe = Probe()
        try:
            return _measure(args, Bench(zygote, probe, out_dir / "tmp"), out_dir)
        finally:
            probe.close()
    finally:
        zygote.close()


def _measure(args: argparse.Namespace, bench, out_dir: Path) -> int:
    from perfbench.measure import END_TO_END, PER_LAYER, traced, untraced

    started = time.perf_counter()
    # A fresh checkout has no output directory yet.
    out_dir.mkdir(parents=True, exist_ok=True)
    details: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "fingerprint": fingerprint(),
    }
    if args.trace:
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        values = traced(bench, args.workload, args.seed, trace_dir)
        units = PER_LAYER
    else:
        values, measured = untraced(bench, args.workload, args.seed)
        details.update(measured)
        units = END_TO_END
    check = bench.check
    details["problems"] = dict(check.problems)
    details["wall_s"] = time.perf_counter() - started
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as out:
        json.dump({"details": details, "metrics": values}, out, indent=1)
    print(json.dumps(details, separators=(",", ":")))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
