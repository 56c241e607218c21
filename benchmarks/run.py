"""Benchmark of ``stochpack.harness.run_experiment``: one workload, one seed, one run.

    python3 benchmarks/run.py --workload bipartite-rounds --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  A run
times the workload's set-up in fresh interpreters, runs one untimed warm-up
round, then calls ``run_experiment`` (``workers=1``, one caller, closed loop)
on whole rounds of the workload's specs until ``--seconds`` have passed.
Every row is then checked apart from the program (``check.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count rows; ``metrics`` holds the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.

With ``--trace 1`` each round runs twice on the same inputs, once traced and
once not, in alternating order; the traced copy gives the spans (written to
``benchmarks/out/``), and the two copies give the tracing overhead.  Their
rows must agree.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time

from tracer import METRIC_UNITS, Tracer
from workloads import BENCH_DIR, WARMUP_ROUND, WORKLOADS, import_harness, load_specs, round_specs

OUT_DIR = os.path.join(BENCH_DIR, "out")
#: Timed cold starts per run; their median is ``setup_s``.  One more runs
#: first, untimed, so that every timed one finds compiled bytecode.
COLD_STARTS = 5
COLD_START_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(workload: str) -> float:
    """Median seconds from launching an interpreter to its "ready" line."""
    command = [sys.executable, os.path.join(BENCH_DIR, "coldstart.py"), workload]
    times = []
    for attempt in range(COLD_STARTS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            readable, _, _ = select.select([proc.stdout], [], [], COLD_START_TIMEOUT_S)
            ready = time.perf_counter()
            line = proc.stdout.readline() if readable else ""
            _, err = proc.communicate(timeout=COLD_START_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"benchmark: cold start failed:\n{err}")
        if attempt:
            times.append(ready - start)
    return statistics.median(times)


def run_round(harness, specs) -> tuple[float, list]:
    """One call of ``run_experiment`` per spec; (seconds, [(name, spec, rows)])."""
    start = time.perf_counter()
    calls = [(name, spec, harness.run_experiment(spec, workers=1)[0]) for name, spec in specs]
    return time.perf_counter() - start, calls


def run_untraced(harness, specs, seed: int, seconds: float):
    calls, rounds = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        calls += run_round(harness, round_specs(specs, seed, rounds))[1]
        rounds += 1
    return time.perf_counter() - start, rounds, calls


def run_traced(harness, tracer, specs, seed: int, seconds: float):
    """Each round untraced and traced, alternating which goes first."""
    calls, rounds, plain_s, traced_s = [], 0, 0.0, 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        inputs = round_specs(specs, seed, rounds)
        results = {}
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                results[traced] = run_round(harness, inputs)
            finally:
                tracer.uninstall()
        plain_s += results[False][0]
        traced_s += results[True][0]
        if [c[2] for c in results[False][1]] != [c[2] for c in results[True][1]]:
            raise SystemExit(f"benchmark: tracing changed the rows of round {rounds}")
        calls += results[False][1]
        rounds += 1
    return rounds, calls, traced_s / plain_s - 1.0


def check(calls):
    # imported only now, so that its solvers do not count in the run's peak memory
    from check import Checker

    checker = Checker()
    for name, spec, rows in calls:
        checker.check_call(name, spec, rows)
    return checker


def main(argv=None) -> int:
    args = parse_args(argv)
    harness = import_harness()
    specs = load_specs(harness, args.workload)
    setup_s = None if args.trace else measure_setup(args.workload)
    run_round(harness, round_specs(specs, args.seed, WARMUP_ROUND))

    if args.trace:
        tracer = Tracer(harness)
        rounds, calls, overhead = run_traced(harness, tracer, specs, args.seed, args.seconds)
    else:
        wall_s, rounds, calls = run_untraced(harness, specs, args.seed, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rows = [row for _, _, call_rows in calls for row in call_rows]
    failed = sum(1 for row in rows if row["error"])
    checker = check(calls)
    problems = checker.finish()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    with open(stem + ".csv", "w", encoding="utf-8") as fh:
        fh.write(harness.rows_to_csv(rows))

    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds, {len(rows)} rows, "
          f"{failed} failed; {checker.rows_checked} rows checked, {len(problems)} problems")
    for problem in problems[:20]:
        print("  check:", problem)
    if args.trace:
        values, absent = tracer.metrics(overhead)
        tracer.write(stem + ".trace.csv")
        print(f"spans: {len(tracer.spans)} written to {stem}.trace.csv")
        if absent:
            print("reported as 0, not entered on this workload:", ", ".join(absent))
        metrics = {k: {"value": v, "unit": METRIC_UNITS[k]} for k, v in values.items()}
    else:
        metrics = {
            "trials_per_s": {"value": len(rows) / wall_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": len(rows), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
