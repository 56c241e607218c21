"""Quick self-test of the benchmark on reduced sizes; about a minute.

    python3 benchmarks/selftest.py

Every workload's specs are shrunk (T fixed at 4, 6+6 instead of 20+20
bipartite graphs).  On each, two serial runs must give byte-identical CSV,
``workers=1`` and ``workers=2`` must give byte-identical CSV, the rows must
pass ``check.py``, and a traced run must return the same rows as an untraced
one and report every per-layer metric.  Last, ``run.py`` runs end to end for
one second, and must exit non-zero in a copy of ``BENCHMARK.json`` and the
benchmark that has no ``src/`` beside it.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import OUT_DIR, check, run_round
from tracer import METRIC_UNITS, Tracer
from workloads import BENCH_DIR, ROOT, WORKLOADS, import_harness, load_specs, round_specs

REDUCED_T = 4


def reduced(spec: dict) -> dict:
    spec = dict(spec, strategies=[dict(s, T=REDUCED_T) for s in spec.get("strategies", [])])
    params = spec["instance"].get("params", {})
    if params.get("n_left") == 20:
        spec["instance"] = dict(spec["instance"], params=dict(params, n_left=6, n_right=6))
    return spec


def run_python(argv, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def main() -> int:
    harness = import_harness()
    failures = []
    for workload in WORKLOADS:
        specs = [(name, reduced(spec)) for name, spec in load_specs(harness, workload)]
        inputs = round_specs(specs, 7, 0)
        _, calls = run_round(harness, inputs)
        serial = [harness.rows_to_csv(rows) for _, _, rows in calls]
        for label, workers in (("two serial runs", 1), ("workers=1 and workers=2", 2)):
            again = [harness.run_experiment(spec, workers=workers)[0] for _, spec in inputs]
            if [harness.rows_to_csv(rows) for rows in again] != serial:
                failures.append(f"{workload}: {label} give different CSV")
        failures += [f"{workload}: {p}" for p in check(calls).finish()]
        tracer = Tracer(harness)
        tracer.install()
        try:
            _, traced = run_round(harness, inputs)
        finally:
            tracer.uninstall()
        if [c[2] for c in traced] != [c[2] for c in calls]:
            failures.append(f"{workload}: traced rows differ from untraced rows")
        values, _ = tracer.metrics(0.0)
        if set(values) != set(METRIC_UNITS):
            failures.append(f"{workload}: traced run reports {sorted(values)}")
        print(f"{workload}: {sum(len(c[2]) for c in calls)} rows, {len(tracer.spans)} spans")

    result = run_python(
        [os.path.join(BENCH_DIR, "run.py"), "--workload", "oddset-fixed",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        ROOT,
    )
    last = json.loads(result.stdout.strip().splitlines()[-1]) if result.returncode == 0 else {}
    if set(last) != {"correct", "attempted", "failed", "metrics"} or not last["correct"]:
        failures.append(f"run.py: exit {result.returncode}, {result.stdout[-500:]}{result.stderr[-500:]}")
    elif set(last["metrics"]) != {"trials_per_s", "setup_s", "peak_rss_mb"}:
        failures.append(f"run.py reports {sorted(last['metrics'])}")

    lone = os.path.join(OUT_DIR, "lone")
    shutil.rmtree(lone, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(lone, "benchmarks"), ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
    result = run_python(
        [os.path.join("benchmarks", "run.py"), "--workload", "family-mix",
         "--seed", "1", "--seconds", "1"],
        lone,
    )
    shutil.rmtree(lone)
    if result.returncode == 0:
        failures.append("run.py succeeded without the package sources")

    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
