"""One cold start: import stochpack, load and validate a workload's specs, say "ready".

``run.py`` launches this in a fresh interpreter and times it from launch to
the "ready" line, the moment ``run_experiment`` could be called.

    python3 benchmarks/coldstart.py <workload>
"""

import sys

from workloads import import_harness, load_specs

if __name__ == "__main__":
    load_specs(import_harness(), sys.argv[1])
    print("ready", flush=True)
