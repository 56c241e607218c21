"""The benchmark's workloads: which spec files each one runs, and with which seeds.

A workload is a list of experiment specs under ``specs/``.  One round of a
workload calls ``stochpack.harness.run_experiment`` once per spec, serially,
with a master seed derived from the benchmark seed, the spec name and the
round index.  So the same ``--seed`` gives the same inputs, and every round
of a run is new work.
"""

from __future__ import annotations

import hashlib
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SPEC_DIR = os.path.join(BENCH_DIR, "specs")

WORKLOADS = {
    "bipartite-rounds": ("bipartite-rounds",),
    "oddset-fixed": ("oddset-fixed",),
    "family-mix": (
        "family-mix-hypergraph",
        "family-mix-cspip",
        "family-mix-generic",
        "family-mix-matroid",
        "family-mix-bipartite",
    ),
}

#: Round index of the untimed warm-up round; timed rounds count from 0.
WARMUP_ROUND = -1


def import_harness():
    """Import ``stochpack.harness`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "stochpack", "harness.py")):
        raise SystemExit(f"benchmark: no stochpack sources under {SRC}")
    sys.path.insert(0, SRC)
    import stochpack.harness as harness

    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported stochpack from {harness.__file__}")
    return harness


def load_specs(harness, workload: str) -> list[tuple[str, dict]]:
    """Read and validate the workload's specs; instance files resolve from the root."""
    specs = []
    for name in WORKLOADS[workload]:
        spec = harness.load_spec(os.path.join(SPEC_DIR, name + ".json"))
        source = spec["instance"]
        if "file" in source:
            spec["instance"] = dict(source, file=os.path.join(ROOT, source["file"]))
        specs.append((name, spec))
    return specs


def master_seed(seed: int, name: str, round_index: int) -> int:
    text = f"stochpack-bench|{seed}|{name}|{round_index}"
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")


def round_specs(specs, seed: int, round_index: int) -> list[tuple[str, dict]]:
    """The specs of one round, each with its own master seed."""
    return [
        (name, dict(spec, master_seed=master_seed(seed, name, round_index)))
        for name, spec in specs
    ]
