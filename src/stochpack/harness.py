"""Monte Carlo experiment orchestration: specs, trials, metrics, CSV.

An experiment spec fixes an instance source, objective parameters, a grid of
strategy settings, a trial count, and one master seed.  Every random stream
(nature, strategy coins, coloring) derives its seed by hashing the master
seed with the instance id, trial index, and a stream tag, so results are
reproducible byte-for-byte regardless of worker count or scheduling order.

Per-trial failures (size refusals, bad draws) become rows with an error tag;
a sweep never aborts half-way.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from .adapters import adapter_for
from .errors import StochpackError, StructureError
from .generators import gen_objective, generate
from .instances import QueryOracle, load_instance, sample_realization
from .strategies import (
    BASELINE_KINDS,
    STRATEGY_MODES,
    StrategyConfig,
    default_iterations,
    run_adaptive,
    run_baseline,
    run_nonadaptive,
)

SPEC_FORMAT = "experiment/v1"
CSV_SCHEMA_VERSION = 1
WORKERS_ENV_VAR = "STOCHPACK_WORKERS"

CSV_COLUMNS = [
    "schema_version",
    "instance_id",
    "family",
    "mode",
    "epsilon",
    "delta",
    "p",
    "T",
    "trial_seed",
    "queries_total",
    "queries_per_row_max",
    "value",
    "pessimistic_lp",
    "omniscient_lp",
    "omniscient_ip",
    "ratio_lp",
    "ratio_ip",
    "success",
    "error",
]

_SPEC_FIELDS = {
    "format",
    "instance",
    "objective",
    "strategies",
    "baselines",
    "trials",
    "master_seed",
    "output",
    "t_grid",
}
_INSTANCE_FIELDS = {"kind", "params", "per_trial", "file"}
_STRATEGY_FIELDS = {
    "mode",
    "epsilon",
    "epsilon_prime",
    "delta",
    "T",
    "logm_constant",
    "derandomize_integral",
}
_OBJECTIVE_FIELDS = {"c_low", "c_high", "p"}
_BASELINE_FIELDS = {"kind", "T"}


def child_seed(master_seed, *parts) -> int:
    """Stable stream splitting: sha256 over the master seed and tags."""
    text = "|".join(str(p) for p in (master_seed, *parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    """95 percent score interval for a binomial rate."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    ) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _as_number(value, what: str, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise StructureError(f"{what} must be a number, got {value!r}") from None


def validate_spec(spec: dict) -> dict:
    unknown = set(spec) - _SPEC_FIELDS
    if unknown:
        raise StructureError(f"unknown spec fields: {sorted(unknown)}")
    if spec.get("format", SPEC_FORMAT) != SPEC_FORMAT:
        raise StructureError(f"unsupported spec format {spec.get('format')!r}")
    if "instance" not in spec or "trials" not in spec or "master_seed" not in spec:
        raise StructureError("spec needs instance, trials, and master_seed")
    inst = spec["instance"]
    unknown = set(inst) - _INSTANCE_FIELDS
    if unknown:
        raise StructureError(f"unknown instance fields: {sorted(unknown)}")
    if "file" in inst and "objective" in spec:
        raise StructureError("file instances carry their own objective")
    if "file" not in inst and "kind" not in inst:
        raise StructureError("instance needs either file or kind")
    if _as_number(spec["trials"], "trials", int) < 1:
        raise StructureError("trials must be >= 1")
    _as_number(spec["master_seed"], "master_seed", int)
    for key in ("strategies", "baselines", "t_grid"):
        if not isinstance(spec.get(key, []), (list, tuple)):
            raise StructureError(f"{key} must be a list, got {spec[key]!r}")
    strategies = spec.get("strategies", [])
    baselines = spec.get("baselines", [])
    if not strategies and not baselines:
        raise StructureError("spec needs at least one strategy or baseline")
    for s in strategies:
        if not isinstance(s, dict):
            raise StructureError(f"a strategy must be an object, got {s!r}")
        unknown = set(s) - _STRATEGY_FIELDS
        if unknown:
            raise StructureError(f"unknown strategy fields: {sorted(unknown)}")
        if s.get("mode") not in STRATEGY_MODES:
            raise StructureError(
                f"strategy mode must be one of {list(STRATEGY_MODES)},"
                f" got {s.get('mode')!r}"
            )
        for key in ("epsilon", "epsilon_prime", "delta", "logm_constant"):
            if key in s:
                _as_number(s[key], f"strategy {key}")
        if s.get("T") is not None and _as_number(s["T"], "strategy T", int) < 1:
            raise StructureError("strategy T override must be >= 1")
    for b in baselines:
        if isinstance(b, dict):
            unknown = set(b) - _BASELINE_FIELDS
            if unknown:
                raise StructureError(f"unknown baseline fields: {sorted(unknown)}")
            if _as_number(b.get("T", 1), "baseline T", int) < 1:
                raise StructureError("baseline T must be >= 1")
            b = b.get("kind")
        if b not in BASELINE_KINDS:
            raise StructureError(
                f"baseline kind must be one of {list(BASELINE_KINDS)}, got {b!r}"
            )
    for t in spec.get("t_grid", []):
        if _as_number(t, "t_grid entry", int) < 1:
            raise StructureError("t_grid entries must be >= 1")
    obj = spec.get("objective", {})
    if not isinstance(obj, dict):
        raise StructureError(f"objective must be an object, got {obj!r}")
    unknown = set(obj) - _OBJECTIVE_FIELDS
    if unknown:
        raise StructureError(f"unknown objective fields: {sorted(unknown)}")
    for key in ("c_low", "c_high"):
        pair = obj.get(key, [0, 0])
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
            and pair[0] <= pair[1]
        ):
            raise StructureError(
                f"objective {key} must be two integers [low, high], got {pair!r}"
            )
    if "p" in obj:
        _as_number(obj["p"], "objective p")
    return spec


def load_spec(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructureError(f"not a valid spec file: {exc}") from exc
    return validate_spec(spec)


def _expand_grid(spec: dict) -> list[dict]:
    grid: list[dict] = []
    for s in spec.get("strategies", []):
        entry = {
            "kind": "strategy",
            "mode": s["mode"],
            "epsilon": float(s.get("epsilon", 0.2)),
            "epsilon_prime": float(s.get("epsilon_prime", s.get("epsilon", 0.2))),
            "delta": float(s.get("delta", 0.2)),
            "T": s.get("T"),
            "logm_constant": float(s.get("logm_constant", 1.0)),
            "derandomize_integral": bool(s.get("derandomize_integral", False)),
        }
        grid.append(entry)
    for b in spec.get("baselines", []):
        if isinstance(b, str):
            grid.append({"kind": "baseline", "baseline": b, "T": 1})
        else:
            grid.append(
                {"kind": "baseline", "baseline": b["kind"], "T": int(b.get("T", 1))}
            )
    return grid


def _instance_for_trial(spec: dict, trial: int):
    source = spec["instance"]
    master = spec["master_seed"]
    if "file" in source:
        inst, obj = load_instance(source["file"])
        return os.path.basename(str(source["file"])), inst, obj
    kind = source["kind"]
    params = source.get("params", {})
    per_trial = bool(source.get("per_trial", True))
    tag = trial if per_trial else 0
    inst = generate(kind, params, child_seed(master, "instance", kind, tag))
    obj_spec = spec.get("objective", {})
    obj = gen_objective(
        inst.m,
        child_seed(master, "objective", kind, tag),
        c_low=tuple(obj_spec.get("c_low", (0, 0))),
        c_high=tuple(obj_spec.get("c_high", (1, 2))),
        p=float(obj_spec.get("p", 0.5)),
    )
    instance_id = f"{kind}#{tag}" if per_trial else kind
    return instance_id, inst, obj


def _success(entry: dict, result) -> int:
    if entry["kind"] == "baseline":
        return int(result.value >= result.omniscient_ip_value - 1e-9)
    eps = entry["epsilon"]
    if entry["mode"] == "adaptive":
        target = (1 - eps) * result.omniscient_lp_value
        return int(result.pessimistic_lp_value >= target - 1e-9)
    target = (1 - eps) / 2 * result.omniscient_lp_value
    return int(result.value >= target - 1e-9)


def _trial_row(spec: dict, grid_index: int, trial: int) -> dict:
    entry = _expand_grid(spec)[grid_index]
    master = spec["master_seed"]
    row = {c: "" for c in CSV_COLUMNS}
    row["schema_version"] = CSV_SCHEMA_VERSION
    row["_sort"] = (grid_index, trial)
    try:
        instance_id, inst, obj = _instance_for_trial(spec, trial)
        row["instance_id"] = instance_id
        row["family"] = inst.family
        nature_seed = child_seed(master, instance_id, trial, "nature")
        strategy_seed = child_seed(master, instance_id, trial, "strategy")
        realization = sample_realization(obj, nature_seed)
        oracle = QueryOracle(inst, realization)
        adapter = adapter_for(inst)
        row["p"] = repr(obj.p)
        row["trial_seed"] = nature_seed
        if entry["kind"] == "baseline":
            row["mode"] = f"baseline:{entry['baseline']}"
            row["T"] = entry["T"]
            result = run_baseline(
                inst, obj, oracle, adapter, entry["baseline"],
                T=entry["T"], seed=strategy_seed,
            )
        else:
            mode = entry["mode"]
            row["mode"] = mode
            row["epsilon"] = repr(entry["epsilon"])
            row["delta"] = repr(entry["delta"])
            T = entry["T"]
            if T is None:
                T = default_iterations(
                    inst, obj, entry["epsilon"], entry["epsilon_prime"],
                    entry["delta"], constant=entry["logm_constant"],
                )
            row["T"] = int(T)
            config = StrategyConfig(
                mode=mode,
                T=int(T),
                epsilon=entry["epsilon"],
                epsilon_prime=entry["epsilon_prime"],
                delta=entry["delta"],
                strategy_seed=strategy_seed,
                derandomize_integral=entry["derandomize_integral"],
            )
            runner = run_adaptive if mode == "adaptive" else run_nonadaptive
            result = runner(inst, obj, oracle, adapter, config)
        row["queries_total"] = result.queries_total
        row["queries_per_row_max"] = int(result.queries_per_row.max(initial=0))
        row["value"] = result.value
        row["pessimistic_lp"] = repr(result.pessimistic_lp_value)
        row["omniscient_lp"] = repr(result.omniscient_lp_value)
        row["omniscient_ip"] = result.omniscient_ip_value
        row["ratio_lp"] = repr(result.ratio_vs_omniscient_lp)
        row["ratio_ip"] = repr(result.ratio_vs_omniscient_ip)
        row["success"] = _success(entry, result)
    except StochpackError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        row["success"] = 0
    return row


def _trial_row_star(args) -> dict:
    return _trial_row(*args)


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        return max(1, int(env))
    return 1


def run_experiment(spec: dict, workers: Optional[int] = None):
    """Execute the full grid x trial matrix; returns (rows, summary text).

    Rows come back sorted by (grid point, trial) and are identical no matter
    how many workers executed them.
    """
    validate_spec(spec)
    grid = _expand_grid(spec)
    trials = int(spec["trials"])
    tasks = [(spec, gi, ti) for gi in range(len(grid)) for ti in range(trials)]
    nworkers = _resolve_workers(workers)
    if nworkers <= 1 or len(tasks) < 2:
        rows = [_trial_row(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            rows = list(pool.map(_trial_row_star, tasks, chunksize=8))
    rows.sort(key=lambda r: r["_sort"])
    for row in rows:
        row.pop("_sort", None)
    return rows, summarize(spec, grid, rows)


def summarize(spec: dict, grid: list[dict], rows: list[dict]) -> str:
    trials = int(spec["trials"])
    out = io.StringIO()
    out.write(f"trials per grid point: {trials}\n")
    for gi, entry in enumerate(grid):
        chunk = rows[gi * trials : (gi + 1) * trials]
        ok = [r for r in chunk if not r["error"]]
        succ = sum(int(r["success"]) for r in ok)
        lo, hi = wilson_interval(succ, len(ok)) if ok else (0.0, 1.0)
        if entry["kind"] == "baseline":
            label = f"baseline:{entry['baseline']}"
        else:
            label = (
                f"{entry['mode']} eps={entry['epsilon']} delta={entry['delta']}"
                f" T={entry['T'] if entry['T'] is not None else 'auto'}"
            )
        queries = [int(r["queries_total"]) for r in ok]
        rowmax = [int(r["queries_per_row_max"]) for r in ok]
        mean_q = sum(queries) / len(queries) if queries else float("nan")
        mean_r = sum(rowmax) / len(rowmax) if rowmax else float("nan")
        out.write(
            f"  {label}: success {succ}/{len(ok)}"
            f" (wilson95 [{lo:.3f}, {hi:.3f}]),"
            f" mean queries {mean_q:.2f}, mean max-per-row {mean_r:.2f},"
            f" errors {len(chunk) - len(ok)}\n"
        )
    return out.getvalue()


def sweep_T(spec: dict, workers: Optional[int] = None):
    """Cross the strategy grid with the spec's t_grid of iteration counts."""
    validate_spec(spec)
    t_grid = spec.get("t_grid")
    if not t_grid:
        raise StructureError("sweep needs a nonempty t_grid")
    expanded = dict(spec)
    expanded.pop("t_grid")
    strategies = []
    for s in spec.get("strategies", []):
        for t in t_grid:
            entry = dict(s)
            entry["T"] = int(t)
            strategies.append(entry)
    expanded["strategies"] = strategies
    return run_experiment(expanded, workers=workers)


def rows_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def write_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))
