"""Query strategies: adaptive, non-adaptive, and comparison baselines.

Both strategies repeatedly solve the optimistic relaxation and use its
solution as per-item selection probabilities.  The adaptive one reveals the
selected items round by round; the non-adaptive one only tentatively writes
them down at their pessimistic value and reveals the whole batch at the end.
The run finishes by rounding the pessimistic problem through the family
adapter.

Strategy coin flips draw from their own seeded stream, separate from
nature's; a run is strictly sequential, but distinct trials share no mutable
state and can execute in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .adapters import ProblemAdapter, hypergraph_view
from .errors import StructureError
from .instances import (
    PackingInstance,
    QueryOracle,
    StochasticObjective,
    optimistic_vector,
    pessimistic_vector,
)

#: Observer invoked with (round_index, pessimistic_vector); round 0 is the
#: state before any query, rounds 1..T follow each iteration, and T+1 (only
#: when something still changes afterwards) follows the final batch reveal.
RunHook = Callable[[int, np.ndarray], None]

_INTEGRALITY_TOL = 1e-7

STRATEGY_MODES = ("adaptive", "nonadaptive")


@dataclass(frozen=True)
class StrategyConfig:
    mode: str
    T: int
    epsilon: float
    epsilon_prime: float
    delta: float
    strategy_seed: int = 0
    derandomize_integral: bool = False
    trace_pessimistic: bool = False

    def __post_init__(self) -> None:
        if self.mode not in STRATEGY_MODES:
            raise StructureError(f"unknown mode {self.mode!r}")
        if self.T < 1:
            raise StructureError("T must be at least 1")
        if not (0 < self.epsilon < 1):
            raise StructureError("epsilon must be in (0, 1)")
        if not (0 < self.epsilon_prime <= self.epsilon):
            raise StructureError("epsilon_prime must be in (0, epsilon]")
        if not (0 < self.delta < 1):
            raise StructureError("delta must be in (0, 1)")


@dataclass(frozen=True)
class IterationRecord:
    t: int
    optimistic_value: float
    pessimistic_value: Optional[float]
    selected: tuple[int, ...]
    cumulative_queries: int


@dataclass
class RunTrace:
    mode: str
    records: list[IterationRecord] = field(default_factory=list)
    mu_prime: Optional[float] = None

    def optimistic_values(self) -> list[float]:
        return [r.optimistic_value for r in self.records]

    def pessimistic_values(self) -> list[Optional[float]]:
        return [r.pessimistic_value for r in self.records]


@dataclass
class RunResult:
    x_hat: np.ndarray
    value: int
    pessimistic_lp_value: float
    omniscient_lp_value: float
    omniscient_ip_value: int
    ratio_vs_omniscient_lp: float
    ratio_vs_omniscient_ip: float
    queries_total: int
    queries_per_row: np.ndarray
    trace: RunTrace
    notes: dict = field(default_factory=dict)


def iteration_bound(
    delta_c: float,
    epsilon_prime: float,
    p: float,
    log_witness_count: float,
    delta: float,
) -> int:
    """ceil((delta_c / (eps' p)) * (logM + ln(1/delta))), clamped to >= 1.

    ``log_witness_count`` is the natural log of the per-unit witness-cover
    size M; zero is allowed (the delta term still forces progress), negative
    values are rejected.  ``delta_c = 0`` means no uncertainty and yields 1.
    """
    if delta_c < 0:
        raise StructureError("delta_c must be nonnegative")
    if not (0 < epsilon_prime):
        raise StructureError("epsilon_prime must be positive")
    if not (0 < p <= 1):
        raise StructureError("p must be in (0, 1]")
    if log_witness_count < 0:
        raise StructureError("log witness count must be nonnegative")
    if not (0 < delta < 1):
        raise StructureError("delta must be in (0, 1)")
    raw = (delta_c / (epsilon_prime * p)) * (log_witness_count + math.log(1 / delta))
    return max(1, math.ceil(raw - 1e-12))


def default_log_witness_count(
    inst: PackingInstance, epsilon: Optional[float] = None, constant: float = 1.0
) -> float:
    """Per-family default for log M, scaled by an adjustable constant.

    Integral (dual-integer) families use log(1 + rows); the hypergraph-style
    families use the sparse-grid count k*log(vertices) + 1/epsilon and
    therefore need epsilon.
    """
    fam = inst.family
    if fam in ("bipartite-matching", "nonbipartite-matching", "matroid", "generic"):
        return constant * math.log(1 + inst.n)
    if fam == "k-hypergraph":
        if epsilon is None:
            raise StructureError("hypergraph default needs epsilon")
        nv, k, _ = hypergraph_view(inst)
        return constant * (k * math.log(max(nv, 2)) + 1.0 / epsilon)
    if fam == "k-cspip":
        if epsilon is None:
            raise StructureError("column-sparse default needs epsilon")
        k = int(np.max(np.count_nonzero(inst.A, axis=0))) if inst.m else 1
        return constant * (k * math.log(1 + inst.n) + 1.0 / epsilon)
    raise StructureError(f"no default for family {fam!r}")


def default_iterations(
    inst: PackingInstance,
    obj: StochasticObjective,
    epsilon: float,
    epsilon_prime: float,
    delta: float,
    constant: float = 1.0,
) -> int:
    """Family-default iteration count; the column-sparse scale w folds in here."""
    logm = default_log_witness_count(inst, epsilon=epsilon, constant=constant)
    t = iteration_bound(obj.delta_c, epsilon_prime, obj.p, logm, delta)
    if inst.family == "k-cspip":
        t = math.ceil(t * inst.column_scale())
    return t


def _relaxation_x(sol, m: int) -> np.ndarray:
    x = np.asarray([float(v) for v in sol.x])
    if x.shape != (m,):
        raise StructureError("relaxation returned a solution of the wrong length")
    return np.clip(x, 0.0, 1.0)


def _is_integral(x: np.ndarray) -> bool:
    return bool(np.all(np.abs(x - np.round(x)) <= _INTEGRALITY_TOL))


def _check_run_inputs(inst, obj, oracle, adapter):
    if obj.m != inst.m:
        raise StructureError("objective does not match the instance")
    for name, bound in (("oracle", oracle.instance), ("adapter", adapter.instance)):
        if bound is not inst and not (
            np.array_equal(bound.A, inst.A) and np.array_equal(bound.b, inst.b)
        ):
            raise StructureError(f"{name} is bound to a different instance")


def _run_rounds(inst, obj, oracle, adapter, config, hook):
    """The round loop of both strategies; ``config.mode`` picks what a pick does.

    Every round solves the optimistic relaxation and picks items by coin
    (or, with ``derandomize_integral``, the support of an integral solution).
    The adaptive mode queries its picks at once.  The non-adaptive mode
    instead supposes them at their pessimistic value for the later rounds,
    then queries the whole supposed set after round T.  Only the objective
    moves between rounds, so each solve starts from the previous round's
    answer.  Returns the trace and the last round's solution.
    """
    _check_run_inputs(inst, obj, oracle, adapter)
    adaptive = config.mode == "adaptive"
    rng = np.random.default_rng(config.strategy_seed)
    scale = max(adapter.scale_w, 1.0)
    supposed = np.zeros(inst.m, dtype=bool)
    trace = RunTrace(mode=config.mode)
    sol = pess_sol = None
    if hook:
        hook(0, pessimistic_vector(oracle, obj))
    for t in range(1, config.T + 1):
        c_eff = optimistic_vector(oracle, obj)
        if not adaptive:
            c_eff = np.where(supposed & ~oracle.revealed_mask(), obj.c_minus, c_eff)
        sol = adapter.solve_relaxation(c_eff, start=sol)
        x = _relaxation_x(sol, inst.m)
        if config.derandomize_integral and _is_integral(x):
            picked = x > 0.5
        else:
            picked = rng.random(inst.m) < x / scale
        if adaptive:
            selected = np.nonzero(picked)[0]
            for j in selected:
                oracle.query(int(j))
        else:
            selected = np.nonzero(picked & ~supposed)[0]
            supposed[selected] = True
        pess = pessimistic_vector(oracle, obj)
        if config.trace_pessimistic:
            # A chain of its own, so tracing leaves the optimistic vertices
            # (and with them the coin flips) as they are without it.
            pess_sol = adapter.solve_relaxation(pess, start=pess_sol or sol)
        trace.records.append(
            IterationRecord(
                t=t,
                optimistic_value=float(sol.value),
                pessimistic_value=float(pess_sol.value) if pess_sol else None,
                selected=tuple(int(j) for j in selected),
                cumulative_queries=oracle.total_queries,
            )
        )
        if hook:
            hook(t, pess)
    if not adaptive:
        trace.mu_prime = trace.records[-1].optimistic_value
        for j in np.nonzero(supposed)[0]:
            oracle.query(int(j))
        if hook:
            hook(config.T + 1, pessimistic_vector(oracle, obj))
    return trace, sol


def _round_pessimistic(inst, obj, oracle, adapter, start=None):
    """Round and relax the pessimistic problem: ``(x_hat, LP answer, omniscient)``.

    The relaxation resumes from ``start``.  When the pessimistic vector
    equals the realization, the omniscient problem is the same one, and
    ``omniscient`` holds its (LP, IP) values so that they are not solved
    again; otherwise it is None.
    """
    cunder = pessimistic_vector(oracle, obj)
    rounded = adapter.round_integral(cunder)
    if np.any(inst.A @ rounded.x > inst.b):
        raise StructureError("adapter returned an infeasible integral solution")
    pess = adapter.solve_relaxation(cunder, start=start)
    omniscient = None
    if np.array_equal(cunder, oracle.hidden_realization.c):
        omniscient = (float(pess.value), int(rounded.value))
    return rounded.x, pess, omniscient


def _run_result(
    oracle, adapter, x_hat, pess_lp, trace, notes, omniscient=None, start=None
) -> RunResult:
    """Score ``x_hat`` against the omniscient optima of the realization.

    ``omniscient`` is the (LP, IP) pair when it is already known; otherwise
    the omniscient relaxation resumes from ``start``, an earlier answer of
    ``adapter``.
    """
    real_c = oracle.hidden_realization.c
    value = int(real_c @ x_hat)
    if omniscient is None:
        omniscient = (
            float(adapter.solve_relaxation(real_c, start=start).value),
            int(adapter.omniscient_ip(real_c)),
        )
    omn_lp, omn_ip = omniscient
    return RunResult(
        x_hat=x_hat,
        value=value,
        pessimistic_lp_value=pess_lp,
        omniscient_lp_value=omn_lp,
        omniscient_ip_value=omn_ip,
        ratio_vs_omniscient_lp=1.0 if omn_lp <= 1e-12 else value / omn_lp,
        ratio_vs_omniscient_ip=1.0 if omn_ip <= 0 else value / omn_ip,
        queries_total=oracle.total_queries,
        queries_per_row=oracle.row_counts(),
        trace=trace,
        notes=notes,
    )


def _finish_run(inst, obj, oracle, adapter, trace, start=None) -> RunResult:
    x_hat, pess, omniscient = _round_pessimistic(inst, obj, oracle, adapter, start)
    return _run_result(
        oracle, adapter, x_hat, float(pess.value), trace, {}, omniscient, start=pess
    )


def run_adaptive(
    inst: PackingInstance,
    obj: StochasticObjective,
    oracle: QueryOracle,
    adapter: ProblemAdapter,
    config: StrategyConfig,
    hook: Optional[RunHook] = None,
) -> RunResult:
    """T rounds of solve-the-optimistic-relaxation then query-by-coin.

    Item j is revealed with probability x_j (x_j / w for column-sparse
    instances); flips happen for already-revealed items too, but repeat
    queries are free no-ops.  With ``derandomize_integral`` an integral
    relaxation solution is queried on its support outright.
    """
    if config.mode != "adaptive":
        raise StructureError("config.mode must be 'adaptive'")
    trace, last = _run_rounds(inst, obj, oracle, adapter, config, hook)
    return _finish_run(inst, obj, oracle, adapter, trace, last)


def run_nonadaptive(
    inst: PackingInstance,
    obj: StochasticObjective,
    oracle: QueryOracle,
    adapter: ProblemAdapter,
    config: StrategyConfig,
    hook: Optional[RunHook] = None,
) -> RunResult:
    """T rounds of solve-and-suppose, one batch reveal, then rounding.

    During the loop nothing is revealed; a selected item is instead assumed
    to sit at its pessimistic value in later rounds (supposing is idempotent).
    Exactly the supposed set is queried afterwards.
    """
    if config.mode != "nonadaptive":
        raise StructureError("config.mode must be 'nonadaptive'")
    trace, last = _run_rounds(inst, obj, oracle, adapter, config, hook)
    return _finish_run(inst, obj, oracle, adapter, trace, last)


BASELINE_KINDS = ("omniscient", "blind", "uniform_random")


def run_baseline(
    inst: PackingInstance,
    obj: StochasticObjective,
    oracle: QueryOracle,
    adapter: ProblemAdapter,
    kind: str,
    T: int = 1,
    seed: int = 0,
) -> RunResult:
    """Comparison runs: omniscient, blind, or a uniform random budget.

    ``omniscient`` reveals everything and solves exactly; ``blind`` reveals
    nothing; ``uniform_random`` reveals each item with probability
    min(1, T * sum(b) / m), the per-round budget an LP-guided strategy gets
    in expectation.
    """
    _check_run_inputs(inst, obj, oracle, adapter)
    if kind == "omniscient":
        for j in range(inst.m):
            oracle.query(j)
    elif kind == "blind":
        pass
    elif kind == "uniform_random":
        if T < 1:
            raise StructureError("uniform_random needs T >= 1")
        q = min(1.0, T * float(inst.b.sum()) / max(inst.m, 1))
        rng = np.random.default_rng(seed)
        for j in np.nonzero(rng.random(inst.m) < q)[0]:
            oracle.query(int(j))
    else:
        raise StructureError(f"unknown baseline kind {kind!r}")
    trace = RunTrace(mode=f"baseline:{kind}")
    return _finish_run(inst, obj, oracle, adapter, trace)
