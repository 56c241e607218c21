"""Vertex sparsification by color coding, plus the speedup wrapper.

Vertices get independent uniform colors from a palette whose size scales
with the rank estimate; only hyperedges with pairwise-distinct colors
survive, and surviving edges are re-read over color classes.  Any
independent set keeps a (1 - eps) fraction of itself among the survivors
with probability 1 - delta, which lets the query strategies run with an
iteration count that no longer depends on the original vertex count.

Everything is a pure function of its seed; trials parallelize freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adapters import (
    BipartiteMatchingAdapter,
    BlossomMatchingAdapter,
    DegreeRelaxationAdapter,
    HypergraphMatchingAdapter,
    ProblemAdapter,
    hypergraph_view,
)
from .errors import StructureError
from .instances import PackingInstance, Realization, StochasticObjective
from .matching import MATCHING_DP_VERTEX_LIMIT
from .strategies import (
    RunResult,
    RunTrace,
    StrategyConfig,
    _round_pessimistic,
    _run_result,
    _run_rounds,
    iteration_bound,
)

SPARSIFIABLE_FAMILIES = ("bipartite-matching", "nonbipartite-matching", "k-hypergraph")


def beta(k: int, epsilon: float, delta: float) -> float:
    """2 * e^(eps/k) * ln(1/delta) / eps."""
    if k < 1:
        raise StructureError("k must be >= 1")
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise StructureError("epsilon and delta must be in (0, 1)")
    return 2.0 * math.exp(epsilon / k) * math.log(1.0 / delta) / epsilon


@dataclass(frozen=True)
class ColoringConfig:
    k: int
    epsilon: float
    delta: float
    s: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.s < 1:
            raise StructureError("rank upper bound s must be a positive integer")
        beta(self.k, self.epsilon, self.delta)  # validates ranges

    @property
    def beta(self) -> float:
        return beta(self.k, self.epsilon, self.delta)

    @property
    def num_colors(self) -> int:
        return max(1, math.ceil(self.beta * self.k**2 * self.s / self.delta))


@dataclass(frozen=True)
class SparsifyReport:
    num_colors: int
    colors_used: int
    edges_before: int
    edges_after: int

    @property
    def survival_fraction(self) -> float:
        return self.edges_after / self.edges_before if self.edges_before else 1.0

    def to_text(self) -> str:
        return (
            f"palette {self.num_colors}, colors used {self.colors_used}, "
            f"edges {self.edges_before} -> {self.edges_after} "
            f"(survival {self.survival_fraction:.3f})"
        )


@dataclass(frozen=True)
class SparsifiedInstance:
    coloring: np.ndarray
    surviving: tuple[int, ...]
    induced: Optional[PackingInstance]
    report: SparsifyReport
    color_ids: tuple[int, ...] = field(default=())  # dense id of each used color


def sparsify(
    n_vertices: int, hyperedges, config: ColoringConfig
) -> SparsifiedInstance:
    """Color the vertices and keep the colorful hyperedges.

    Requires a k-uniform edge list and n >= 2k.  The induced instance reads
    surviving edges over dense color ids (ordered by first vertex
    occurrence) and keeps the original edge ids in ``surviving``.
    """
    edges = [tuple(int(v) for v in e) for e in hyperedges]
    if any(len(set(e)) != config.k for e in edges):
        raise StructureError(f"hyperedges must be {config.k}-uniform")
    if n_vertices < 2 * config.k:
        raise StructureError(
            f"need n >= 2k vertices (n={n_vertices}, k={config.k})"
        )
    rng = np.random.default_rng(config.seed)
    coloring = rng.integers(0, config.num_colors, size=n_vertices)
    surviving = [
        idx for idx, e in enumerate(edges)
        if len({int(coloring[v]) for v in e}) == config.k
    ]
    covered = sorted({v for idx in surviving for v in edges[idx]})
    dense: dict[int, int] = {}
    for v in covered:
        color = int(coloring[v])
        if color not in dense:
            dense[color] = len(dense)
    induced = _induced_instance(edges, surviving, coloring, dense, config.k)
    report = SparsifyReport(
        num_colors=config.num_colors,
        colors_used=len(dense),
        edges_before=len(edges),
        edges_after=len(surviving),
    )
    return SparsifiedInstance(
        coloring=coloring,
        surviving=tuple(surviving),
        induced=induced,
        report=report,
        color_ids=tuple(sorted(dense)),
    )


def _induced_instance(edges, surviving, coloring, dense, k):
    if not surviving:
        return None
    n_colors = len(dense)
    color_edges = [
        tuple(sorted(dense[int(coloring[v])] for v in edges[idx]))
        for idx in surviving
    ]
    A = np.zeros((n_colors, len(surviving)), dtype=np.int64)
    for col, ce in enumerate(color_edges):
        for cv in ce:
            A[cv, col] = 1
    b = np.ones(n_colors, dtype=np.int64)
    if k == 2:
        sides = _bipartition(n_colors, color_edges)
        if sides is not None:
            perm = sorted(range(n_colors), key=lambda v: (sides[v], v))
            pos = {v: i for i, v in enumerate(perm)}
            n_left = sum(1 for v in range(n_colors) if sides[v] == 0)
            new_edges = []
            for u, v in color_edges:
                a, bb = sorted((pos[u], pos[v]))
                new_edges.append((a, bb))
            A2 = A[perm, :]
            return PackingInstance(
                A=A2,
                b=b,
                family="bipartite-matching",
                meta={"n_left": n_left, "edges": [list(e) for e in new_edges]},
            )
        return PackingInstance(
            A=A,
            b=b,
            family="nonbipartite-matching",
            meta={
                "n_vertices": n_colors,
                "edges": [list(e) for e in color_edges],
            },
        )
    return PackingInstance(
        A=A,
        b=b,
        family="k-hypergraph",
        meta={
            "n_vertices": n_colors,
            "k": k,
            "hyperedges": [list(e) for e in color_edges],
        },
    )


def _bipartition(n, edges):
    """BFS 2-coloring; None when an odd cycle exists."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * n
    for start in range(n):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in sorted(adj[u]):
                if side[v] < 0:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return None
    return side


def falling_factorial_lower_bound(n: int, k: int):
    """(n(n-1)...(n-k+1)/n^k, exp(-k^2/n), ratio >= bound)."""
    if not (1 <= k <= n):
        raise StructureError("need 1 <= k <= n")
    ratio = 1.0
    for i in range(k):
        ratio *= (n - i) / n
    bound = math.exp(-(k * k) / n)
    return ratio, bound, ratio >= bound


class SubsetOracleView:
    """Oracle restricted to a subset of items, delegating to the parent.

    Queries pass through to the parent oracle (and its ledger); the view
    exposes the reduced index space the sparsified instance uses.
    """

    def __init__(self, parent, item_ids, induced: PackingInstance):
        self.parent = parent
        self.ids = np.asarray(item_ids, dtype=np.int64)
        self.instance = induced
        self.hidden_realization = Realization(
            c=parent.hidden_realization.c[self.ids],
            seed=parent.hidden_realization.seed,
        )

    def revealed_mask(self) -> np.ndarray:
        return self.parent.revealed_mask()[self.ids]

    def query(self, j: int) -> int:
        return self.parent.query(int(self.ids[j]))

    def value(self, j: int) -> int:
        return self.parent.value(int(self.ids[j]))

    @property
    def total_queries(self) -> int:
        return int(self.revealed_mask().sum())

    def row_counts(self) -> np.ndarray:
        mask = self.revealed_mask().astype(np.int64)
        return (self.instance.A > 0).astype(np.int64) @ mask


def speedup_log_witness_count(
    k: int, p: float, alpha: float, epsilon_prime: float, delta_prime: float,
    constant: float = 1.0,
) -> float:
    """constant * ln(k / (p * alpha * eps' * delta')); the post-coloring logM."""
    arg = k / (p * alpha * epsilon_prime * delta_prime)
    if arg <= 1.0:
        return 0.0
    return constant * math.log(arg)


def speedup_run(
    inst: PackingInstance,
    obj: StochasticObjective,
    oracle,
    adapter: ProblemAdapter,
    epsilon: float,
    delta: float,
    *,
    mode: str = "adaptive",
    coloring_seed: int = 0,
    strategy_seed: int = 0,
    t_log_constant: float = 1.0,
    derandomize_integral: bool = False,
) -> RunResult:
    """Sparsify, run a query strategy on the color instance, map back.

    The rank estimate s is the unit-weight relaxation value; the coloring
    uses accuracy eps/(1 + c_max) and confidence delta/4; the iteration count
    uses the post-coloring witness default with an adjustable constant.
    Only the matching-shaped families sparsify cleanly, so others are
    refused.
    """
    if inst.family not in SPARSIFIABLE_FAMILIES:
        raise StructureError(
            f"family {inst.family!r} does not sparsify to a matching instance"
        )
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise StructureError("epsilon and delta must be in (0, 1)")
    n_vertices, k, edges = hypergraph_view(inst)
    ones = np.ones(inst.m, dtype=np.int64)
    unit = adapter.solve_relaxation(ones)
    s = max(1, math.ceil(float(unit.value) - 1e-9))
    c_max = int(obj.c_plus.max()) if obj.m else 0
    eps_prime = epsilon / (1 + c_max)
    delta_prime = delta / 4.0
    coloring = ColoringConfig(
        k=k, epsilon=eps_prime, delta=delta_prime, s=s, seed=coloring_seed
    )
    sparsified = sparsify(n_vertices, edges, coloring)
    notes = {
        "sparsify_report": sparsified.report,
        "s": s,
        "epsilon_prime": eps_prime,
        "delta_prime": delta_prime,
        "num_colors": coloring.num_colors,
        "alpha": adapter.alpha,
    }
    x_hat = np.zeros(inst.m, dtype=np.int64)
    if sparsified.induced is None:
        return _run_result(
            oracle, adapter, x_hat, 0.0, RunTrace(mode=mode), notes, start=unit
        )
    induced = sparsified.induced
    ids = np.asarray(sparsified.surviving, dtype=np.int64)
    sub_obj = StochasticObjective(
        c_minus=obj.c_minus[ids], c_plus=obj.c_plus[ids], p=obj.p
    )
    view = SubsetOracleView(oracle, ids, induced)
    sub_adapter = _induced_adapter(induced)
    logm = speedup_log_witness_count(
        k, obj.p, adapter.alpha, eps_prime, delta_prime, constant=t_log_constant
    )
    T = iteration_bound(obj.delta_c, eps_prime, obj.p, logm, delta_prime)
    config = StrategyConfig(
        mode=mode,
        T=T,
        epsilon=epsilon,
        epsilon_prime=eps_prime,
        delta=delta_prime,
        strategy_seed=strategy_seed,
        derandomize_integral=derandomize_integral,
    )
    trace, last = _run_rounds(induced, sub_obj, view, sub_adapter, config, None)
    x_sub, pess, _ = _round_pessimistic(induced, sub_obj, view, sub_adapter, last)
    x_hat[ids] = np.asarray(x_sub, dtype=np.int64)
    if np.any(inst.A @ x_hat > inst.b):
        raise StructureError("sparsified solution violates the original system")
    notes["iterations"] = T
    # The omniscient relaxation of the original instance resumes from the
    # unit-weight one; the induced instance's answers solve another polytope.
    return _run_result(
        oracle, adapter, x_hat, float(pess.value), trace, notes, start=unit
    )


def _induced_adapter(induced: PackingInstance) -> ProblemAdapter:
    if induced.family == "bipartite-matching":
        return BipartiteMatchingAdapter(induced)
    if induced.family == "nonbipartite-matching":
        if hypergraph_view(induced)[0] <= MATCHING_DP_VERTEX_LIMIT:
            return BlossomMatchingAdapter(induced)
        return DegreeRelaxationAdapter(induced)
    return HypergraphMatchingAdapter(induced)
