"""Seeded instance and objective generators for the experiment corpus.

Every generator is deterministic per seed and returns a validated instance;
draws that fail validation are retried with a bumped sub-seed up to a cap.
"""

from __future__ import annotations

import math

import numpy as np

from . import matroids as mat
from .errors import StructureError
from .instances import PackingInstance, StochasticObjective, validate_instance

RETRY_CAP = 20


def _retry(make, seed: int) -> PackingInstance:
    last = None
    for bump in range(RETRY_CAP):
        inst = make(seed + 1_000_003 * bump)
        report = validate_instance(inst)
        if report.passed:
            return inst
        last = report
    raise StructureError(f"could not generate a valid instance: {last}")


def gen_bipartite(n_left: int, n_right: int, edge_prob: float, seed: int) -> PackingInstance:
    """Random bipartite graph as a degree-constrained incidence system."""
    if n_left < 1 or n_right < 1:
        raise StructureError("both sides need at least one vertex")

    def make(s):
        rng = np.random.default_rng(s)
        edges = [
            (u, n_left + v)
            for u in range(n_left)
            for v in range(n_right)
            if rng.random() < edge_prob
        ]
        if not edges:
            edges = [(0, n_left)]
        return bipartite_instance(n_left, n_right, edges)

    return _retry(make, seed)


def bipartite_instance(n_left: int, n_right: int, edges) -> PackingInstance:
    n = n_left + n_right
    edges = [tuple(int(v) for v in e) for e in edges]
    A = np.zeros((n, len(edges)), dtype=np.int64)
    for j, (u, v) in enumerate(edges):
        if not (0 <= u < n_left and n_left <= v < n):
            raise StructureError(f"edge ({u},{v}) not left-to-right")
        A[u, j] = 1
        A[v, j] = 1
    return PackingInstance(
        A=A,
        b=np.ones(n, dtype=np.int64),
        family="bipartite-matching",
        meta={"n_left": n_left, "edges": [list(e) for e in edges]},
    )


def gen_graph(n: int, edge_prob: float, seed: int) -> PackingInstance:
    """Random simple graph for the odd-set family."""
    if n < 2:
        raise StructureError("need at least two vertices")

    def make(s):
        rng = np.random.default_rng(s)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_prob
        ]
        if not edges:
            edges = [(0, 1)]
        return graph_instance(n, edges)

    return _retry(make, seed)


def graph_instance(n: int, edges) -> PackingInstance:
    edges = [tuple(sorted(int(v) for v in e)) for e in edges]
    A = np.zeros((n, len(edges)), dtype=np.int64)
    for j, (u, v) in enumerate(edges):
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise StructureError(f"bad edge ({u},{v})")
        A[u, j] = 1
        A[v, j] = 1
    return PackingInstance(
        A=A,
        b=np.ones(n, dtype=np.int64),
        family="nonbipartite-matching",
        meta={"n_vertices": n, "edges": [list(e) for e in edges]},
    )


def gen_hypergraph(n: int, m: int, k: int, seed: int) -> PackingInstance:
    """m distinct random k-subsets of n vertices under unit vertex capacities."""
    if k < 2 or n < k:
        raise StructureError("need k >= 2 and at least k vertices")
    if m > math.comb(n, k):
        raise StructureError(f"only {math.comb(n, k)} distinct {k}-subsets exist")

    def make(s):
        rng = np.random.default_rng(s)
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < m:
            e = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            chosen.add(e)
        return hypergraph_instance(n, k, sorted(chosen))

    return _retry(make, seed)


def hypergraph_instance(n: int, k: int, hyperedges) -> PackingInstance:
    edges = [tuple(int(v) for v in e) for e in hyperedges]
    A = np.zeros((n, len(edges)), dtype=np.int64)
    for j, e in enumerate(edges):
        if len(set(e)) != k:
            raise StructureError(f"hyperedge {e} is not a {k}-set")
        for v in e:
            A[v, j] = 1
    return PackingInstance(
        A=A,
        b=np.ones(n, dtype=np.int64),
        family="k-hypergraph",
        meta={"n_vertices": n, "k": k, "hyperedges": [list(e) for e in edges]},
    )


def gen_matroid(kind: str, seed: int, **params) -> PackingInstance:
    """Uniform / partition / graphic matroid with its compact exact matrix."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        m = int(params["m"])
        r = int(params.get("r") or rng.integers(1, max(2, m)))
        matroid = mat.UniformMatroid(r=r, m=m)
        meta = {"matroid": {"kind": "uniform", "rank": r, "m": m}}
    elif kind == "partition":
        if "blocks" in params:
            blocks = [list(map(int, blk)) for blk in params["blocks"]]
            caps = [int(c) for c in params["capacities"]]
        else:
            m = int(params["m"])
            cuts = sorted(
                rng.choice(np.arange(1, m), size=min(m - 1, 2), replace=False).tolist()
            ) if m > 1 else []
            bounds = [0] + cuts + [m]
            blocks = [list(range(a, b)) for a, b in zip(bounds, bounds[1:]) if a < b]
            caps = [int(rng.integers(1, len(blk) + 1)) for blk in blocks]
        matroid = mat.PartitionMatroid(
            blocks=tuple(tuple(b) for b in blocks), capacities=tuple(caps)
        )
        meta = {"matroid": {"kind": "partition", "blocks": blocks, "capacities": caps}}
    elif kind == "graphic":
        nv = int(params["n_vertices"])
        edge_prob = float(params.get("edge_prob", 0.5))
        edges = [
            (u, v)
            for u in range(nv)
            for v in range(u + 1, nv)
            if rng.random() < edge_prob
        ]
        if not edges:
            edges = [(0, 1)]
        matroid = mat.GraphicMatroid(n_vertices=nv, edges=tuple(edges))
        meta = {
            "matroid": {
                "kind": "graphic",
                "n_vertices": nv,
                "edges": [list(e) for e in edges],
            }
        }
    else:
        raise StructureError(f"unknown matroid kind {kind!r}")
    A, b = mat.matroid_constraint_matrix(matroid)
    inst = PackingInstance(A=A, b=b, family="matroid", meta=meta)
    report = validate_instance(inst)
    if not report.passed:
        raise StructureError(f"matroid instance failed validation: {report}")
    return inst


def gen_generic(n: int, m: int, seed: int, density: float = 0.5, b_max: int = 3) -> PackingInstance:
    """Random valid generic packing system.

    Capacities land in [1, b_max]; each column gets one pinned entry
    a_ij = b_i so the unit box is implied.
    """
    if n < 1 or m < 1:
        raise StructureError("need n, m >= 1")

    def make(s):
        rng = np.random.default_rng(s)
        b = rng.integers(1, b_max + 1, size=n).astype(np.int64)
        A = np.zeros((n, m), dtype=np.int64)
        for i in range(n):
            for j in range(m):
                if rng.random() < density:
                    A[i, j] = rng.integers(0, b[i] + 1)
        for j in range(m):
            i = int(rng.integers(0, n))
            A[i, j] = b[i]
        return PackingInstance(A=A, b=b, family="generic")

    return _retry(make, seed)


def gen_cspip(n: int, m: int, k: int, seed: int, b_max: int = 4) -> PackingInstance:
    """Random k-column-sparse system (supports of size <= k, a_ij <= b_i)."""
    if k < 1 or k > n:
        raise StructureError("need 1 <= k <= n")

    def make(s):
        rng = np.random.default_rng(s)
        b = rng.integers(1, b_max + 1, size=n).astype(np.int64)
        A = np.zeros((n, m), dtype=np.int64)
        for j in range(m):
            size = int(rng.integers(1, k + 1))
            rows = rng.choice(n, size=size, replace=False)
            for i in rows:
                A[i, j] = rng.integers(1, b[i] + 1)
        return PackingInstance(A=A, b=b, family="k-cspip", meta={"k": k})

    return _retry(make, seed)


def gen_objective(
    m: int,
    seed: int,
    c_low: tuple[int, int] = (0, 0),
    c_high: tuple[int, int] = (1, 2),
    p: float = 0.5,
) -> StochasticObjective:
    """Random integer intervals: c- uniform on c_low, c+ uniform on c_high v c-."""
    rng = np.random.default_rng(seed)
    lo = rng.integers(c_low[0], c_low[1] + 1, size=m)
    hi = np.maximum(lo, rng.integers(c_high[0], c_high[1] + 1, size=m))
    return StochasticObjective(c_minus=lo, c_plus=hi, p=p)


def generate(kind: str, params: dict, seed: int) -> PackingInstance:
    """Dispatch by kind name; used by the CLI and experiment specs.

    A missing or ill-typed parameter raises ``StructureError``.
    """
    try:
        return _generate(kind, dict(params), seed)
    except KeyError as exc:
        raise StructureError(f"{kind} generation needs parameter {exc}") from None
    except (TypeError, ValueError) as exc:
        raise StructureError(f"malformed {kind} parameters: {exc}") from None


def _generate(kind: str, params: dict, seed: int) -> PackingInstance:
    if kind == "bipartite":
        return gen_bipartite(
            int(params["n_left"]), int(params["n_right"]),
            float(params.get("edge_prob", 0.5)), seed,
        )
    if kind == "graph":
        return gen_graph(int(params["n"]), float(params.get("edge_prob", 0.5)), seed)
    if kind == "hypergraph":
        return gen_hypergraph(
            int(params["n"]), int(params["m"]), int(params["k"]), seed
        )
    if kind == "matroid":
        matroid_kind = params.pop("matroid_kind", params.pop("kind", None))
        if matroid_kind is None:
            raise StructureError("matroid generation needs matroid_kind")
        return gen_matroid(matroid_kind, seed, **params)
    if kind == "generic":
        return gen_generic(
            int(params["n"]), int(params["m"]), seed,
            density=float(params.get("density", 0.5)),
            b_max=int(params.get("b_max", 3)),
        )
    if kind == "cspip":
        return gen_cspip(
            int(params["n"]), int(params["m"]), int(params["k"]), seed,
            b_max=int(params.get("b_max", 4)),
        )
    raise StructureError(f"unknown instance kind {kind!r}")
