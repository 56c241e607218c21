"""Problem-family plug-ins: relaxation solving plus LP-relative rounding.

Each adapter binds one instance at construction and is stateless afterwards,
so adapters can be shared across concurrent trials.  ``solve_relaxation``
takes an optional ``start``, an earlier answer of the same adapter, which the
LP engine may resume from (see ``lp.solve_primal``); the caller keeps it.  ``alpha`` is the
family's LP-relative guarantee: the rounded integral value is at least
``alpha`` times the relaxation optimum on every valid instance.  Rounding
itself is exact at desk scale (it returns the true integral optimum), so the
guarantee holds with room to spare on families whose relaxation has an
integrality gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matroids as mat
from .errors import SizeRefusalError, StructureError
from .instances import PackingInstance
from .lp import FEAS_TOL, LpProblem, LpSolution, solve_primal
from .matching import (
    MATCHING_DP_VERTEX_LIMIT,
    max_weight_bipartite_matching,
    max_weight_matching_bitmask,
    max_weight_matching_general,
    max_weight_packing_bruteforce,
    max_weight_set_packing,
)

#: Most odd-set rows the matching relaxation adds before it solves again.
CUTS_PER_PASS = 5


@dataclass(frozen=True)
class RoundedSolution:
    x: np.ndarray
    value: int


def _check_weights(inst: PackingInstance, weights) -> np.ndarray:
    w = np.asarray(weights)
    if w.shape != (inst.m,):
        raise StructureError(f"weights must have length {inst.m}, got {w.shape}")
    if w.size and w.min() < 0:
        raise StructureError("weights must be nonnegative")
    return w


def _selection_vector(m: int, chosen) -> np.ndarray:
    x = np.zeros(m, dtype=np.int64)
    x[list(chosen)] = 1
    return x


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _meta_count(meta, key: str, least: int = 0) -> int:
    value = meta.get(key)
    if not _is_int(value) or value < least:
        raise StructureError(f"meta {key!r} must be an integer >= {least}, got {value!r}")
    return int(value)


def hypergraph_view(inst: PackingInstance) -> tuple[int, int, list[tuple[int, ...]]]:
    """(n_vertices, k, edge list) of a graph or hypergraph instance, checked."""
    return _graph_meta(inst)[:3]


def _graph_meta(inst: PackingInstance):
    """(n_vertices, k, edges, n_left): the one reader of graph metadata.

    A bipartite ``meta`` holds ``n_left`` and ``edges`` (its vertices are the
    rows), a general graph ``n_vertices`` and ``edges``, a hypergraph
    ``n_vertices``, ``k`` and ``hyperedges``; ``n_left`` is None for the last
    two.  Every edge must be k distinct vertices in range, one per item, and
    the instance must be the edges' packing system: ``A`` their vertex-edge
    incidence and ``b`` all ones.  The adapters' rounding and the matching
    relaxation solve that system, whatever ``A`` and ``b`` say.
    """
    meta = inst.meta
    n_left = None
    if inst.family == "bipartite-matching":
        n_left = _meta_count(meta, "n_left")
        if n_left > inst.n:
            raise StructureError(f"meta 'n_left' exceeds the {inst.n} vertices")
        n_vertices, k, key = inst.n, 2, "edges"
    elif inst.family == "nonbipartite-matching":
        n_vertices, k, key = _meta_count(meta, "n_vertices"), 2, "edges"
    elif inst.family == "k-hypergraph":
        n_vertices, k = _meta_count(meta, "n_vertices"), _meta_count(meta, "k", 1)
        key = "hyperedges"
    else:
        raise StructureError(f"family {inst.family!r} has no hypergraph form")
    raw = meta.get(key)
    if not isinstance(raw, (list, tuple)):
        raise StructureError(f"meta {key!r} must be a list of edges, got {raw!r}")
    edges = []
    for e in raw:
        if not (
            isinstance(e, (list, tuple))
            and all(_is_int(v) for v in e)
            and len(set(e)) == len(e) == k
            and all(0 <= v < n_vertices for v in e)
        ):
            raise StructureError(
                f"edge {e!r} is not {k} distinct vertices in 0..{n_vertices - 1}"
            )
        edges.append(tuple(int(v) for v in e))
    if len(edges) != inst.m:
        raise StructureError(f"{len(edges)} edges do not match the {inst.m} items")
    incidence = np.zeros((n_vertices, inst.m), dtype=np.int64)
    for j, e in enumerate(edges):
        incidence[list(e), j] = 1
    if not np.array_equal(inst.A, incidence) or np.any(inst.b != 1):
        raise StructureError(
            "a graph instance must be the vertex-edge incidence of its edges "
            "with unit capacities"
        )
    return n_vertices, k, edges, n_left


class ProblemAdapter:
    """Family plug-in contract; see module docstring for the alpha invariant.

    The relaxation is max w.x subject to ``A`` x <= ``b`` and 0 <= x <= 1, with
    the unit bounds as explicit variable bounds when ``explicit_unit_bounds``
    is set.  ``A`` and ``b`` are the instance's own.
    """

    family: str
    alpha: float
    scale_w: float = 1.0
    explicit_unit_bounds: bool = False

    def __init__(self, inst: PackingInstance):
        self.instance = inst
        self.A, self.b = inst.A, inst.b

    def solve_relaxation(self, weights, start=None) -> LpSolution:
        w = _check_weights(self.instance, weights)
        prob = LpProblem(self.A, self.b, w, self.explicit_unit_bounds)
        return solve_primal(prob, start=start)

    def round_integral(self, weights) -> RoundedSolution:
        raise NotImplementedError

    def omniscient_ip(self, weights) -> int:
        return int(self.round_integral(weights).value)


class ExplicitMatrixAdapter(ProblemAdapter):
    """Generic path: the engine on the instance matrix, brute-force rounding.

    Serves both the ``generic`` and ``k-cspip`` families; the latter gets
    explicit unit bounds in the relaxation and carries the sampling scale w.
    Alpha is the column-sparse guarantee 1/(2k) for the instance's own
    support size k.
    """

    def __init__(self, inst: PackingInstance):
        super().__init__(inst)
        self.family = inst.family
        support = (
            int(np.max(np.count_nonzero(inst.A, axis=0))) if inst.m else 1
        )
        self.alpha = 1.0 / (2 * max(support, 1))
        self.explicit_unit_bounds = inst.family == "k-cspip"
        self.scale_w = inst.column_scale() if self.explicit_unit_bounds else 1.0

    def round_integral(self, weights) -> RoundedSolution:
        w = _check_weights(self.instance, weights)
        value, x = max_weight_packing_bruteforce(self.instance.A, self.instance.b, w)
        return RoundedSolution(x=x, value=int(value))


class BipartiteMatchingAdapter(ProblemAdapter):
    family = "bipartite-matching"
    alpha = 1.0

    def __init__(self, inst: PackingInstance):
        super().__init__(inst)
        _, _, self.edges, self.n_left = _graph_meta(inst)
        self.n_right = inst.n - self.n_left

    def round_integral(self, weights) -> RoundedSolution:
        w = _check_weights(self.instance, weights)
        value, chosen = max_weight_bipartite_matching(
            self.n_left, self.n_right, self.edges, list(w)
        )
        return RoundedSolution(x=_selection_vector(self.instance.m, chosen), value=int(value))


class BlossomMatchingAdapter(ProblemAdapter):
    """General graphs via the matching polytope, separated on demand.

    ``A`` and ``b`` are the degree rows; ``solve_relaxation`` adds the odd-set
    rows x(E(S)) <= (|S| - 1)/2 it needs.  Rounding is the bitmask matching
    search, which is why the adapter refuses more than
    ``MATCHING_DP_VERTEX_LIMIT`` vertices before doing any work.
    """

    family = "nonbipartite-matching"
    alpha = 1.0

    def __init__(self, inst: PackingInstance):
        super().__init__(inst)
        self.n_vertices, _, self.edges = hypergraph_view(inst)
        if self.n_vertices > MATCHING_DP_VERTEX_LIMIT:
            raise SizeRefusalError(
                f"matching adapter limited to {MATCHING_DP_VERTEX_LIMIT} vertices, "
                f"got {self.n_vertices}"
            )

    def solve_relaxation(self, weights, start=None) -> LpSolution:
        """Optimum over the matching polytope by a cutting-plane loop.

        The LP holds the degree rows, plus the odd-set rows of ``start`` when
        it solved this graph.  While its optimum violates an odd-set row, up to
        ``CUTS_PER_PASS`` of the most violated ones are added and it is solved
        again, cold, since the polytope changed.  The final primal satisfies
        every odd-set row and its duals, padded with zeros, are feasible for
        the full system, so the answer is optimal over the matching polytope
        and ``sol.problem`` certifies it.
        """
        w = _check_weights(self.instance, weights)
        A, b = self.A, self.b
        if start is not None and _holds_odd_set_rows(start.problem, A, b):
            A, b = start.problem.A, start.problem.b
        while True:
            sol = solve_primal(LpProblem(A, b, w), start=start)
            # A 0/1 point within the degree rows is a matching: no row is violated.
            if np.all(np.abs(sol.x - np.round(sol.x)) <= FEAS_TOL):
                return sol
            cuts = _violated_odd_sets(self.n_vertices, self.edges, sol.x)
            if not cuts:
                return sol
            rows, caps = zip(*cuts)
            A, b = np.vstack([A, rows]), np.concatenate([b, caps])
            start = None

    def round_integral(self, weights) -> RoundedSolution:
        w = _check_weights(self.instance, weights)
        value, chosen = max_weight_matching_bitmask(
            self.n_vertices, self.edges, list(w)
        )
        return RoundedSolution(x=_selection_vector(self.instance.m, chosen), value=int(value))


def _holds_odd_set_rows(prob, A, b) -> bool:
    """Whether ``prob`` is the degree rows ``A``, ``b`` plus valid odd-set rows.

    A valid extra row is 0/1 over the edges with a right-hand side of at
    least half the vertices its edges touch, so no matching violates it.
    """
    n = A.shape[0]
    if (
        prob is None
        or prob.explicit_unit_bounds
        or prob.A.shape[0] < n
        or prob.A.shape[1] != A.shape[1]
        or not np.array_equal(prob.A[:n], A)
        or not np.array_equal(prob.b[:n], b)
    ):
        return False
    extra = prob.A[n:]
    touched = np.count_nonzero(extra @ A.T, axis=1)
    zero_one = np.all((extra == 0) | (extra == 1))
    return bool(zero_one and np.all(prob.b[n:] >= touched // 2))


def _violated_odd_sets(n_vertices, edges, x):
    """The rows x(E(S)) <= (|S| - 1)/2 that ``x`` violates most, with their caps.

    Exact separation after Padberg and Rao: join a root r to every vertex v
    at capacity 1 - x(delta(v)).  For a vertex set S the cut around S then
    has capacity x(delta(S)) + sum over v in S of (1 - x(delta(v))), which is
    |S| - 2 x(E(S)), so the row of an odd S is violated exactly when that
    cut is below one; and a cheapest cut around an odd S is a fundamental
    cut of a Gomory-Hu tree.  Returns at most ``CUTS_PER_PASS`` (row, cap)
    pairs, most violated first, ties by the sorted vertex set.
    """
    import networkx as nx

    root = n_vertices
    x = np.maximum(x, 0.0)
    load = np.zeros(n_vertices)
    g = nx.Graph()
    g.add_nodes_from(range(n_vertices + 1))
    for (u, v), xe in zip(edges, x):
        load[u] += xe
        load[v] += xe
        if xe > 0:
            cap = g[u][v]["capacity"] if g.has_edge(u, v) else 0.0
            g.add_edge(u, v, capacity=cap + xe)
    for v in range(n_vertices):
        g.add_edge(v, root, capacity=max(1.0 - load[v], 0.0))
    tree = nx.gomory_hu_tree(g)
    parent = nx.dfs_predecessors(tree, root)
    below = {v: {v} for v in tree}
    for v in reversed(list(nx.dfs_preorder_nodes(tree, root))[1:]):
        below[parent[v]] |= below[v]
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    found = []
    for v, p in parent.items():
        side = below[v]
        if tree[v][p]["weight"] >= 1 or len(side) < 3 or len(side) % 2 == 0:
            continue
        inside = np.isin(ends, list(side)).all(axis=1)
        cap = (len(side) - 1) // 2
        excess = float(x[inside].sum()) - cap
        if excess > FEAS_TOL:
            found.append((-excess, sorted(side), inside.astype(np.int64), cap))
    found.sort(key=lambda item: item[:2])
    return [(row, cap) for _, _, row, cap in found[:CUTS_PER_PASS]]


class HypergraphMatchingAdapter(ProblemAdapter):
    family = "k-hypergraph"

    def __init__(self, inst: PackingInstance):
        super().__init__(inst)
        _, self.k, self.hyperedges = hypergraph_view(inst)
        self.alpha = 1.0 / (self.k - 1 + 1.0 / self.k)

    def round_integral(self, weights) -> RoundedSolution:
        w = _check_weights(self.instance, weights)
        value, chosen = max_weight_set_packing(
            [frozenset(e) for e in self.hyperedges], list(w)
        )
        return RoundedSolution(x=_selection_vector(self.instance.m, chosen), value=int(value))


class MatroidAdapter(ProblemAdapter):
    """Greedy on an independence oracle; exact, and equal to the LP optimum.

    ``solve_relaxation`` accepts a ``start`` like the LP adapters and ignores it.
    """

    family = "matroid"
    alpha = 1.0

    def __init__(self, inst: PackingInstance):
        super().__init__(inst)
        self.matroid = mat.matroid_from_meta(inst.meta)
        if self.matroid.m != inst.m:
            raise StructureError("matroid ground set does not match the item count")

    def solve_relaxation(self, weights, start=None) -> LpSolution:
        w = _check_weights(self.instance, weights)
        value, chosen = mat.greedy_max_weight(self.matroid, list(w))
        x = np.zeros(self.instance.m)
        x[list(chosen)] = 1.0
        return LpSolution(
            x=x,
            value=float(value),
            basis=tuple(chosen),
            arithmetic="float",
            problem=None,
        )

    def round_integral(self, weights) -> RoundedSolution:
        w = _check_weights(self.instance, weights)
        value, chosen = mat.greedy_max_weight(self.matroid, list(w))
        return RoundedSolution(x=_selection_vector(self.instance.m, chosen), value=int(value))


class DegreeRelaxationAdapter(ProblemAdapter):
    """Degree-constraint relaxation plus exact matching on general graphs.

    Used for sparsified instances whose color graph has more vertices than
    the matching adapter's bitmask rounding allows.  The degree LP has
    worst-case integrality gap 3/2 on general graphs, hence alpha = 2/3.
    """

    family = "nonbipartite-matching"
    alpha = 2.0 / 3.0

    def __init__(self, inst: PackingInstance):
        super().__init__(inst)
        self.n_vertices, _, self.edges = hypergraph_view(inst)

    def round_integral(self, weights) -> RoundedSolution:
        w = _check_weights(self.instance, weights)
        value, chosen = max_weight_matching_general(
            self.n_vertices, self.edges, list(w)
        )
        return RoundedSolution(x=_selection_vector(self.instance.m, chosen), value=int(value))


def adapter_for(inst: PackingInstance) -> ProblemAdapter:
    """The family's default adapter, bound to the instance."""
    table = {
        "generic": ExplicitMatrixAdapter,
        "k-cspip": ExplicitMatrixAdapter,
        "bipartite-matching": BipartiteMatchingAdapter,
        "nonbipartite-matching": BlossomMatchingAdapter,
        "k-hypergraph": HypergraphMatchingAdapter,
        "matroid": MatroidAdapter,
    }
    return table[inst.family](inst)
