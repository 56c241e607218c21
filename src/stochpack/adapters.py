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
from itertools import combinations

import numpy as np

from . import matroids as mat
from .errors import SizeRefusalError, StructureError
from .instances import PackingInstance
from .lp import LpProblem, LpSolution, solve_primal
from .matching import (
    max_weight_bipartite_matching,
    max_weight_matching_bitmask,
    max_weight_matching_general,
    max_weight_packing_bruteforce,
    max_weight_set_packing,
)

BLOSSOM_VERTEX_LIMIT = 14


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
    two.  Every edge must be k distinct vertices in range, one per item.
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
    return n_vertices, k, edges, n_left


class ProblemAdapter:
    """Family plug-in contract; see module docstring for the alpha invariant.

    The relaxation is max w.x subject to ``A`` x <= ``b`` and 0 <= x <= 1, with
    the unit bounds as explicit variable bounds when ``explicit_unit_bounds``
    is set.  ``A`` and ``b`` are the instance's own unless a family swaps in
    a stronger polytope.
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
    """General graphs via the odd-set strengthened relaxation.

    All odd vertex subsets of size >= 3 are enumerated explicitly, which is
    why the adapter refuses more than BLOSSOM_VERTEX_LIMIT vertices before
    doing any work.  Rounding is an exact matching search.
    """

    family = "nonbipartite-matching"
    alpha = 1.0

    def __init__(self, inst: PackingInstance):
        super().__init__(inst)
        self.n_vertices, _, self.edges = hypergraph_view(inst)
        if self.n_vertices > BLOSSOM_VERTEX_LIMIT:
            raise SizeRefusalError(
                f"odd-set enumeration limited to {BLOSSOM_VERTEX_LIMIT} vertices, "
                f"got {self.n_vertices}"
            )
        self.A, self.b = _odd_set_augmented(inst.A, inst.b, self.n_vertices, self.edges)

    def round_integral(self, weights) -> RoundedSolution:
        w = _check_weights(self.instance, weights)
        value, chosen = max_weight_matching_bitmask(
            self.n_vertices, self.edges, list(w)
        )
        return RoundedSolution(x=_selection_vector(self.instance.m, chosen), value=int(value))


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

    Used for sparsified instances whose color graph is too large for the
    odd-set adapter.  The degree LP has worst-case integrality gap 3/2 on
    general graphs, hence alpha = 2/3.
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


def _odd_set_augmented(A, b, n_vertices, edges):
    """Degree rows plus x(E(S)) <= floor(|S|/2) for every odd S, |S| >= 3."""
    rows = [np.asarray(A[i]) for i in range(A.shape[0])]
    caps = [int(v) for v in b]
    m = len(edges)
    for size in range(3, n_vertices + 1, 2):
        for subset in combinations(range(n_vertices), size):
            sset = set(subset)
            row = np.zeros(m, dtype=np.int64)
            inside = 0
            for idx, (u, v) in enumerate(edges):
                if u in sset and v in sset:
                    row[idx] = 1
                    inside += 1
            if inside:
                rows.append(row)
                caps.append(size // 2)
    return np.array(rows, dtype=np.int64), np.array(caps, dtype=np.int64)
