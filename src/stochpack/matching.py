"""Exact combinatorial solvers used for rounding and as comparison oracles.

Everything here is desk-scale exact: assignment-based bipartite matching,
bitmask dynamic programming for general graphs, and pruned exhaustive search
for hypergraph matchings and 0/1 packings.  Size guards refuse oversized
inputs up front instead of grinding.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import SizeRefusalError, StructureError

BRUTE_FORCE_ITEM_LIMIT = 24
MATCHING_DP_VERTEX_LIMIT = 20


def max_weight_bipartite_matching(n_left, n_right, edges, weights):
    """Maximum-weight matching on a bipartite graph, solved as an assignment.

    ``edges`` are (left, right) pairs with global right indices in
    ``[n_left, n_left + n_right)``.  Missing pairs get weight zero, so the
    assignment optimum equals the matching optimum for nonnegative weights.
    Returns (value, list of chosen edge indices).
    """
    if len(edges) != len(weights):
        raise StructureError("edge and weight counts differ")
    W = np.zeros((n_left, n_right))
    best_edge = -np.ones((n_left, n_right), dtype=np.int64)
    for idx, (u, v) in enumerate(edges):
        vr = v - n_left
        if not (0 <= u < n_left and 0 <= vr < n_right):
            raise StructureError(f"edge ({u},{v}) outside the bipartition")
        if weights[idx] > W[u, vr] or best_edge[u, vr] < 0:
            W[u, vr] = weights[idx]
            best_edge[u, vr] = idx
    if n_left == 0 or n_right == 0:
        return 0, []
    rows, cols = linear_sum_assignment(W, maximize=True)
    chosen = []
    value = 0
    for u, vr in zip(rows, cols):
        idx = int(best_edge[u, vr])
        if idx >= 0 and weights[idx] > 0:
            chosen.append(idx)
            value += weights[idx]
    return value, sorted(chosen)


def max_weight_matching_bitmask(n_vertices, edges, weights):
    """Exact maximum-weight matching on any graph via subset DP.

    O(2^n * deg) states; guarded at n <= MATCHING_DP_VERTEX_LIMIT.
    Returns (value, list of chosen edge indices).
    """
    if n_vertices > MATCHING_DP_VERTEX_LIMIT:
        raise SizeRefusalError(
            f"matching DP limited to {MATCHING_DP_VERTEX_LIMIT} vertices, "
            f"got {n_vertices}"
        )
    by_vertex: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    for idx, (u, v) in enumerate(edges):
        if u == v:
            raise StructureError(f"self-loop on vertex {u}")
        by_vertex[min(u, v)].append((idx, max(u, v)))

    @lru_cache(maxsize=None)
    def best(mask: int) -> tuple[int, frozenset]:
        if mask == 0:
            return 0, frozenset()
        v = (mask & -mask).bit_length() - 1
        val, sel = best(mask & ~(1 << v))
        for idx, u in by_vertex[v]:
            if mask >> u & 1 and weights[idx] > 0:
                w2, s2 = best(mask & ~(1 << v) & ~(1 << u))
                if w2 + weights[idx] > val:
                    val, sel = w2 + weights[idx], s2 | {idx}
        return val, sel

    value, chosen = best((1 << n_vertices) - 1)
    best.cache_clear()
    return value, sorted(chosen)


def max_weight_matching_general(n_vertices, edges, weights):
    """Exact maximum-weight matching on any graph, any size (blossom search)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n_vertices))
    for idx, (u, v) in enumerate(edges):
        w = weights[idx]
        if w <= 0:
            continue
        if not g.has_edge(u, v) or g[u][v]["weight"] < w:
            g.add_edge(u, v, weight=w, index=idx)
    mate = nx.max_weight_matching(g, maxcardinality=False)
    chosen = sorted(g[u][v]["index"] for u, v in mate)
    value = sum(weights[i] for i in chosen)
    return value, chosen


def max_weight_set_packing(groundsets, weights):
    """Best disjoint sub-collection by pruned exhaustive search.

    ``groundsets`` are vertex bitmasks (or iterables of vertex ids).  Used for
    hypergraph matchings; exact, guarded at ``BRUTE_FORCE_ITEM_LIMIT`` sets.
    """
    m = len(groundsets)
    if m > BRUTE_FORCE_ITEM_LIMIT:
        raise SizeRefusalError(
            f"set packing brute force limited to {BRUTE_FORCE_ITEM_LIMIT} items"
        )
    masks = [
        gs if isinstance(gs, int) else _mask(gs) for gs in groundsets
    ]
    order = sorted(range(m), key=lambda i: (-weights[i], i))
    suffix = [0] * (m + 1)
    for pos in range(m - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] + max(weights[order[pos]], 0)
    best_val = 0
    best_sel: tuple[int, ...] = ()

    def dfs(pos, used, val, sel):
        nonlocal best_val, best_sel
        if val > best_val:
            best_val, best_sel = val, sel
        if pos == m or val + suffix[pos] <= best_val:
            return
        i = order[pos]
        if weights[i] > 0 and not used & masks[i]:
            dfs(pos + 1, used | masks[i], val + weights[i], sel + (i,))
        dfs(pos + 1, used, val, sel)

    dfs(0, 0, 0, ())
    return best_val, sorted(best_sel)


def max_weight_packing_bruteforce(A, b, weights):
    """Exact 0/1 packing optimum for an explicit system, by pruned search.

    Returns (value, x) with x a 0/1 numpy vector.  Guarded at
    ``BRUTE_FORCE_ITEM_LIMIT`` items.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    n, m = A.shape
    if m > BRUTE_FORCE_ITEM_LIMIT:
        raise SizeRefusalError(
            f"packing brute force limited to {BRUTE_FORCE_ITEM_LIMIT} items, got {m}"
        )
    weights = np.asarray(weights)
    order = sorted(range(m), key=lambda j: (-weights[j], j))
    suffix = np.zeros(m + 1)
    for pos in range(m - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] + max(weights[order[pos]], 0)
    cols = [A[:, j] for j in range(m)]
    best_val = 0
    best_sel: tuple[int, ...] = ()

    def dfs(pos, load, val, sel):
        nonlocal best_val, best_sel
        if val > best_val:
            best_val, best_sel = val, sel
        if pos == m or val + suffix[pos] <= best_val:
            return
        j = order[pos]
        if weights[j] > 0:
            new_load = load + cols[j]
            if np.all(new_load <= b):
                dfs(pos + 1, new_load, val + weights[j], sel + (j,))
        dfs(pos + 1, load, val, sel)

    dfs(0, np.zeros(n, dtype=A.dtype), 0, ())
    x = np.zeros(m, dtype=np.int64)
    x[list(best_sel)] = 1
    return best_val, x


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << int(v)
    return out
