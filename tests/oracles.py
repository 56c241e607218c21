"""Independent naive oracles used to cross-check the library.

Everything here is deliberately written the dumb way: full enumeration with
itertools, exact rational arithmetic, no pruning, no shared code with the
package internals.  Only usable at tiny sizes.
"""

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from stochpack.errors import SizeRefusalError
from stochpack.witness import (
    SPARSE_GRID_LIMIT,
    SPARSE_ROW_LIMIT,
    TDI_MU_LIMIT,
    TDI_ROW_LIMIT,
    WitnessCover,
    sparse_grid_step,
)


def matching_value_by_enumeration(edges, weights):
    """Max-weight matching by trying every subset of edges."""
    m = len(edges)
    best = 0
    for r in range(m + 1):
        for combo in combinations(range(m), r):
            seen = set()
            ok = True
            for idx in combo:
                u, v = edges[idx]
                if u in seen or v in seen:
                    ok = False
                    break
                seen.add(u)
                seen.add(v)
            if ok:
                best = max(best, sum(weights[i] for i in combo))
    return best


def odd_set_polytope(A, b, n_vertices, edges):
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


def set_packing_value_by_enumeration(sets, weights):
    """Max-weight disjoint sub-collection by trying every subset."""
    m = len(sets)
    best = 0
    for r in range(m + 1):
        for combo in combinations(range(m), r):
            union = set()
            ok = True
            for idx in combo:
                s = set(sets[idx])
                if union & s:
                    ok = False
                    break
                union |= s
            if ok:
                best = max(best, sum(weights[i] for i in combo))
    return best


def packing_value_by_enumeration(A, b, weights):
    """Exact 0/1 packing optimum by trying all 2^m vectors."""
    A = np.asarray(A)
    b = np.asarray(b)
    m = A.shape[1]
    best = 0
    for mask in range(1 << m):
        x = np.array([(mask >> j) & 1 for j in range(m)])
        if np.all(A @ x <= b):
            best = max(best, int(np.dot(weights, x)))
    return best


def independent_set_value_by_enumeration(matroid, weights):
    """Max-weight independent set by trying every subset of the ground set."""
    best = 0
    for mask in range(1 << matroid.m):
        subset = [e for e in range(matroid.m) if (mask >> e) & 1]
        if matroid.independent(subset):
            best = max(best, sum(weights[e] for e in subset))
    return best


def matroid_rank(matroid, subset):
    """Greedy rank of a subset: the size of any maximal independent subset."""
    chosen = []
    for e in sorted(set(subset)):
        if matroid.independent(chosen + [e]):
            chosen.append(e)
    return len(chosen)


def spot_check_submodularity(matroid, seed, samples=60):
    """Sampled sanity check: r(X) + r(Y) >= r(X | Y) + r(X & Y)."""
    rng = np.random.default_rng(seed)
    m = matroid.m
    for _ in range(samples):
        x = {int(e) for e in rng.integers(0, m, size=rng.integers(0, m + 1))}
        y = {int(e) for e in rng.integers(0, m, size=rng.integers(0, m + 1))}
        lhs = matroid_rank(matroid, x) + matroid_rank(matroid, y)
        if lhs < matroid_rank(matroid, x | y) + matroid_rank(matroid, x & y):
            return False
    return True


def lp_value_by_vertex_enumeration(A, b, c):
    """Exact LP optimum of max{c.x : Ax <= b, 0 <= x <= 1} over all vertices.

    Enumerates every choice of m tight constraints among the rows and the box
    facets, solves the square rational system, and keeps feasible points.
    x = 0 is always feasible, so the running best starts at zero.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    c = np.asarray(c)
    n, m = A.shape
    rows = [([Fraction(int(v)) for v in A[i]], Fraction(int(b[i]))) for i in range(n)]
    for j in range(m):
        unit = [Fraction(0)] * m
        unit[j] = Fraction(1)
        rows.append((unit, Fraction(0)))
        rows.append((unit, Fraction(1)))
    best = Fraction(0)
    for combo in combinations(range(len(rows)), m):
        point = _solve_square([rows[i] for i in combo], m)
        if point is None:
            continue
        if any(v < 0 or v > 1 for v in point):
            continue
        feasible = True
        for i in range(n):
            total = sum(Fraction(int(A[i][j])) * point[j] for j in range(m))
            if total > b[i]:
                feasible = False
                break
        if feasible:
            value = sum(Fraction(int(c[j])) * point[j] for j in range(m))
            best = max(best, value)
    return best


def _solve_square(system, m):
    mat = [list(coeffs) + [rhs] for coeffs, rhs in system]
    for col in range(m):
        pivot_row = None
        for r in range(col, m):
            if mat[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return None  # singular
        mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
        piv = mat[col][col]
        mat[col] = [v / piv for v in mat[col]]
        for r in range(m):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * bb for a, bb in zip(mat[r], mat[col])]
    return [mat[j][m] for j in range(m)]


def count_vectors_under_cap(n, cap):
    """Stars and bars: number of y in Z+^n with sum(y) <= cap."""
    import math

    return math.comb(n + cap, cap)


def enumerate_tdi_cover_iterative(b, mu, epsilon) -> WitnessCover:
    """Second route to ``enumerate_tdi_cover``: per-row ranges, then the cap."""
    bt = tuple(int(v) for v in b)
    mu_f, eps_f = Fraction(mu), Fraction(epsilon)
    if len(bt) > TDI_ROW_LIMIT or mu_f > TDI_MU_LIMIT:
        raise SizeRefusalError("integer cover enumeration size guard")
    cap = (1 - eps_f) * mu_f
    vectors = []
    if cap >= 0:
        ranges = [range(int(cap // bi) + 1) for bi in bt]
        for combo in product(*ranges):
            if sum(v * bi for v, bi in zip(combo, bt)) <= cap:
                vectors.append(tuple(Fraction(v) for v in combo))
    return WitnessCover(
        vectors=tuple(vectors),
        b=bt,
        mu=mu_f,
        epsilon=eps_f,
        epsilon_prime=eps_f,
        kind="tdi-integer",
    )


def enumerate_sparse_cover_iterative(b, mu, epsilon, gamma) -> WitnessCover:
    """Second route to ``enumerate_sparse_cover``: full grid product, filtered."""
    bt = tuple(int(v) for v in b)
    mu_f, eps_f, gamma_f = Fraction(mu), Fraction(epsilon), Fraction(gamma)
    n = len(bt)
    cap = (1 - eps_f / 2) * mu_f
    token_value = eps_f / (2 * gamma_f)
    max_tokens = int(cap // token_value) if cap >= 0 else -1
    max_support = int(gamma_f * mu_f)
    if n > SPARSE_ROW_LIMIT or (max_tokens + 2) ** n > SPARSE_GRID_LIMIT:
        raise SizeRefusalError("sparse cover grid too large to enumerate")
    steps = [sparse_grid_step(bi, eps_f, gamma_f) for bi in bt]
    vectors = []
    for combo in product(range(max_tokens + 1), repeat=n):
        if sum(combo) > max_tokens:
            continue
        if sum(1 for k in combo if k) > max_support:
            continue
        y = tuple(k * steps[i] for i, k in enumerate(combo))
        if sum(yi * bi for yi, bi in zip(y, bt)) <= cap:
            vectors.append(y)
    return WitnessCover(
        vectors=tuple(vectors),
        b=bt,
        mu=mu_f,
        epsilon=eps_f,
        epsilon_prime=eps_f / 2,
        kind="sparse-grid",
    )
