"""The warm-started float simplex against cold float and exact rational solves.

A warm solve resumes phase 2 from the basis of an earlier answer on the same
polytope.  It must reach the same optimal value as a cold solve and as the
``Fraction`` backend, with a valid duality certificate of its own, and a start
that does not fit must leave the answer exactly as the cold solve gives it.
"""

import dataclasses
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochpack.generators import gen_bipartite, gen_cspip, gen_generic
from stochpack.lp import (
    _BASIC,
    _LOWER,
    _UPPER,
    LpProblem,
    _solve_pair,
    check_duality,
    solve_primal,
)


def _polytope(family, seed):
    """(A, b, explicit_unit_bounds) of a small random problem of ``family``."""
    rng = np.random.default_rng(seed)
    if family == "bipartite":
        inst = gen_bipartite(
            int(rng.integers(2, 6)), int(rng.integers(2, 6)), 0.6, seed=seed
        )
        return inst.A, inst.b, False
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
    if family == "k-cspip":
        inst = gen_cspip(n, m, int(rng.integers(1, n + 1)), seed=seed)
        return inst.A, inst.b, True
    inst = gen_generic(n, m, seed=seed)
    A, b = inst.A, inst.b
    if family == "covering":
        # One row -x(S) <= -1, so the cold solve runs phase 1.
        row = -(rng.random(m) < 0.5).astype(np.int64)
        row[int(rng.integers(0, m))] = -1
        A, b = np.vstack([A, row]), np.append(b, -1)
    return A, b, False


def _objectives(m, seed):
    """An objective sequence as the strategies produce it, then two jumps.

    Rounds pull entries of the optimistic vector down to their realized or
    pessimistic value (elementwise decreasing); then comes the jump to the
    pessimistic vector, the jump to the realization, and one arbitrary
    objective.
    """
    rng = np.random.default_rng(seed)
    low = rng.integers(0, 3, size=m)
    high = low + rng.integers(0, 4, size=m)
    real = np.where(rng.random(m) < 0.5, high, low)
    revealed = np.zeros(m, dtype=bool)
    supposed = np.zeros(m, dtype=bool)
    c = high.copy()
    seq = [c.copy()]
    for _ in range(int(rng.integers(2, 8))):
        picked = rng.random(m) < 0.3
        if rng.random() < 0.5:
            revealed |= picked
        else:
            supposed |= picked & ~revealed
        c = np.where(revealed, real, np.where(supposed, low, high))
        seq.append(c)
    seq.append(np.where(revealed, real, low))
    seq.append(real)
    seq.append(rng.integers(0, 6, size=m))
    return seq


def _chain(A, b, explicit, objectives):
    """Warm-solve ``objectives`` in turn, each from the previous answer."""
    prev = None
    starts_at_upper = 0
    for c in objectives:
        prob = LpProblem(A, b, c, explicit_unit_bounds=explicit)
        warm, dual = _solve_pair(prob, "float", "primal", prev)
        cold = solve_primal(prob, route="primal")
        exact = solve_primal(prob, arithmetic="rational", route="primal")
        assert warm.warm == (prev is not None)
        assert float(warm.value) == pytest.approx(float(cold.value), abs=1e-7)
        assert float(warm.value) == pytest.approx(float(exact.value), abs=1e-7)
        report = check_duality(warm, dual)
        assert report.ok, report
        if prev is not None:
            starts_at_upper += int(np.any(prev.status == _UPPER))
        prev = warm
    return starts_at_upper


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["bipartite", "generic", "k-cspip", "covering"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_warm_matches_cold_and_rational(family, poly_seed, obj_seed):
    A, b, explicit = _polytope(family, poly_seed)
    _chain(A, b, explicit, _objectives(A.shape[1], obj_seed))


def test_warm_start_resumes_from_columns_at_upper_bound():
    """k-cspip chains whose starts hold columns at their upper bound of one."""
    flips = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        inst = gen_cspip(3, 6, 2, seed=seed, b_max=4)
        flips += _chain(
            inst.A, inst.b, True, [rng.integers(1, 6, size=6) for _ in range(5)]
        )
    assert flips > 0


# ---------------------------------------------------------------------------
# starts that do not fit give the cold answer
# ---------------------------------------------------------------------------


def _assert_cold(prob, start):
    sol = solve_primal(prob, start=start)
    cold = solve_primal(prob)
    assert not sol.warm
    assert sol.basis == cold.basis
    assert np.array_equal(sol.x, cold.x)
    assert sol.value == cold.value
    assert sol.pivots == cold.pivots


def _with_basis(sol, basis):
    status = np.full(sol.status.shape, _LOWER, dtype=np.int8)
    status[list(basis)] = _BASIC
    return dataclasses.replace(sol, basis=tuple(basis), status=status)


def _k22():
    inst = gen_bipartite(2, 2, 1.0, seed=0)
    return inst.A, inst.b


def test_start_from_another_b_runs_cold():
    A, b = _k22()
    start = solve_primal(LpProblem(A, b + 1, np.ones(4)))
    _assert_cold(LpProblem(A, b, np.arange(4)), start)


def test_start_from_another_shape_runs_cold():
    A, b = _k22()
    bigger = LpProblem(np.vstack([A, np.ones(4)]), np.append(b, 1), np.ones(4))
    start = solve_primal(bigger)
    _assert_cold(LpProblem(A, b, np.arange(4)), start)


def test_start_with_other_bounds_runs_cold():
    A, b = _k22()
    start = solve_primal(LpProblem(A, b, np.ones(4), explicit_unit_bounds=True))
    _assert_cold(LpProblem(A, b, np.arange(4)), start)


def test_start_with_infeasible_basis_runs_cold():
    A, b = _k22()
    prob = LpProblem(A, b, np.arange(4))
    full = np.hstack([A, np.eye(A.shape[0])])
    for cols in combinations(range(full.shape[1]), A.shape[0]):
        B = full[:, cols]
        if abs(np.linalg.det(B)) > 0.5 and np.linalg.solve(B, b).min() < -0.5:
            break
    else:
        pytest.fail("k22 has no infeasible basis")
    _assert_cold(prob, _with_basis(solve_primal(prob), cols))


def test_start_above_upper_bound_runs_cold():
    prob = LpProblem([[1, 1]], [3], [1, 2], explicit_unit_bounds=True)
    # x0 basic alone on the row gives x0 = 3, above its bound of one.
    _assert_cold(prob, _with_basis(solve_primal(prob), (0,)))


def test_start_with_singular_basis_runs_cold():
    A, b = _k22()
    prob = LpProblem(A, b, np.arange(4))
    # The four edge columns of K22 have rank three.
    _assert_cold(prob, _with_basis(solve_primal(prob), range(4)))


def test_start_with_basic_artificial_runs_cold():
    A = np.array([[1, 1, 0], [0, 1, 1], [-1, -1, -1]])
    b = np.array([1, 1, -1])
    prob = LpProblem(A, b, [1, 2, 1])
    start = solve_primal(prob)
    assert start.status.shape == (3 + 3 + 1,)
    # The basis phase 1 starts from: two slacks and the artificial (column
    # 6) of the negative row.  It is nonsingular and feasible.
    _assert_cold(prob, _with_basis(start, (3, 4, 6)))


def test_negative_rhs_resumes_without_phase_one():
    A = np.array([[1, 1, 0], [0, 1, 1], [-1, -1, -1]])
    b = np.array([1, 1, -1])
    start = solve_primal(LpProblem(A, b, [1, 2, 1]))
    prob = LpProblem(A, b, [3, 0, 1])
    warm, dual = _solve_pair(prob, "float", "primal", start)
    exact = solve_primal(prob, arithmetic="rational")
    assert warm.warm
    assert float(warm.value) == pytest.approx(float(exact.value), abs=1e-9)
    assert check_duality(warm, dual).ok


def test_starts_without_a_basis_run_cold():
    """A covering-route answer and a rational solve do not resume."""
    inst = gen_bipartite(3, 3, 1.0, seed=1)
    prob = LpProblem(inst.A, inst.b, np.arange(inst.m))
    covering = solve_primal(LpProblem(inst.A, inst.b, np.ones(inst.m)), route="dual")
    assert covering.status is None
    _assert_cold(prob, covering)
    start = solve_primal(LpProblem(inst.A, inst.b, np.ones(inst.m)))
    exact = solve_primal(prob, arithmetic="rational", start=start)
    assert not exact.warm
    assert exact.value == solve_primal(prob, arithmetic="rational").value
