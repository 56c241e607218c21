"""The matching relaxation's odd-set cutting planes against the full polytope.

``BlossomMatchingAdapter.solve_relaxation`` starts from the degree rows and
adds violated odd-set rows until none is left.  Its value must equal the LP
over every odd-set row (``oracles.odd_set_polytope``) in both arithmetics,
its own problem must certify it, and resuming from an earlier answer's rows
must not change any value.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import odd_set_polytope
from stochpack.adapters import CUTS_PER_PASS, _violated_odd_sets, adapter_for
from stochpack.generators import gen_graph, graph_instance
from stochpack.lp import LpProblem, check_duality, solve_dual, solve_primal
from stochpack.matching import max_weight_matching_general


@st.composite
def _weighted_graphs(draw):
    """A graph on 3-10 vertices with at most 15 edges, and edge weights 0-5.

    The edge cap keeps the rational solve of the enumerated polytope quick.
    """
    n = draw(st.integers(3, 10))
    pairs = list(combinations(range(n), 2))
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=15, unique=True)
    )
    weights = draw(st.lists(st.integers(0, 5), min_size=len(chosen), max_size=len(chosen)))
    return graph_instance(n, chosen), np.array(weights)


@settings(max_examples=50, deadline=None)
@given(_weighted_graphs())
def test_cut_lp_equals_enumerated_polytope(graph):
    inst, w = graph
    adapter = adapter_for(inst)
    sol = adapter.solve_relaxation(w)
    A, b = odd_set_polytope(inst.A, inst.b, adapter.n_vertices, adapter.edges)
    full = solve_primal(LpProblem(A, b, w))
    assert float(sol.value) == pytest.approx(float(full.value), abs=1e-9)
    assert check_duality(sol, solve_dual(sol.problem)).ok
    # The rows the loop kept define the same optimum in exact arithmetic.
    exact = solve_primal(sol.problem, arithmetic="rational")
    exact_full = solve_primal(LpProblem(A, b, w), arithmetic="rational", route="dual")
    assert exact.value == exact_full.value
    assert check_duality(exact, solve_dual(sol.problem, arithmetic="rational")).ok


def test_triangle_adds_its_odd_set():
    inst = graph_instance(3, [(0, 1), (0, 2), (1, 2)])
    sol = adapter_for(inst).solve_relaxation(np.ones(3))
    assert float(sol.value) == pytest.approx(1.0)
    assert sol.problem.A.tolist()[3:] == [[1.0, 1.0, 1.0]]
    assert sol.problem.b.tolist()[3:] == [1.0]


def test_warm_chain_matches_cold_loop():
    inst = gen_graph(12, 0.45, seed=3)
    adapter = adapter_for(inst)
    rng = np.random.default_rng(5)
    low = rng.integers(0, 3, size=inst.m)
    high = low + rng.integers(1, 6, size=inst.m)
    c = high.copy()
    prev, warm, rows = None, 0, []
    for _ in range(60):
        picked = rng.random(inst.m) < 0.15
        c = np.where(picked, np.where(rng.random(inst.m) < 0.5, low, high), c)
        sol = adapter.solve_relaxation(c, start=prev)
        cold = adapter.solve_relaxation(c)
        assert float(sol.value) == pytest.approx(float(cold.value), abs=1e-9)
        assert check_duality(sol, solve_dual(sol.problem)).ok
        # The start's rows are the answer's first rows.
        if prev is not None:
            assert np.array_equal(sol.problem.A[: prev.problem.n], prev.problem.A)
        warm += sol.warm
        rows.append(sol.problem.n)
        prev = sol
    assert warm > 0
    assert rows[-1] > inst.n


def test_foreign_start_rows_ignored():
    inst = graph_instance(3, [(0, 1), (0, 2), (1, 2)])
    w = np.ones(3)
    # x(E) <= 0 is no odd-set row: a start that carries it must not be reused.
    bad = solve_primal(LpProblem(np.vstack([inst.A, [1, 1, 1]]), [1, 1, 1, 0], w))
    sol = adapter_for(inst).solve_relaxation(w, start=bad)
    assert float(sol.value) == pytest.approx(1.0)


def test_twenty_vertices_reach_the_matching_value():
    rng = np.random.default_rng(20)
    for seed in range(3):
        inst = gen_graph(20, 0.35, seed=seed)
        adapter = adapter_for(inst)
        for _ in range(2):
            w = rng.integers(0, 9, size=inst.m)
            lp = float(adapter.solve_relaxation(w).value)
            value, _ = max_weight_matching_general(inst.n, adapter.edges, list(w))
            assert lp == pytest.approx(value, abs=1e-7)
            assert adapter.round_integral(w).value == value


def test_one_pass_adds_at_most_cuts_per_pass_rows():
    # Six disjoint triangles at 1/2 per edge, the degree LP's optimum at unit
    # weight: every triangle is violated, but one pass returns five rows.
    edges = [(3 * t + i, 3 * t + j) for t in range(6) for i, j in ((0, 1), (0, 2), (1, 2))]
    x = np.full(len(edges), 0.5)
    cuts = _violated_odd_sets(18, edges, x)
    assert len(cuts) == CUTS_PER_PASS
    for row, cap in cuts:
        assert row @ x > cap
    inst = graph_instance(18, edges)
    assert float(solve_primal(LpProblem(inst.A, inst.b, np.ones(18))).value) == pytest.approx(9.0)
    sol = adapter_for(inst).solve_relaxation(np.ones(18))
    assert float(sol.value) == pytest.approx(6.0)
    assert check_duality(sol, solve_dual(sol.problem)).ok
