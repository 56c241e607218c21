from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    lp_value_by_vertex_enumeration,
    matching_value_by_enumeration,
)
from stochpack.errors import StructureError
from stochpack.generators import gen_bipartite, gen_cspip, gen_generic
from stochpack.lp import (
    FEAS_TOL,
    GAP_TOL,
    DualSolution,
    LpProblem,
    check_duality,
    solve_dual,
    solve_dual_explicit,
    solve_primal,
)
from stochpack.matching import max_weight_matching_bitmask


def _random_problems(rng):
    """Small LPs for the float/rational cross-check.

    Generic systems with an implied unit box; k-column-sparse systems with
    explicit unit bounds, so variables flip between their bounds; and both
    with one extra covering row -x(S) <= -1, so phase 1 has to run.  Every
    column fits on its own, so each problem is feasible.
    """
    for _ in range(15):
        inst = gen_generic(
            int(rng.integers(1, 5)), int(rng.integers(1, 5)),
            seed=int(rng.integers(0, 10**6)),
        )
        yield LpProblem(inst.A, inst.b, rng.integers(0, 5, size=inst.m))
    for explicit, covering in ((True, False), (True, True), (False, True)):
        for _ in range(8):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            seed = int(rng.integers(0, 10**6))
            if explicit:
                inst = gen_cspip(n, m, int(rng.integers(1, n + 1)), seed=seed)
            else:
                inst = gen_generic(n, m, seed=seed)
            A, b = inst.A, inst.b
            if covering:
                row = -(rng.random(m) < 0.5).astype(np.int64)
                row[int(rng.integers(0, m))] = -1
                A, b = np.vstack([A, row]), np.append(b, -1)
            c = rng.integers(0, 5, size=m)
            yield LpProblem(A, b, c, explicit_unit_bounds=explicit)


def triangle_problem(weights=(1, 1, 1)):
    A = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    return LpProblem(A=A, b=[1, 1, 1], objective=list(weights))


class TestPrimal:
    def test_single_constraint(self):
        prob = LpProblem(A=[[1, 1]], b=[1], objective=[1, 1])
        sol = solve_primal(prob)
        assert sol.value == pytest.approx(1.0)

    def test_k22_unit_weights_matches_enumeration(self, k22):
        prob = LpProblem(k22.A, k22.b, np.ones(4))
        sol = solve_primal(prob)
        edges = [tuple(e) for e in k22.meta["edges"]]
        assert sol.value == pytest.approx(
            matching_value_by_enumeration(edges, [1, 1, 1, 1])
        )
        assert sol.value == pytest.approx(2.0)

    def test_triangle_fractional_optimum(self):
        sol = solve_primal(triangle_problem(), arithmetic="rational")
        assert sol.value == Fraction(3, 2)
        assert list(sol.x) == [Fraction(1, 2)] * 3
        oracle_value = lp_value_by_vertex_enumeration(
            [[1, 1, 0], [1, 0, 1], [0, 1, 1]], [1, 1, 1], [1, 1, 1]
        )
        assert sol.value == oracle_value

    def test_float_matches_rational_on_random_instances(self):
        for prob in _random_problems(np.random.default_rng(3)):
            f = solve_primal(prob)
            r = solve_primal(prob, arithmetic="rational")
            assert f.value == pytest.approx(float(r.value), abs=1e-7)
            assert r.value == lp_value_by_vertex_enumeration(
                prob.A.astype(np.int64), prob.b.astype(np.int64), prob.objective
            )
            for sol in (f, r):
                rep = check_duality(sol, solve_dual(prob, arithmetic=sol.arithmetic))
                assert rep.ok, rep

    def test_determinism_bit_identical(self):
        inst = gen_generic(6, 6, seed=12)
        c = np.arange(6) % 3 + 1
        prob = LpProblem(inst.A, inst.b, c)
        a = solve_primal(prob)
        b = solve_primal(prob)
        assert list(a.x) == list(b.x)
        assert a.value == b.value
        assert a.basis == b.basis

    def test_negative_objective_rejected(self):
        with pytest.raises(StructureError):
            LpProblem(A=[[1]], b=[1], objective=[-1])

    def test_unbounded_detected(self):
        prob = LpProblem(A=[[0]], b=[1], objective=[1])
        for arithmetic in ("float", "rational"):
            with pytest.raises(StructureError, match="unbounded"):
                solve_primal(prob, arithmetic=arithmetic)

    def test_infeasible_detected(self):
        # x <= 1 and x >= 2
        prob = LpProblem(A=[[1], [-1]], b=[1, -2], objective=[1])
        for arithmetic in ("float", "rational"):
            with pytest.raises(StructureError, match="infeasible"):
                solve_primal(prob, arithmetic=arithmetic)

    def test_explicit_unit_bounds_bind(self):
        prob = LpProblem(A=[[1, 1]], b=[2], objective=[3, 2], explicit_unit_bounds=True)
        sol = solve_primal(prob)
        assert np.allclose([float(v) for v in sol.x], [1, 1])
        assert sol.value == pytest.approx(5.0)
        dual = solve_dual(prob)
        rep = check_duality(sol, dual)
        assert rep.ok, rep


class TestDual:
    def test_single_constraint_dual(self):
        prob = LpProblem(A=[[1]], b=[1], objective=[3])
        dual = solve_dual(prob)
        assert list(dual.y) == [pytest.approx(3.0)]
        assert dual.value == pytest.approx(3.0)

    def test_k22_integral_cover(self, k22):
        dual = solve_dual(LpProblem(k22.A, k22.b, np.ones(4)), arithmetic="rational")
        y = list(dual.y)
        assert all(v.denominator == 1 for v in y)
        assert sum(y) == 2

    def test_triangle_strong_duality(self):
        dual = solve_dual(triangle_problem(), arithmetic="rational")
        assert dual.value == Fraction(3, 2)

    def test_explicit_dual_cross_check(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            inst = gen_generic(
                int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                seed=int(rng.integers(0, 10**6)),
            )
            c = rng.integers(0, 4, size=inst.m)
            prob = LpProblem(inst.A, inst.b, c)
            from_basis = solve_dual(prob, arithmetic="rational")
            independent = solve_dual_explicit(prob, arithmetic="rational")
            assert from_basis.value == independent.value

    def test_dual_route_matches_primal_route(self):
        inst = gen_bipartite(4, 4, 0.8, seed=2)
        w = np.arange(inst.m) % 4
        prob = LpProblem(inst.A, inst.b, w)
        a = solve_primal(prob, route="primal")
        b = solve_primal(prob, route="dual")
        assert a.value == pytest.approx(float(b.value), abs=1e-7)
        ar = solve_primal(prob, arithmetic="rational", route="primal")
        br = solve_primal(prob, arithmetic="rational", route="dual")
        assert ar.value == br.value


class TestCheckDuality:
    def test_solved_pairs_pass(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            inst = gen_generic(
                int(rng.integers(1, 8)), int(rng.integers(1, 8)),
                seed=int(rng.integers(0, 10**6)),
            )
            c = rng.integers(0, 5, size=inst.m)
            prob = LpProblem(inst.A, inst.b, c)
            assert check_duality(solve_primal(prob), solve_dual(prob)).ok
            rep = check_duality(
                solve_primal(prob, arithmetic="rational"),
                solve_dual(prob, arithmetic="rational"),
            )
            assert rep.ok and rep.gap == 0

    def test_scaled_dual_fails_feasibility(self, k22):
        prob = LpProblem(k22.A, k22.b, np.ones(4))
        for arithmetic, factor in (("float", 0.9), ("rational", Fraction(9, 10))):
            sol = solve_primal(prob, arithmetic=arithmetic)
            dual = solve_dual(prob, arithmetic=arithmetic)
            y = np.asarray(dual.y) * factor
            broken = DualSolution(
                y=y,
                bound_duals=None,
                value=(np.asarray(dual.y) @ k22.b) * factor,
                arithmetic=arithmetic,
                problem=prob,
            )
            rep = check_duality(sol, broken)
            assert not rep.ok
            assert not rep.dual_feasible
            if arithmetic == "rational":
                assert rep.gap == Fraction(1, 5)

    def test_mismatched_problems_rejected(self, k22):
        p1 = LpProblem(k22.A, k22.b, np.ones(4))
        p2 = LpProblem([[1]], [1], [1])
        with pytest.raises(StructureError):
            check_duality(solve_primal(p1), solve_dual(p2))

    def test_answers_without_a_problem_rejected(self):
        from stochpack.adapters import adapter_for
        from stochpack.generators import gen_matroid

        greedy = adapter_for(gen_matroid("uniform", seed=0, m=5, r=2))
        sol = greedy.solve_relaxation(np.ones(5))
        assert sol.problem is None
        dual = DualSolution(
            y=[], bound_duals=None, value=sol.value, arithmetic="float", problem=None
        )
        with pytest.raises(StructureError):
            check_duality(sol, dual)

    def test_rational_gap_exactly_zero_on_random_10x10(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            inst = gen_generic(
                int(rng.integers(1, 11)), int(rng.integers(1, 11)),
                seed=int(rng.integers(0, 10**6)),
            )
            c = rng.integers(0, 6, size=inst.m)
            prob = LpProblem(inst.A, inst.b, c)
            sol = solve_primal(prob, arithmetic="rational")
            dual = solve_dual(prob, arithmetic="rational")
            assert sol.value - dual.value == 0


class TestIntegrality:
    def test_bipartite_basic_optima_are_binary(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            inst = gen_bipartite(
                int(rng.integers(2, 11)), int(rng.integers(2, 11)), 0.5,
                seed=int(rng.integers(0, 10**6)),
            )
            w = rng.integers(0, 7, size=inst.m)
            sol = solve_primal(LpProblem(inst.A, inst.b, w))
            x = np.asarray(sol.x)
            assert np.all(np.abs(x - np.round(x)) < 1e-7)
            dp_value, _ = max_weight_matching_bitmask(
                inst.n, [tuple(e) for e in inst.meta["edges"]], list(w)
            )
            assert sol.value == pytest.approx(dp_value, abs=1e-7)


def test_tolerances_pinned():
    assert FEAS_TOL == 1e-9
    assert GAP_TOL == 1e-6
