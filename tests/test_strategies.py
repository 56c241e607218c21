import math

import numpy as np
import pytest

from stochpack.adapters import adapter_for
from stochpack.errors import StructureError
from stochpack.generators import (
    bipartite_instance,
    gen_bipartite,
    gen_cspip,
    gen_objective,
)
from stochpack.instances import (
    PackingInstance,
    QueryOracle,
    Realization,
    StochasticObjective,
    sample_realization,
)
from stochpack.strategies import (
    StrategyConfig,
    default_iterations,
    default_log_witness_count,
    iteration_bound,
    run_adaptive,
    run_baseline,
    run_nonadaptive,
)


def fresh_run(inst, obj, seed, mode="adaptive", T=None, trace_pessimistic=False,
              derandomize=False, eps=0.2, eps_prime=None, delta=0.2):
    adapter = adapter_for(inst)
    oracle = QueryOracle(inst, sample_realization(obj, seed))
    if T is None:
        T = default_iterations(inst, obj, eps, eps_prime or eps, delta)
    config = StrategyConfig(
        mode=mode, T=T, epsilon=eps, epsilon_prime=eps_prime or eps, delta=delta,
        strategy_seed=seed + 1, trace_pessimistic=trace_pessimistic,
        derandomize_integral=derandomize,
    )
    runner = run_adaptive if mode == "adaptive" else run_nonadaptive
    return runner(inst, obj, oracle, adapter, config), oracle


class TestIterationBound:
    def test_worked_example(self):
        # (1 / (0.2 * 0.5)) * (1 + ln 5) = 26.094 -> 27
        assert iteration_bound(1, 0.2, 0.5, 1.0, 0.2) == 27

    def test_vanishing_quantity_clamps_to_one(self):
        assert iteration_bound(1, 0.5, 1.0, 0.0, 0.999999) == 1

    def test_doubling_delta_c_doubles_before_ceiling(self):
        assert iteration_bound(2, 0.2, 0.5, 1.0, 0.2) == math.ceil(2 * 26.0943611198906)

    def test_no_uncertainty_needs_one_round(self):
        assert iteration_bound(0, 0.2, 0.5, 1.0, 0.2) == 1

    def test_negative_log_count_rejected(self):
        with pytest.raises(StructureError):
            iteration_bound(1, 0.2, 0.5, -0.1, 0.2)

    def test_parameter_ranges(self):
        with pytest.raises(StructureError):
            iteration_bound(1, 0.0, 0.5, 1.0, 0.2)
        with pytest.raises(StructureError):
            iteration_bound(1, 0.2, 1.5, 1.0, 0.2)
        with pytest.raises(StructureError):
            iteration_bound(1, 0.2, 0.5, 1.0, 1.0)

    def test_family_defaults(self):
        inst = gen_bipartite(4, 4, 0.5, seed=0)
        assert default_log_witness_count(inst) == pytest.approx(math.log(9))
        hyper = __import__("stochpack.generators", fromlist=["gen_hypergraph"])
        h = hyper.gen_hypergraph(6, 5, 3, seed=0)
        assert default_log_witness_count(h, epsilon=0.5) == pytest.approx(
            3 * math.log(6) + 2.0
        )
        with pytest.raises(StructureError):
            default_log_witness_count(h)  # epsilon required


class TestDegenerateRuns:
    def test_no_uncertainty_hits_optimum(self, k22):
        obj = StochasticObjective(
            c_minus=[2, 1, 1, 3], c_plus=[2, 1, 1, 3], p=0.5
        )
        for mode in ("adaptive", "nonadaptive"):
            result, _ = fresh_run(k22, obj, seed=5, mode=mode, T=1,
                                  trace_pessimistic=True)
            assert result.value == result.omniscient_ip_value
            assert result.trace.records[0].pessimistic_value == pytest.approx(
                result.omniscient_lp_value
            )

    def test_p_one_bipartite_ratio_is_one(self):
        edges = [(u, 3 + v) for u in range(3) for v in range(3)]
        inst = bipartite_instance(3, 3, edges)
        obj = StochasticObjective(
            c_minus=np.zeros(9, dtype=int), c_plus=np.ones(9, dtype=int), p=1.0
        )
        for seed in range(8):
            result, _ = fresh_run(inst, obj, seed=seed)
            assert result.ratio_vs_omniscient_lp == pytest.approx(1.0)

    def test_single_item_forced_path(self):
        inst = PackingInstance(A=[[1]], b=[1])
        obj = StochasticObjective(c_minus=[0], c_plus=[1], p=0.5)
        real = Realization(c=[1])
        oracle = QueryOracle(inst, real)
        config = StrategyConfig(
            mode="nonadaptive", T=1, epsilon=0.2, epsilon_prime=0.2, delta=0.2,
            strategy_seed=0,
        )
        result = run_nonadaptive(inst, obj, oracle, adapter_for(inst), config)
        # x1 = 1 in the relaxation, so the item is supposed then revealed
        assert oracle.revealed == frozenset({0})
        assert result.value == 1
        assert result.pessimistic_lp_value == pytest.approx(1.0)

    def test_inputs_bound_to_another_instance_rejected(self, k22):
        # same item count as k22, different rows
        other = bipartite_instance(2, 2, [(0, 2), (0, 3), (1, 3), (1, 2)])
        other_rows = PackingInstance(A=other.A, b=other.b)
        assert other_rows.m == k22.m
        obj = StochasticObjective(c_minus=[0] * 4, c_plus=[1] * 4, p=0.5)
        config = StrategyConfig(
            mode="adaptive", T=1, epsilon=0.2, epsilon_prime=0.2, delta=0.2
        )
        real = Realization(c=[1] * 4)
        with pytest.raises(StructureError, match="oracle"):
            run_adaptive(
                k22, obj, QueryOracle(other_rows, real), adapter_for(k22), config
            )
        with pytest.raises(StructureError, match="adapter"):
            run_adaptive(
                k22, obj, QueryOracle(k22, real), adapter_for(other), config
            )

    def test_t_zero_rejected(self):
        with pytest.raises(StructureError):
            StrategyConfig(mode="nonadaptive", T=0, epsilon=0.2,
                           epsilon_prime=0.2, delta=0.2)


class TestTraceInvariants:
    def test_monotone_values_and_sandwich(self):
        inst = gen_bipartite(5, 5, 0.6, seed=3)
        obj = gen_objective(inst.m, seed=4, c_low=(0, 1), c_high=(1, 3), p=0.5)
        for mode in ("adaptive", "nonadaptive"):
            result, _ = fresh_run(inst, obj, seed=9, mode=mode, T=8,
                                  trace_pessimistic=True)
            opt = result.trace.optimistic_values()
            pess = result.trace.pessimistic_values()
            omn = result.omniscient_lp_value
            for a, b in zip(opt, opt[1:]):
                assert b <= a + 1e-7
            for a, b in zip(pess, pess[1:]):
                assert b >= a - 1e-7
            for o, q in zip(opt, pess):
                assert q <= o + 1e-7
                assert q <= omn + 1e-7
            if mode == "adaptive":
                # supposing can push the non-adaptive per-round value below
                # the omniscient one (that is its small-value case); only the
                # adaptive relaxation dominates it throughout
                for o in opt:
                    assert omn <= o + 1e-7

    def test_mu_prime_is_last_optimistic_value(self):
        inst = gen_bipartite(4, 4, 0.7, seed=1)
        obj = gen_objective(inst.m, seed=2, p=0.5)
        result, _ = fresh_run(inst, obj, seed=3, mode="nonadaptive", T=6)
        assert result.trace.mu_prime == result.trace.records[-1].optimistic_value
        adaptive, _ = fresh_run(inst, obj, seed=3, mode="adaptive", T=6)
        assert adaptive.trace.mu_prime is None

    def test_nonadaptive_reveals_exactly_the_supposed_union(self):
        inst = gen_bipartite(5, 5, 0.5, seed=8)
        obj = gen_objective(inst.m, seed=9, p=0.4)
        result, oracle = fresh_run(inst, obj, seed=11, mode="nonadaptive", T=7)
        supposed = set()
        for record in result.trace.records:
            supposed.update(record.selected)
        assert oracle.revealed == frozenset(supposed)

    def test_cumulative_queries_monotone(self):
        inst = gen_bipartite(4, 4, 0.6, seed=5)
        obj = gen_objective(inst.m, seed=6, p=0.5)
        result, _ = fresh_run(inst, obj, seed=7, T=6)
        counts = [r.cumulative_queries for r in result.trace.records]
        assert counts == sorted(counts)
        assert result.queries_total == counts[-1]

    def test_run_is_reproducible(self):
        inst = gen_bipartite(4, 4, 0.6, seed=5)
        obj = gen_objective(inst.m, seed=6, p=0.5)
        r1, _ = fresh_run(inst, obj, seed=7, T=6)
        r2, _ = fresh_run(inst, obj, seed=7, T=6)
        assert r1.value == r2.value
        assert np.array_equal(r1.x_hat, r2.x_hat)
        assert r1.queries_total == r2.queries_total
        assert r1.trace.optimistic_values() == r2.trace.optimistic_values()


class TestQueryBudget:
    def test_expected_reveals_bounded_by_capacity_sum(self):
        inst = gen_bipartite(4, 4, 0.7, seed=2)
        obj = gen_objective(inst.m, seed=3, c_low=(0, 0), c_high=(1, 1), p=0.5)
        T = 5
        totals = []
        for seed in range(60):
            result, _ = fresh_run(inst, obj, seed=seed, T=T)
            totals.append(result.queries_total)
        budget = T * float(inst.b.sum())
        assert np.mean(totals) <= budget * 1.05 + 1

    def test_per_row_reveals_per_iteration_below_capacity(self):
        inst = gen_bipartite(4, 4, 0.7, seed=2)
        obj = gen_objective(inst.m, seed=3, c_low=(0, 0), c_high=(1, 1), p=0.5)
        T = 5
        rows = []
        for seed in range(60):
            result, _ = fresh_run(inst, obj, seed=seed, T=T)
            rows.append(result.queries_per_row / T)
        mean_rows = np.mean(rows, axis=0)
        assert np.all(mean_rows <= inst.b + 0.15)


class TestDerandomization:
    def test_integral_relaxations_make_runs_deterministic(self):
        inst = gen_bipartite(4, 4, 0.8, seed=4)
        obj = gen_objective(inst.m, seed=5, p=0.5)
        real = sample_realization(obj, 77)
        results = []
        for strategy_seed in (1, 2):
            oracle = QueryOracle(inst, real)
            config = StrategyConfig(
                mode="adaptive", T=4, epsilon=0.2, epsilon_prime=0.2, delta=0.2,
                strategy_seed=strategy_seed, derandomize_integral=True,
            )
            results.append(
                run_adaptive(inst, obj, oracle, adapter_for(inst), config)
            )
        a, b = results
        assert np.array_equal(a.x_hat, b.x_hat)
        assert a.queries_total == b.queries_total
        assert [r.selected for r in a.trace.records] == [
            r.selected for r in b.trace.records
        ]


class TestColumnSparse:
    def test_run_scales_probabilities(self):
        inst = gen_cspip(4, 8, 2, seed=6)
        obj = gen_objective(inst.m, seed=7, c_low=(0, 1), c_high=(1, 3), p=0.5)
        adapter = adapter_for(inst)
        assert adapter.scale_w >= 1.0
        result, _ = fresh_run(inst, obj, seed=8, T=4)
        assert np.all(inst.A @ result.x_hat <= inst.b)

    def test_default_iterations_fold_in_scale(self):
        inst = gen_cspip(4, 8, 2, seed=6)
        obj = gen_objective(inst.m, seed=7, c_low=(0, 1), c_high=(1, 3), p=0.5)
        base = iteration_bound(
            obj.delta_c, 0.2, obj.p,
            default_log_witness_count(inst, epsilon=0.2), 0.2,
        )
        total = default_iterations(inst, obj, 0.2, 0.2, 0.2)
        assert total == math.ceil(base * inst.column_scale())


class TestFamilyGuarantees:
    """The pessimistic-LP guarantee, spot-checked per family at small scale.

    With T from the iteration bound, the pessimistic relaxation value should
    reach (1 - eps) of the omniscient one in at least a 1 - delta fraction
    of trials; thresholds carry Monte Carlo slack for the small seed counts.
    """

    def _rate(self, make_inst, trials, eps=0.25, delta=0.25, p=0.5,
              c_high=(0, 1), mode="adaptive"):
        hits = 0
        for trial in range(trials):
            inst = make_inst(trial)
            obj = gen_objective(inst.m, seed=5_000 + trial, c_low=(0, 0),
                                c_high=c_high, p=p)
            result, _ = fresh_run(inst, obj, seed=6_000 + trial, mode=mode,
                                  eps=eps, delta=delta)
            target = (1 - eps) * result.omniscient_lp_value
            hits += result.pessimistic_lp_value >= target - 1e-9
        return hits / trials

    def test_matroid_family(self):
        from stochpack.generators import gen_matroid

        def make(trial):
            return gen_matroid("partition", seed=trial, m=8)

        assert self._rate(make, trials=50) >= 0.65

    def test_hypergraph_family(self):
        from stochpack.generators import gen_hypergraph

        def make(trial):
            return gen_hypergraph(8, 8, 3, seed=trial)

        assert self._rate(make, trials=40, eps=0.3, delta=0.3) >= 0.6

    def test_column_sparse_family(self):
        def make(trial):
            return gen_cspip(5, 8, 2, seed=trial, b_max=2)

        assert self._rate(make, trials=30, eps=0.3, delta=0.3) >= 0.6

    def test_odd_set_family(self):
        from stochpack.generators import gen_graph

        def make(trial):
            return gen_graph(8, 0.4, seed=trial)

        assert self._rate(make, trials=30) >= 0.65


class TestBaselines:
    def test_blind_with_zero_floor_scores_zero(self, k22):
        obj = StochasticObjective(
            c_minus=np.zeros(4, dtype=int), c_plus=np.ones(4, dtype=int), p=0.9
        )
        oracle = QueryOracle(k22, sample_realization(obj, 3))
        result = run_baseline(k22, obj, oracle, adapter_for(k22), "blind")
        assert result.value == 0
        assert result.queries_total == 0

    def test_omniscient_k22(self, k22):
        obj = StochasticObjective(
            c_minus=np.zeros(4, dtype=int), c_plus=np.ones(4, dtype=int), p=1.0
        )
        oracle = QueryOracle(k22, sample_realization(obj, 0))
        result = run_baseline(k22, obj, oracle, adapter_for(k22), "omniscient")
        assert result.value == 2
        assert result.queries_total == 4

    def test_omniscient_dominates_adaptive(self):
        inst = gen_bipartite(4, 4, 0.6, seed=9)
        obj = gen_objective(inst.m, seed=10, p=0.5)
        for seed in range(10):
            real = sample_realization(obj, seed)
            o1, o2 = QueryOracle(inst, real), QueryOracle(inst, real)
            adaptive = run_adaptive(
                inst, obj, o1, adapter_for(inst),
                StrategyConfig(mode="adaptive", T=3, epsilon=0.2,
                               epsilon_prime=0.2, delta=0.2, strategy_seed=seed),
            )
            omni = run_baseline(inst, obj, o2, adapter_for(inst), "omniscient")
            assert omni.value >= adaptive.value

    def test_uniform_random_budget(self):
        inst = gen_bipartite(4, 4, 0.8, seed=1)
        obj = gen_objective(inst.m, seed=2, p=0.5)
        oracle = QueryOracle(inst, sample_realization(obj, 1))
        result = run_baseline(
            inst, obj, oracle, adapter_for(inst), "uniform_random", T=2, seed=5
        )
        assert 0 <= result.queries_total <= inst.m

    def test_unknown_kind_rejected(self, k22):
        obj = StochasticObjective(
            c_minus=np.zeros(4, dtype=int), c_plus=np.ones(4, dtype=int), p=0.5
        )
        oracle = QueryOracle(k22, sample_realization(obj, 0))
        with pytest.raises(StructureError):
            run_baseline(k22, obj, oracle, adapter_for(k22), "psychic")


class TestWarmStart:
    """The round loop resumes each relaxation from the previous answer."""

    def _recorded_run(self, mode, trace_pessimistic=False):
        inst = gen_bipartite(20, 20, 0.3, seed=1)
        obj = gen_objective(inst.m, 2)
        adapter = adapter_for(inst)
        relax = adapter.solve_relaxation
        solves = []

        def recording(weights, start=None):
            sol = relax(weights, start=start)
            solves.append((start, sol))
            return sol

        adapter.solve_relaxation = recording
        T = default_iterations(inst, obj, 0.2, 0.2, 0.2)
        config = StrategyConfig(
            mode=mode, T=T, epsilon=0.2, epsilon_prime=0.2, delta=0.2,
            strategy_seed=3, trace_pessimistic=trace_pessimistic,
        )
        runner = run_adaptive if mode == "adaptive" else run_nonadaptive
        oracle = QueryOracle(inst, sample_realization(obj, 5))
        return runner(inst, obj, oracle, adapter, config), solves, T

    def test_rounds_after_the_first_are_warm(self):
        result, solves, T = self._recorded_run("adaptive")
        rounds = solves[:T]
        assert rounds[0][0] is None and not rounds[0][1].warm
        for (_, prev), (start, sol) in zip(rounds, rounds[1:]):
            assert start is prev
            assert sol.warm
        mean_pivots = np.mean([sol.pivots for _, sol in rounds[1:]])
        assert mean_pivots < 10
        # The pessimistic solve resumes from the last round, the omniscient
        # one from the pessimistic one.
        (pess_start, pess), (omn_start, omn) = solves[T:]
        assert pess_start is rounds[-1][1] and pess.warm
        assert omn_start is pess and omn.warm
        assert float(omn.value) == result.omniscient_lp_value

    def test_tracing_pessimistic_values_keeps_the_run(self):
        for mode in ("adaptive", "nonadaptive"):
            plain, _, _ = self._recorded_run(mode)
            traced, _, _ = self._recorded_run(mode, trace_pessimistic=True)
            assert np.array_equal(plain.x_hat, traced.x_hat)
            assert plain.queries_total == traced.queries_total
            assert [r.selected for r in plain.trace.records] == [
                r.selected for r in traced.trace.records
            ]
            assert all(r.pessimistic_value is not None for r in traced.trace.records)
