import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochpack.adapters import adapter_for
from stochpack.errors import StructureError
from stochpack.generators import (
    bipartite_instance,
    gen_bipartite,
    gen_objective,
)
from stochpack.instances import (
    QueryOracle,
    Realization,
    StochasticObjective,
    sample_realization,
)
from stochpack.sparsify import (
    ColoringConfig,
    SubsetOracleView,
    beta,
    falling_factorial_lower_bound,
    hypergraph_view,
    sparsify,
    speedup_run,
)
from stochpack.strategies import StrategyConfig, run_adaptive


class TestBeta:
    def test_worked_example(self):
        assert beta(2, 0.5, 0.5) == pytest.approx(3.5600743893776676)

    def test_inverse_e_delta(self):
        delta = math.exp(-1.0)
        for k, eps in [(2, 0.3), (3, 0.6)]:
            assert beta(k, eps, delta) == pytest.approx(2 * math.exp(eps / k) / eps)

    def test_monotone_decreasing_in_delta_and_epsilon(self):
        grid = [0.1, 0.2, 0.4, 0.6, 0.8]
        for k in (2, 3):
            for eps in grid:
                values = [beta(k, eps, d) for d in grid]
                assert values == sorted(values, reverse=True)
            for d in grid:
                values = [beta(k, e, d) for e in grid]
                assert values == sorted(values, reverse=True)

    def test_parameter_ranges(self):
        with pytest.raises(StructureError):
            beta(0, 0.5, 0.5)
        with pytest.raises(StructureError):
            beta(2, 0.0, 0.5)
        with pytest.raises(StructureError):
            beta(2, 0.5, 1.0)


class TestColoringConfig:
    def test_color_count_example(self):
        config = ColoringConfig(k=2, epsilon=0.5, delta=0.5, s=3, seed=0)
        assert config.num_colors == 86

    def test_positive_rank_required(self):
        with pytest.raises(StructureError):
            ColoringConfig(k=2, epsilon=0.5, delta=0.5, s=0, seed=0)


class TestSparsify:
    def test_single_edge_survival_frequency(self):
        # palette of exactly 10 colors: collision probability 1/10
        config_args = dict(k=2, epsilon=0.1, delta=0.9, s=1)
        assert ColoringConfig(seed=0, **config_args).num_colors == 10
        survived = 0
        trials = 100_000
        for seed in range(trials):
            result = sparsify(4, [(0, 1)], ColoringConfig(seed=seed, **config_args))
            survived += len(result.surviving)
        assert survived / trials == pytest.approx(0.9, abs=0.01)

    def test_single_color_kills_everything(self):
        config = ColoringConfig(k=2, epsilon=0.95, delta=0.95, s=1, seed=0)
        assert config.num_colors == 1
        result = sparsify(4, [(0, 1), (2, 3)], config)
        assert result.surviving == ()
        assert result.induced is None

    def test_colorful_invariant(self):
        config = ColoringConfig(k=3, epsilon=0.4, delta=0.4, s=2, seed=7)
        edges = [(0, 1, 2), (1, 2, 3), (3, 4, 5), (0, 3, 5)]
        result = sparsify(6, edges, config)
        for idx in result.surviving:
            colors = {int(result.coloring[v]) for v in edges[idx]}
            assert len(colors) == 3

    def test_survivors_are_a_subset(self):
        config = ColoringConfig(k=2, epsilon=0.3, delta=0.3, s=4, seed=3)
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        result = sparsify(5, edges, config)
        assert set(result.surviving) <= set(range(len(edges)))

    def test_needs_two_k_vertices(self):
        config = ColoringConfig(k=2, epsilon=0.3, delta=0.3, s=1, seed=0)
        with pytest.raises(StructureError):
            sparsify(3, [(0, 1)], config)

    def test_uniformity_enforced(self):
        config = ColoringConfig(k=3, epsilon=0.3, delta=0.3, s=1, seed=0)
        with pytest.raises(StructureError):
            sparsify(6, [(0, 1)], config)

    def test_matching_preservation_monte_carlo(self):
        # planted matching of size 5 on 12+12; eps = delta = 0.3
        planted = [(i, 12 + i) for i in range(5)]
        inst = bipartite_instance(12, 12, planted)
        nv, k, edges = hypergraph_view(inst)
        hits = 0
        for seed in range(60):
            config = ColoringConfig(k=2, epsilon=0.3, delta=0.3, s=5, seed=seed)
            result = sparsify(nv, edges, config)
            kept = len(result.surviving)
            colors = result.coloring
            used = [
                frozenset({int(colors[u]), int(colors[v])})
                for (u, v) in (edges[i] for i in result.surviving)
            ]
            best = _max_disjoint(used)
            hits += best >= math.ceil(0.7 * 5)
        assert hits / 60 >= 0.7 - 0.1

    def test_report_text(self):
        config = ColoringConfig(k=2, epsilon=0.3, delta=0.3, s=2, seed=1)
        result = sparsify(4, [(0, 1), (2, 3)], config)
        text = result.report.to_text()
        assert "palette" in text and "survival" in text


def _max_disjoint(sets):
    best = 0

    def walk(i, used, count):
        nonlocal best
        best = max(best, count)
        if i == len(sets) or count + (len(sets) - i) <= best:
            return
        if not (sets[i] & used):
            walk(i + 1, used | sets[i], count + 1)
        walk(i + 1, used, count)

    walk(0, frozenset(), 0)
    return best


class TestFallingFactorial:
    def test_worked_example(self):
        ratio, bound, ok = falling_factorial_lower_bound(4, 2)
        assert ratio == pytest.approx(0.75)
        assert bound == pytest.approx(math.exp(-1))
        assert ok

    def test_k_one_always_passes(self):
        for n in (1, 2, 10, 100):
            ratio, bound, ok = falling_factorial_lower_bound(n, 1)
            assert ratio == 1.0 and ok

    def test_full_grid(self):
        for n in range(2, 101):
            for k in range(1, n // 2 + 1):
                assert falling_factorial_lower_bound(n, k)[2]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 200))
    def test_random_pairs(self, n):
        for k in (1, n // 2 or 1, n):
            ratio, bound, ok = falling_factorial_lower_bound(n, k)
            assert ok

    def test_range_check(self):
        with pytest.raises(StructureError):
            falling_factorial_lower_bound(3, 4)


class TestSubsetOracleView:
    def test_queries_pass_through(self, k22):
        obj = StochasticObjective(
            c_minus=np.zeros(4, dtype=int), c_plus=np.ones(4, dtype=int), p=0.5
        )
        parent = QueryOracle(k22, sample_realization(obj, 3))
        sub_inst = bipartite_instance(2, 2, [(0, 2), (1, 3)])
        view = SubsetOracleView(parent, [1, 3], sub_inst)
        view.query(0)
        assert parent.revealed == frozenset({1})
        assert view.revealed_mask().tolist() == [True, False]
        assert view.total_queries == 1


class TestSpeedup:
    def test_all_distinct_colors_behaves_like_plain_run(self):
        # p = 1 with derandomized integral queries: plain and sparsified runs
        # see the same polytope, so per-round values and the result coincide
        inst = gen_bipartite(4, 4, 0.9, seed=12)
        obj = StochasticObjective(
            c_minus=np.zeros(inst.m, dtype=int),
            c_plus=np.ones(inst.m, dtype=int),
            p=1.0,
        )
        real = sample_realization(obj, 0)
        o1, o2 = QueryOracle(inst, real), QueryOracle(inst, real)
        result = speedup_run(
            inst, obj, o1, adapter_for(inst), epsilon=0.3, delta=0.3,
            coloring_seed=3, strategy_seed=4, derandomize_integral=True,
        )
        assert result.notes["sparsify_report"].edges_after == inst.m
        T = result.notes["iterations"]
        config = StrategyConfig(
            mode="adaptive", T=T, epsilon=0.3, epsilon_prime=result.notes["epsilon_prime"],
            delta=result.notes["delta_prime"], strategy_seed=4,
            derandomize_integral=True,
        )
        plain = run_adaptive(inst, obj, o2, adapter_for(inst), config)
        assert result.value == plain.value
        assert result.trace.optimistic_values() == pytest.approx(
            plain.trace.optimistic_values()
        )

    def test_no_surviving_edge_scores_zero(self):
        # coloring seed 144 gives both endpoints of the only edge one color
        inst = bipartite_instance(2, 2, [(0, 2)])
        obj = StochasticObjective(c_minus=[1], c_plus=[2], p=0.5)
        oracle = QueryOracle(inst, Realization(c=[2]))
        result = speedup_run(
            inst, obj, oracle, adapter_for(inst), epsilon=0.5, delta=0.5,
            coloring_seed=144,
        )
        assert result.notes["sparsify_report"].edges_after == 0
        assert result.value == 0 and result.x_hat.tolist() == [0]
        assert result.pessimistic_lp_value == 0.0
        assert result.omniscient_lp_value == pytest.approx(2.0)
        assert result.omniscient_ip_value == 2
        assert result.ratio_vs_omniscient_lp == result.ratio_vs_omniscient_ip == 0.0
        assert result.queries_total == 0 and result.trace.records == []

    def test_small_bipartite_guarantee(self):
        hits = 0
        for seed in range(15):
            inst = gen_bipartite(10, 10, 0.5, seed=seed)
            obj = gen_objective(inst.m, seed=seed + 50, c_low=(0, 0),
                                c_high=(1, 1), p=0.5)
            oracle = QueryOracle(inst, sample_realization(obj, seed + 100))
            result = speedup_run(
                inst, obj, oracle, adapter_for(inst), epsilon=0.3, delta=0.3,
                coloring_seed=seed + 200, strategy_seed=seed + 300,
            )
            hits += result.value >= (1 - 0.3) * result.omniscient_ip_value - 1e-9
            assert np.all(inst.A @ result.x_hat <= inst.b)
        assert hits >= 11  # 1 - delta = 0.7 of 15, with slack

    def test_forty_per_side_guarantee(self):
        # the 300-seed version of this runs for minutes; 12 seeds exercise the
        # same dimensions with a slacked threshold (expect nearly all to hit)
        hits = 0
        for seed in range(12):
            inst = gen_bipartite(40, 40, 0.15, seed=seed)
            obj = gen_objective(inst.m, seed=seed + 1000, c_low=(0, 0),
                                c_high=(1, 1), p=0.5)
            oracle = QueryOracle(inst, sample_realization(obj, seed + 2000))
            result = speedup_run(
                inst, obj, oracle, adapter_for(inst), epsilon=0.3, delta=0.3,
                coloring_seed=seed + 3000, strategy_seed=seed + 4000,
            )
            hits += result.value >= 0.7 * result.omniscient_ip_value - 1e-9
        assert hits >= 8

    def test_unsupported_family_refused(self):
        from stochpack.generators import gen_generic

        inst = gen_generic(3, 4, seed=0)
        obj = gen_objective(inst.m, seed=1)
        oracle = QueryOracle(inst, sample_realization(obj, 2))
        with pytest.raises(StructureError):
            speedup_run(inst, obj, oracle, adapter_for(inst), 0.3, 0.3)

    def test_notes_capture_parameters(self):
        inst = gen_bipartite(6, 6, 0.6, seed=2)
        obj = gen_objective(inst.m, seed=3, c_low=(0, 0), c_high=(1, 2), p=0.5)
        oracle = QueryOracle(inst, sample_realization(obj, 4))
        result = speedup_run(
            inst, obj, oracle, adapter_for(inst), epsilon=0.4, delta=0.2,
            coloring_seed=5, strategy_seed=6,
        )
        c_max = int(obj.c_plus.max())
        assert result.notes["epsilon_prime"] == pytest.approx(0.4 / (1 + c_max))
        assert result.notes["delta_prime"] == pytest.approx(0.05)
        assert result.notes["alpha"] == 1.0
        assert result.notes["num_colors"] >= 1
