import math
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import (
    count_vectors_under_cap,
    enumerate_sparse_cover_iterative,
    enumerate_tdi_cover_iterative,
)
from stochpack.adapters import adapter_for
from stochpack.errors import SizeRefusalError, StructureError
from stochpack.instances import QueryOracle, StochasticObjective, sample_realization
from stochpack.strategies import StrategyConfig, iteration_bound, run_adaptive
from stochpack.witness import (
    WitnessTracker,
    enumerate_sparse_cover,
    enumerate_tdi_cover,
    grid_round_up,
    run_attached_dynamics,
    run_resampled_dynamics,
    sample_integer_witnesses,
    survival_bound,
    tdi_cover_size_bound,
    verify_cover_property,
)


class TestIntegerCovers:
    def test_two_rows_cap_below_two(self):
        cover = enumerate_tdi_cover([1, 1], 2, 0.25)
        vectors = sorted(tuple(int(v) for v in y) for y in cover.vectors)
        assert vectors == [(0, 0), (0, 1), (1, 0)]
        assert cover.cap == F(3, 2)

    def test_full_epsilon_keeps_only_zero(self):
        cover = enumerate_tdi_cover([1, 1], 2, 1)
        assert len(cover) == 1
        assert all(v == 0 for v in cover.vectors[0])

    def test_stars_and_bars_count(self):
        cover = enumerate_tdi_cover([1, 1, 1], 3, F(1, 3))
        assert len(cover) == 10 == count_vectors_under_cap(3, 2)

    def test_enumerators_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            b = rng.integers(1, 4, size=n).tolist()
            mu = int(rng.integers(1, 5))
            eps = F(int(rng.integers(1, 4)), 4)
            a = enumerate_tdi_cover(b, mu, eps)
            c = enumerate_tdi_cover_iterative(b, mu, eps)
            assert set(a.vectors) == set(c.vectors)

    def test_caps_hold_exactly(self):
        cover = enumerate_tdi_cover([2, 3], 4, F(1, 3))
        assert cover.check_caps()
        for y in cover.vectors:
            assert y[0] * 2 + y[1] * 3 <= F(8, 3)

    def test_size_guards(self):
        with pytest.raises(SizeRefusalError):
            enumerate_tdi_cover([1] * 13, 2, 0.5)
        with pytest.raises(SizeRefusalError):
            enumerate_tdi_cover([1, 1], 9, 0.5)

    def test_size_bound_companion(self):
        assert tdi_cover_size_bound(3, 3) == pytest.approx(
            math.exp(3 * 3 * math.log(2))
        )


class TestSparseCovers:
    def test_tiny_gamma_forces_zero_support(self):
        cover = enumerate_sparse_cover([1, 1], 2, F(1, 2), F(1, 4))
        assert [tuple(map(int, y)) for y in cover.vectors] == [(0, 0)]

    def test_grid_and_double_loop_agree(self):
        a = enumerate_sparse_cover([1, 1], 2, F(1, 2), 1)
        b = enumerate_sparse_cover_iterative([1, 1], 2, F(1, 2), 1)
        assert len(a) == len(b) == 28
        assert set(a.vectors) == set(b.vectors)
        assert a.epsilon_prime == F(1, 4)

    def test_agreement_on_random_configs(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            b = rng.integers(1, 3, size=n).tolist()
            mu = int(rng.integers(1, 3))
            eps = F(1, 2)
            gamma = int(rng.integers(1, 3))
            a = enumerate_sparse_cover(b, mu, eps, gamma)
            c = enumerate_sparse_cover_iterative(b, mu, eps, gamma)
            assert set(a.vectors) == set(c.vectors)

    def test_round_up_dominates_within_relaxed_cap(self):
        rng = np.random.default_rng(31)
        A = np.array([[1, 0, 2], [0, 3, 1]])
        b = [2, 3]
        eps, gamma, mu = F(1, 2), F(2), F(3)
        for _ in range(100):
            y = [F(int(v), 100) for v in rng.integers(0, 120, size=2)]
            total = sum(yi * bi for yi, bi in zip(y, b))
            cap = (1 - eps) * mu
            if total > cap:
                y = [yi * cap / total for yi in y]
            y2 = grid_round_up(y, b, eps, gamma)
            assert all(a >= c for a, c in zip(y2, y))
            yA = [sum(y[i] * A[i][j] for i in range(2)) for j in range(3)]
            y2A = [sum(y2[i] * A[i][j] for i in range(2)) for j in range(3)]
            assert all(a >= c for a, c in zip(y2A, yA))
            assert sum(yi * bi for yi, bi in zip(y2, b)) <= (1 - eps / 2) * mu


class TestCoverProperty:
    def test_zero_cost_is_vacuous(self, k22):
        cover = enumerate_tdi_cover(k22.b, 2, 0.25)
        report = verify_cover_property(cover, k22.A, np.zeros(4, dtype=int))
        assert not report.all_infeasible
        assert 0 in report.feasible_members

    def test_k22_unit_cost_holds_with_margin(self, k22):
        cover = enumerate_tdi_cover(k22.b, 2, 0.25)
        report = verify_cover_property(cover, k22.A, np.ones(4, dtype=int))
        assert report.all_infeasible and report.holds
        assert report.dual_optimum == 2
        assert report.threshold == F(3, 2)
        assert report.margin == F(1, 2)

    def test_low_cost_exercises_vacuous_branch(self, k22):
        cover = enumerate_tdi_cover(k22.b, 2, 0.25)
        # every nonzero member covers two edges; cost below them all
        report = verify_cover_property(cover, k22.A, np.zeros(4, dtype=int))
        assert report.holds is None and report.feasible_members


class TestDynamics:
    def test_single_item_survival_is_half_power_t(self):
        A = np.array([[1]])
        obj = StochasticObjective(c_minus=[0], c_plus=[1], p=0.5)
        cover = enumerate_tdi_cover([1], 1, 0.25)  # just the zero vector
        curve = run_resampled_dynamics(
            A, cover, obj, x_probs=[1.0], rounds=6, n_trials=10_000, seed=5
        )
        for t in range(7):
            assert curve.frequencies[t, 0] == pytest.approx(0.5**t, abs=0.03)
            assert curve.frequencies[t, 0] <= curve.bound(t) + 0.03

    def test_k22_curve_below_bound(self, k22):
        obj = StochasticObjective(
            c_minus=np.zeros(4, dtype=int), c_plus=np.ones(4, dtype=int), p=0.5
        )
        cover = enumerate_tdi_cover(k22.b, 2, 0.25)
        x = np.asarray(adapter_for(k22).solve_relaxation(np.ones(4, dtype=int)).x)
        curve = run_resampled_dynamics(
            k22.A, cover, obj, x_probs=x, rounds=6, n_trials=10_000, seed=6
        )
        mx = curve.max_over_members()
        for t in range(7):
            assert mx[t] <= curve.bound(t) + 0.03

    def test_tracker_monotone_and_text(self, k22):
        tracker = WitnessTracker(np.array([[0, 0, 0, 0], [1, 0, 0, 0]]), k22.A)
        tracker.observe(np.zeros(4, dtype=int))
        tracker.observe(np.array([1, 0, 0, 0]))
        tracker.observe(np.array([1, 0, 1, 0]))
        mat = tracker.feasibility_matrix()
        assert mat.shape == (3, 2)
        assert tracker.monotone_violations() == 0
        assert "F" in tracker.to_text()

    def test_attached_k22_monotone_and_bounded(self, k22):
        obj = StochasticObjective(
            c_minus=np.zeros(4, dtype=int), c_plus=np.ones(4, dtype=int), p=0.5
        )
        adapter = adapter_for(k22)

        def cover_builder(mu):
            return enumerate_tdi_cover(
                k22.b, F(mu).limit_denominator(10**6), F(1, 4)
            )

        def config_factory(trial):
            return StrategyConfig(
                mode="adaptive", T=5, epsilon=0.25, epsilon_prime=0.25,
                delta=0.25, strategy_seed=trial,
            )

        dyn = run_attached_dynamics(
            k22, obj, adapter, cover_builder, run_adaptive, config_factory,
            n_trials=300, seed=123,
        )
        assert dyn.monotone_violations == 0
        assert dyn.worst_excess() <= 0.03

    def test_union_bound_after_recommended_iterations(self, k22):
        # with T at the iteration bound, at most a delta fraction of runs may
        # keep any cover member feasible (union bound); slack for 400 seeds
        obj = StochasticObjective(
            c_minus=np.zeros(4, dtype=int), c_plus=np.ones(4, dtype=int), p=0.5
        )
        adapter = adapter_for(k22)
        eps = eps_prime = 0.25
        delta = 0.25
        T = iteration_bound(
            obj.delta_c, eps_prime, obj.p, math.log(1 + k22.n), delta
        )
        survivors = 0
        relevant = 0
        for trial in range(400):
            realization = sample_realization(obj, 60_000 + trial)
            oracle = QueryOracle(k22, realization)
            mu = float(adapter.solve_relaxation(realization.c).value)
            if mu < 1:
                continue
            relevant += 1
            cover = enumerate_tdi_cover(
                k22.b, F(mu).limit_denominator(10**6), F(1, 4)
            )
            tracker = WitnessTracker(cover.matrix(), k22.A)
            config = StrategyConfig(
                mode="adaptive", T=T, epsilon=eps, epsilon_prime=eps_prime,
                delta=delta, strategy_seed=61_000 + trial,
            )
            run_adaptive(k22, obj, oracle, adapter, config, hook=tracker.hook)
            survivors += bool(tracker.feasibility_matrix()[-1].any())
        assert relevant > 100
        assert survivors / relevant <= delta + 0.05

    def test_survival_curve_csv(self):
        A = np.array([[1]])
        obj = StochasticObjective(c_minus=[0], c_plus=[1], p=0.5)
        cover = enumerate_tdi_cover([1], 1, 0.5)
        curve = run_resampled_dynamics(
            A, cover, obj, x_probs=[1.0], rounds=2, n_trials=100, seed=0
        )
        text = curve.to_csv()
        assert text.startswith("t,y0,bound")
        assert len(text.strip().splitlines()) == 4

    def test_bound_requires_uncertainty(self):
        with pytest.raises(StructureError):
            survival_bound(0.2, 0.5, 1.0, 0, 3)

    def test_witness_sampler_respects_cap(self):
        b = [1, 2, 1]
        sample = sample_integer_witnesses(b, cap=4.0, count=20, seed=9)
        assert (sample[0] == 0).all()
        for y in sample:
            assert float(y @ np.array(b)) <= 4.0


def test_cover_text_dump(k22):
    cover = enumerate_tdi_cover(k22.b, 2, 0.25)
    text = cover.to_text()
    assert "size=5" in text and "tdi-integer" in text
