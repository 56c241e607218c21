"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines appear.
Monte Carlo thresholds carry the stated slack; runtime limits are asserted.
Witness-feasibility traces recorded by the Monte Carlo criteria feed the
monotone-infeasibility criterion, which therefore runs after them.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import (
    count_vectors_under_cap,
    enumerate_tdi_cover_iterative,
    matching_value_by_enumeration,
)
from oracles import independent_set_value_by_enumeration as brute_force_max_weight
from stochpack.adapters import adapter_for
from stochpack.generators import (
    bipartite_instance,
    gen_bipartite,
    gen_cspip,
    gen_generic,
    gen_graph,
    gen_hypergraph,
    gen_matroid,
    gen_objective,
)
from stochpack.harness import rows_to_csv, run_experiment
from stochpack.instances import QueryOracle, StochasticObjective, sample_realization
from stochpack.lp import LpProblem, check_duality, solve_dual, solve_primal
from stochpack.matching import max_weight_matching_bitmask
from stochpack.matroids import greedy_max_weight
from stochpack.sparsify import ColoringConfig, falling_factorial_lower_bound, sparsify
from stochpack.strategies import (
    StrategyConfig,
    iteration_bound,
    run_adaptive,
    run_nonadaptive,
)
from stochpack.witness import (
    WitnessTracker,
    enumerate_tdi_cover,
    run_attached_dynamics,
    run_resampled_dynamics,
    sample_integer_witnesses,
)

#: infeasible -> feasible transitions observed across all traced runs (crit. 6)
MONOTONE_VIOLATIONS = {"count": 0, "observations": 0}


def _verdict(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def _deadline(start, limit, name):
    elapsed = time.monotonic() - start
    assert elapsed < limit, f"{name} took {elapsed:.1f}s (limit {limit}s)"
    return elapsed


def test_criterion_1_duality_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst_float_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        m = int(rng.integers(1, 21))
        inst = gen_generic(n, m, seed=int(rng.integers(0, 10**9)))
        c = rng.integers(0, 6, size=m)
        prob = LpProblem(inst.A, inst.b, c)
        sol_f = solve_primal(prob)
        dual_f = solve_dual(prob)
        rep_f = check_duality(sol_f, dual_f)
        assert rep_f.ok and abs(rep_f.gap) <= 1e-6, rep_f
        worst_float_gap = max(worst_float_gap, abs(rep_f.gap))
        sol_r = solve_primal(prob, arithmetic="rational")
        dual_r = solve_dual(prob, arithmetic="rational")
        rep_r = check_duality(sol_r, dual_r)
        assert rep_r.ok and rep_r.gap == 0, rep_r
    elapsed = _deadline(start, 30, "criterion 1")
    _verdict(
        "criterion 1 (duality suite)",
        True,
        f"200 instances, rational gap 0, worst float gap {worst_float_gap:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_bipartite_integrality():
    start = time.monotonic()
    rng = np.random.default_rng(2002)
    for _ in range(100):
        inst = gen_bipartite(
            int(rng.integers(2, 11)), int(rng.integers(2, 11)), 0.5,
            seed=int(rng.integers(0, 10**9)),
        )
        w = rng.integers(0, 7, size=inst.m)
        sol = adapter_for(inst).solve_relaxation(w)
        x = np.asarray(sol.x)
        assert np.all(np.abs(x - np.round(x)) < 1e-7), "fractional vertex"
        edges = [tuple(e) for e in inst.meta["edges"]]
        dp_value, _ = max_weight_matching_bitmask(inst.n, edges, list(w))
        assert sol.value == pytest.approx(dp_value, abs=1e-7)
        if inst.m <= 13:
            assert dp_value == matching_value_by_enumeration(edges, list(w))
    elapsed = _deadline(start, 30, "criterion 2")
    _verdict(
        "criterion 2 (bipartite integrality)",
        True,
        f"100 instances, all basic optima 0/1 and equal to exact matching, "
        f"{elapsed:.1f}s",
    )


def _guarantee_trial(mode, trial):
    """One acceptance trial on a fresh 8+8 bipartite instance.

    Returns (success, pess_lp, omn_lp) and feeds the witness accumulator.
    """
    inst = gen_bipartite(8, 8, 0.5, seed=90_000 + trial)
    obj = gen_objective(inst.m, seed=91_000 + trial, c_low=(0, 2), c_high=(0, 2),
                        p=0.5)
    realization = sample_realization(obj, 92_000 + trial)
    oracle = QueryOracle(inst, realization)
    adapter = adapter_for(inst)
    eps = eps_prime = 0.2
    delta = 0.2
    log_m = math.log(1 + inst.n)
    T = iteration_bound(obj.delta_c, eps_prime, obj.p, log_m, delta)
    omn_lp = float(adapter.solve_relaxation(realization.c).value)
    cap = (1 - eps_prime) * omn_lp
    vectors = sample_integer_witnesses(inst.b, cap=cap, count=24,
                                       seed=93_000 + trial)
    tracker = WitnessTracker(vectors, inst.A)
    config = StrategyConfig(
        mode=mode, T=T, epsilon=eps, epsilon_prime=eps_prime, delta=delta,
        strategy_seed=94_000 + trial,
    )
    runner = run_adaptive if mode == "adaptive" else run_nonadaptive
    result = runner(inst, obj, oracle, adapter, config, hook=tracker.hook)
    MONOTONE_VIOLATIONS["count"] += tracker.monotone_violations()
    MONOTONE_VIOLATIONS["observations"] += tracker.feasibility_matrix().size
    if mode == "adaptive":
        success = result.pessimistic_lp_value >= (1 - eps) * omn_lp - 1e-9
    else:
        success = result.value >= (1 - eps) / 2 * omn_lp - 1e-9
    return success


def test_criterion_3_adaptive_guarantee():
    start = time.monotonic()
    trials = 500
    successes = sum(_guarantee_trial("adaptive", t) for t in range(trials))
    rate = successes / trials
    elapsed = _deadline(start, 300, "criterion 3")
    _verdict(
        "criterion 3 (adaptive guarantee)",
        rate >= 0.80 - 0.04,
        f"success rate {rate:.3f} over {trials} seeds (need >= 0.76), "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_nonadaptive_guarantee():
    start = time.monotonic()
    trials = 500
    successes = sum(_guarantee_trial("nonadaptive", t) for t in range(trials))
    rate = successes / trials
    elapsed = _deadline(start, 300, "criterion 4")
    _verdict(
        "criterion 4 (non-adaptive guarantee)",
        rate >= 0.80 - 0.04,
        f"success rate {rate:.3f} over {trials} seeds (need >= 0.76), "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_single_step_witness_bound(k22):
    start = time.monotonic()
    rounds, trials = 8, 10_000
    # single item: y = 0 survives a round only while the item keeps missing
    # its top value, so survival is exactly (1/2)^t
    single_A = np.array([[1]])
    obj1 = StochasticObjective(c_minus=[0], c_plus=[1], p=0.5)
    cover1 = enumerate_tdi_cover([1], 1, F(1, 4))
    curve1 = run_resampled_dynamics(
        single_A, cover1, obj1, x_probs=[1.0], rounds=rounds,
        n_trials=trials, seed=50_001,
    )
    worst_gap = 0.0
    for t in range(rounds + 1):
        freq = float(curve1.frequencies[t, 0])
        assert abs(freq - 0.5**t) <= 0.03
        assert freq <= curve1.bound(t) + 0.03
        worst_gap = max(worst_gap, freq - curve1.bound(t))

    obj4 = StochasticObjective(
        c_minus=np.zeros(4, dtype=int), c_plus=np.ones(4, dtype=int), p=0.5
    )
    cover4 = enumerate_tdi_cover(k22.b, 2, F(1, 4))
    x = np.asarray(adapter_for(k22).solve_relaxation(np.ones(4, dtype=int)).x)
    curve4 = run_resampled_dynamics(
        k22.A, cover4, obj4, x_probs=x, rounds=rounds, n_trials=trials,
        seed=50_002,
    )
    mx = curve4.max_over_members()
    for t in range(rounds + 1):
        assert mx[t] <= curve4.bound(t) + 0.03
        worst_gap = max(worst_gap, float(mx[t]) - curve4.bound(t))

    # attached mode: real adaptive runs, covers for the realized value
    adapter = adapter_for(k22)

    def cover_builder(mu):
        return enumerate_tdi_cover(k22.b, F(mu).limit_denominator(10**6), F(1, 4))

    def config_factory(trial):
        return StrategyConfig(
            mode="adaptive", T=6, epsilon=0.25, epsilon_prime=0.25, delta=0.25,
            strategy_seed=trial,
        )

    dyn = run_attached_dynamics(
        k22, obj4, adapter, cover_builder, run_adaptive, config_factory,
        n_trials=1000, seed=50_003,
    )
    MONOTONE_VIOLATIONS["count"] += dyn.monotone_violations
    MONOTONE_VIOLATIONS["observations"] += 1000 * 7
    assert dyn.worst_excess() <= 0.03
    elapsed = _deadline(start, 120, "criterion 5")
    _verdict(
        "criterion 5 (single-step witness bound)",
        True,
        f"survival within bound + 0.03 on both constructions over {trials} "
        f"seeds (worst excess {max(worst_gap, dyn.worst_excess()):+.3f}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_monotone_infeasibility():
    observed = MONOTONE_VIOLATIONS["observations"]
    assert observed > 0, "criteria 3-5 must run first"
    violations = MONOTONE_VIOLATIONS["count"]
    _verdict(
        "criterion 6 (monotone infeasibility)",
        violations == 0,
        f"{violations} infeasible->feasible transitions across "
        f"{observed} tracked observations",
    )


def test_criterion_7_sparsification_preservation():
    start = time.monotonic()
    rng = np.random.default_rng(7007)
    planted = [(i, 40 + i) for i in range(10)]
    extra = [
        (u, 40 + v)
        for u in range(10)
        for v in range(10)
        if u != v and rng.random() < 0.3
    ]
    inst = bipartite_instance(40, 40, planted + extra)
    edges = [tuple(e) for e in inst.meta["edges"]]
    target = math.ceil(0.7 * 10)
    trials, hits = 300, 0
    for seed in range(trials):
        config = ColoringConfig(k=2, epsilon=0.3, delta=0.3, s=10, seed=seed)
        result = sparsify(80, edges, config)
        surviving_planted = [
            frozenset(
                {int(result.coloring[u]), int(result.coloring[v])}
            )
            for idx in result.surviving
            if idx < 10
            for (u, v) in [edges[idx]]
        ]
        if _max_disjoint(surviving_planted) >= target:
            hits += 1
            continue
        # fall back to the full survivor graph before scoring a miss
        if result.induced is not None:
            from stochpack.matching import max_weight_matching_general

            n_colors = result.induced.n
            coledges = [tuple(e) for e in result.induced.meta["edges"]]
            value, _ = max_weight_matching_general(
                n_colors, coledges, [1] * len(coledges)
            )
            if value >= target:
                hits += 1
    rate = hits / trials
    elapsed = _deadline(start, 180, "criterion 7")
    _verdict(
        "criterion 7 (sparsification preservation)",
        rate >= 0.70 - 0.04,
        f"matching of size >= {target} kept in {rate:.3f} of {trials} seeds "
        f"(need >= 0.66), {elapsed:.1f}s",
    )


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


def test_criterion_8_falling_factorial():
    start = time.monotonic()
    violations = [
        (n, k)
        for n in range(2, 101)
        for k in range(1, n // 2 + 1)
        if not falling_factorial_lower_bound(n, k)[2]
    ]
    elapsed = _deadline(start, 1, "criterion 8")
    _verdict(
        "criterion 8 (falling factorial)",
        not violations,
        f"0 violations on the full grid, {elapsed * 1000:.0f}ms",
    )


def test_criterion_9_witness_cover_counts():
    start = time.monotonic()
    cover = enumerate_tdi_cover([1, 1, 1], 3, F(1, 3))
    assert len(cover) == 10 == count_vectors_under_cap(3, 2)
    rng = np.random.default_rng(9009)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        b = rng.integers(1, 4, size=n).tolist()
        mu = int(rng.integers(1, 6))
        eps = F(int(rng.integers(1, 5)), 5)
        a = enumerate_tdi_cover(b, mu, eps)
        c = enumerate_tdi_cover_iterative(b, mu, eps)
        assert set(a.vectors) == set(c.vectors)
        assert a.check_caps()
    elapsed = _deadline(start, 10, "criterion 9")
    _verdict(
        "criterion 9 (witness-cover counts)",
        True,
        f"stars-and-bars count 10 reproduced; enumerators agree on 50 random "
        f"configurations, {elapsed:.1f}s",
    )


def test_criterion_10_lp_relative_contract(triangle):
    start = time.monotonic()
    rng = np.random.default_rng(1010)
    corpus = []
    for seed in range(3):
        corpus.append(gen_bipartite(4, 4, 0.6, seed=seed))
        corpus.append(gen_graph(6, 0.5, seed=seed))
        corpus.append(gen_hypergraph(7, 7, 3, seed=seed))
        corpus.append(gen_generic(4, 6, seed=seed))
        corpus.append(gen_cspip(4, 6, 2, seed=seed))
        corpus.append(gen_matroid("uniform", seed=seed, m=6, r=2))
        corpus.append(gen_matroid("partition", seed=seed, m=7))
        corpus.append(gen_matroid("graphic", seed=seed, n_vertices=5))
    checked = 0
    for inst in corpus:
        adapter = adapter_for(inst)
        for _ in range(3):
            w = rng.integers(0, 5, size=inst.m)
            lp = float(adapter.solve_relaxation(w).value)
            rounded = adapter.round_integral(w)
            assert rounded.value >= adapter.alpha * lp - 1e-6
            checked += 1
    # matroid greedy equals brute force up to the stated ground-set size
    for matroid_inst in (
        gen_matroid("uniform", seed=4, m=16, r=5),
        gen_matroid("partition", seed=4, m=16),
    ):
        adapter = adapter_for(matroid_inst)
        w = list(rng.integers(0, 6, size=16))
        greedy, _ = greedy_max_weight(adapter.matroid, w)
        assert greedy == brute_force_max_weight(adapter.matroid, w)
    # triangle: 3/2 without odd sets, 1 with them
    unit = np.ones(3, dtype=int)
    degree_lp = solve_primal(LpProblem(triangle.A, triangle.b, unit)).value
    blossom_lp = float(adapter_for(triangle).solve_relaxation(unit).value)
    assert degree_lp == pytest.approx(1.5)
    assert blossom_lp == pytest.approx(1.0)
    elapsed = _deadline(start, 60, "criterion 10")
    _verdict(
        "criterion 10 (LP-relative contract)",
        True,
        f"{checked} corpus checks passed; matroid greedy = brute force at "
        f"m=16; triangle LP 3/2 vs 1, {elapsed:.1f}s",
    )


def test_criterion_11_deterministic_csv():
    start = time.monotonic()
    spec = {
        "format": "experiment/v1",
        "instance": {
            "kind": "bipartite",
            "params": {"n_left": 5, "n_right": 5, "edge_prob": 0.6},
        },
        "objective": {"c_low": [0, 1], "c_high": [1, 3], "p": 0.5},
        "strategies": [
            {"mode": "adaptive", "epsilon": 0.25, "epsilon_prime": 0.25,
             "delta": 0.25, "T": 8},
            {"mode": "nonadaptive", "epsilon": 0.25, "epsilon_prime": 0.25,
             "delta": 0.25, "T": 8},
        ],
        "baselines": ["omniscient"],
        "trials": 10,
        "master_seed": 777,
    }
    outputs = set()
    for workers in (1, 1, 2, 3):
        rows, _ = run_experiment(spec, workers=workers)
        outputs.add(rows_to_csv(rows))
    elapsed = _deadline(start, 120, "criterion 11")
    _verdict(
        "criterion 11 (deterministic CSV)",
        len(outputs) == 1,
        f"4 runs (serial and parallel) produced byte-identical CSV, "
        f"{elapsed:.1f}s",
    )
