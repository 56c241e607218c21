import numpy as np
import pytest

from stochpack.errors import StructureError
from stochpack.harness import (
    CSV_COLUMNS,
    child_seed,
    load_spec,
    rows_to_csv,
    run_experiment,
    sweep_T,
    validate_spec,
    wilson_interval,
    write_csv,
)


def small_spec(**overrides):
    spec = {
        "format": "experiment/v1",
        "instance": {
            "kind": "bipartite",
            "params": {"n_left": 3, "n_right": 3, "edge_prob": 0.7},
        },
        "objective": {"c_low": [0, 0], "c_high": [1, 2], "p": 0.5},
        "strategies": [
            {
                "mode": "adaptive",
                "epsilon": 0.25,
                "epsilon_prime": 0.25,
                "delta": 0.25,
                "T": 6,
            }
        ],
        "trials": 5,
        "master_seed": 99,
    }
    spec.update(overrides)
    return spec


class TestSeedSplitting:
    def test_frozen_values(self):
        # locks the documented hash-based splitting rule
        assert child_seed(42, "bipartite#0", 0, "nature") == 7_425_103_704_477_455_407
        assert child_seed(42, "bipartite#0", 0, "strategy") != child_seed(
            42, "bipartite#0", 0, "nature"
        )

    def test_streams_differ_by_any_part(self):
        base = child_seed(1, "a", 0, "nature")
        assert base != child_seed(2, "a", 0, "nature")
        assert base != child_seed(1, "b", 0, "nature")
        assert base != child_seed(1, "a", 1, "nature")


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(80, 100)
        assert lo == pytest.approx(0.7112, abs=1e-3)
        assert hi == pytest.approx(0.8661, abs=1e-3)

    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestSpecValidation:
    def test_unknown_fields_rejected(self):
        with pytest.raises(StructureError, match="unknown spec fields"):
            validate_spec(small_spec(mystery=1))

    def test_trials_must_be_positive(self):
        with pytest.raises(StructureError):
            validate_spec(small_spec(trials=0))

    def test_needs_some_grid(self):
        spec = small_spec()
        spec["strategies"] = []
        with pytest.raises(StructureError):
            validate_spec(spec)

    def test_t_zero_forbidden(self):
        spec = small_spec(t_grid=[0, 1])
        with pytest.raises(StructureError):
            validate_spec(spec)
        spec2 = small_spec()
        spec2["strategies"][0]["T"] = 0
        with pytest.raises(StructureError):
            validate_spec(spec2)

    @pytest.mark.parametrize(
        "baseline",
        [{"T": 2}, {"kind": "psychic"}, "psychic", {"kind": "blind", "seed": 1},
         {"kind": "uniform_random", "T": 0}],
    )
    def test_bad_baselines_rejected(self, baseline):
        with pytest.raises(StructureError, match="baseline"):
            validate_spec(small_spec(baselines=[baseline]))

    def test_file_instance_excludes_objective(self, tmp_path):
        spec = small_spec()
        spec["instance"] = {"file": "whatever.json"}
        with pytest.raises(StructureError):
            validate_spec(spec)

    def test_load_spec_round_trip(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(small_spec()))
        loaded = load_spec(path)
        assert loaded["trials"] == 5


class TestRunExperiment:
    def test_no_uncertainty_gives_unit_ratio(self):
        spec = small_spec(objective={"c_low": [2, 2], "c_high": [2, 2], "p": 0.5},
                          trials=2)
        rows, _ = run_experiment(spec)
        for row in rows:
            assert row["error"] == ""
            assert float(row["ratio_ip"]) == pytest.approx(1.0)

    def test_ratios_within_bounds(self):
        rows, _ = run_experiment(small_spec())
        for row in rows:
            assert row["error"] == ""
            assert 0.0 <= float(row["ratio_lp"]) <= 1.0 + 1e-9
            assert float(row["value"]) <= float(row["omniscient_lp"]) + 1e-9

    def test_deterministic_rows_serial_vs_parallel(self):
        spec = small_spec()
        rows1, _ = run_experiment(spec, workers=1)
        rows2, _ = run_experiment(spec, workers=2)
        assert rows_to_csv(rows1) == rows_to_csv(rows2)
        rows3, _ = run_experiment(spec, workers=1)
        assert rows_to_csv(rows1) == rows_to_csv(rows3)

    def test_csv_schema(self, tmp_path):
        rows, _ = run_experiment(small_spec(trials=1))
        text = rows_to_csv(rows)
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert text.splitlines()[1].startswith("1,")  # schema version column
        out = tmp_path / "rows.csv"
        write_csv(rows, out)
        assert out.read_text().startswith(header)

    def test_failure_isolation(self):
        # 30 hyperedges > the brute-force rounding limit: every trial errors
        # but the run still completes with tagged rows
        spec = small_spec()
        spec["instance"] = {
            "kind": "hypergraph",
            "params": {"n": 12, "m": 30, "k": 2},
        }
        rows, summary = run_experiment(spec)
        assert len(rows) == 5
        assert all("SizeRefusalError" in row["error"] for row in rows)
        assert "errors 5" in summary

    def test_baseline_rows(self):
        spec = small_spec(baselines=["omniscient", "blind"], trials=2)
        rows, _ = run_experiment(spec)
        modes = {row["mode"] for row in rows}
        assert {"adaptive", "baseline:omniscient", "baseline:blind"} <= modes
        omn = [r for r in rows if r["mode"] == "baseline:omniscient"]
        assert all(int(r["success"]) == 1 for r in omn)

    def test_bad_file_metadata_gives_error_rows(self, tmp_path):
        import json

        from stochpack.generators import gen_matroid
        from stochpack.instances import StochasticObjective, save_instance

        inst = gen_matroid("uniform", seed=0, m=5, r=2)
        path = tmp_path / "uniform.json"
        save_instance(
            path, inst, StochasticObjective(c_minus=[0] * 5, c_plus=[1] * 5, p=0.5)
        )
        data = json.loads(path.read_text())
        del data["meta"]["matroid"]["rank"]
        path.write_text(json.dumps(data))
        spec = small_spec(trials=2)
        spec.pop("objective")
        spec["instance"] = {"file": str(path)}
        rows, _ = run_experiment(spec)
        assert len(rows) == 2
        assert all("StructureError" in row["error"] for row in rows)

    def test_file_instance_source(self, tmp_path, k22):
        from stochpack.instances import StochasticObjective, save_instance

        path = tmp_path / "k22.json"
        save_instance(
            path, k22,
            StochasticObjective(c_minus=[0] * 4, c_plus=[1] * 4, p=0.5),
        )
        spec = small_spec()
        spec.pop("objective")
        spec["instance"] = {"file": str(path)}
        rows, _ = run_experiment(spec)
        assert all(row["instance_id"] == "k22.json" for row in rows)
        assert all(row["error"] == "" for row in rows)


class TestSweep:
    def test_t_grid_expansion_and_query_growth(self):
        spec = small_spec(t_grid=[1, 4, 8])
        spec["instance"]["per_trial"] = False
        spec["trials"] = 8
        rows, _ = sweep_T(spec)
        assert len(rows) == 3 * 8
        mean_queries = []
        for idx in range(3):
            chunk = rows[idx * 8 : (idx + 1) * 8]
            mean_queries.append(
                np.mean([int(r["queries_total"]) for r in chunk])
            )
        # more rounds never means fewer reveals on a fixed instance
        assert mean_queries[0] <= mean_queries[1] + 1e-9
        assert mean_queries[1] <= mean_queries[2] + 1e-9

    def test_missing_grid_rejected(self):
        with pytest.raises(StructureError):
            sweep_T(small_spec())

    def test_success_rate_improves_with_recommended_iterations(self):
        # scaled-down version of the acceptance setup: auto T (the iteration
        # bound) should do at least as well as a single round, statistically
        spec = small_spec(trials=80)
        spec["instance"]["params"] = {"n_left": 6, "n_right": 6, "edge_prob": 0.5}
        spec["objective"] = {"c_low": [0, 2], "c_high": [0, 2], "p": 0.5}
        spec["strategies"] = [
            {"mode": "adaptive", "epsilon": 0.25, "epsilon_prime": 0.25,
             "delta": 0.25, "T": 1},
            {"mode": "adaptive", "epsilon": 0.25, "epsilon_prime": 0.25,
             "delta": 0.25},  # auto = iteration bound
        ]
        rows, _ = run_experiment(spec)
        rate_t1 = np.mean([int(r["success"]) for r in rows[:80]])
        rate_auto = np.mean([int(r["success"]) for r in rows[80:]])
        assert rate_auto >= rate_t1 - 0.05

    def test_queries_grow_sublinearly_in_t(self):
        spec = small_spec(t_grid=[2, 4, 8, 16])
        spec["instance"]["per_trial"] = False
        spec["trials"] = 25
        rows, _ = sweep_T(spec)
        means = []
        for idx in range(4):
            chunk = rows[idx * 25 : (idx + 1) * 25]
            means.append(np.mean([int(r["queries_total"]) for r in chunk]))
        # reveals saturate, so per-round averages must not grow
        per_round = [m / t for m, t in zip(means, [2, 4, 8, 16])]
        for a, b in zip(per_round, per_round[1:]):
            assert b <= a * 1.05 + 0.05
