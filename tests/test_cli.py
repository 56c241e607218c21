import json

import pytest

from stochpack.cli import main


def test_gen_validate_round_trip(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(
        ["gen", "bipartite", "--param", "n_left=2", "--param", "n_right=2",
         "--param", "edge_prob=1.0", "-o", str(out), "--seed", "0"]
    ) == 0
    assert main(["validate", str(out)]) == 0
    captured = capsys.readouterr()
    assert "pass" in captured.out


def test_validate_reports_failures(tmp_path, capsys):
    bad = {
        "format": "packing-instance/v1",
        "n": 1, "m": 1, "family": "generic",
        "A": [[0, 0, 2]], "b": [1],
        "c_minus": [0], "c_plus": [1], "p": 0.5, "meta": {},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", str(path)]) == 1
    assert "fail" in capsys.readouterr().out


def test_structure_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_bad_baseline_exit_code(tmp_path):
    spec = {
        "instance": {"kind": "bipartite",
                     "params": {"n_left": 2, "n_right": 2, "edge_prob": 1.0}},
        "baselines": [{"T": 2}],
        "trials": 1,
        "master_seed": 0,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "-o", str(tmp_path / "rows.csv")]) == 2


@pytest.mark.parametrize(
    "strategy, top",
    [
        ({"epsilon": 0.2}, {}),
        ({"mode": "greedy"}, {}),
        ({"mode": "adaptive"}, {"trials": "abc"}),
        ({"mode": "adaptive"}, {"master_seed": "abc"}),
        ({"mode": "adaptive", "T": "x"}, {}),
        ({"mode": "adaptive", "epsilon": "x"}, {}),
        ({"mode": "adaptive", "epsilon_prime": None}, {}),
        ({"mode": "nonadaptive", "delta": [0.2]}, {}),
        ({"mode": "nonadaptive", "logm_constant": "big"}, {}),
        ({"mode": "adaptive"}, {"objective": []}),
        ({"mode": "adaptive"}, {"objective": {"p": "x"}}),
        ({"mode": "adaptive"}, {"objective": {"c_high": "ab"}}),
        ({"mode": "adaptive"}, {"objective": {"c_low": [0]}}),
        ({"mode": "adaptive"}, {"objective": {"c_low": [0, "1"]}}),
        ({"mode": "adaptive"}, {"objective": {"c_low": [0, 1.5]}}),
        ({"mode": "adaptive"}, {"objective": {"c_high": [2, 1]}}),
        ({"mode": "adaptive"}, {"strategies": 5}),
        ({"mode": "adaptive"}, {"baselines": 3}),
        ({"mode": "adaptive"}, {"t_grid": 4}),
    ],
)
def test_bad_strategy_exit_code(tmp_path, strategy, top):
    spec = {
        "instance": {"kind": "bipartite",
                     "params": {"n_left": 2, "n_right": 2, "edge_prob": 1.0}},
        "strategies": [strategy],
        "trials": 1,
        "master_seed": 0,
        **top,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "-o", str(tmp_path / "rows.csv")]) == 2


def test_size_refusal_exit_code(tmp_path):
    out = tmp_path / "inst.json"
    main(["gen", "bipartite", "--param", "n_left=2", "--param", "n_right=2",
          "--param", "edge_prob=1.0", "-o", str(out)])
    # mu above the enumeration guard
    assert main(["witness", str(out), "--mu", "9", "--epsilon", "0.25"]) == 3


def test_witness_and_sparsify(tmp_path, capsys):
    out = tmp_path / "inst.json"
    main(["gen", "bipartite", "--param", "n_left=2", "--param", "n_right=2",
          "--param", "edge_prob=1.0", "-o", str(out)])
    dump = tmp_path / "cover.txt"
    assert main(
        ["witness", str(out), "--mu", "2", "--epsilon", "0.25", "-o", str(dump)]
    ) == 0
    assert "size 5" in capsys.readouterr().out
    assert "witness cover" in dump.read_text()
    assert main(
        ["sparsify", str(out), "--epsilon", "0.4", "--delta", "0.4", "--seed", "1"]
    ) == 0
    assert "palette" in capsys.readouterr().out


def test_run_and_sweep(tmp_path, capsys):
    spec = {
        "format": "experiment/v1",
        "instance": {
            "kind": "bipartite",
            "params": {"n_left": 3, "n_right": 3, "edge_prob": 0.7},
        },
        "objective": {"c_low": [0, 0], "c_high": [1, 1], "p": 0.5},
        "strategies": [
            {"mode": "adaptive", "epsilon": 0.25, "epsilon_prime": 0.25,
             "delta": 0.25, "T": 4}
        ],
        "trials": 3,
        "master_seed": 5,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    csv_path = tmp_path / "out.csv"
    summary_path = tmp_path / "summary.txt"
    assert main(
        ["run", str(spec_path), "-o", str(csv_path), "--summary", str(summary_path)]
    ) == 0
    assert csv_path.read_text().startswith("schema_version,")
    assert "success" in summary_path.read_text()

    spec["t_grid"] = [1, 4]
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(spec))
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", str(sweep_path), "-o", str(sweep_csv)]) == 0
    assert len(sweep_csv.read_text().splitlines()) == 1 + 2 * 3


def test_bad_spec_exit_code(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"format": "experiment/v1", "oops": 1}))
    assert main(["run", str(path), "-o", str(tmp_path / "x.csv")]) == 2


def test_gen_missing_param_exit_code(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "bipartite", "--param", "n_left=3", "-o", str(out)]) == 2
    assert main(["gen", "graph", "--param", "n=abc", "-o", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "params", [{"n_left": "abc", "n_right": 2}, {"n_left": 2}, {"n": 4}]
)
def test_bad_params_give_error_rows(tmp_path, params):
    spec = {
        "instance": {"kind": "bipartite", "params": params},
        "baselines": ["omniscient"],
        "trials": 2,
        "master_seed": 0,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rows = tmp_path / "rows.csv"
    assert main(["run", str(path), "-o", str(rows)]) == 0
    lines = rows.read_text().splitlines()
    assert len(lines) == 3
    assert all("StructureError" in line for line in lines[1:])
