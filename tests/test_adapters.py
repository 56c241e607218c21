import numpy as np
import pytest

from oracles import (
    independent_set_value_by_enumeration,
    lp_value_by_vertex_enumeration,
    matching_value_by_enumeration,
    odd_set_polytope,
    set_packing_value_by_enumeration,
    spot_check_submodularity,
)
from stochpack.adapters import (
    BlossomMatchingAdapter,
    DegreeRelaxationAdapter,
    adapter_for,
    hypergraph_view,
)
from stochpack.errors import SizeRefusalError, StructureError
from stochpack.generators import (
    bipartite_instance,
    gen_bipartite,
    gen_cspip,
    gen_generic,
    gen_graph,
    gen_hypergraph,
    gen_matroid,
    graph_instance,
    hypergraph_instance,
)
from stochpack.lp import LpProblem, solve_primal
from stochpack.matroids import (
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    greedy_max_weight,
)


class TestBipartite:
    def test_weight_matrix_example(self):
        # 2x2 weight matrix [[3,1],[2,4]]: best matching value 7
        inst = bipartite_instance(2, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
        adapter = adapter_for(inst)
        rounded = adapter.round_integral(np.array([3, 1, 2, 4]))
        assert rounded.value == 7
        assert rounded.x.tolist() == [1, 0, 0, 1]

    def test_zero_weights_empty_solution(self, k22):
        adapter = adapter_for(k22)
        rounded = adapter.round_integral(np.zeros(4, dtype=int))
        assert rounded.value == 0
        assert rounded.x.sum() == 0

    def test_omniscient_k22(self, k22):
        assert adapter_for(k22).omniscient_ip(np.ones(4, dtype=int)) == 2

    def test_empty_edge_set(self):
        inst = bipartite_instance(2, 2, [])
        adapter = adapter_for(inst)
        assert adapter.omniscient_ip(np.zeros(0, dtype=int)) == 0

    def test_relaxation_is_binary_vertex(self, k22):
        sol = adapter_for(k22).solve_relaxation(np.array([3, 1, 2, 4]))
        x = np.asarray(sol.x)
        assert np.all(np.abs(x - np.round(x)) < 1e-7)
        assert sol.value == pytest.approx(7.0)


class TestBlossom:
    def test_triangle_with_and_without_odd_sets(self, triangle):
        unit = np.ones(3, dtype=int)
        adapter = adapter_for(triangle)
        assert float(adapter.solve_relaxation(unit).value) == pytest.approx(1.0)
        degree_only = solve_primal(LpProblem(triangle.A, triangle.b, unit))
        assert degree_only.value == pytest.approx(1.5)
        assert adapter.round_integral(unit).value == 1

    def test_size_refusal_before_any_work(self):
        inst = gen_graph(21, 0.3, seed=0)
        with pytest.raises(SizeRefusalError):
            adapter_for(inst)

    def test_lp_equals_exact_matching_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for seed in range(6):
            inst = gen_graph(int(rng.integers(4, 9)), 0.5, seed=seed)
            adapter = adapter_for(inst)
            w = rng.integers(0, 5, size=inst.m)
            lp = float(adapter.solve_relaxation(w).value)
            ip = adapter.round_integral(w).value
            assert lp == pytest.approx(ip, abs=1e-6)
            naive = matching_value_by_enumeration(
                [tuple(e) for e in inst.meta["edges"]], list(w)
            ) if inst.m <= 14 else ip
            assert ip == naive

    def test_augmented_matrix_agreement_rational(self):
        inst = gen_graph(6, 0.6, seed=7)
        adapter = adapter_for(inst)
        w = np.array([2, 1, 3, 1, 2, 1, 1, 2, 1, 3][: inst.m])
        lp_float = float(adapter.solve_relaxation(w).value)
        A, b = odd_set_polytope(inst.A, inst.b, adapter.n_vertices, adapter.edges)
        exact = solve_primal(LpProblem(A, b, w), arithmetic="rational")
        assert lp_float == pytest.approx(float(exact.value), abs=1e-7)


class TestHypergraph:
    def test_k4_minus_edge_matches_vertex_enumeration(self):
        # 2-uniform hypergraph = graph on 4 vertices missing edge (2,3)
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
        inst = hypergraph_instance(4, 2, edges)
        adapter = adapter_for(inst)
        unit = np.ones(5, dtype=int)
        lp = float(adapter.solve_relaxation(unit).value)
        assert lp == pytest.approx(
            float(lp_value_by_vertex_enumeration(inst.A, inst.b, unit))
        )

    def test_rounding_matches_naive_set_packing(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            inst = gen_hypergraph(7, 8, 3, seed=seed)
            adapter = adapter_for(inst)
            w = rng.integers(0, 5, size=inst.m)
            value = adapter.round_integral(w).value
            naive = set_packing_value_by_enumeration(
                [tuple(e) for e in inst.meta["hyperedges"]], list(w)
            )
            assert value == naive

    def test_alpha_is_gap_guarantee(self):
        inst = gen_hypergraph(6, 5, 3, seed=1)
        assert adapter_for(inst).alpha == pytest.approx(1 / (3 - 1 + 1 / 3))

    def test_size_refusal(self):
        inst = gen_hypergraph(30, 25, 2, seed=0)
        adapter = adapter_for(inst)
        with pytest.raises(SizeRefusalError):
            adapter.round_integral(np.ones(25, dtype=int))


class TestMatroid:
    def test_uniform_rank_two_greedy(self):
        inst = gen_matroid("uniform", seed=0, m=3, r=2)
        adapter = adapter_for(inst)
        sol = adapter.solve_relaxation(np.array([5, 3, 1]))
        assert float(sol.value) == 8.0
        assert np.asarray(sol.x).tolist() == [1.0, 1.0, 0.0]

    def test_partition_example(self):
        inst = gen_matroid(
            "partition", seed=0, blocks=[[0, 1], [2]], capacities=[1, 1]
        )
        adapter = adapter_for(inst)
        rounded = adapter.round_integral(np.array([4, 5, 2]))
        assert rounded.value == 7
        assert rounded.x.tolist() == [0, 1, 1]

    def test_rank_one_single_best(self):
        inst = gen_matroid("uniform", seed=0, m=2, r=1)
        assert adapter_for(inst).omniscient_ip(np.array([9, 9])) == 9

    def test_greedy_equals_bruteforce(self):
        rng = np.random.default_rng(10)
        matroids = [
            UniformMatroid(r=3, m=8),
            PartitionMatroid(blocks=((0, 1, 2), (3, 4), (5, 6, 7)), capacities=(2, 1, 1)),
            GraphicMatroid(n_vertices=5, edges=((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3))),
        ]
        for matroid in matroids:
            for _ in range(5):
                w = list(rng.integers(0, 6, size=matroid.m))
                greedy, _ = greedy_max_weight(matroid, w)
                assert greedy == independent_set_value_by_enumeration(matroid, w)

    def test_greedy_equals_engine_lp_on_explicit_matrix(self):
        rng = np.random.default_rng(13)
        for kind, params in [
            ("uniform", {"m": 6, "r": 3}),
            ("partition", {"m": 7}),
            ("graphic", {"n_vertices": 5, "edge_prob": 0.7}),
        ]:
            inst = gen_matroid(kind, seed=3, **params)
            adapter = adapter_for(inst)
            for _ in range(4):
                w = rng.integers(0, 6, size=inst.m)
                greedy_val = float(adapter.solve_relaxation(w).value)
                lp_val = solve_primal(LpProblem(inst.A, inst.b, w)).value
                assert greedy_val == pytest.approx(lp_val, abs=1e-7)

    def test_submodularity_spot_check(self):
        for matroid in [
            UniformMatroid(r=2, m=6),
            PartitionMatroid(blocks=((0, 1), (2, 3, 4)), capacities=(1, 2)),
            GraphicMatroid(n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (0, 3))),
        ]:
            assert spot_check_submodularity(matroid, seed=0)

    def test_bad_metadata_rejected(self):
        inst = gen_matroid("uniform", seed=0, m=3, r=2)
        for desc in [
            {"kind": "nope"},
            {"kind": "uniform", "m": 3},
            {"kind": "uniform", "rank": "two", "m": 3},
            {"kind": "partition", "blocks": [[0, 1, 2]]},
            {"kind": "partition", "blocks": 3, "capacities": [1]},
            {"kind": "graphic", "edges": [[0, 1]]},
            {"kind": "graphic", "n_vertices": 3, "edges": [[0]]},
        ]:
            broken = type(inst)(
                A=inst.A, b=inst.b, family="matroid", meta={"matroid": desc}
            )
            with pytest.raises(StructureError):
                adapter_for(broken)


class TestGenericAndColumnSparse:
    def test_explicit_matrix_adapter_round_matches_engine_bound(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            inst = gen_generic(4, 5, seed=seed)
            adapter = adapter_for(inst)
            w = rng.integers(0, 5, size=inst.m)
            lp = float(adapter.solve_relaxation(w).value)
            rounded = adapter.round_integral(w)
            assert rounded.value <= lp + 1e-7
            assert rounded.value >= adapter.alpha * lp - 1e-7

    def test_cspip_scale_and_bounds(self):
        inst = gen_cspip(4, 6, 2, seed=3)
        adapter = adapter_for(inst)
        assert adapter.scale_w >= 1.0
        assert adapter.instance.column_scale() == adapter.scale_w
        w = np.ones(6, dtype=int)
        sol = adapter.solve_relaxation(w)
        x = np.asarray([float(v) for v in sol.x])
        assert np.all(x <= 1 + 1e-9)

    def test_generic_size_refusal(self):
        inst = gen_generic(3, 25, seed=0)
        adapter = adapter_for(inst)
        with pytest.raises(SizeRefusalError):
            adapter.round_integral(np.ones(25, dtype=int))


class TestContract:
    """round(weights).value >= alpha * relaxation(weights).value, everywhere."""

    def corpus(self):
        rng = np.random.default_rng(55)
        instances = []
        for seed in range(3):
            instances.append(gen_bipartite(4, 4, 0.6, seed=seed))
            instances.append(gen_graph(6, 0.5, seed=seed))
            instances.append(gen_hypergraph(7, 7, 3, seed=seed))
            instances.append(gen_generic(4, 6, seed=seed))
            instances.append(gen_cspip(4, 6, 2, seed=seed))
            instances.append(gen_matroid("uniform", seed=seed, m=6, r=2))
            instances.append(gen_matroid("partition", seed=seed, m=6))
            instances.append(gen_matroid("graphic", seed=seed, n_vertices=5))
        return instances, rng

    def test_lp_relative_guarantee(self):
        instances, rng = self.corpus()
        for inst in instances:
            adapter = adapter_for(inst)
            for _ in range(3):
                w = rng.integers(0, 5, size=inst.m)
                lp = float(adapter.solve_relaxation(w).value)
                rounded = adapter.round_integral(w)
                assert rounded.value >= adapter.alpha * lp - 1e-6
                assert np.all(inst.A @ rounded.x <= inst.b)


def test_degree_relaxation_adapter_contract():
    inst = graph_instance(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    adapter = DegreeRelaxationAdapter(inst)
    w = np.array([2, 1, 2, 1, 2, 1])
    lp = float(adapter.solve_relaxation(w).value)
    rounded = adapter.round_integral(w)
    assert rounded.value >= adapter.alpha * lp - 1e-9
    assert rounded.value == matching_value_by_enumeration(
        [tuple(e) for e in inst.meta["edges"]], list(w)
    )


def test_degree_relaxation_adapter_checks_metadata(triangle):
    for meta in ({"edges": triangle.meta["edges"]}, {"n_vertices": 3, "edges": []}):
        broken = type(triangle)(
            A=triangle.A, b=triangle.b, family=triangle.family, meta=meta
        )
        with pytest.raises(StructureError):
            DegreeRelaxationAdapter(broken)


@pytest.mark.parametrize(
    "family, edges, A, b",
    [
        # Triangle at capacity 2: the edges' matching system says IP 1, but
        # A x <= b admits all three edges.
        ("nonbipartite-matching", [[0, 1], [0, 2], [1, 2]],
         [[1, 1, 0], [1, 0, 1], [0, 1, 1]], [2, 2, 2]),
        ("bipartite-matching", [[0, 2], [0, 3], [1, 2], [1, 3]],
         [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]], [2, 2, 2, 2]),
        # Edge (1, 2) is missing from row 1, so A x <= b admits it with (0, 1).
        ("nonbipartite-matching", [[0, 1], [0, 2], [1, 2]],
         [[1, 1, 0], [1, 0, 0], [0, 1, 1]], [1, 1, 1]),
        ("k-hypergraph", [[0, 1, 2], [2, 3, 4]],
         [[1, 0], [1, 0], [1, 1], [0, 1], [0, 1]], [1, 1, 2, 1, 1]),
    ],
)
def test_graph_instance_must_be_its_incidence_system(tmp_path, family, edges, A, b):
    from stochpack.harness import run_experiment
    from stochpack.instances import PackingInstance, StochasticObjective, save_instance

    n = len(A)
    meta = {
        "bipartite-matching": {"n_left": 2, "edges": edges},
        "nonbipartite-matching": {"n_vertices": n, "edges": edges},
        "k-hypergraph": {"n_vertices": n, "k": 3, "hyperedges": edges},
    }[family]
    inst = PackingInstance(A=A, b=b, family=family, meta=meta)
    with pytest.raises(StructureError):
        hypergraph_view(inst)
    with pytest.raises(StructureError):
        adapter_for(inst)
    path = tmp_path / "inst.json"
    m = len(edges)
    save_instance(path, inst, StochasticObjective([0] * m, [1] * m, p=0.5))
    spec = {
        "instance": {"file": str(path)},
        "baselines": ["omniscient"],
        "trials": 1,
        "master_seed": 0,
    }
    rows, _ = run_experiment(spec)
    assert [row["error"].split(":")[0] for row in rows] == ["StructureError"]


def test_blossom_alpha_unaffected_by_row_count(triangle):
    assert BlossomMatchingAdapter(triangle).alpha == 1.0


_K22_EDGES = [[0, 2], [0, 3], [1, 2], [1, 3]]
_PATH_EDGES = [[0, 1], [1, 2]]
_TRIPLES = [[0, 1, 2], [2, 3, 4]]


@pytest.mark.parametrize(
    "family, meta",
    [
        ("bipartite", {"edges": _K22_EDGES}),
        ("bipartite", {"n_left": "abc", "edges": _K22_EDGES}),
        ("bipartite", {"n_left": 5, "edges": _K22_EDGES}),
        ("bipartite", {"n_left": 2}),
        ("bipartite", {"n_left": 2, "edges": "abc"}),
        ("bipartite", {"n_left": 2, "edges": [[0]] + _K22_EDGES[1:]}),
        ("bipartite", {"n_left": 2, "edges": [[0, 4]] + _K22_EDGES[1:]}),
        ("bipartite", {"n_left": 2, "edges": _K22_EDGES[:3]}),
        ("graph", {"edges": _PATH_EDGES}),
        ("graph", {"n_vertices": 2.5, "edges": _PATH_EDGES}),
        ("graph", {"n_vertices": 3}),
        ("graph", {"n_vertices": 3, "edges": [[0, 1], [2, 2]]}),
        ("graph", {"n_vertices": 3, "edges": [[0, 1], ["1", 2]]}),
        ("graph", {"n_vertices": 3, "edges": [[0, 1], [1, -1]]}),
        ("graph", {"n_vertices": 3, "edges": _PATH_EDGES + [[0, 2]]}),
        ("hypergraph", {"k": 3, "hyperedges": _TRIPLES}),
        ("hypergraph", {"n_vertices": 5, "hyperedges": _TRIPLES}),
        ("hypergraph", {"n_vertices": 5, "k": "3", "hyperedges": _TRIPLES}),
        ("hypergraph", {"n_vertices": 5, "k": 3, "edges": _TRIPLES}),
        ("hypergraph", {"n_vertices": 5, "k": 3, "hyperedges": [[0, 1, 2], [2, 3]]}),
        ("hypergraph", {"n_vertices": 5, "k": 3, "hyperedges": [[0, 1, 2], [2, 3, 5]]}),
        ("hypergraph", {"n_vertices": 5, "k": 3, "hyperedges": [[0, 1, 2]]}),
    ],
)
def test_bad_graph_metadata_rejected(tmp_path, family, meta):
    import json

    from stochpack.cli import main
    from stochpack.harness import run_experiment
    from stochpack.instances import StochasticObjective, save_instance

    inst = {
        "bipartite": lambda: bipartite_instance(2, 2, _K22_EDGES),
        "graph": lambda: graph_instance(3, _PATH_EDGES),
        "hypergraph": lambda: hypergraph_instance(5, 3, _TRIPLES),
    }[family]()
    broken = type(inst)(A=inst.A, b=inst.b, family=inst.family, meta=meta)
    with pytest.raises(StructureError):
        hypergraph_view(broken)
    with pytest.raises(StructureError):
        adapter_for(broken)
    if family == "graph":
        with pytest.raises(StructureError):
            DegreeRelaxationAdapter(broken)
    # A file with the same metadata gives error rows instead of aborting the
    # run, and `stochpack sparsify` exits with the malformed-input code.
    path = tmp_path / "inst.json"
    obj = StochasticObjective(c_minus=[0] * inst.m, c_plus=[1] * inst.m, p=0.5)
    save_instance(path, inst, obj)
    data = json.loads(path.read_text())
    data["meta"] = meta
    path.write_text(json.dumps(data))
    spec = {
        "instance": {"file": str(path)},
        "strategies": [{"mode": "adaptive", "T": 2}],
        "baselines": ["omniscient"],
        "trials": 2,
        "master_seed": 0,
    }
    rows, _ = run_experiment(spec)
    assert len(rows) == 4
    assert all(row["error"].startswith("StructureError") for row in rows)
    assert main(["sparsify", str(path), "--epsilon", "0.4", "--delta", "0.4"]) == 2
