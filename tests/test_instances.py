import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochpack.errors import StructureError
from stochpack.instances import (
    PackingInstance,
    QueryOracle,
    Realization,
    StochasticObjective,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    optimistic_vector,
    pessimistic_vector,
    sample_realization,
    save_instance,
    validate_instance,
)
from stochpack.generators import bipartite_instance


def cycle4_instance():
    # vertex-edge incidence of the 4-cycle 0-1-2-3-0
    A = np.array(
        [
            [1, 0, 0, 1],
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
        ]
    )
    return PackingInstance(A=A, b=np.ones(4, dtype=int))


class TestValidation:
    def test_cycle_incidence_passes(self):
        report = validate_instance(cycle4_instance())
        assert report.passed

    def test_single_item_over_capacity_fails_condition_b(self):
        inst = PackingInstance(A=[[2]], b=[1])
        report = validate_instance(inst)
        assert not report.passed
        assert [v.condition for v in report.violations] == ["b"]
        assert report.violations[0].where == (0, 0)

    def test_unit_box_not_implied_fails_condition_c(self):
        inst = PackingInstance(A=[[1, 1]], b=[2], family="generic")
        report = validate_instance(inst)
        assert not report.passed
        assert {v.condition for v in report.violations} == {"c"}

    def test_same_matrix_passes_as_column_sparse_with_scale_two(self):
        inst = PackingInstance(A=[[1, 1]], b=[2], family="k-cspip", meta={"k": 1})
        report = validate_instance(inst)
        assert report.passed
        assert report.scale_w == 2.0

    def test_capacity_below_one_fails_condition_a(self):
        inst = PackingInstance(A=[[0]], b=[0])
        report = validate_instance(inst)
        assert any(v.condition == "a" for v in report.violations)

    def test_dimension_mismatch_is_structural(self):
        with pytest.raises(StructureError):
            PackingInstance(A=[[1, 0]], b=[1, 1])

    def test_negative_entries_are_structural(self):
        inst = PackingInstance(A=[[1]], b=[1])
        object.__setattr__(inst, "A", np.array([[-1]]))
        with pytest.raises(StructureError):
            validate_instance(inst)


class TestObjective:
    def test_delta_c(self):
        obj = StochasticObjective(c_minus=[0, 1, 2], c_plus=[3, 1, 5], p=0.5)
        assert obj.delta_c == 3

    def test_interval_order_enforced(self):
        with pytest.raises(StructureError):
            StochasticObjective(c_minus=[2], c_plus=[1], p=0.5)

    def test_probability_range(self):
        with pytest.raises(StructureError):
            StochasticObjective(c_minus=[0], c_plus=[1], p=0.0)


class TestSampling:
    def test_degenerate_interval_is_deterministic(self):
        obj = StochasticObjective(c_minus=[3, 0], c_plus=[3, 0], p=0.5)
        for seed in range(5):
            assert sample_realization(obj, seed).c.tolist() == [3, 0]

    def test_mass_one_hits_the_top(self):
        obj = StochasticObjective(c_minus=[0, 0], c_plus=[2, 2], p=1.0)
        assert sample_realization(obj, 1).c.tolist() == [2, 2]

    def test_law_of_large_numbers_frozen_seed(self):
        m = 10_000
        obj = StochasticObjective(
            c_minus=np.zeros(m, dtype=int), c_plus=np.ones(m, dtype=int), p=0.5
        )
        frac = sample_realization(obj, 0).c.mean()
        assert frac == pytest.approx(0.499, abs=1e-12)  # frozen draw
        assert 0.48 <= frac <= 0.52


class TestVectors:
    def test_nothing_revealed(self, unit_objective):
        inst = bipartite_instance(1, 1, [(0, 1)])
        obj = StochasticObjective(c_minus=[2], c_plus=[7], p=0.5)
        oracle = QueryOracle(inst, Realization(c=[5]))
        assert optimistic_vector(oracle, obj).tolist() == [7]
        assert pessimistic_vector(oracle, obj).tolist() == [2]

    def test_everything_revealed(self):
        inst = bipartite_instance(2, 2, [(0, 2), (1, 3)])
        obj = StochasticObjective(c_minus=[0, 0], c_plus=[9, 9], p=0.5)
        oracle = QueryOracle(inst, Realization(c=[4, 6]))
        oracle.query(0)
        oracle.query(1)
        assert optimistic_vector(oracle, obj).tolist() == [4, 6]
        assert pessimistic_vector(oracle, obj).tolist() == [4, 6]

    def test_partial_reveal(self):
        inst = PackingInstance(A=np.eye(3, dtype=int), b=[1, 1, 1])
        obj = StochasticObjective(c_minus=[0, 0, 0], c_plus=[5, 4, 3], p=0.5)
        oracle = QueryOracle(inst, Realization(c=[2, 1, 0]))
        oracle.query(1)
        assert optimistic_vector(oracle, obj).tolist() == [5, 1, 3]
        assert pessimistic_vector(oracle, obj).tolist() == [0, 1, 0]

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_sandwich_and_monotonicity(self, data):
        m = data.draw(st.integers(1, 6))
        lo = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        hi = [v + data.draw(st.integers(0, 3)) for v in lo]
        obj = StochasticObjective(c_minus=lo, c_plus=hi, p=0.5)
        inst = PackingInstance(A=np.eye(m, dtype=int), b=np.ones(m, dtype=int))
        real = sample_realization(obj, data.draw(st.integers(0, 100)))
        oracle = QueryOracle(inst, real)
        prev_pess = pessimistic_vector(oracle, obj)
        prev_opt = optimistic_vector(oracle, obj)
        for j in data.draw(
            st.lists(st.integers(0, m - 1), min_size=0, max_size=3 * m)
        ):
            oracle.query(j)
            pess = pessimistic_vector(oracle, obj)
            opt = optimistic_vector(oracle, obj)
            assert np.all(pess <= real.c) and np.all(real.c <= opt)
            assert np.all(pess >= prev_pess) and np.all(opt <= prev_opt)
            prev_pess, prev_opt = pess, opt


class TestOracle:
    def test_query_ledger(self, k22):
        obj = StochasticObjective(
            c_minus=np.zeros(4, dtype=int), c_plus=np.ones(4, dtype=int), p=0.5
        )
        oracle = QueryOracle(k22, Realization(c=[1, 0, 1, 0]))
        assert oracle.query(0) == 1
        assert oracle.query(0) == 1  # idempotent, free
        assert oracle.total_queries == 1
        # edge 0 = (0, 2): rows 0 and 2 incremented once
        assert oracle.row_counts().tolist() == [1, 0, 1, 0]
        oracle.query(3)
        assert oracle.total_queries == 2
        assert oracle.row_counts().tolist() == [1, 1, 1, 1]
        assert oracle.revealed == frozenset({0, 3})

    def test_unrevealed_value_is_hidden(self, k22):
        oracle = QueryOracle(k22, Realization(c=[1, 0, 1, 0]))
        with pytest.raises(StructureError):
            oracle.value(2)

    def test_ledger_total_matches_revealed(self, k22):
        oracle = QueryOracle(k22, Realization(c=[1, 1, 1, 1]))
        for j in [2, 2, 0, 1, 2]:
            oracle.query(j)
        assert oracle.total_queries == len(oracle.revealed) == 3


class TestFileFormat:
    def test_round_trip(self, tmp_path, k22):
        obj = StochasticObjective(c_minus=[0, 0, 1, 0], c_plus=[2, 1, 1, 3], p=0.25)
        path = tmp_path / "inst.json"
        save_instance(path, k22, obj)
        inst2, obj2 = load_instance(path)
        assert np.array_equal(inst2.A, k22.A)
        assert np.array_equal(inst2.b, k22.b)
        assert inst2.family == k22.family
        assert inst2.meta == k22.meta
        assert np.array_equal(obj2.c_minus, obj.c_minus)
        assert np.array_equal(obj2.c_plus, obj.c_plus)
        assert obj2.p == obj.p
        # second round trip is byte identical
        path2 = tmp_path / "inst2.json"
        save_instance(path2, inst2, obj2)
        assert path.read_bytes() == path2.read_bytes()

    def test_unknown_fields_rejected(self, k22):
        obj = StochasticObjective(c_minus=[0] * 4, c_plus=[1] * 4, p=0.5)
        data = instance_to_dict(k22, obj)
        data["surprise"] = 1
        with pytest.raises(StructureError, match="surprise"):
            instance_from_dict(data)

    def test_missing_fields_rejected(self, k22):
        obj = StochasticObjective(c_minus=[0] * 4, c_plus=[1] * 4, p=0.5)
        data = instance_to_dict(k22, obj)
        del data["b"]
        with pytest.raises(StructureError, match="missing"):
            instance_from_dict(data)

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(StructureError):
            load_instance(path)


def test_column_scale():
    inst = PackingInstance(
        A=[[2, 0], [1, 3]], b=[4, 3], family="k-cspip", meta={"k": 2}
    )
    # column 0: min(4/2, 3/1) = 2; column 1: 3/3 = 1
    assert inst.column_scale() == 2.0
