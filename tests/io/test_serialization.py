"""Unit tests for JSON serialization of instances, plans, and comparisons."""

import json

import pytest

from repro.baselines import Greedy1DPlanner
from repro.evaluation import run_comparison
from repro.io import (
    canonical_json,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_plan,
    save_comparison,
    save_instance,
    save_plan,
    write_text_atomic,
)
from repro.model import StencilPlan, evaluate_plan


class TestInstanceSerialization:
    def test_json_round_trip(self, small_mcc_instance):
        text = instance_to_json(small_mcc_instance)
        again = instance_from_json(text)
        assert again.name == small_mcc_instance.name
        assert again.num_characters == small_mcc_instance.num_characters
        assert again.vsb_times() == pytest.approx(small_mcc_instance.vsb_times())

    def test_file_round_trip(self, tmp_path, small_1d_instance):
        path = save_instance(small_1d_instance, tmp_path / "inst.json")
        loaded = load_instance(path)
        assert loaded.to_dict() == small_1d_instance.to_dict()


class TestPlanSerialization:
    def test_plan_round_trip(self, tmp_path, small_1d_instance):
        plan = Greedy1DPlanner().plan(small_1d_instance)
        path = save_plan(plan, tmp_path / "plan.json")
        loaded = load_plan(small_1d_instance, path)
        assert loaded.rows_as_names() == plan.rows_as_names()
        loaded.validate()
        assert evaluate_plan(loaded).total == pytest.approx(plan.stats["writing_time"])

    def test_selection_only_plan_round_trip(self, tmp_path, small_1d_instance):
        plan = StencilPlan.from_selection(small_1d_instance, ["c0", "c1"])
        path = save_plan(plan, tmp_path / "sel.json")
        loaded = load_plan(small_1d_instance, path)
        assert loaded.selected_names == ["c0", "c1"]


class TestComparisonSerialization:
    def test_save_comparison_is_valid_json(self, tmp_path, small_1d_instance):
        comparison = run_comparison([small_1d_instance], {"greedy": "greedy-1d"})
        path = save_comparison(comparison, tmp_path / "cmp.json")
        data = json.loads(path.read_text())
        assert data["rows"][0]["case"] == small_1d_instance.name


class TestAtomicWrites:
    def test_save_creates_parent_directories(self, tmp_path, small_1d_instance):
        path = save_instance(small_1d_instance, tmp_path / "a" / "b" / "inst.json")
        assert path.exists()
        assert load_instance(path).name == small_1d_instance.name

    def test_write_text_atomic_replaces_and_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "nested" / "out.json"
        write_text_atomic(target, "first")
        write_text_atomic(target, "second")
        assert target.read_text() == "second"
        assert [p.name for p in target.parent.iterdir()] == ["out.json"]

    def test_save_plan_and_comparison_create_parents(self, tmp_path, small_1d_instance):
        plan = Greedy1DPlanner().plan(small_1d_instance)
        assert save_plan(plan, tmp_path / "x" / "plan.json").exists()
        comparison = run_comparison([small_1d_instance], {"greedy": "greedy-1d"})
        assert save_comparison(comparison, tmp_path / "y" / "cmp.json").exists()


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_key_order_does_not_change_encoding(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json({"y": 2, "x": 1})

    def test_numpy_scalars_and_tuples_unwrap(self):
        import numpy as np

        assert canonical_json({"v": np.float64(1.5), "t": (1, 2)}) == '{"t":[1,2],"v":1.5}'

    def test_canonical_instance_mode_parses_back(self, small_1d_instance):
        text = instance_to_json(small_1d_instance, canonical=True)
        assert "\n" not in text and ": " not in text
        assert instance_from_json(text).to_dict() == small_1d_instance.to_dict()

    def test_sets_are_encoded_in_sorted_order(self):
        assert canonical_json({"s": {"b", "a", "c"}}) == '{"s":["a","b","c"]}'
        assert canonical_json(frozenset({2, 1})) == "[1,2]"
