"""Unit tests for the comparison harness and table rendering."""

import pytest

from repro.evaluation import format_comparison_table, run_comparison


@pytest.fixture
def small_comparison(small_1d_instance, small_mcc_instance):
    return run_comparison(
        [small_1d_instance, small_mcc_instance],
        {"greedy": "greedy-1d", "e-blow": "eblow-1d"},
    )


class TestRunComparison:
    def test_rows_and_algorithms(self, small_comparison):
        assert len(small_comparison.rows) == 2
        assert small_comparison.algorithms() == ["greedy", "e-blow"]
        for row in small_comparison.rows:
            assert set(row.results) == {"greedy", "e-blow"}

    def test_averages_and_ratios(self, small_comparison):
        averages = small_comparison.averages()
        assert set(averages) == {"greedy", "e-blow"}
        ratios = small_comparison.ratios("e-blow")
        assert ratios["e-blow"]["writing_time"] == pytest.approx(1.0)
        # Greedy should not be better than E-BLOW on average.
        assert ratios["greedy"]["writing_time"] >= 0.98

    def test_ratios_with_unknown_reference(self, small_comparison):
        assert small_comparison.ratios("nope") == {}

    def test_accepts_case_names(self):
        comparison = run_comparison(["1T-1"], {"greedy": "greedy-1d"}, scale=1.0)
        assert comparison.rows[0].case == "1T-1"

    def test_to_dict_round_trips_json(self, small_comparison):
        import json

        text = json.dumps(small_comparison.to_dict(), default=str)
        data = json.loads(text)
        assert len(data["rows"]) == 2


class TestFormatting:
    def test_table_contains_all_cases_and_algorithms(self, small_comparison):
        table = format_comparison_table(small_comparison, reference="e-blow")
        assert "test-1d-small" in table
        assert "test-1d-mcc" in table
        assert "greedy:T" in table
        assert "Avg." in table
        assert "Ratio" in table

    def test_table_without_reference(self, small_comparison):
        table = format_comparison_table(small_comparison)
        assert "Ratio" not in table
