"""Evaluation and reporting: comparison harness and paper-style tables."""

from repro.evaluation.compare import Comparison, ComparisonRow, run_comparison
from repro.evaluation.tables import format_comparison_table

__all__ = [
    "Comparison",
    "ComparisonRow",
    "run_comparison",
    "format_comparison_table",
]
