"""Benchmark harness: one runner per table/figure of the paper."""

from repro.bench.experiments import (
    BENCH,
    SMOKE,
    BenchScale,
    ExperimentResult,
    constraint_figure,
    fig5_tree_index,
    fig15_yago,
    table2_indexing,
)
from repro.bench.harness import EXPERIMENTS, render_results, run_experiment
from repro.bench.measure import MeasurementError, run_query_group
from repro.bench.reporting import format_number, format_table, render_experiment

__all__ = [
    "BENCH",
    "BenchScale",
    "EXPERIMENTS",
    "ExperimentResult",
    "MeasurementError",
    "SMOKE",
    "constraint_figure",
    "fig5_tree_index",
    "fig15_yago",
    "format_number",
    "format_table",
    "render_experiment",
    "render_results",
    "run_experiment",
    "run_query_group",
    "table2_indexing",
]
