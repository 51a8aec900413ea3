"""The experiment registry and its runner.

``python -m repro.bench`` runs the experiments at BENCH scale and
prints the paper-shaped tables; ``run_experiment`` runs one of them for
that entry point and for the test suite (at SMOKE scale).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from repro.bench.experiments import (
    BENCH,
    FIGURE_CONSTRAINTS,
    BenchScale,
    ExperimentResult,
    ablation_ins,
    constraint_figure,
    fig5_tree_index,
    fig15_yago,
    table2_indexing,
)
from repro.bench.reporting import render_experiment
from repro.exceptions import BenchmarkError

__all__ = ["EXPERIMENTS", "run_experiment", "render_results"]

#: Experiment id → runner, in paper order. Each runner takes ``(scale, seed)``.
EXPERIMENTS: dict[str, Callable[[BenchScale, int], list[ExperimentResult]]] = {
    "table2": table2_indexing,
    "fig5": fig5_tree_index,
    **{figure: partial(constraint_figure, figure) for figure in FIGURE_CONSTRAINTS},
    "fig15": fig15_yago,
    # Extension beyond the paper: INS mechanism ablation.
    "ablation": ablation_ins,
}


def run_experiment(
    name: str,
    scale: BenchScale = BENCH,
    seed: int = 0,
) -> list[ExperimentResult]:
    """Run one experiment by id ('table2', 'fig5', 'fig10' .. 'fig15')."""
    runner = EXPERIMENTS.get(name)
    if runner is None:
        raise BenchmarkError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        )
    return runner(scale, seed)


def render_results(results: list[ExperimentResult]) -> str:
    """Render experiment results as printable text blocks."""
    blocks = [
        render_experiment(r.title, r.headers, r.rows, r.notes) for r in results
    ]
    return "\n\n".join(blocks)
