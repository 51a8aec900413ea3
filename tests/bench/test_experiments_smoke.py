"""Smoke tests: every table/figure runner executes at SMOKE scale.

These are the CI guarantee that the benchmark harness — the deliverable
that regenerates every table and figure — actually runs end-to-end.
"""

from functools import cache

import pytest

import repro.bench.experiments as experiments
from repro.bench.experiments import FIGURE_CONSTRAINTS, SMOKE
from repro.bench.harness import EXPERIMENTS, render_results, run_experiment
from repro.exceptions import BenchmarkError


@cache
def smoke_run(name):
    """One SMOKE run at seed 0 per experiment, shared by the tests that
    only read it (results are frozen dataclasses)."""
    return tuple(run_experiment(name, SMOKE, seed=0))


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "table2",
            "fig5",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "ablation",  # extension beyond the paper
        }

    def test_ablation_runs(self):
        results = smoke_run("ablation")
        assert results[0].rows
        variants = {row[1] for row in results[0].rows}
        assert "INS" in variants
        assert "INS-noprune" in variants

    def test_ablation_runs_all_four_variants_per_group(self):
        (result,) = smoke_run("ablation")
        by_group = {}
        for group, variant, *_ in result.rows:
            by_group.setdefault(group, []).append(variant)
        assert by_group
        for variants in by_group.values():
            assert variants == [
                "INS", "INS-noprune", "INS-noprio", "INS-noprune-noprio"
            ]

    def test_unknown_experiment_raises(self):
        with pytest.raises(BenchmarkError, match="unknown experiment"):
            run_experiment("fig99", SMOKE)


class TestTable2:
    def test_runs_and_reports_both_indexes(self):
        results = run_experiment("table2", SMOKE, seed=0)
        assert len(results) == 1
        table = results[0]
        assert table.experiment_id == "table2"
        assert len(table.rows) == len(SMOKE.indexing_datasets)
        for row in table.rows:
            assert row[3] > 0  # local index time
            assert row[4] > 0  # local index size


class TestFig5:
    def test_two_panels(self):
        results = run_experiment("fig5", SMOKE, seed=0)
        assert [r.experiment_id for r in results] == ["fig5a", "fig5b"]
        for result in results:
            for row in result.rows:
                assert row[2] > 0  # indexing time

    def test_vertex_scaling_is_increasing(self):
        results = run_experiment("fig5", SMOKE, seed=0)
        times = [row[2] for row in results[1].rows]
        assert times == sorted(times)


@pytest.mark.parametrize("figure", list(FIGURE_CONSTRAINTS))
class TestConstraintFigures:
    def test_four_panels(self, figure):
        results = smoke_run(figure)
        assert [r.experiment_id for r in results] == [
            f"{figure}a",
            f"{figure}b",
            f"{figure}c",
            f"{figure}d",
        ]
        for result in results:
            assert len(result.rows) == len(SMOKE.datasets)
            assert result.headers == ("Dataset", "#q", "UIS", "UIS*", "INS")

    def test_notes_name_the_table3_constraint(self, figure):
        for result in smoke_run(figure):
            assert result.notes[0] == (
                f"substructure constraint {FIGURE_CONSTRAINTS[figure]} (Table 3)"
            )

    def test_time_and_vertex_panels_share_query_counts(self, figure):
        # Panels (a)/(c) read the true group, (b)/(d) the false group of
        # the same cells: one workload per cell, so one #q per group.
        a, b, c, d = smoke_run(figure)
        assert [row[:2] for row in a.rows] == [row[:2] for row in c.rows]
        assert [row[:2] for row in b.rows] == [row[:2] for row in d.rows]
        assert [row[0] for row in a.rows] == list(SMOKE.datasets)


class TestFig15:
    def test_runs_with_magnitude_rows(self):
        results = smoke_run("fig15")
        assert len(results) == 4
        assert len(results[0].rows) == len(SMOKE.yago_magnitudes)

    def test_rows_are_labelled_by_magnitude(self):
        for result in smoke_run("fig15"):
            labels = [row[0] for row in result.rows]
            assert [label.split(" ")[0] for label in labels] == [
                f"m={magnitude}" for magnitude in SMOKE.yago_magnitudes
            ]


class TestQueryCells:
    """Figs. 10–15 share one cell runner over the evaluator registry."""

    def test_evaluators_come_from_the_registry_with_seed_offsets(
        self, monkeypatch
    ):
        built = []
        original = experiments.make_algorithm

        def recording(name, graph, **kwargs):
            built.append((name, kwargs["seed"]))
            return original(name, graph, **kwargs)

        monkeypatch.setattr(experiments, "make_algorithm", recording)
        run_experiment("fig15", SMOKE, seed=7)
        per_cell = [("uis", 7), ("uis*", 10), ("ins", 11)]
        assert built == per_cell * len(SMOKE.yago_magnitudes)

    def test_counts_and_passed_vertex_panels_are_deterministic(self):
        # Only the time panels (a, b) may differ between two runs.
        first = run_experiment("fig15", SMOKE, seed=0)
        second = smoke_run("fig15")
        for before, after in zip(first, second):
            assert [row[:2] for row in before.rows] == [
                row[:2] for row in after.rows
            ]
        assert first[2:] == list(second[2:])


class TestRendering:
    def test_render_results_printable(self):
        results = list(smoke_run("fig5"))
        text = render_results(results)
        assert "Figure 5(a)" in text
        assert "Figure 5(b)" in text
