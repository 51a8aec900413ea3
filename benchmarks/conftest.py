"""Shared infrastructure for the table/figure benchmarks.

Every ``bench_*.py`` module regenerates one paper artifact:

* micro-benchmarks (the ``benchmark`` fixture) time the individual
  algorithms on prepared workloads, so ``pytest benchmarks/
  --benchmark-only`` produces comparable per-algorithm timings;
* each module also has a ``*_report`` benchmark that runs the full
  harness experiment once and registers the rendered paper-shaped table;
  the tables are printed in the terminal summary at the end of the run
  (so they land in ``bench_output.txt`` even with captured stdout).

Sizes use :data:`PYTEST_SCALE` — between SMOKE and the full BENCH preset
so the whole suite stays in the minutes range.
"""

from __future__ import annotations

from repro.bench.experiments import BenchScale

#: Scale for the pytest-benchmark run (between SMOKE and BENCH).
PYTEST_SCALE = BenchScale(
    name="pytest",
    datasets=("D1", "D2"),
    indexing_datasets=("D0", "D1"),
    queries_per_group=6,
    traditional_budget_seconds=10.0,
    fig5_densities=(2.0, 3.5, 5.0),
    fig5_fixed_vertices=120,
    fig5_vertices=(60, 120, 240),
    yago_entities=600,
    yago_magnitudes=(10, 40),
)

_RECORDED_TABLES: list[str] = []


def record_tables(text: str) -> None:
    """Register a rendered experiment table for the terminal summary."""
    _RECORDED_TABLES.append(text)


def pytest_terminal_summary(terminalreporter) -> None:
    if not _RECORDED_TABLES:
        return
    terminalreporter.section("paper tables and figures (pytest scale)")
    for text in _RECORDED_TABLES:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
