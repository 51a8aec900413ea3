"""Percentiles and the printed tables."""

from __future__ import annotations

import json
import math
import statistics

from ladder import spec


def percentile(values: list[float], percent: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``percent`` % of the samples at or below it (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def format_metrics(
    title: str,
    definitions: tuple[spec.Metric, ...],
    values: dict[str, float],
    samples: dict[str, int],
) -> str:
    """One line per metric: name, value, unit, sample count, bound."""
    lines = [title]
    for metric in definitions:
        bound = f"  bound {metric.bound:.0%}" if metric.bound is not None else ""
        count = f"  n={samples[metric.name]}" if metric.name in samples else ""
        lines.append(
            f"  {metric.name:<38} {values[metric.name]:>12.4f} {metric.unit:<6}"
            f"{count}{bound}"
        )
    return "\n".join(lines)


def describe(workload: spec.Workload, traced: bool, outcome) -> str:
    """The printed account of one run (``outcome``: ``workloads.Outcome``)."""
    verdict = outcome.verdict
    kind = "traced, per layer" if traced else "untraced, end to end"
    if workload in spec.AD_HOC:
        kind += "; ad hoc, not in BENCHMARK.json"
    title = (
        f"{workload.name} ({kind}): "
        f"{verdict.attempted} operations, {verdict.failed} failed"
    )
    definitions = spec.PER_LAYER if traced else spec.END_TO_END
    lines = [format_metrics(title, definitions, outcome.metrics, outcome.samples)]
    if traced:
        lines.append(format_metrics(
            "  diagnostics (one workload each; not in BENCHMARK.json)",
            spec.DIAGNOSTICS, outcome.metrics, outcome.samples,
        ))
    if outcome.measured:
        as_measured = ", ".join(
            f"{name} {value:.4f}" for name, value in outcome.measured.items()
        )
        lines.append(
            f"  machine slow-down {outcome.slowdown:.3f}; as measured: {as_measured}"
        )
    if verdict.epoch_checks:
        lines.append(f"  (query, epoch) pairs re-checked: {verdict.epoch_checks}")
    lines += [f"  warning: {warning}" for warning in outcome.warnings]
    lines += [f"  FAILED: {problem}" for problem in verdict.problems]
    return "\n".join(lines)


def result_line(traced: bool, outcome) -> str:
    """The one JSON object the driver reads from the last line."""
    definitions = spec.PER_LAYER if traced else spec.END_TO_END
    return json.dumps({
        "correct": outcome.verdict.failed == 0,
        "attempted": outcome.verdict.attempted,
        "failed": outcome.verdict.failed,
        "metrics": {
            metric.name: {"value": outcome.metrics[metric.name], "unit": metric.unit}
            for metric in definitions
        },
    })


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def format_repeats(runs: dict[str, dict[str, list[float]]]) -> str:
    """Per workload x end-to-end metric: median, min-max, spread vs bound.

    ``runs[workload][metric]`` holds one value per repeat.
    """
    lines = []
    for workload, metrics in runs.items():
        lines.append(f"{workload}")
        for metric in spec.END_TO_END:
            values = metrics[metric.name]
            middle = statistics.median(values)
            if len(values) >= 2:
                share = spread(values)
                verdict = "inside" if share <= metric.bound else "OUTSIDE"
                tail = f"iqr/median {share:6.1%} {verdict} bound {metric.bound:.0%}"
            else:
                tail = "one run: no spread"
            lines.append(
                f"  {metric.name:<26} median {middle:>10.3f} {metric.unit:<4} "
                f"min {min(values):>10.3f} max {max(values):>10.3f}  {tail}"
            )
    return "\n".join(lines)
