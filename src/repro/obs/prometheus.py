"""Prometheus text exposition over the existing ``/stats`` snapshots.

No client library and no new dependency: ``GET /metrics`` is a pure
formatter from the JSON documents the service already produces
(:meth:`~repro.service.app.QueryService.stats_snapshot`) into the
`Prometheus text format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_,
version 0.0.4.  Each per-tenant family is a row of :data:`_ROWS`: a
path into the tenant's document, walked by one function.

Multi-tenant servers label every per-tenant sample ``tenant="<name>"``,
so one scrape covers the whole process and PromQL can aggregate or
isolate tenants freely.  :func:`parse_prometheus_text` is the matching
(deliberately strict) parser used by the tests, the CI ``metrics-shape``
job and the load generator to read a scrape back.
"""

from __future__ import annotations

import math
import re
from typing import Any

__all__ = [
    "render_metrics",
    "parse_prometheus_text",
    "format_value",
]

_METRIC_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def format_value(value: float) -> str:
    """A sample value in exposition form (``+Inf``-aware, no exponent
    surprises: ``repr`` keeps round-trip precision)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class _Families:
    """Samples grouped per metric family, rendered with one HELP/TYPE
    header each (the format forbids repeating a family's header)."""

    def __init__(self) -> None:
        self._families: dict[str, tuple[str, str, list[tuple[dict, float]]]] = {}

    def add(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: dict[str, Any],
        value: float,
    ) -> None:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = (kind, help_text, [])
        family[2].append((labels, float(value)))

    def render(self) -> str:
        lines: list[str] = []
        for name in sorted(self._families):
            kind, help_text, samples = self._families[name]
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                if labels:
                    rendered = ",".join(
                        f'{key}="{_escape_label(labels[key])}"'
                        for key in sorted(labels)
                    )
                    lines.append(f"{name}{{{rendered}}} {format_value(value)}")
                else:
                    lines.append(f"{name} {format_value(value)}")
        return "\n".join(lines) + "\n"


def _histogram(
    families: _Families,
    name: str,
    help_text: str,
    labels: dict[str, Any],
    document: dict,
) -> None:
    """One snapshot histogram as cumulative ``_bucket``/``_sum``/``_count``.

    The snapshot stores per-bucket (non-cumulative) counts with one more
    count than bounds — the overflow bucket, which becomes the
    ``le="+Inf"`` series the format requires; its cumulative value
    always equals ``_count``.
    """
    bounds = document.get("bucket_bounds_seconds") or []
    counts = document.get("bucket_counts") or []
    cumulative = 0
    for position, bound in enumerate(bounds):
        if position < len(counts):
            cumulative += counts[position]
        families.add(
            f"{name}_bucket",
            "histogram",
            help_text,
            {**labels, "le": format_value(float(bound))},
            cumulative,
        )
    total = sum(counts) if counts else document.get("count", 0)
    families.add(
        f"{name}_bucket", "histogram", help_text,
        {**labels, "le": "+Inf"}, total,
    )
    families.add(f"{name}_sum", "histogram", help_text, labels,
                 document.get("sum_seconds", 0.0))
    families.add(f"{name}_count", "histogram", help_text, labels, total)


_CACHES = ("result", "constraint", "candidate")

#: Every per-tenant family: ``(name, kind, path, help)``.  ``path`` is
#: dotted keys into one tenant's ``stats_snapshot`` document; a missing
#: value renders 0, unless the path ends ``?`` (then no sample when it is
#: absent or None).  A last step ``a|b`` makes one family per key, named
#: by putting the key for ``{}``.  Two steps add a label: ``<label>``
#: walks a dict's sorted keys, ``@cache`` the :data:`_CACHES` sections.
_ROWS = (
    ("repro_uptime_seconds", "gauge", "service.uptime_seconds",
     "Seconds since the service started"),
    ("repro_started_at_seconds", "gauge", "service.started_at?",
     "Unix time the service started"),
    ("repro_queries_total", "counter", "service.queries.total",
     "Queries answered (any path)"),
    ("repro_queries_executed_total", "counter", "service.queries.executed",
     "Queries that ran a search"),
    ("repro_queries_cached_total", "counter", "service.queries.cached",
     "Queries answered from the result cache"),
    ("repro_queries_trivial_total", "counter", "service.queries.trivial",
     "Queries the planner decided"),
    ("repro_queries_true_answers_total", "counter", "service.queries.true_answers",
     "Queries answered true"),
    ("repro_batches_total", "counter", "service.batches.requests", "Batch requests"),
    ("repro_batch_queries_total", "counter", "service.batches.queries",
     "Queries answered inside batches"),
    ("repro_update_batches_total", "counter", "service.updates.batches",
     "Applied update batches (epoch swaps)"),
    ("repro_update_edges_added_total", "counter", "service.updates.edges_added",
     "Edges added by updates"),
    ("repro_update_edges_duplicate_total", "counter", "service.updates.edges_duplicate",
     "Duplicate edges in update batches"),
    ("repro_update_edges_removed_total", "counter", "service.updates.edges_removed",
     "Edges removed by updates"),
    ("repro_update_edges_missing_total", "counter", "service.updates.edges_missing",
     "Removals that named an absent edge"),
    ("repro_update_vertices_added_total", "counter", "service.updates.vertices_added",
     "Vertices interned by updates"),
    ("repro_update_rows_recut_total", "counter", "service.updates.rows_recut",
     "Adjacency rows re-cut (not shared) by update swaps"),
    ("repro_errors_total", "counter", "service.errors.<kind>",
     "Failed requests by error kind"),
    ("repro_requests_shed_total", "counter", "service.resilience.requests_shed",
     "Requests rejected by admission control"),
    ("repro_algorithm_queries_total", "counter", "service.algorithms.<algorithm>.count",
     "Executed queries per algorithm"),
    ("repro_algorithm_true_answers_total", "counter",
     "service.algorithms.<algorithm>.true_answers",
     "True answers per algorithm"),
    ("repro_algorithm_seconds_total", "counter",
     "service.algorithms.<algorithm>.total_seconds",
     "Search seconds per algorithm"),
    ("repro_algorithm_mean_passed_vertices", "gauge",
     "service.algorithms.<algorithm>.mean_passed_vertices",
     "Mean passed vertices per algorithm"),
    ("repro_request_latency_seconds", "histogram", "service.latency.<endpoint>",
     "Request latency by endpoint"),
    ("repro_request_latency_max_seconds", "gauge",
     "service.latency.<endpoint>.max_seconds",
     "Worst observed latency by endpoint"),
    ("repro_cache_{}_total", "counter", "@cache.hits|misses|evictions",
     "Cache traffic by cache"),
    ("repro_cache_{}", "gauge", "@cache.size|max_size|hit_rate",
     "Cache occupancy by cache"),
    ("repro_graph_{}", "gauge", "graph.vertices|edges|labels", "Served graph sizes"),
    ("repro_index_configured", "gauge", "index.configured",
     "1 when the tenant serves indexed: a request may name ins"),
    ("repro_index_loaded", "gauge", "index.loaded",
     "1 once the local index has been read"),
    ("repro_index_landmarks", "gauge", "index.landmarks?",
     "Landmarks in the loaded index"),
    ("repro_epoch_id", "gauge", "epoch.epoch_id", "Current serving epoch id"),
    ("repro_epoch_age_seconds", "gauge", "epoch.age_seconds?",
     "Seconds since the current epoch was published"),
    ("repro_slow_queries_seen_total", "counter", "slow_queries.seen",
     "Requests offered to the flight recorder"),
    ("repro_slow_queries_kept", "gauge", "slow_queries.kept",
     "Entries currently in the flight recorder"),
    ("repro_slow_query_threshold_ms", "gauge", "slow_queries.threshold_ms",
     "Flight-recorder slow threshold"),
    ("repro_slow_query_worst_ms", "gauge", "slow_queries.worst_ms",
     "Slowest recorded entry"),
    ("repro_wal_records_total", "counter", "wal.records",
     "Records appended to the write-ahead log"),
    ("repro_wal_segments", "gauge", "wal.segments", "Live WAL segment files"),
    ("repro_wal_epoch", "gauge", "wal.epoch",
     "Last epoch recorded in the write-ahead log"),
    ("repro_wal_snapshot_epoch", "gauge", "wal.snapshot_epoch?",
     "Epoch of the newest compaction snapshot"),
    ("repro_follower_lag_epochs", "gauge", "replication.lag_epochs",
     "Epochs the follower trails the log tip by"),
    ("repro_follower_lag_seconds", "gauge", "replication.lag_seconds",
     "Seconds the oldest unapplied record has waited"),
    ("repro_follower_wal_epoch", "gauge", "replication.wal_epoch",
     "Log-tip epoch as of the follower's last poll"),
    ("repro_follower_records_applied_total", "counter", "replication.records_applied",
     "WAL records the follower has republished"),
    ("repro_follower_stuck", "gauge", "replication.stuck",
     "1 when the follower thread failed to stop and was abandoned"),
    ("repro_admission_active", "gauge", "admission.active",
     "Requests currently admitted"),
    ("repro_admission_queued", "gauge", "admission.queued",
     "Requests waiting for an admission slot"),
    ("repro_admission_max_concurrent", "gauge", "admission.max_concurrent",
     "Concurrent-request cap"),
    ("repro_admission_admitted_total", "counter", "admission.admitted",
     "Requests admitted"),
    ("repro_admission_shed_total", "counter", "admission.shed",
     "Requests shed (queue full or wait exhausted)"),
    ("repro_admission_queue_timeouts_total", "counter", "admission.queue_timeouts",
     "Queued requests that timed out waiting"),
    ("repro_approx_routed_total", "counter", "approx.routed",
     "Queries the short-circuit router inspected"),
    ("repro_approx_short_circuit_no_total", "counter", "approx.short_circuit_no",
     "Definite-No answers from the label-blind bounds"),
    ("repro_approx_short_circuit_yes_total", "counter", "approx.short_circuit_yes",
     "Definite-Yes answers from re-verified witness paths"),
    ("repro_approx_exact_fallthrough_total", "counter", "approx.exact_fallthrough",
     "Uncertain-band queries that ran the exact evaluators"),
    ("repro_approx_short_circuit_rate", "gauge", "approx.short_circuit_rate",
     "Fraction of routed queries settled without an evaluator"),
    ("repro_approx_witness_entries", "gauge", "approx.witness_cache.size",
     "Witness paths currently cached"),
    ("repro_approx_witness_hits_total", "counter", "approx.witness_cache.hits",
     "Witness-cache lookups that found a path"),
    ("repro_approx_witness_invalidations_total", "counter",
     "approx.witness_cache.invalidations",
     "Cached witnesses dropped after failing re-verification"),
    ("repro_approx_bounds_components", "gauge", "approx.bounds.components",
     "Strongly connected components in the bounds condensation"),
    ("repro_approx_bounds_build_seconds", "gauge", "approx.bounds.build_seconds",
     "Time the current epoch's bounds index took to build or derive"),
)


def _walk(node: Any, steps: list[str], labels: dict[str, Any]):
    """``(labels, value)`` for each value ``steps`` reach from ``node``
    (None where the last key is missing); a section that is not a dict
    yields nothing."""
    if not steps:
        yield labels, node
        return
    step, rest = steps[0], steps[1:]
    if not isinstance(node, dict):
        return
    elif step == "@cache":
        for cache in _CACHES:
            yield from _walk(
                node.get(f"{cache}_cache"), rest, {**labels, "cache": cache}
            )
    elif step[0] == "<":
        for key in sorted(node):
            yield from _walk(node[key], rest, {**labels, step[1:-1]: key})
    else:
        yield from _walk(node.get(step), rest, labels)


def render_service_metrics(families: _Families, tenant: str, document: dict) -> None:
    """Fold one tenant's ``stats_snapshot`` document into ``families``."""
    for name, kind, path, help_text in _ROWS:
        *steps, keys = path.rstrip("?").split(".")
        for key in keys.split("|"):
            family = name.format(key)
            for labels, value in _walk(document, [*steps, key], {"tenant": tenant}):
                if kind == "histogram":
                    _histogram(families, family, help_text, labels, value)
                elif value is not None or not path.endswith("?"):
                    families.add(family, kind, help_text, labels, value or 0)


def render_metrics(
    documents: dict[str, dict],
    *,
    version: str,
    started_at: float | None = None,
    registry: dict | None = None,
) -> str:
    """The full ``GET /metrics`` body.

    ``documents`` maps tenant name → that tenant's ``stats_snapshot``
    document (loaded tenants only — a scrape must never force a lazy
    warm start).  ``registry`` optionally carries the registry-level
    counters (tenant counts, unattributed errors).
    """
    families = _Families()
    families.add("repro_build_info", "gauge",
                 "Package version (value is always 1)",
                 {"version": version}, 1)
    if started_at is not None:
        families.add("repro_process_started_at_seconds", "gauge",
                     "Unix time the oldest tenant started", {}, started_at)
    if registry is not None:
        families.add("repro_tenants", "gauge", "Registered tenants", {},
                     registry.get("tenant_count", 0))
        families.add("repro_tenants_loaded", "gauge",
                     "Tenants warm-started", {},
                     registry.get("tenants_loaded", 0))
        for kind, count in sorted(registry.get("errors", {}).items()):
            families.add("repro_registry_errors_total", "counter",
                         "Request errors not attributable to a tenant",
                         {"kind": kind}, count)
    for tenant in sorted(documents):
        render_service_metrics(families, tenant, documents[tenant])
    return families.render()


def parse_prometheus_text(text: str) -> dict[tuple[str, tuple], float]:
    """Parse an exposition body back into ``{(name, labels): value}``.

    Deliberately strict — the CI shape gate and the tests use it as a
    format validator: unknown line shapes raise ``ValueError``, repeated
    ``TYPE`` headers for one family raise, and histogram ``_bucket``
    series are checked for monotone non-decreasing cumulative counts
    ending in ``le="+Inf"``.  Labels are returned as a sorted tuple of
    ``(key, value)`` pairs so results are hashable.
    """
    samples: dict[tuple[str, tuple], float] = {}
    typed: dict[str, str] = {}
    buckets: dict[tuple[str, tuple], list[tuple[float, float]]] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {line_number}: bad TYPE line: {raw!r}")
            if parts[2] in typed:
                raise ValueError(
                    f"line {line_number}: repeated TYPE for {parts[2]}"
                )
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _METRIC_LINE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: bad sample line: {raw!r}")
        labels_text = match.group("labels") or ""
        labels = {}
        if labels_text:
            consumed = 0
            for pair in _LABEL_PAIR.finditer(labels_text):
                labels[pair.group(1)] = (
                    pair.group(2)
                    .replace('\\"', '"')
                    .replace("\\n", "\n")
                    .replace("\\\\", "\\")
                )
                consumed += pair.end() - pair.start()
            # Separating commas are all that may remain unmatched.
            leftovers = _LABEL_PAIR.sub("", labels_text).replace(",", "")
            if leftovers.strip():
                raise ValueError(
                    f"line {line_number}: bad label syntax: {raw!r}"
                )
        raw_value = match.group("value")
        if raw_value == "+Inf":
            value = math.inf
        elif raw_value == "-Inf":
            value = -math.inf
        elif raw_value == "NaN":
            value = math.nan
        else:
            value = float(raw_value)
        name = match.group("name")
        key = (name, tuple(sorted(labels.items())))
        if key in samples:
            raise ValueError(f"line {line_number}: duplicate sample {key}")
        samples[key] = value
        if name.endswith("_bucket") and "le" in labels:
            le = labels["le"]
            bound = math.inf if le == "+Inf" else float(le)
            series = tuple(
                sorted(item for item in labels.items() if item[0] != "le")
            )
            buckets.setdefault((name, series), []).append((bound, value))
    for (name, series), pairs in buckets.items():
        pairs.sort()
        if not pairs or pairs[-1][0] != math.inf:
            raise ValueError(f"{name}{series}: missing le=\"+Inf\" bucket")
        cumulative = [count for _, count in pairs]
        if any(b < a for a, b in zip(cumulative, cumulative[1:])):
            raise ValueError(
                f"{name}{series}: bucket counts are not monotone: {cumulative}"
            )
        count_key = (name[: -len("_bucket")] + "_count", series)
        if count_key in samples and samples[count_key] != cumulative[-1]:
            raise ValueError(
                f"{name}{series}: +Inf bucket {cumulative[-1]} != "
                f"_count {samples[count_key]}"
            )
    return samples
