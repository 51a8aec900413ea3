"""Prometheus text exposition over the existing ``/stats`` snapshots.

No client library and no new dependency: ``GET /metrics`` is a pure
formatter from the JSON documents the service already produces
(:meth:`~repro.service.app.QueryService.stats_snapshot`) into the
`Prometheus text format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_,
version 0.0.4.  Everything the snapshot counts appears as a sample:

* request/traffic counters (``repro_queries_total`` and friends),
  per-kind error counters, per-algorithm work aggregates;
* every :class:`~repro.service.stats.LatencyHistogram` as a native
  Prometheus histogram — cumulative ``_bucket`` series ending in the
  mandatory ``le="+Inf"`` bucket, plus ``_sum`` and ``_count``;
* cache hit/miss/eviction/size gauges for the result, constraint and
  candidate caches;
* epoch identity and age, graph sizes, index state, slow-query
  flight-recorder counters;
* shard plan/coordinator/worker counters when the tenant is sharded
  (workers labelled ``shard="<id>"``; slice sizes and traffic as of the
  coordinator's last handshake, probe or slice publish to each);
* write-ahead-log counters on a durable leader (``repro_wal_*``) and
  replication lag gauges on a follower (``repro_follower_lag_epochs`` /
  ``repro_follower_lag_seconds``);
* one ``repro_build_info`` gauge carrying the package version.

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
    "render_service_metrics",
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


#: ``service.queries`` snapshot keys → (metric suffix, help).
_QUERY_COUNTERS = {
    "total": ("queries_total", "Queries answered (any path)"),
    "executed": ("queries_executed_total", "Queries that ran a search"),
    "cached": ("queries_cached_total", "Queries answered from the result cache"),
    "trivial": ("queries_trivial_total", "Queries the planner decided"),
    "true_answers": ("queries_true_answers_total", "Queries answered true"),
}

_UPDATE_COUNTERS = {
    "batches": ("update_batches_total", "Applied update batches (epoch swaps)"),
    "edges_added": ("update_edges_added_total", "Edges added by updates"),
    "edges_duplicate": ("update_edges_duplicate_total",
                        "Duplicate edges in update batches"),
    "edges_removed": ("update_edges_removed_total",
                      "Edges removed by updates"),
    "edges_missing": ("update_edges_missing_total",
                      "Removals that named an absent edge"),
    "vertices_added": ("update_vertices_added_total",
                       "Vertices interned by updates"),
    "rows_recut": ("update_rows_recut_total",
                   "Adjacency rows re-cut (not shared) by update swaps"),
}

_CACHE_SECTIONS = (
    ("result_cache", "result"),
    ("constraint_cache", "constraint"),
    ("candidate_cache", "candidate"),
)

_CACHE_COUNTERS = ("hits", "misses", "evictions")
_CACHE_GAUGES = ("size", "max_size", "hit_rate")

_COORDINATOR_COUNTERS = (
    "queries", "fast_path_hits", "rounds_total", "expand_calls_total",
    "crossings_total", "epoch_skew_retries",
)

#: ``coordinator.resilience`` counter keys → metric suffix (all under
#: ``repro_resilience_*``, the fault-tolerance surface).
_RESILIENCE_COUNTERS = {
    "retries": ("retries_total", "Shard expand calls retried"),
    "worker_failures": ("worker_failures_total",
                        "Shard expand failures (after retries)"),
    "breaker_rejections": ("breaker_rejections_total",
                           "Expand calls rejected by an open breaker"),
    "degraded_answers": ("degraded_answers_total",
                         "Answers computed over surviving shards only"),
    "deadline_exceeded": ("deadline_exceeded_total",
                          "Queries that ran out of budget in the coordinator"),
    "fast_path_errors": ("fast_path_errors_total",
                         "Co-located fast-path probe failures"),
}

#: Per-shard breaker stats keys rendered as labelled series.
_BREAKER_COUNTERS = {
    "opens": ("breaker_opens_total", "Times a shard breaker tripped open"),
    "rejected": ("breaker_rejected_total",
                 "Calls rejected while a shard breaker was open"),
    "failures": ("breaker_failures_total", "Failures seen by a shard breaker"),
    "successes": ("breaker_successes_total",
                  "Successes seen by a shard breaker"),
}

_WORKER_COUNTERS = (
    "expand_calls", "seeds_in", "reached_out", "crossings_out",
    "local_queries", "local_hits",
    "updates_prepared", "updates_published", "updates_aborted",
)

_WORKER_GAUGES = ("regions", "vertices", "edges", "border_vertices")

#: Remote-stub connection-pool stats (``HttpShardWorker.describe()``).
_WORKER_POOL_COUNTERS = (
    "connections_opened", "connection_reuses", "reconnects",
)

#: Coordinator-side health-ledger fields merged into each worker entry.
_WORKER_HEALTH_GAUGES = {
    "consecutive_failures": (
        "consecutive_failures",
        "Consecutive failed health probes for the worker",
    ),
    "last_seen_age_seconds": (
        "last_seen_age_seconds",
        "Seconds since the worker last answered a probe or handshake",
    ),
    "resyncs": (
        "resyncs_total",
        "Times the coordinator re-pushed a slice to heal worker drift",
    ),
}


def _service_section(
    families: _Families, labels: dict[str, Any], service: dict
) -> None:
    """The ``service`` (ServiceStats) snapshot section."""
    families.add("repro_uptime_seconds", "gauge",
                 "Seconds since the service started", labels,
                 service.get("uptime_seconds", 0.0))
    if "started_at" in service:
        families.add("repro_started_at_seconds", "gauge",
                     "Unix time the service started", labels,
                     service["started_at"])
    queries = service.get("queries", {})
    for key, (suffix, help_text) in _QUERY_COUNTERS.items():
        families.add(f"repro_{suffix}", "counter", help_text, labels,
                     queries.get(key, 0))
    batches = service.get("batches", {})
    families.add("repro_batches_total", "counter", "Batch requests",
                 labels, batches.get("requests", 0))
    families.add("repro_batch_queries_total", "counter",
                 "Queries answered inside batches", labels,
                 batches.get("queries", 0))
    updates = service.get("updates", {})
    for key, (suffix, help_text) in _UPDATE_COUNTERS.items():
        families.add(f"repro_{suffix}", "counter", help_text, labels,
                     updates.get(key, 0))
    for kind, count in sorted(service.get("errors", {}).items()):
        families.add("repro_errors_total", "counter",
                     "Failed requests by error kind",
                     {**labels, "kind": kind}, count)
    resilience = service.get("resilience", {})
    families.add("repro_requests_shed_total", "counter",
                 "Requests rejected by admission control", labels,
                 resilience.get("requests_shed", 0))
    families.add("repro_degraded_answers_total", "counter",
                 "Answers served over surviving shards only", labels,
                 resilience.get("degraded_answers", 0))
    for algorithm, cell in sorted(service.get("algorithms", {}).items()):
        cell_labels = {**labels, "algorithm": algorithm}
        families.add("repro_algorithm_queries_total", "counter",
                     "Executed queries per algorithm", cell_labels,
                     cell.get("count", 0))
        families.add("repro_algorithm_true_answers_total", "counter",
                     "True answers per algorithm", cell_labels,
                     cell.get("true_answers", 0))
        families.add("repro_algorithm_seconds_total", "counter",
                     "Search seconds per algorithm", cell_labels,
                     cell.get("total_seconds", 0.0))
        families.add("repro_algorithm_mean_passed_vertices", "gauge",
                     "Mean passed vertices per algorithm", cell_labels,
                     cell.get("mean_passed_vertices", 0.0))
    for endpoint, histogram in sorted(service.get("latency", {}).items()):
        endpoint_labels = {**labels, "endpoint": endpoint}
        _histogram(families, "repro_request_latency_seconds",
                   "Request latency by endpoint", endpoint_labels, histogram)
        families.add("repro_request_latency_max_seconds", "gauge",
                     "Worst observed latency by endpoint", endpoint_labels,
                     histogram.get("max_seconds", 0.0))


def _shards_section(
    families: _Families, labels: dict[str, Any], shards: dict
) -> None:
    plan = shards.get("plan", {})
    families.add("repro_shard_count", "gauge", "Shards in the plan",
                 labels, plan.get("num_shards", 0))
    if "slice_epoch" in shards:
        families.add("repro_shard_slice_epoch", "gauge",
                     "Coordinated slice epoch the fleet serves", labels,
                     shards["slice_epoch"])
    coordinator = shards.get("coordinator", {})
    for key in _COORDINATOR_COUNTERS:
        families.add(f"repro_shard_coordinator_{key}", "counter",
                     "Scatter-gather coordinator counters", labels,
                     coordinator.get(key, 0))
    families.add("repro_shard_coordinator_mean_rounds", "gauge",
                 "Mean frontier-exchange rounds per query", labels,
                 coordinator.get("mean_rounds", 0.0))
    resilience = coordinator.get("resilience")
    if isinstance(resilience, dict):
        for key, (suffix, help_text) in _RESILIENCE_COUNTERS.items():
            families.add(f"repro_resilience_{suffix}", "counter", help_text,
                         labels, resilience.get(key, 0))
        families.add("repro_resilience_degraded_mode", "gauge",
                     "1 when --degraded-answers is on", labels,
                     1 if resilience.get("degraded_mode") else 0)
        for shard, breaker in sorted(resilience.get("breakers", {}).items()):
            shard_labels = {**labels, "shard": shard}
            families.add("repro_resilience_breaker_state", "gauge",
                         "Breaker state (0 closed, 1 half-open, 2 open)",
                         shard_labels, breaker.get("state_code", 0))
            for key, (suffix, help_text) in _BREAKER_COUNTERS.items():
                families.add(f"repro_resilience_{suffix}", "counter",
                             help_text, shard_labels, breaker.get(key, 0))
    for worker in shards.get("workers", []):
        worker_labels = {**labels, "shard": worker.get("shard", "")}
        for key in _WORKER_COUNTERS:
            if key in worker:
                families.add(f"repro_shard_worker_{key}_total", "counter",
                             "Shard worker traffic counters", worker_labels,
                             worker[key])
        for key in _WORKER_GAUGES:
            if key in worker:
                families.add(f"repro_shard_worker_{key}", "gauge",
                             "Shard worker slice sizes", worker_labels,
                             worker[key])
        health = worker.get("health")
        if not isinstance(health, dict):
            health = {}
        slice_epoch = health.get("epoch")
        if isinstance(slice_epoch, (int, float)):
            families.add("repro_shard_worker_slice_epoch", "gauge",
                         "Slice epoch the worker last reported",
                         worker_labels, slice_epoch)
        for key in _WORKER_POOL_COUNTERS:
            if key in worker:
                families.add(f"repro_shard_worker_{key}_total", "counter",
                             "Remote worker connection-pool counters",
                             worker_labels, worker[key])
        if "idle_connections" in worker:
            families.add("repro_shard_worker_idle_connections", "gauge",
                         "Pooled idle keep-alive connections to the worker",
                         worker_labels, worker["idle_connections"])
        for key, (suffix, help_text) in _WORKER_HEALTH_GAUGES.items():
            value = health.get(key)
            if isinstance(value, (int, float)):
                kind = "counter" if suffix.endswith("_total") else "gauge"
                families.add(f"repro_shard_worker_{suffix}", kind,
                             help_text, worker_labels, value)


def render_service_metrics(
    families: _Families, tenant: str, document: dict
) -> None:
    """Fold one tenant's ``stats_snapshot`` document into ``families``."""
    labels = {"tenant": tenant}
    _service_section(families, labels, document.get("service", {}))
    for section, cache in _CACHE_SECTIONS:
        stats = document.get(section)
        if not isinstance(stats, dict):
            continue
        cache_labels = {**labels, "cache": cache}
        for key in _CACHE_COUNTERS:
            families.add(f"repro_cache_{key}_total", "counter",
                         "Cache traffic by cache", cache_labels,
                         stats.get(key, 0))
        for key in _CACHE_GAUGES:
            families.add(f"repro_cache_{key}", "gauge",
                         "Cache occupancy by cache", cache_labels,
                         stats.get(key, 0))
    graph = document.get("graph", {})
    for key in ("vertices", "edges", "labels"):
        families.add(f"repro_graph_{key}", "gauge",
                     "Served graph sizes", labels, graph.get(key, 0))
    index = document.get("index", {})
    families.add("repro_index_configured", "gauge",
                 "1 when the tenant serves indexed: a request may name ins",
                 labels, 1 if index.get("configured") else 0)
    families.add("repro_index_loaded", "gauge",
                 "1 once the local index has been read", labels,
                 1 if index.get("loaded") else 0)
    if "landmarks" in index:
        families.add("repro_index_landmarks", "gauge",
                     "Landmarks in the loaded index", labels,
                     index["landmarks"])
    epoch = document.get("epoch", {})
    if epoch:
        families.add("repro_epoch_id", "gauge",
                     "Current serving epoch id", labels,
                     epoch.get("epoch_id", 0))
        if "age_seconds" in epoch:
            families.add("repro_epoch_age_seconds", "gauge",
                         "Seconds since the current epoch was published",
                         labels, epoch["age_seconds"])
    slow = document.get("slow_queries")
    if isinstance(slow, dict):
        families.add("repro_slow_queries_seen_total", "counter",
                     "Requests offered to the flight recorder", labels,
                     slow.get("seen", 0))
        families.add("repro_slow_queries_kept", "gauge",
                     "Entries currently in the flight recorder", labels,
                     slow.get("kept", 0))
        families.add("repro_slow_query_threshold_ms", "gauge",
                     "Flight-recorder slow threshold", labels,
                     slow.get("threshold_ms", 0.0))
        families.add("repro_slow_query_worst_ms", "gauge",
                     "Slowest recorded entry", labels,
                     slow.get("worst_ms", 0.0))
    wal = document.get("wal")
    if isinstance(wal, dict):
        families.add("repro_wal_records_total", "counter",
                     "Records appended to the write-ahead log", labels,
                     wal.get("records", 0))
        families.add("repro_wal_segments", "gauge",
                     "Live WAL segment files", labels,
                     wal.get("segments", 0))
        families.add("repro_wal_epoch", "gauge",
                     "Last epoch recorded in the write-ahead log", labels,
                     wal.get("epoch", 0))
        snapshot_epoch = wal.get("snapshot_epoch")
        if snapshot_epoch is not None:
            families.add("repro_wal_snapshot_epoch", "gauge",
                         "Epoch of the newest compaction snapshot", labels,
                         snapshot_epoch)
    replication = document.get("replication")
    if isinstance(replication, dict):
        families.add("repro_follower_lag_epochs", "gauge",
                     "Epochs the follower trails the log tip by", labels,
                     replication.get("lag_epochs", 0))
        families.add("repro_follower_lag_seconds", "gauge",
                     "Seconds the oldest unapplied record has waited", labels,
                     replication.get("lag_seconds", 0.0))
        families.add("repro_follower_wal_epoch", "gauge",
                     "Log-tip epoch as of the follower's last poll", labels,
                     replication.get("wal_epoch", 0))
        families.add("repro_follower_records_applied_total", "counter",
                     "WAL records the follower has republished", labels,
                     replication.get("records_applied", 0))
        families.add("repro_follower_stuck", "gauge",
                     "1 when the follower thread failed to stop and was "
                     "abandoned", labels,
                     1 if replication.get("stuck") else 0)
    admission = document.get("admission")
    if isinstance(admission, dict):
        families.add("repro_admission_active", "gauge",
                     "Requests currently admitted", labels,
                     admission.get("active", 0))
        families.add("repro_admission_queued", "gauge",
                     "Requests waiting for an admission slot", labels,
                     admission.get("queued", 0))
        families.add("repro_admission_max_concurrent", "gauge",
                     "Concurrent-request cap", labels,
                     admission.get("max_concurrent", 0))
        families.add("repro_admission_admitted_total", "counter",
                     "Requests admitted", labels,
                     admission.get("admitted", 0))
        families.add("repro_admission_shed_total", "counter",
                     "Requests shed (queue full or wait exhausted)", labels,
                     admission.get("shed", 0))
        families.add("repro_admission_queue_timeouts_total", "counter",
                     "Queued requests that timed out waiting", labels,
                     admission.get("queue_timeouts", 0))
    approx = document.get("approx")
    if isinstance(approx, dict):
        families.add("repro_approx_routed_total", "counter",
                     "Queries the short-circuit router inspected", labels,
                     approx.get("routed", 0))
        families.add("repro_approx_short_circuit_no_total", "counter",
                     "Definite-No answers from the label-blind bounds",
                     labels, approx.get("short_circuit_no", 0))
        families.add("repro_approx_short_circuit_yes_total", "counter",
                     "Definite-Yes answers from re-verified witness paths",
                     labels, approx.get("short_circuit_yes", 0))
        families.add("repro_approx_exact_fallthrough_total", "counter",
                     "Uncertain-band queries that ran the exact evaluators",
                     labels, approx.get("exact_fallthrough", 0))
        families.add("repro_approx_short_circuit_rate", "gauge",
                     "Fraction of routed queries settled without an evaluator",
                     labels, approx.get("short_circuit_rate", 0.0))
        witness = approx.get("witness_cache")
        if isinstance(witness, dict):
            families.add("repro_approx_witness_entries", "gauge",
                         "Witness paths currently cached", labels,
                         witness.get("size", 0))
            families.add("repro_approx_witness_hits_total", "counter",
                         "Witness-cache lookups that found a path", labels,
                         witness.get("hits", 0))
            families.add("repro_approx_witness_invalidations_total",
                         "counter",
                         "Cached witnesses dropped after failing "
                         "re-verification", labels,
                         witness.get("invalidations", 0))
        bounds = approx.get("bounds")
        if isinstance(bounds, dict):
            families.add("repro_approx_bounds_components", "gauge",
                         "Strongly connected components in the bounds "
                         "condensation", labels,
                         bounds.get("components", 0))
            families.add("repro_approx_bounds_build_seconds", "gauge",
                         "Time the current epoch's bounds index took to "
                         "build or derive", labels,
                         bounds.get("build_seconds", 0.0))
    shards = document.get("shards")
    if isinstance(shards, dict):
        _shards_section(families, labels, shards)


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
