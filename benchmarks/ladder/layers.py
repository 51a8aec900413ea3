"""Per-layer metrics: exact counts from ``/stats`` deltas of the untraced
half, times from the spans of the traced half, and the kernel rung run
in the benchmark process.

A layer is a module name.  Times are self time — a span's duration minus
what its child spans cover — so the layers of one request add up to the
request and nothing is counted twice.
"""

from __future__ import annotations

import statistics

from repro.core.ins import INS
from repro.core.query import LSCRQuery
from repro.core.uis_star import UISStar
from repro.graph.csr import freeze_graph
from repro.index.local_index import build_local_index

from ladder import procs, spec
from ladder.client import TAG_STRIDE, RunLog
from ladder.report import percentile
from ladder.spans import SpanTable

#: ``/stats`` algorithm cells that are not evaluator runs.
_NOT_EVALUATORS = {"bounds", "witness", "approx", "planner"}
#: Span name -> layer, for the time shares.
_SHARE_LAYERS = {
    "core": ("core.answer", "core.find_witness"),
    "shard": ("shard.answer", "shard.expand"),
    "updates": (
        "updates.apply", "graph.copy", "graph.freeze", "index.repair",
        "index.build", "approx.bounds_build",
    ),
}


def load_spans(process: procs.ServerProcess) -> SpanTable:
    """The spans one traced server wrote at shutdown (empty if it did not)."""
    try:
        return SpanTable.load(str(process.span_file))
    except (OSError, ValueError, KeyError):
        return SpanTable([], ["<no span file>"])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _delta(before: dict, after: dict, *path: str) -> float:
    for key in path:
        before = before.get(key, {}) if isinstance(before, dict) else {}
        after = after.get(key, {}) if isinstance(after, dict) else {}
    return (after or 0) - (before or 0)


def _cache_hit_ratio(before: dict, after: dict, cache: str) -> float:
    """Hits / lookups of one cache over the measured phase.

    The candidate cache is per epoch: after an update the counters are
    those of the latest epoch's cache alone, and are used as they are.
    """
    if after.get("epoch", {}).get("epoch_id") != before.get("epoch", {}).get("epoch_id"):
        hits, misses = after[cache]["hits"], after[cache]["misses"]
    else:
        hits = _delta(before, after, cache, "hits")
        misses = _delta(before, after, cache, "misses")
    return _ratio(hits, hits + misses)


def _evaluator_cells(document: dict) -> tuple[float, float]:
    """``(evaluator runs, passed vertices)`` summed over a /stats document."""
    runs = passed = 0.0
    for name, cell in document.get("service", {}).get("algorithms", {}).items():
        if name not in _NOT_EVALUATORS:
            runs += cell["count"]
            passed += cell["count"] * cell["mean_passed_vertices"]
    return runs, passed


def kernel_rung(inputs) -> dict[str, float]:
    """INS and UIS* called directly on the frozen graph, no service."""
    frozen = freeze_graph(inputs.graph)
    index = build_local_index(frozen, rng=0)
    queries = [
        LSCRQuery.create(
            query.spec["source"], query.spec["target"], query.spec["labels"],
            query.spec["constraint"],
        )
        for query in inputs.pool[:spec.KERNEL_QUERIES]
    ]
    rung = {}
    for name, algorithm in (
        ("core.ins.ms_per_query", INS(frozen, index)),
        ("core.uis_star.ms_per_query", UISStar(frozen)),
    ):
        rung[name] = statistics.fmean(
            algorithm.answer(query).seconds for query in queries
        ) * 1000.0
    return rung


def per_layer_metrics(
    *,
    inputs,
    plain_log: RunLog,
    plain_server: dict,
    plain_topology: procs.Topology,
    plain_answers: int,
    traced_log: RunLog,
    traced_answers: int,
    tables: dict[str, SpanTable],
) -> tuple[dict[str, float], dict[str, int], list[str]]:
    """Every ``spec.PER_LAYER`` metric, its sample count, and warnings."""
    warnings: list[str] = []
    front = tables["front"]
    workers = [table for name, table in tables.items() if name != "front"]
    for name, table in tables.items():
        for missing in table.missing:
            warnings.append(f"{name}: no span for {missing}; its metrics read 0")
    # Warm-up requests carry no client id and fall below the first stride.
    measured = {row[3] for row in front.rows if row[5] >= TAG_STRIDE}

    def spans(name: str, under: str | None = None) -> list[tuple]:
        rows = [row for row in front.named(name) if row[3] in measured]
        if under is not None:
            rows = [row for row in rows if front.under(row, under)]
        return rows

    def mean_ms(rows: list[tuple]) -> float:
        return _ratio(sum(row[2] - row[1] for row in rows), len(rows)) * 1000.0

    def lifetime(name: str) -> list[tuple]:
        """Spans of every server process, warm-up included: what keeps a
        layer that only works before the measured phase (``core`` on
        ``hot_mix``) or only in the workers (``core`` when sharded) from
        reading 0."""
        return [row for table in tables.values() for row in table.named(name)]

    def self_ms(rows: list[tuple]) -> float:
        return sum(front.self_s[row[3]] for row in rows) * 1000.0

    metrics: dict[str, float] = {"bench.prep_s": inputs.prep_s}
    samples: dict[str, int] = {}

    # -- client and HTTP ------------------------------------------------
    handlers = spans("http.do_POST")
    by_request = {row[5]: row for row in handlers}
    gaps = [
        sample.latency_ms - (by_request[sample.request_id][2]
                             - by_request[sample.request_id][1]) * 1000.0
        for sample in traced_log.samples
        if sample.status == 200 and sample.request_id in by_request
    ]
    metrics["client.self_ms_per_request"] = statistics.fmean(gaps) if gaps else 0.0
    samples["client.self_ms_per_request"] = len(gaps)
    metrics["http.self_ms_per_request"] = _ratio(self_ms(handlers), len(handlers))
    samples["http.self_ms_per_request"] = len(handlers)
    query_handlers = [(row[2] - row[1]) * 1000.0 for row in handlers if row[6] == "/query"]
    metrics["http.query_p99_ms"] = percentile(query_handlers, 99)
    samples["http.query_p99_ms"] = len(query_handlers)

    # -- app, planner, caches, executor, approx, constraints -----------
    members = spans("executor.member")
    singles = spans("app.query")
    app_rows = spans("app.handle_query") + spans("app.handle_batch") + singles + members
    answered = len(singles) + len(members)
    metrics["app.self_ms_per_query"] = _ratio(self_ms(app_rows), answered)
    samples["app.self_ms_per_query"] = answered
    for metric, rows in (
        ("planner.ms_per_plan", spans("planner.plan")),
        ("result_cache.ms_per_lookup", spans("result_cache.get")),
        ("approx.ms_per_decide", lifetime("approx.decide")),
        ("approx.witness_ms_per_store", lifetime("approx.remember_witness")),
        ("core.ms_per_evaluation", lifetime("core.answer")),
        ("updates.ms_per_batch", spans("updates.apply")),
        ("shard.expand_ms_per_call", spans("shard.expand")),
    ):
        metrics[metric] = mean_ms(rows)
        samples[metric] = len(rows)
    maps = spans("executor.map")
    metrics["executor.self_ms_per_batch"] = _ratio(self_ms(maps), len(maps))
    samples["executor.self_ms_per_batch"] = len(maps)
    misses = [
        row for table in tables.values() for row in table.named("constraints.vsg")
        if table.under(row, "candidate_cache.get")
    ]
    metrics["constraints.vsg_ms_per_miss"] = mean_ms(misses)
    samples["constraints.vsg_ms_per_miss"] = len(misses)

    # -- updates --------------------------------------------------------
    applied = len(spans("updates.apply"))
    for metric, name in (
        ("graph.copy_ms_per_update", "graph.copy"),
        ("graph.freeze_ms_per_update", "graph.freeze"),
        ("index.repair_ms_per_update", "index.repair"),
        ("approx.bounds_build_ms_per_update", "approx.bounds_build"),
    ):
        rows = spans(name, under="updates.apply")
        metrics[metric] = _ratio(sum(row[2] - row[1] for row in rows), applied) * 1000.0
        samples[metric] = applied
    acks = [update.ack_ms for update in plain_log.updates if update.status == 200]
    metrics["updates.ack_p50_ms"] = percentile(acks, 50)
    samples["updates.ack_p50_ms"] = len(acks)
    metrics["updates.late_max_ms"] = max(
        (update.late_ms for update in plain_log.updates), default=0.0
    )

    # -- time shares ----------------------------------------------------
    total_self = sum(front.self_s[span_id] for span_id in measured)
    edge_requests = {row[5] for row in handlers if row[6] == "/edges"}
    edge_self = sum(
        front.self_s[row[3]] for row in front.rows
        if row[3] in measured and row[5] in edge_requests
    )
    for layer, names in _SHARE_LAYERS.items():
        rows = [row for name in names for row in spans(name)]
        if layer == "updates":
            rows = [row for row in rows if row[5] in edge_requests]
            metrics["updates.time_share"] = _ratio(self_ms(rows) / 1000.0, edge_self)
        else:
            metrics[f"{layer}.time_share"] = _ratio(self_ms(rows) / 1000.0, total_self)

    # -- boot (spans outside any request) -------------------------------
    for metric, name in (
        ("graph.load_s", "graph.load"),
        ("graph.freeze_s", "graph.freeze"),
        ("index.build_s", "index.build"),
        ("approx.bounds_build_s", "approx.bounds_build"),
    ):
        metrics[metric] = sum(
            row[2] - row[1] for row in front.named(name) if row[4] == 0
        )
    metrics["shard.cut_s"] = plain_topology.cut_s
    metrics["shard.worker_boot_s"] = plain_topology.worker_boot_s

    # -- counts from the untraced half's /stats deltas -----------------
    before, after = plain_server["before"], plain_server["after"]
    if after is None:
        warnings.append("no /stats after the untraced half; count metrics read 0")
        after = before
    metrics["result_cache.hit_ratio"] = _cache_hit_ratio(before, after, "result_cache")
    metrics["result_cache.evictions"] = _delta(before, after, "result_cache", "evictions")
    metrics["candidate_cache.hit_ratio"] = _cache_hit_ratio(
        before, after, "candidate_cache"
    )
    short = _delta(before, after, "approx", "short_circuit_no") + _delta(
        before, after, "approx", "short_circuit_yes"
    )
    metrics["approx.short_circuit_ratio"] = _ratio(
        short, _delta(before, after, "approx", "routed")
    )
    runs_before, passed_before = _evaluator_cells(before)
    runs_after, passed_after = _evaluator_cells(after)
    metrics["core.evaluations"] = runs_after - runs_before
    metrics["core.passed_vertices_per_evaluation"] = _ratio(
        passed_after - passed_before, runs_after - runs_before
    )
    coordinator = ("shards", "coordinator")
    sharded_queries = _delta(before, after, *coordinator, "queries")
    for metric, counter in (
        ("shard.rounds_per_query", "rounds_total"),
        ("shard.expand_calls_per_query", "expand_calls_total"),
        ("shard.crossings_per_query", "crossings_total"),
        ("shard.fast_path_ratio", "fast_path_hits"),
    ):
        metrics[metric] = _ratio(
            _delta(before, after, *coordinator, counter), sharded_queries
        )
    pooled = after.get("shards", {}).get("workers", [])
    reuses = sum(worker.get("connection_reuses", 0) for worker in pooled)
    opened = sum(worker.get("connections_opened", 0) for worker in pooled)
    metrics["shard.conn_reuse_ratio"] = _ratio(reuses, reuses + opened)

    # -- worker side of the wire ---------------------------------------
    busy = [
        row[2] - row[1] for table in workers for row in table.named("shard.worker_expand")
    ]
    metrics["shard.worker_busy_ms_per_call"] = _ratio(sum(busy), len(busy)) * 1000.0
    samples["shard.worker_busy_ms_per_call"] = len(busy)
    metrics["shard.wire_ms_per_call"] = (
        metrics["shard.expand_ms_per_call"] - metrics["shard.worker_busy_ms_per_call"]
    )

    # -- the rest -------------------------------------------------------
    metrics.update(kernel_rung(inputs))
    samples["core.ins.ms_per_query"] = samples["core.uis_star.ms_per_query"] = min(
        spec.KERNEL_QUERIES, len(inputs.pool)
    )
    metrics["trace.overhead_ratio"] = _ratio(
        _ratio(plain_answers, plain_log.wall_s),
        _ratio(traced_answers, traced_log.wall_s),
    )
    batches = [
        sample.latency_ms for sample in plain_log.samples
        if sample.path == "/batch" and sample.status == 200
    ]
    queries = [
        sample.latency_ms for sample in plain_log.samples
        if sample.path == "/query" and sample.status == 200
    ]
    metrics["client.query_p90_ms"] = percentile(queries, 90)
    samples["client.query_p90_ms"] = len(queries)
    metrics["client.batch_p50_ms"] = percentile(batches, 50)
    metrics["client.batch_p90_ms"] = percentile(batches, 90)
    samples["client.batch_p50_ms"] = samples["client.batch_p90_ms"] = len(batches)
    metrics["client.cpu_utilization"] = _ratio(
        plain_server["client_cpu_s"], plain_log.wall_s
    )
    if metrics["client.cpu_utilization"] > 0.5:
        # Client and front server take turns on one core.
        warnings.append(
            "client.cpu_utilization above 0.5: the load generator takes more "
            "of the core than the server — the benchmark is measuring itself"
        )
    return metrics, samples, warnings
