"""Service telemetry: thread-safe counters behind ``GET /stats``.

:class:`ServiceStats` is the service-wide ledger.  Per-query telemetry
already exists (:class:`~repro.core.result.QueryResult` carries the
paper's two metrics); this module folds those into per-algorithm
:class:`~repro.core.result.ResultAggregate` cells — the same streaming
means the bench harness reports — plus request-level counters the paper
has no use for but a server does: cache hits, trivial answers, batch
sizes, error kinds, uptime, and per-endpoint
:class:`LatencyHistogram`\\ s (fixed log-scale buckets, so ``/stats``
reports p50/p90/p99 instead of just means).

One lock guards every mutation; :meth:`snapshot` returns plain dicts so
the HTTP layer can serialise without touching live state, and
:meth:`restore` re-seeds a fresh ledger from a snapshot document (cache
warming across restarts).  :func:`merge_snapshots` folds many tenants'
snapshots — histograms included, bucket-wise — into the cross-tenant
``totals`` section of the registry's top-level ``/stats``.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections.abc import Callable, Iterable
from math import ceil

from repro.core.result import QueryResult, ResultAggregate

__all__ = [
    "LATENCY_BUCKET_BOUNDS",
    "LatencyHistogram",
    "ServiceStats",
    "merge_snapshots",
]

#: Upper bounds (seconds) of the fixed log-scale latency buckets: 24
#: buckets doubling from 10µs up to ~84s, plus one implicit overflow
#: bucket.  Fixed (not adaptive) so histograms from different tenants,
#: processes and restarts merge bucket-wise without re-binning.
LATENCY_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    1e-5 * 2.0**exponent for exponent in range(24)
)

#: The quantiles every histogram snapshot reports, as (name, fraction).
_REPORTED_QUANTILES = (("p50_ms", 0.50), ("p90_ms", 0.90), ("p99_ms", 0.99))


class LatencyHistogram:
    """Latency distribution over :data:`LATENCY_BUCKET_BOUNDS`.

    Not locked — callers (:class:`ServiceStats`) serialise access.
    Quantiles are estimated as the upper bound of the bucket holding the
    requested rank (the conventional Prometheus-style estimate), so they
    are conservative: the true quantile is never above the reported one
    by more than one bucket width.
    """

    __slots__ = ("counts", "count", "sum_seconds", "max_seconds")

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Fold one observation in."""
        self.counts[bisect_left(LATENCY_BUCKET_BOUNDS, seconds)] += 1
        self.count += 1
        self.sum_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def quantile(self, fraction: float) -> float:
        """Estimated ``fraction``-quantile in seconds (0.0 when empty)."""
        if not self.count:
            return 0.0
        rank = max(1, ceil(fraction * self.count))
        cumulative = 0
        for position, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if position < len(LATENCY_BUCKET_BOUNDS):
                    return min(LATENCY_BUCKET_BOUNDS[position], self.max_seconds)
                return self.max_seconds
        return self.max_seconds  # pragma: no cover - counts always sum to count

    def snapshot(self) -> dict:
        """JSON-ready rendering (counts + derived quantiles)."""
        document = {
            "count": self.count,
            "sum_seconds": self.sum_seconds,
            "max_seconds": self.max_seconds,
            "mean_ms": (
                self.sum_seconds / self.count * 1000.0 if self.count else 0.0
            ),
            "bucket_bounds_seconds": list(LATENCY_BUCKET_BOUNDS),
            "bucket_counts": list(self.counts),
        }
        for name, fraction in _REPORTED_QUANTILES:
            document[name] = self.quantile(fraction) * 1000.0
        return document

    def merge_snapshot(self, document: dict) -> None:
        """Fold a :meth:`snapshot` document in, bucket-wise.

        A document whose bucket layout doesn't match (a snapshot from a
        version with different bounds) is skipped *entirely* — merging
        its totals without its buckets would silently corrupt every
        quantile estimate.  Matching the count alone is not enough: a
        future version could keep 25 buckets but move the boundaries, so
        when the document carries its bounds they must equal ours too.
        """
        counts = document.get("bucket_counts")
        if counts is None or len(counts) != len(self.counts):
            return
        bounds = document.get("bucket_bounds_seconds")
        if bounds is not None and list(bounds) != list(LATENCY_BUCKET_BOUNDS):
            return
        for position, bucket_count in enumerate(counts):
            self.counts[position] += bucket_count
        self.count += document.get("count", 0)
        self.sum_seconds += document.get("sum_seconds", 0.0)
        max_seconds = document.get("max_seconds")
        if max_seconds is None:
            # A document without its max would leave ours at 0.0, and
            # quantile's min(bucket bound, max) clamp would then report
            # every quantile as 0.  Fall back to the upper bound of the
            # document's highest occupied bucket — conservative in the
            # same direction the quantile estimate already is.
            max_seconds = 0.0
            for position, bucket_count in enumerate(counts):
                if bucket_count:
                    max_seconds = LATENCY_BUCKET_BOUNDS[
                        min(position, len(LATENCY_BUCKET_BOUNDS) - 1)
                    ]
        self.max_seconds = max(self.max_seconds, max_seconds)


class ServiceStats:
    """Counters for one service instance."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._started = clock()
        #: Wall-clock twin of the monotonic ``_started``: uptime comes
        #: from the monotonic clock (immune to NTP steps), the absolute
        #: start instant from this.  Surfaced in ``/healthz``,
        #: ``/stats`` and the ``repro_started_at_seconds`` gauge.
        self.started_at = time.time()
        self._queries_total = 0
        self._queries_cached = 0
        self._queries_trivial = 0
        self._queries_executed = 0
        self._true_answers = 0
        self._batches = 0
        self._batch_queries = 0
        self._update_batches = 0
        self._update_edges_added = 0
        self._update_edges_duplicate = 0
        self._update_edges_removed = 0
        self._update_edges_missing = 0
        self._update_vertices_added = 0
        self._update_rows_recut = 0
        self._errors: dict[str, int] = {}
        self._requests_shed = 0
        self._by_algorithm: dict[str, ResultAggregate] = {}
        self._latency: dict[str, LatencyHistogram] = {}

    # ------------------------------------------------------------------

    def record_query(
        self,
        result: QueryResult,
        *,
        cached: bool = False,
        trivial: bool = False,
        batch: bool = False,
        seconds: float | None = None,
    ) -> None:
        """Fold one answered query into the ledger.

        Cached and trivial answers count toward traffic totals but not
        the per-algorithm aggregates — those track *work performed*, so
        their means stay comparable with the paper's tables.
        ``seconds``, the query's service latency, goes into the
        ``query`` histogram under the same lock.
        """
        with self._lock:
            if seconds is not None:
                self._histogram("query").record(seconds)
            self._queries_total += 1
            if result.answer:
                self._true_answers += 1
            if batch:
                self._batch_queries += 1
            if cached:
                self._queries_cached += 1
            elif trivial:
                self._queries_trivial += 1
            else:
                self._queries_executed += 1
                cell = self._by_algorithm.get(result.algorithm)
                if cell is None:
                    cell = self._by_algorithm[result.algorithm] = ResultAggregate()
                cell.add(result)

    def record_batch(self) -> None:
        """Count one batch request (its queries count via ``batch=True``)."""
        with self._lock:
            self._batches += 1

    def record_error(self, kind: str) -> None:
        """Count one failed request by error kind (e.g. ``bad-request``)."""
        with self._lock:
            self._errors[kind] = self._errors.get(kind, 0) + 1

    def record_shed(self) -> None:
        """Count one request rejected by admission control (429)."""
        with self._lock:
            self._requests_shed += 1

    def record_update(
        self,
        *,
        edges_added: int,
        edges_duplicate: int,
        vertices_added: int,
        edges_removed: int = 0,
        edges_missing: int = 0,
        rows_recut: int = 0,
    ) -> None:
        """Count one applied ``POST /edges`` batch (one epoch swap).

        ``edges_removed`` / ``edges_missing`` are the retraction twins
        of added/duplicate: retractions that hit an edge vs. ones that
        named an edge the graph doesn't have; ``rows_recut`` is how many
        adjacency rows the swap's snapshot cut anew instead of sharing
        with the previous epoch's.  Latency is recorded
        separately via ``record_latency("updates", ...)``, as a batch's
        is.
        """
        with self._lock:
            self._update_batches += 1
            self._update_edges_added += edges_added
            self._update_edges_duplicate += edges_duplicate
            self._update_edges_removed += edges_removed
            self._update_edges_missing += edges_missing
            self._update_vertices_added += vertices_added
            self._update_rows_recut += rows_recut

    def record_latency(self, endpoint: str, seconds: float) -> None:
        """Fold one request latency into ``endpoint``'s histogram.

        Endpoints in use: ``batch`` (one whole batch request) and
        ``updates`` (one update batch); ``query`` (one query's service
        latency, whether answered singly or inside a batch) arrives with
        :meth:`record_query`.  New endpoint names create their histogram
        on first use.
        """
        with self._lock:
            self._histogram(endpoint).record(seconds)

    def _histogram(self, endpoint: str) -> LatencyHistogram:
        """``endpoint``'s histogram, made on first use (lock held)."""
        histogram = self._latency.get(endpoint)
        if histogram is None:
            histogram = self._latency[endpoint] = LatencyHistogram()
        return histogram

    # ------------------------------------------------------------------

    @property
    def uptime_seconds(self) -> float:
        """Seconds since this stats object (≈ the service) was created."""
        return self._clock() - self._started

    def snapshot(self) -> dict:
        """JSON-ready snapshot of every counter."""
        with self._lock:
            return {
                "uptime_seconds": self._clock() - self._started,
                "started_at": self.started_at,
                "queries": {
                    "total": self._queries_total,
                    "executed": self._queries_executed,
                    "cached": self._queries_cached,
                    "trivial": self._queries_trivial,
                    "true_answers": self._true_answers,
                },
                "batches": {
                    "requests": self._batches,
                    "queries": self._batch_queries,
                },
                "updates": {
                    "batches": self._update_batches,
                    "edges_added": self._update_edges_added,
                    "edges_duplicate": self._update_edges_duplicate,
                    "edges_removed": self._update_edges_removed,
                    "edges_missing": self._update_edges_missing,
                    "vertices_added": self._update_vertices_added,
                    "rows_recut": self._update_rows_recut,
                },
                "errors": dict(self._errors),
                "resilience": {
                    "requests_shed": self._requests_shed,
                },
                "algorithms": {
                    name: aggregate.as_dict()
                    for name, aggregate in sorted(self._by_algorithm.items())
                },
                "latency": {
                    endpoint: histogram.snapshot()
                    for endpoint, histogram in sorted(self._latency.items())
                },
            }

    def restore(self, document: dict) -> None:
        """Re-seed the counters from a :meth:`snapshot` document.

        The persistence half of cache warming: a restarted service folds
        its previous life's traffic back in so ``/stats`` stays
        continuous across restarts.  Restored values *add to* whatever
        was already recorded (a fresh ledger restores exactly).  Uptime
        is deliberately not restored — it describes this process.
        Unknown keys are ignored, so snapshots from newer versions load.
        """
        queries = document.get("queries", {})
        batches = document.get("batches", {})
        updates = document.get("updates", {})
        with self._lock:
            self._queries_total += queries.get("total", 0)
            self._queries_cached += queries.get("cached", 0)
            self._queries_trivial += queries.get("trivial", 0)
            self._queries_executed += queries.get("executed", 0)
            self._true_answers += queries.get("true_answers", 0)
            self._batches += batches.get("requests", 0)
            self._batch_queries += batches.get("queries", 0)
            self._update_batches += updates.get("batches", 0)
            self._update_edges_added += updates.get("edges_added", 0)
            self._update_edges_duplicate += updates.get("edges_duplicate", 0)
            self._update_edges_removed += updates.get("edges_removed", 0)
            self._update_edges_missing += updates.get("edges_missing", 0)
            self._update_vertices_added += updates.get("vertices_added", 0)
            self._update_rows_recut += updates.get("rows_recut", 0)
            for kind, count in document.get("errors", {}).items():
                self._errors[kind] = self._errors.get(kind, 0) + count
            # .get: snapshots predating fault tolerance carry no section.
            resilience = document.get("resilience", {})
            self._requests_shed += resilience.get("requests_shed", 0)
            for name, cell in document.get("algorithms", {}).items():
                aggregate = self._by_algorithm.get(name)
                if aggregate is None:
                    aggregate = self._by_algorithm[name] = ResultAggregate()
                count = cell.get("count", 0)
                aggregate.algorithm = aggregate.algorithm or cell.get(
                    "algorithm", name
                )
                aggregate.count += count
                aggregate.true_answers += cell.get("true_answers", 0)
                aggregate.total_seconds += cell.get("total_seconds", 0.0)
                # The JSON cell carries the mean only; reconstruct.
                aggregate.total_passed += round(
                    cell.get("mean_passed_vertices", 0.0) * count
                )
            for endpoint, histogram_doc in document.get("latency", {}).items():
                self._histogram(endpoint).merge_snapshot(histogram_doc)


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold :meth:`ServiceStats.snapshot` documents into one total.

    Every document is restored into one fresh ledger —
    :meth:`ServiceStats.restore` is the one place that knows how each
    counter, per-algorithm cell and histogram folds — and that ledger's
    snapshot is the total.  Two fields are not sums: ``uptime_seconds``
    is the maximum and ``started_at`` the minimum over the documents —
    tenants share the process, so the oldest tenant's are the service's.
    """
    documents = list(snapshots)
    total = ServiceStats()
    for document in documents:
        total.restore(document)
    merged = total.snapshot()
    merged["uptime_seconds"] = max(
        (document.get("uptime_seconds", 0.0) for document in documents),
        default=0.0,
    )
    starts = [
        document["started_at"]
        for document in documents
        if document.get("started_at") is not None
    ]
    if starts:
        merged["started_at"] = min(starts)
    else:
        del merged["started_at"]  # the fresh ledger's own is nobody's
    return merged
