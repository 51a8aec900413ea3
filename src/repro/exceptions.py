"""Exception hierarchy for the LSCR reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Subsystems get
their own branch of the hierarchy:

* :class:`GraphError` — knowledge-graph construction and lookups;
* :class:`SparqlError` — the embedded SPARQL engine (syntax/evaluation);
* :class:`ConstraintError` — label / substructure constraint validation;
* :class:`IndexingError` — local-index and comparator index construction;
* :class:`WorkloadError` — evaluation-query generation (Section 6.1.1/6.2);
* :class:`BenchmarkError` — the table/figure benchmark harness;
* :class:`ServiceError` — the concurrent query service (:mod:`repro.service`);
* :class:`WalError` — the durable update log and replication (:mod:`repro.wal`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the library."""


class GraphError(ReproError):
    """A knowledge-graph operation failed."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex name or id was not present in the graph."""

    def __init__(self, vertex: object):
        super().__init__(f"vertex not found: {vertex!r}")
        self.vertex = vertex


class LabelNotFoundError(GraphError, KeyError):
    """An edge label was not present in the graph's label universe."""

    def __init__(self, label: object):
        super().__init__(f"edge label not found: {label!r}")
        self.label = label


class FrozenGraphError(GraphError):
    """A mutation was attempted on a frozen graph snapshot.

    :class:`~repro.graph.csr.FrozenGraph` objects are immutable CSR
    snapshots; mutate a ``copy()`` and ``freeze()`` it, or ``derive()``
    the next snapshot from an update batch.
    """


class SparqlError(ReproError):
    """Base class for SPARQL engine failures."""


class SparqlSyntaxError(SparqlError):
    """The query text could not be tokenised or parsed.

    Carries the offending position so callers can point at the error.
    """

    def __init__(self, message: str, position: int | None = None):
        suffix = f" (at offset {position})" if position is not None else ""
        super().__init__(message + suffix)
        self.position = position


class SparqlEvaluationError(SparqlError):
    """The query parsed but could not be evaluated on the given graph."""


class ConstraintError(ReproError):
    """A label or substructure constraint is malformed for the graph."""


class IndexingError(ReproError):
    """Index construction failed or was mis-configured."""


class IndexingBudgetExceeded(IndexingError):
    """An index build exceeded its wall-clock budget.

    Mirrors the paper's Table 2, where the traditional landmark index of
    [19] is cut off after eight hours ("-" entries).  The partially built
    index is intentionally discarded; callers receive the elapsed time.
    """

    def __init__(self, elapsed_seconds: float, budget_seconds: float):
        super().__init__(
            f"index construction exceeded its budget: "
            f"{elapsed_seconds:.3f}s elapsed > {budget_seconds:.3f}s allowed"
        )
        self.elapsed_seconds = elapsed_seconds
        self.budget_seconds = budget_seconds


class WorkloadError(ReproError):
    """Evaluation-query generation could not satisfy its contract."""


class BenchmarkError(ReproError):
    """A benchmark experiment was mis-configured or failed to run."""


class ServiceError(ReproError):
    """Base class for failures of the query service (:mod:`repro.service`)."""


class ServiceConfigError(ServiceError):
    """The service was mis-configured at startup (bad paths, bad options)."""


class BadRequestError(ServiceError):
    """A client request was malformed or semantically invalid.

    Carries the HTTP status the JSON front end should answer with, so
    the handler can turn any :class:`BadRequestError` into a structured
    error payload without per-site status tables.
    """

    #: The ``error.type`` of the JSON error body; subclasses name theirs.
    kind = "bad-request"

    def __init__(
        self, message: str, status: int = 400, detail: dict | None = None
    ):
        super().__init__(message)
        self.status = status
        #: Optional machine-readable context included in the error body
        #: (e.g. which seam blocks an unsupported operation).
        self.detail = detail


class UnknownTenantError(BadRequestError):
    """A request named a tenant the registry does not host (HTTP 404)."""

    kind = "unknown-tenant"

    def __init__(self, tenant: object):
        super().__init__(f"unknown tenant: {tenant!r}", status=404)
        self.tenant = tenant


class TenantExistsError(BadRequestError):
    """A registration reused a tenant id already in the registry (HTTP 409)."""

    def __init__(self, tenant: object):
        super().__init__(f"tenant already registered: {tenant!r}", status=409)
        self.tenant = tenant


class TenantLoggedError(BadRequestError):
    """A file registration reused the id of a removed tenant that had a
    write-ahead log attached (HTTP 409).

    Its base graph alone would serve epoch 0 without the logged updates,
    and with no log attached: only recovery (``serve --wal``) brings the
    tenant back whole.
    """

    kind = "tenant-logged"

    def __init__(self, tenant: object):
        super().__init__(
            f"tenant {tenant!r} was removed with a write-ahead log attached; "
            "its base graph alone would lose the logged updates — restart "
            "serve --wal to bring it back with its log",
            status=409,
            detail={"tenant": tenant},
        )
        self.tenant = tenant


class UpdatesDisabledError(BadRequestError):
    """Live updates were not enabled for this server (HTTP 403).

    ``POST /edges`` is an admin operation; it must be opted into with
    ``serve --allow-updates`` (or ``create_server(allow_updates=True)``).
    """

    kind = "updates-disabled"

    def __init__(self) -> None:
        super().__init__(
            "live updates are disabled on this server; restart with "
            "--allow-updates to accept POST /edges",
            status=403,
        )


class ReadOnlyServiceError(BadRequestError):
    """The service is a read-only follower; writes must go to the leader.

    Raised by :meth:`~repro.service.app.QueryService.handle_updates` when
    the service was started with ``serve --follow`` (HTTP 403).  The
    ``detail`` names the role so clients can distinguish "updates are an
    opt-in admin operation" (:class:`UpdatesDisabledError`) from "this
    replica republishes a leader's log and never accepts writes".
    """

    kind = "read-only"

    def __init__(self) -> None:
        super().__init__(
            "this server is a read-only follower; apply updates on the "
            "leader whose write-ahead log it tails",
            status=403,
            detail={"role": "follower"},
        )


class DeadlineExceededError(BadRequestError):
    """A request ran past its end-to-end deadline (HTTP 504).

    Raised wherever the budget is checked — the service execute seam
    and the evaluator outer loops.  ``detail`` carries partial
    accounting: where the budget ran out, the elapsed
    vs. allotted milliseconds, and whatever progress telemetry the
    raising layer had (rounds completed, vertices passed), so a
    timed-out client still learns what its budget bought.
    """

    kind = "deadline-exceeded"

    def __init__(
        self,
        where: str,
        *,
        elapsed_ms: float,
        budget_ms: float,
        partial: dict | None = None,
    ):
        detail: dict = {
            "where": where,
            "elapsed_ms": round(elapsed_ms, 3),
            "budget_ms": round(budget_ms, 3),
        }
        if partial:
            detail["partial"] = partial
        super().__init__(
            f"deadline exceeded in {where}: {elapsed_ms:.1f}ms elapsed "
            f"of a {budget_ms:.1f}ms budget",
            status=504,
            detail=detail,
        )
        self.where = where
        self.elapsed_ms = elapsed_ms
        self.budget_ms = budget_ms


class OverloadedError(BadRequestError):
    """Admission control shed this request (HTTP 429 + ``Retry-After``).

    Raised when a tenant's concurrent-request cap is reached and its
    wait queue is full (or the bounded wait timed out).  ``retry_after``
    is the client back-off hint the HTTP layer also sends as a
    ``Retry-After`` header.
    """

    kind = "overloaded"

    def __init__(
        self, message: str, *, retry_after: float = 1.0,
        detail: dict | None = None,
    ):
        merged = {"retry_after_seconds": retry_after}
        if detail:
            merged.update(detail)
        super().__init__(message, status=429, detail=merged)
        self.retry_after = retry_after
        #: Extra response headers the HTTP layer sends with the error.
        self.headers = {"Retry-After": str(max(1, round(retry_after)))}


class WalError(ServiceError):
    """Base class for write-ahead-log failures (:mod:`repro.wal`)."""


class WalCorruptionError(WalError):
    """A WAL segment or snapshot could not be decoded.

    A *trailing* partial line in the newest segment is not corruption —
    that is the expected shape of a crash mid-append and replay tolerates
    it — but garbage in the middle of the log, an unreadable snapshot,
    or a malformed record is.
    """


class WalReplayError(WalError):
    """Replay could not reconverge to the logged epoch history.

    Raised on an epoch gap between consecutive records (a segment was
    deleted out from under the log) or on a content-fingerprint mismatch
    after applying a record (the base graph the replay started from is
    not the graph the log was written against) — and when a graph's
    running fingerprint disagrees with a rescan of its own edges, which
    is audited wherever a snapshot of it is written or adopted.
    """
