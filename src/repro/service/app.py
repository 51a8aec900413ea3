"""The query service: planner + caches + session pool + batch executor.

:class:`QueryService` is the object the HTTP front end (and any
embedding application) talks to.  It owns everything shared between
requests:

* one :class:`~repro.service.epoch.GraphEpoch` — an immutable bundle
  of a frozen graph and everything derived from it, behind a single
  atomic reference.  The graph is *never mutated in place*, which is
  what makes lock-free concurrent answering sound; live updates
  (:meth:`QueryService.apply_updates`, ``POST /edges``) instead derive
  the next snapshot from the serving one (sharing every adjacency row
  the batch does not write) and publish a whole new epoch, while
  in-flight queries finish on the old one.  This module decides *when*
  an epoch is replaced and stores it
  (:meth:`QueryService._publish_epoch`); *how* the next one follows
  from the serving one — what is shared, carried, rebuilt or dropped —
  is :meth:`GraphEpoch.derive <repro.service.epoch.GraphEpoch.derive>`'s
  alone, so serving only ever sees a **frozen** CSR snapshot
  (:class:`~repro.graph.csr.FrozenGraph`) and structures derived from
  exactly it.  The epoch owns what is true of one graph version only:
  the :class:`QueryPlanner`, a :class:`ResultCache` keyed on canonical
  queries, a :class:`CandidateCache` memoising ``V(S, G)`` per canonical
  constraint, and a lazily populated pool of per-algorithm
  :class:`LSCRSession`\\ s (per-query search state lives inside each
  ``answer`` call, so one session per algorithm serves every thread.
  The default ``meet`` session shares nothing mutable between queries;
  a forced ``uis*`` session shares its shuffle rng, whose
  interleaving affects traversal-order telemetry, never answers);
* a process-wide :class:`ConstraintCache` (parsing is graph-independent);
* a :class:`BatchExecutor` for the ``POST /batch`` members that need
  an evaluator — run in the request thread — and a :class:`ServiceStats`
  ledger for ``GET /stats``.

Two API levels are exposed.  :meth:`query` / :meth:`query_batch` take
Python values and return ``(QueryResult, meta)`` pairs;
:meth:`handle_query` / :meth:`handle_batch` return the reply body
(UTF-8 JSON bytes, assembled by :func:`query_body` / :func:`batch_body`
from each result's members, encoded once per result object);
:meth:`health` / :meth:`stats_snapshot` speak JSON-ready dicts.  All of
them raise :class:`~repro.exceptions.BadRequestError` for anything a
client got wrong, which the HTTP layer maps to structured 4xx responses.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Hashable, Iterable
from dataclasses import asdict, fields
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from threading import Lock
from time import perf_counter
from typing import Any

from repro._version import __version__
from repro.approx import BOUNDS_ALGORITHM, ApproxRouter
from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.context import RequestContext, activate
from repro.core.result import QueryResult
from repro.exceptions import (
    BadRequestError,
    ConstraintError,
    OverloadedError,
    ReadOnlyServiceError,
    ServiceConfigError,
    SparqlError,
    WalReplayError,
)
from repro.graph.csr import freeze_graph
from repro.graph.io import load_tsv
from repro.graph.labeled_graph import KnowledgeGraph
from repro.obs.flight import FlightRecorder
from repro.obs.trace import (
    Trace,
    TraceSampler,
    annotate,
    current_span,
    current_trace,
    span,
)
from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import check_deadline, current_deadline
from repro.service.cache import CandidateCache, ConstraintCache, ResultCache
from repro.service.epoch import (
    GraphEpoch,
    normalize_edge_updates,
    validate_edge_updates,
)
from repro.service.executor import BatchExecutor
from repro.service.options import ServiceOptions, resolve_options
from repro.service.planner import (
    DEFAULT_ALGORITHM,
    KeyedQuery,
    QueryPlan,
    QueryPlanner,
)
from repro.service.stats import ServiceStats
from repro.utils.persist import atomic_write_json

__all__ = ["QueryService", "batch_body", "query_body", "validate_spec"]

_SPEC_FIELDS = ("source", "target", "labels", "constraint")

#: On-disk format of :meth:`QueryService.save_snapshot` files.  Version
#: 2 added the epoch id and content fingerprint to the graph identity;
#: version-1 files carry neither and are refused rather than trusted.
_SNAPSHOT_VERSION = 2

#: The :class:`QueryResult` fields a snapshot entry is read back into; a
#: member an older writer kept (``degraded``, always null) is dropped.
_RESULT_FIELDS = frozenset(field.name for field in fields(QueryResult))


def validate_spec(payload: object, *, where: str) -> dict:
    """Shape-check one JSON query spec into :meth:`QueryService.query`
    kwargs (every ``/query`` body and ``/batch`` member).

    An array of labels is checked and canonicalised in one C-level walk:
    it leaves here as the ``frozenset`` that
    :class:`~repro.constraints.label_constraint.LabelConstraint` adopts
    as it is, so the planner's key never walks the names again.  A
    comma-separated string is left for ``LabelConstraint`` to split.
    """
    if not isinstance(payload, dict):
        raise BadRequestError(f"{where}: expected a JSON object")
    try:
        source = payload["source"]
        target = payload["target"]
        labels = payload["labels"]
        constraint = payload["constraint"]
    except KeyError:
        missing = [field for field in _SPEC_FIELDS if field not in payload]
        raise BadRequestError(
            f"{where}: missing field(s) {', '.join(missing)}"
        ) from None
    if not isinstance(source, str) or not isinstance(target, str):
        raise BadRequestError(f"{where}: 'source' and 'target' must be strings")
    if isinstance(labels, list) and labels:
        try:
            # Raises TypeError unless every name is a str.
            "".join(labels)
        except TypeError:
            labels = None
        else:
            labels = frozenset(labels)
    elif not isinstance(labels, str):
        labels = None
    if labels is None:
        raise BadRequestError(
            f"{where}: 'labels' must be a non-empty array of strings "
            "(or a comma-separated string)"
        )
    if not isinstance(constraint, str) or not constraint or constraint.isspace():
        raise BadRequestError(
            f"{where}: 'constraint' must be a non-empty SPARQL string"
        )
    algorithm = payload.get("algorithm")
    if algorithm is not None and not isinstance(algorithm, str):
        raise BadRequestError(f"{where}: 'algorithm' must be a string")
    use_cache = payload.get("use_cache", True)
    if not isinstance(use_cache, bool):
        raise BadRequestError(f"{where}: 'use_cache' must be a boolean")
    return {
        "source": source,
        "target": target,
        "labels": labels,
        "constraint": constraint,
        "algorithm": algorithm,
        "use_cache": use_cache,
    }


def _reads_back(name: Hashable) -> bool:
    """Whether a vertex name reads back from JSON as itself (a tuple
    comes back a list, a NaN unequal to itself)."""
    try:
        back = json.loads(json.dumps(name))
    except (TypeError, ValueError):
        return False
    return type(back) is type(name) and back == name


def _float(value: float) -> str:
    """A float as ``json.dumps`` writes it: its ``repr``, or ``NaN`` /
    ``Infinity`` / ``-Infinity`` from the encoder."""
    return float.__repr__(value) if isfinite(value) else json.dumps(value)


#: How ``json.dumps`` writes each scalar type a reply member holds —
#: a ``str`` through the encoder's own ``encode_basestring_ascii``.
_SCALARS: dict[type, Callable[[Any], str]] = {
    bool: lambda value: "true" if value else "false",
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
}


def _json(value: Any) -> str:
    """``json.dumps(value)``, byte for byte; a scalar of exactly one of
    the :data:`_SCALARS` types takes no encoder call."""
    encode = _SCALARS.get(type(value))
    return json.dumps(value) if encode is None else encode(value)


def _result_members(result: QueryResult) -> str:
    """The reply members that come from ``result`` — ``answer``,
    ``algorithm``, ``seconds``, ``passed_vertices`` — as JSON text,
    encoded once per result object.

    The text is kept in the frozen result's instance dict, outside its
    dataclass fields, so equality, ``asdict`` and the snapshot file
    never see it.  A result-cache hit returns the stored object, so its
    reply re-encodes none of these.
    """
    members = result.__dict__.get("_reply_members")
    if members is None:
        members = result.__dict__["_reply_members"] = (
            f'"answer": {_json(result.answer)}, '
            f'"algorithm": {_json(result.algorithm)}, '
            f'"seconds": {_json(result.seconds)}, '
            f'"passed_vertices": {_json(result.passed_vertices)}'
        )
    return members


def _answer_members(result: QueryResult, meta: dict) -> str:
    """One answer's reply members as JSON text: the result's stored
    ones, then this reply's own ``meta``."""
    members = (
        f'{_result_members(result)}, '
        f'"cached": {_json(meta["cached"])}, '
        f'"trivial": {_json(meta["trivial"])}, '
        f'"reason": {_json(meta["reason"])}, '
        f'"epoch": {_json(meta["epoch"])}, '
        f'"source": {_json(meta.get("source", "evaluated"))}'
    )
    if "tier" in meta:
        # Which router path settled the answer: "short-circuit"
        # (sound bounds) or "exact" (fell through to the evaluators);
        # both answers are exact.
        members += f', "tier": {_json(meta["tier"])}'
    return members


def _reply_body(members: str, trace: Trace | None) -> bytes:
    """A reply object from its members, a requested ``trace`` last."""
    if trace is not None:
        members += f', "trace": {json.dumps(trace.to_dict())}'
    return f"{{{members}}}".encode()


def query_body(
    result: QueryResult, meta: dict, trace: Trace | None = None
) -> bytes:
    """The ``/query`` reply body for one answer: what ``json.dumps``
    writes for its payload object, assembled from stored pieces."""
    return _reply_body(_answer_members(result, meta), trace)


def batch_body(
    answered: list[tuple[QueryResult, dict]], trace: Trace | None = None
) -> bytes:
    """The ``/batch`` reply body for its answers, in order."""
    results = ", ".join(
        f"{{{_answer_members(result, meta)}}}" for result, meta in answered
    )
    return _reply_body(
        f'"count": {len(answered)}, "results": [{results}]', trace
    )


class QueryService:
    """A shared, thread-safe LSCR answering engine for one graph.

    Configured by the rows of :data:`repro.service.options.OPTIONS`,
    given as keywords (``QueryService(graph, seed=3, cache_size=0)``)
    or as one ``options=`` value, validated the same way.  The service
    serves index-free: no request runs INS.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        # Accepted and ignored: the frozen ladder benchmark's fixture
        # (benchmarks/ladder/test_ladder.py) still passes a local index
        # as the second positional argument.
        _index: object = None,
        *,
        options: ServiceOptions | None = None,
        **keywords: Any,
    ) -> None:
        #: Every serving option, validated once
        #: (:mod:`repro.service.options`); the sub-objects below receive
        #: already-valid values.
        self.options = options = resolve_options(options, keywords)
        #: The short-circuit router (``repro.approx``): sound definite-No
        #: answers ahead of the exact evaluators for every plan that
        #: names no algorithm.
        self.approx = ApproxRouter()
        #: Admission control for the query endpoints (``--max-concurrent``
        #: / ``--max-queue``); None — the default — admits everything and
        #: costs nothing on the request path.
        self.admission: AdmissionController | None = None
        if options.max_concurrent is not None:
            self.admission = AdmissionController(
                options.max_concurrent, max_queue=options.max_queue
            )
        #: Server-side trace sampling: the fraction of un-asked-for
        #: requests that get a (flight-recorder-only) trace.
        self._sampler = TraceSampler(options.trace_sample, seed=options.seed)
        #: The slow-query flight recorder.  Owned by the *service*, not
        #: the epoch, so recorded entries survive update swaps — that
        #: durability is what makes a post-update regression diagnosable
        #: from its recorded pre/post traces.
        self.flight = FlightRecorder(
            threshold_ms=options.slow_ms, max_entries=options.slow_log_size
        )
        self.constraints = ConstraintCache()
        #: Runs the batch members that need an evaluator, in the request
        #: thread: the evaluators never wait (bar a ``V(S, G)`` leader,
        #: and under the GIL another thread could not use that wait).
        self.executor = BatchExecutor()
        self.stats = ServiceStats()
        # Everything graph-bound lives in one GraphEpoch behind a single
        # atomic attribute reference — readers dereference it once per
        # request and never lock.
        self._publish_epoch(
            GraphEpoch.first(graph, self.constraints, options)
        )
        #: Serialises writers only (apply_updates); readers never take it.
        self._update_lock = Lock()
        #: Per-tenant write-ahead log (:class:`repro.wal.TenantWal`) when
        #: the service runs durable (``serve --wal``); attached *after*
        #: recovery so replay never re-appends its own records.
        self._wal: Any = None
        #: When True (``serve --follow``), ``POST /edges`` answers a
        #: structured 403; :meth:`apply_updates` itself stays callable —
        #: it is how the follower's log tailer republishes epochs.
        self.read_only = False
        #: The :class:`repro.wal.WalFollower` driving this replica, when
        #: one is; surfaced through :meth:`health` / :meth:`stats_snapshot`.
        self.replication: Any = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_files(
        cls,
        graph_path: str | Path,
        *,
        options: ServiceOptions | None = None,
        **keywords: Any,
    ) -> "QueryService":
        """Start a service from a TSV graph.

        The graph is booted straight into its CSR snapshot
        (``load_tsv(..., frozen=True)``): each row is cut and its dict
        form dropped as the file is finished, so the process never holds
        the graph twice, and its resident size — which never falls below
        the boot peak — stays near the served graph's.
        """
        options = resolve_options(options, keywords)
        graph_path = Path(graph_path)
        if not graph_path.is_file():
            raise ServiceConfigError(f"graph file not found: {graph_path}")
        graph = load_tsv(graph_path, name=graph_path.stem, frozen=True)
        return cls(graph, options=options)

    def __repr__(self) -> str:
        return (
            f"QueryService({self.graph.name!r}, "
            f"default={self.default_algorithm!r}, "
            f"epoch={self._epoch.epoch_id})"
        )

    # ------------------------------------------------------------------
    # epoch accessors — the graph-bound state always comes from the
    # *current* epoch, so existing call sites keep working unchanged
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> GraphEpoch:
        """The currently published serving epoch."""
        return self._epoch

    @property
    def graph(self) -> KnowledgeGraph:
        """The current epoch's (frozen) graph."""
        return self._epoch.graph

    @property
    def planner(self) -> QueryPlanner:
        """The current epoch's planner."""
        return self._epoch.planner

    @property
    def candidates(self) -> CandidateCache:
        """The current epoch's ``V(S, G)`` candidate cache."""
        return self._epoch.candidates

    @property
    def results(self) -> ResultCache:
        """The current epoch's cached answers — a view for stats and
        tests; a request uses the cache of the epoch it read at entry."""
        return self._epoch.results

    @property
    def default_algorithm(self) -> str:
        """The algorithm requests run on when they don't name one."""
        return DEFAULT_ALGORITHM

    def close(self) -> None:
        """Release the attached write-ahead log's open segment.

        Called when a tenant is removed from a
        :class:`~repro.service.registry.TenantRegistry`.  Idempotent,
        and safe with stragglers: a request still holding this service
        keeps answering, and one more update batch reopens the segment.
        The log is closed under the update lock every append holds, so
        no append is cut in half.
        """
        if self._wal is not None:
            with self._update_lock:
                self._wal.close()

    # ------------------------------------------------------------------
    # Python-level API
    # ------------------------------------------------------------------

    def query(
        self,
        source: Hashable,
        target: Hashable,
        labels: Iterable[str] | LabelConstraint,
        constraint: str | SubstructureConstraint,
        algorithm: str | None = None,
        use_cache: bool = True,
        _batch: bool = False,
    ) -> tuple[QueryResult, dict]:
        """Answer one query; returns ``(result, meta)``.

        ``meta`` reports how the answer was produced: ``cached``,
        ``trivial``, the planner's ``reason``, the ``epoch`` the answer
        is valid for and — when the router saw the query — the
        ``tier`` that settled it.  With ``use_cache`` off the result
        cache is neither consulted nor populated.

        The epoch is read exactly once: planning, cache lookup and
        execution all bind to it, so a concurrent :meth:`apply_updates`
        publishing a new epoch mid-call never mixes graph versions —
        this query simply completes on the epoch it started on.
        """
        epoch = self._epoch
        traced = current_trace() is not None
        plan = self._plan(
            epoch, traced, source, target, labels, constraint, algorithm, use_cache
        )
        return self._finish(plan, epoch, use_cache, _batch, None, traced)

    def query_batch(
        self,
        specs: Iterable[dict],
        use_cache: bool = True,
    ) -> list[tuple[QueryResult, dict]]:
        """Answer a homogeneous batch, preserving order.

        Keying runs serially first — that is where constraint parsing
        happens, so each distinct text is parsed once — and only a
        member whose key the result cache does not hold is planned
        (:meth:`_plan`).  Then every member the result cache or the
        planner can answer is settled right here, in the request
        thread.  The members left over — the ones that need an
        evaluator — go to :attr:`executor`, and their result-cache
        lookup is not repeated.  That is the request thread too: the
        evaluators do not wait, and under the GIL a pool would only add
        hand-offs.  A member that repeats one of those is looked up
        after the executor has stored its answer, so a batch evaluates
        what it may cache once.  A
        per-spec ``use_cache`` key overrides the batch-level flag for
        that query only.
        """
        started = perf_counter()
        specs = list(specs)
        self._check_batch_size(len(specs))
        # One epoch for the whole batch: every member is answered
        # against the same graph version even if an update lands while
        # the batch is in flight.
        epoch = self._epoch
        traced = current_trace() is not None
        plans = []
        with span("plan-batch", queries=len(specs)):
            for spec in specs:
                item_cache = use_cache and spec.get("use_cache", True)
                plan = self._plan(
                    epoch,
                    traced,
                    spec["source"],
                    spec["target"],
                    spec["labels"],
                    spec["constraint"],
                    spec.get("algorithm"),
                    item_cache,
                )
                plans.append((plan, item_cache))
        self.stats.record_batch()
        answered: list = [None] * len(plans)
        waiting = []
        #: Keys the executor is about to store an answer for, and the
        #: later members of this batch that ask the same thing: their
        #: one lookup waits until that answer is in.
        storing: set = set()
        repeats = []
        for position, (plan, item_cache) in enumerate(plans):
            if storing and item_cache and plan.key in storing:
                repeats.append((position, plan))
                continue
            member = None
            if traced:
                member = span("query", index=position)
                with member:
                    answered[position] = self._finish(
                        plan, epoch, item_cache, True, "settle", True
                    )
            else:
                answered[position] = self._finish(
                    plan, epoch, item_cache, True, "settle"
                )
            if answered[position] is None:
                if member is None:
                    # Untraced: the no-op handle, for the runner's ``with``.
                    member = span("query", index=position)
                waiting.append((position, member, plan, item_cache))
                if item_cache:
                    storing.add(plan.key)

        def runner(item):
            _, member, plan, item_cache = item
            # The member's own "query" span, entered a second time: it
            # takes the evaluation as a child and closes when it ends.
            with member:
                return self._finish(
                    plan,
                    epoch,
                    use_cache=item_cache,
                    batch=True,
                    half="evaluate",
                    traced=traced,
                )

        if waiting:
            evaluated = self.executor.map(runner, waiting)
            for (position, *_), pair in zip(waiting, evaluated):
                answered[position] = pair
        for position, plan in repeats:
            with span("query", index=position):
                answered[position] = self._finish(
                    plan, epoch, use_cache=True, batch=True, traced=traced
                )
        self.stats.record_latency("batch", perf_counter() - started)
        return answered

    def _check_batch_size(self, size: int) -> None:
        if size > self.options.max_batch:
            raise BadRequestError(
                f"batch of {size} queries exceeds the limit of "
                f"{self.options.max_batch}"
            )

    # ------------------------------------------------------------------
    # epoch swaps: derive (GraphEpoch.derive) → publish
    # ------------------------------------------------------------------

    def _publish_epoch(self, epoch: GraphEpoch) -> None:
        """Store ``epoch`` as the serving epoch; what the old one does not
        share with it — cached answers included — goes when it does."""
        with span("publish", epoch=epoch.epoch_id):
            # The publish: a single attribute store is atomic under the
            # GIL — this is the only line readers ever observe changing.
            self._epoch = epoch

    def apply_updates(self, edges: Iterable[tuple[Hashable, ...]]) -> dict:
        """Apply an edge update batch and publish a new serving epoch.

        Each item is ``(source, label, target)`` — an implicit addition —
        or ``(source, label, target, op)`` with ``op`` in ``{"add",
        "remove"}``.  Items apply *in order*, so an add-then-remove of
        the same edge nets to absent and the reverse to present.

        Copy-on-write end to end, at the cost of the batch in the rows:
        the serving snapshot derives the next one
        (:meth:`FrozenGraph.derive <repro.graph.csr.FrozenGraph.derive>`
        — new vertices and labels intern as needed for additions;
        duplicate adds and missing removes are counted, not errors —
        removal of an unknown name never interns anything, so a miss
        leaves the graph's content fingerprint untouched; only the rows
        the batch wrote are re-cut), and the next epoch is derived from
        the serving one, that snapshot and the batch's net change
        (:meth:`GraphEpoch.derive <repro.service.epoch.GraphEpoch.derive>`
        — ``rows_recut`` and ``candidates_carried`` in the summary say
        what that cost; cached entries stay behind with the old epoch).
        No mutable graph is copied, written or kept.  :meth:`_publish_epoch` replaces ``self._epoch``
        in one atomic store.  Readers never block: queries in flight
        finish on the old epoch, later ones see the new one.  Writers
        serialise on one update lock.

        When a write-ahead log is attached (:meth:`attach_wal`) the
        batch is appended — with the new epoch id and content
        fingerprint — *after* the publish and before the ack returns, so
        an acknowledged batch is always durable; a crash between publish
        and append can only lose a batch whose ack the client never saw.

        Returns a JSON-ready summary (new epoch id, add/duplicate/
        remove/missing counts, rows re-cut, candidates carried).  The
        whole batch is applied or — on a validation error raised before the
        derivation — none of it;
        failures after it cannot corrupt serving state because the
        serving snapshot is never written.
        """
        updates = normalize_edge_updates(edges)
        if not updates:
            raise BadRequestError("update batch must contain at least one edge")
        with self._update_lock:
            started = perf_counter()
            old = self._epoch
            # No-op batches skip the derive/publish entirely — and
            # the epoch bump, which keeps "same epoch" equivalent to
            # "same content" for the snapshot identity.  A batch is a
            # no-op when every add is a duplicate and every remove a
            # miss; those two sets cannot interact in sequence (an add
            # targets a present edge, a remove an absent one), so the
            # initial-state check is sound for the whole batch.
            if all(
                old.graph.has_edge_named(source, label, target) == (op == "add")
                for source, label, target, op in updates
            ):
                duplicates = sum(1 for *_, op in updates if op == "add")
                return self._update_summary(
                    old,
                    started,
                    edges_duplicate=duplicates,
                    edges_missing=len(updates) - duplicates,
                )
            graph, counts, change = old.graph.derive(updates)
            new_epoch = old.derive(graph, old.epoch_id + 1, change)
            self._publish_epoch(new_epoch)
            if self._wal is not None:
                # Append-after-publish: the record carries the epoch the
                # batch *produced*, and fsyncs before the ack leaves.
                with span("wal-append") as wal_span:
                    self._wal.append(
                        updates,
                        epoch=new_epoch.epoch_id,
                        fingerprint=new_epoch.fingerprint,
                        graph=new_epoch.graph,
                    )
                    wal_span.set(epoch=new_epoch.epoch_id)
            return self._update_summary(
                new_epoch,
                started,
                edges_added=counts["added"],
                edges_duplicate=counts["duplicates"],
                edges_removed=counts["removed"],
                edges_missing=counts["missing"],
                vertices_added=counts["vertices_added"],
                rows_recut=graph.rows_recut,
                **new_epoch.derivation,
            )

    def _update_summary(
        self,
        epoch: GraphEpoch,
        started: float,
        *,
        edges_added: int = 0,
        edges_duplicate: int = 0,
        edges_removed: int = 0,
        edges_missing: int = 0,
        vertices_added: int = 0,
        rows_recut: int = 0,
        candidates_carried: int = 0,
        scck_rechecks: int = 0,
    ) -> dict:
        """Count one acknowledged batch and build its JSON summary."""
        counts = {
            "edges_added": edges_added,
            "edges_duplicate": edges_duplicate,
            "edges_removed": edges_removed,
            "edges_missing": edges_missing,
            "vertices_added": vertices_added,
            "rows_recut": rows_recut,
        }
        self.stats.record_update(**counts)
        elapsed = perf_counter() - started
        self.stats.record_latency("updates", elapsed)
        return {
            "epoch": epoch.epoch_id,
            **counts,
            "candidates_carried": candidates_carried,
            "scck_rechecks": scck_rechecks,
            "seconds": elapsed,
        }

    # ------------------------------------------------------------------
    # durability + replication hooks (repro.wal)
    # ------------------------------------------------------------------

    @property
    def wal(self) -> Any:
        """The attached write-ahead log (:meth:`attach_wal`), or None."""
        return self._wal

    def attach_wal(self, wal: Any) -> None:
        """Attach a per-tenant write-ahead log to this service.

        Every subsequent :meth:`apply_updates` that publishes a new
        epoch appends its batch to ``wal`` before acknowledging.  Called
        by recovery (:func:`repro.wal.recover_service`) *after* replay,
        so replayed records are never re-appended.
        """
        self._wal = wal

    def reset_epoch(
        self, epoch_id: int, *, expected_fingerprint: str | None = None
    ) -> None:
        """Renumber the current epoch to ``epoch_id`` without mutation.

        WAL recovery uses this to restore the epoch *counter* alongside
        the content: a service rebuilt from a compaction snapshot starts
        at epoch 0 even though its graph is the log's epoch-N state.
        Same snapshot, same answers: everything derived from the graph,
        warmed caches included, is shared with the old epoch; only the
        id changes.
        With ``expected_fingerprint`` the current graph's content digest
        must match, or :class:`~repro.exceptions.WalReplayError` is
        raised — catching a base graph that is not the one the log was
        written against *before* replay applies anything on top of it.
        """
        with self._update_lock:
            old = self._epoch
            self._check_fingerprint(
                epoch_id, "current", old.fingerprint, expected_fingerprint
            )
            if epoch_id == old.epoch_id:
                return
            self._publish_epoch(old.derive(old.graph, epoch_id))

    def replace_graph(
        self,
        graph: KnowledgeGraph,
        epoch_id: int,
        *,
        expected_fingerprint: str | None = None,
    ) -> None:
        """Swap in a whole new graph as epoch ``epoch_id``.

        The follower's resync path: when the leader compacted past the
        records a lagging replica still needed, the replica reloads the
        compaction snapshot wholesale instead of replaying a gap it no
        longer can.  Nothing is known about how ``graph`` differs from
        the serving one, so nothing derived from that one is kept: both
        caches start empty, whatever ``epoch_id`` is — the serving one
        included.  Published exactly like an update swap;
        ``expected_fingerprint`` mismatches raise
        :class:`~repro.exceptions.WalReplayError` before that.
        """
        with self._update_lock:
            self._check_fingerprint(
                epoch_id,
                "replacement",
                graph.content_fingerprint(),
                expected_fingerprint,
            )
            self._publish_epoch(self._epoch.derive(freeze_graph(graph), epoch_id))

    @staticmethod
    def _check_fingerprint(
        epoch_id: int, which: str, fingerprint: str, expected: str | None
    ) -> None:
        if expected is not None and fingerprint != expected:
            raise WalReplayError(
                f"cannot adopt epoch {epoch_id}: {which} graph "
                f"fingerprint {fingerprint} != expected {expected}"
            )

    def audit_fingerprint(self) -> str:
        """Rescan the serving graph's edges and require the digest to
        equal the running one and the one the epoch was stamped with.

        Epoch fingerprints come from an accumulator the graph keeps up
        to date edge by edge; this is the O(|E|) check that the
        bookkeeping still describes the content.  Called where that
        order is already being paid — the end of WAL replay, a follower
        catch-up, :meth:`save_snapshot` — and raises
        :class:`~repro.exceptions.WalReplayError` on disagreement.
        """
        epoch = self._epoch
        rescanned = epoch.graph.scan_fingerprint()
        running = epoch.graph.content_fingerprint()
        if not rescanned == running == epoch.fingerprint:
            raise WalReplayError(
                f"epoch {epoch.epoch_id}: content fingerprint {rescanned} "
                f"rescanned from the edges != running {running} / stamped "
                f"{epoch.fingerprint} — the graph's accumulator no longer "
                "describes its content"
            )
        return rescanned

    # ------------------------------------------------------------------

    def _plan(
        self,
        epoch: GraphEpoch,
        traced: bool,
        source: Hashable,
        target: Hashable,
        labels: Iterable[str] | str | LabelConstraint,
        constraint: str | SubstructureConstraint,
        algorithm: str | None,
        use_cache: bool,
    ) -> QueryPlan | KeyedQuery:
        """One request's plan — or, when ``use_cache`` and ``epoch``'s
        result cache holds its key, the :class:`KeyedQuery` alone.

        Only a non-trivial plan's answer is ever stored, so a held key
        needs none of the plan's graph probes.  The membership probe
        (:meth:`ResultCache.__contains__`) does not count:
        :meth:`_settle` makes the one counted lookup, hit or miss.  No
        cache promotes on a hit, and neither step, nor keying (a
        constraint-cache hit), takes a cache lock.  When the request is
        ``traced`` one ``plan`` span covers both steps; untraced, no span
        is opened.

        The probe cannot become that counted lookup.  A trivial request
        counts no lookup, and it is known to be trivial only once it is
        planned; and a batch counts nothing until every member is keyed
        and planned, so that a member the planner refuses leaves the
        counters as they were.  The planner's rules alone, run ahead of
        a counted lookup instead, cost a hit two to four times the probe.
        """
        if traced:
            with span("plan") as handle:
                # The span is open: plan as an untraced request would.
                plan = self._plan(
                    epoch, False, source, target, labels, constraint, algorithm,
                    use_cache,
                )
                handle.set(
                    algorithm=plan.algorithm,
                    reason=plan.reason,
                    trivial=isinstance(plan, QueryPlan) and plan.is_trivial,
                )
                return plan
        planner = epoch.planner
        keyed = planner.key(source, target, labels, constraint, algorithm)
        if use_cache and keyed.key in epoch.results:
            return keyed
        return planner.plan(source, target, labels, constraint, algorithm, keyed=keyed)

    def _finish(
        self,
        plan: QueryPlan | KeyedQuery,
        epoch: GraphEpoch,
        use_cache: bool,
        batch: bool,
        half: str | None = None,
        traced: bool = False,
    ) -> tuple[QueryResult, dict] | None:
        """Execute (or short-circuit) one plan and record telemetry.

        ``plan`` is a :class:`KeyedQuery` when :meth:`_plan` found its
        key in the result cache.  Cached answers are read from and
        written to ``epoch.results``, the cache of the epoch the plan was
        made against — whichever epoch is serving by the time this query
        completes.

        ``half`` is how a batch splits one member between two threads.
        ``"settle"`` answers from the planner or the result cache only,
        and returns None — nothing recorded but the counted cache miss —
        for a plan that needs an evaluator; ``"evaluate"`` is that
        plan's second call, and goes straight to the evaluator.
        ``traced`` says whether the request runs under a trace
        (:func:`~repro.obs.trace.current_trace`): an untraced hit opens
        no span at all.
        """
        started = perf_counter()
        meta = {
            "cached": False,
            "trivial": False,
            "reason": plan.reason,
            "epoch": epoch.epoch_id,
            "source": "evaluated",
        }
        result = None
        if half != "evaluate":
            result = self._settle(plan, epoch, traced, meta, use_cache)
        if result is None:
            if half == "settle":
                return None
            result = self._resolve(plan, epoch, meta, use_cache)
        if traced:
            annotate(source=meta["source"])
        elapsed = perf_counter() - started
        self.stats.record_query(
            result,
            cached=meta["cached"],
            trivial=meta["trivial"],
            batch=batch,
            seconds=elapsed,
        )
        if self.flight.interested(elapsed):
            self._record_slow(plan, meta, result, elapsed)
        return result, meta

    def _settle(
        self,
        plan: QueryPlan | KeyedQuery,
        epoch: GraphEpoch,
        traced: bool,
        meta: dict,
        use_cache: bool,
    ) -> QueryResult | None:
        """The answer the planner or the result cache already holds for
        one plan (stamping ``meta`` with which), else None."""
        if isinstance(plan, QueryPlan) and plan.is_trivial:
            meta["trivial"] = True
            meta["source"] = "planner"
            return QueryResult(
                answer=bool(plan.trivial_answer),
                algorithm="planner",
                seconds=0.0,
                passed_vertices=0,
            )
        if not use_cache:
            return None
        if traced:
            with span("result-cache") as cache_span:
                cached = epoch.results.get(plan.key)
                cache_span.set(hit=cached is not None)
        else:
            cached = epoch.results.get(plan.key)
        if cached is not None:
            meta["cached"] = True
            meta["source"] = "result-cache"
        return cached

    def _resolve(
        self,
        plan: QueryPlan | KeyedQuery,
        epoch: GraphEpoch,
        meta: dict,
        use_cache: bool,
    ) -> QueryResult:
        """Run one plan nothing could :meth:`_settle`, stamp ``meta``
        with how it went and store what may be stored."""
        if isinstance(plan, KeyedQuery):
            # Its entry was evicted between the probe and the lookup.
            plan = epoch.planner.plan(
                *plan.key[:2], plan.labels, plan.constraint, keyed=plan
            )
        with span("execute", algorithm=plan.algorithm) as execute_span:
            result = self._execute(plan, epoch)
            execute_span.set(
                answer=result.answer,
                passed_vertices=result.passed_vertices,
                scck_calls=result.scck_calls,
                vsg_size=result.vsg_size,
                lcs_calls=result.lcs_calls,
            )
        if not plan.forced:
            # The routing decision, stamped for clients and the flight
            # recorder; both tiers answer exactly.
            meta["tier"] = (
                "short-circuit"
                if result.algorithm == BOUNDS_ALGORITHM
                else "exact"
            )
        if use_cache:
            epoch.results.put(plan.key, result)
        return result

    def _record_slow(
        self,
        plan: QueryPlan | KeyedQuery,
        meta: dict,
        result: QueryResult,
        elapsed: float,
    ) -> None:
        """Offer one answered query the flight recorder is
        :meth:`~repro.obs.flight.FlightRecorder.interested` in.

        That check is a lock-free float compare, made by the caller, so
        sub-threshold traffic pays nothing beyond it.  When the request
        was traced the entry captures the span tree as recorded *so far*
        — for a single query that is the whole trace, for a batch member
        its own ``query`` span — so ``/debug/slow`` shows where the time
        went, not just that it went.
        """
        source, target, labels, constraint = plan.key
        trace = current_trace()
        entry: dict[str, Any] = {
            "query": {
                "source": source,
                "target": target,
                "labels": sorted(labels),
                "constraint": constraint,
            },
            "algorithm": result.algorithm,
            "answer": result.answer,
            # The tier the response carried (None when the router never
            # saw the query: cache hits, trivial and forced plans) — a
            # bounds-index miss that fell through to an evaluator stall
            # triages differently from a slow short-circuit.
            "tier": meta.get("tier"),
            "meta": dict(meta),
            "trace_id": trace.trace_id if trace is not None else None,
            "trace": None,
        }
        if trace is not None:
            scope = current_span()
            entry["trace"] = (
                scope.to_dict() if scope is not None else trace.to_dict()
            )
        self.flight.record(elapsed, entry)

    def _execute(self, plan: QueryPlan, epoch: GraphEpoch) -> QueryResult:
        """Route one non-trivial plan: short-circuit first, then exact.

        The router tries to settle the query soundly before any
        evaluator runs — definite-No from the label-blind upper bound —
        and everything uncertain falls through to the session the plan
        names.  Forced plans bypass routing entirely — no short-circuit,
        no ``tier``: naming an algorithm in the request is a request to
        *run* it.

        The ambient request deadline (if any) is checked once here —
        before the router or evaluator starts — so a budget that lapsed
        in the admission queue or an earlier batch member fails without
        paying for a doomed traversal; the evaluators themselves check
        it per loop iteration after that.
        """
        assert plan.query is not None
        check_deadline("execute")
        if plan.forced:
            return epoch.session(plan.algorithm).answer(plan.query)
        router = self.approx
        with span("route") as route_span:
            decision = router.decide(plan, epoch)
            if decision is not None:
                route_span.set(tier="short-circuit", verdict=decision.verdict)
                return decision.result
            route_span.set(tier="exact", verdict="uncertain")
        router.record_fallthrough()
        return epoch.session(plan.algorithm).answer(plan.query)

    # ------------------------------------------------------------------
    # JSON-level API (used by the HTTP front end)
    # ------------------------------------------------------------------

    def _start_trace(self, name: str, requested: bool) -> Trace | None:
        """A trace for one request, or None when it runs untraced.

        Client-requested (``?trace=1``) always traces; otherwise the
        sampler decides (``sampled=True`` marks those — they feed the
        flight recorder but are never echoed to the client).
        """
        if requested:
            return Trace(name)
        if self._sampler.sample():
            return Trace(name, sampled=True)
        return None

    @staticmethod
    def _run_traced(
        active: Trace | None, call: Callable, *args: Any, **kwargs: Any
    ) -> Any:
        """``call(...)`` under ``active`` (finished on the way out), or
        bare when the request runs untraced."""
        if active is None:
            return call(*args, **kwargs)
        with activate(RequestContext(active, current_deadline())):
            try:
                return call(*args, **kwargs)
            finally:
                active.finish()

    def _serve(
        self, name: str, requested: bool, call: Callable, *args: Any, **kwargs: Any
    ) -> tuple[Any, Trace | None]:
        """``(call(...), trace)`` for one ``/query`` or ``/batch``
        request, run in its admission slot and under its trace when it
        has them; the trace is None when the request ran untraced.

        Without admission control and without a trace — asked for or
        sampled — the call runs bare: no context manager, no wrapper.
        """
        admission = self.admission
        if admission is None:
            active = self._start_trace(name, requested)
            if active is None:
                return call(*args, **kwargs), None
            return self._run_traced(active, call, *args, **kwargs), active
        try:
            slot = admission.admit(current_deadline())
        except OverloadedError:
            # A full queue or an expired wait: a structured 429 carrying
            # ``Retry-After`` — or a 504 when the request's own deadline
            # lapsed while queued — counted as shed.
            self.stats.record_shed()
            raise
        with slot:
            active = self._start_trace(name, requested)
            return self._run_traced(active, call, *args, **kwargs), active

    def handle_query(self, payload: object, *, trace: bool = False) -> bytes:
        """``POST /query``: validate a JSON payload, answer it and return
        the reply body (UTF-8 JSON, :func:`query_body`).

        With ``trace=True`` (the HTTP layer's ``?trace=1``) the reply
        carries the request's full span tree under ``"trace"``.
        """
        spec = validate_spec(payload, where="query")
        try:
            (result, meta), active = self._serve("query", trace, self.query, **spec)
        except (ConstraintError, SparqlError) as error:
            raise BadRequestError(f"invalid query: {error}") from error
        return query_body(result, meta, active if trace else None)

    def handle_batch(self, payload: object, *, trace: bool = False) -> bytes:
        """``POST /batch``: validate and answer a batch payload, and
        return the reply body (UTF-8 JSON, :func:`batch_body`)."""
        if not isinstance(payload, dict) or "queries" not in payload:
            raise BadRequestError(
                "batch body must be a JSON object with a 'queries' array"
            )
        raw = payload["queries"]
        if not isinstance(raw, list) or not raw:
            raise BadRequestError("'queries' must be a non-empty array")
        use_cache = payload.get("use_cache", True)
        if not isinstance(use_cache, bool):
            raise BadRequestError("'use_cache' must be a boolean")
        self._check_batch_size(len(raw))
        specs = [
            validate_spec(item, where=f"queries[{position}]")
            for position, item in enumerate(raw)
        ]
        try:
            answered, active = self._serve(
                "batch", trace, self.query_batch, specs, use_cache
            )
        except (ConstraintError, SparqlError) as error:
            raise BadRequestError(f"invalid query in batch: {error}") from error
        return batch_body(answered, active if trace else None)

    def handle_updates(self, payload: object, *, trace: bool = False) -> dict:
        """``POST /edges``: validate a JSON update batch and apply it.

        On a read-only follower the request is refused with a structured
        403 *before* validation side effects — the gate lives here, at
        the HTTP boundary, so the follower's own log tailer can still
        call :meth:`apply_updates` directly.
        """
        if self.read_only:
            raise ReadOnlyServiceError()
        updates = validate_edge_updates(payload, max_edges=self.options.max_batch)
        active = Trace("updates") if trace else None
        summary = self._run_traced(active, self.apply_updates, updates)
        if trace:
            summary["trace"] = active.to_dict()
        return summary

    def health(self) -> dict:
        """``GET /healthz``: liveness plus what is loaded.

        A durable leader adds a ``"wal"`` section (records appended,
        segment count, snapshot epoch); a follower adds ``"replication"``
        (role, applied vs log-tip epoch, lag in epochs and seconds) — the
        fields load balancers and operators watch to keep stale replicas
        out of rotation.
        """
        epoch = self._epoch
        payload = {
            "status": "ok",
            "graph": epoch.graph.name,
            "vertices": epoch.graph.num_vertices,
            "edges": epoch.graph.num_edges,
            "labels": epoch.graph.num_labels,
            "default_algorithm": self.default_algorithm,
            "epoch": epoch.epoch_id,
            "fingerprint": epoch.fingerprint,
            "version": __version__,
            "started_at": self.stats.started_at,
            "uptime_seconds": self.stats.uptime_seconds,
        }
        if self._wal is not None:
            payload["wal"] = self._wal.describe()
        if self.replication is not None:
            payload["replication"] = self.replication.describe()
        return payload

    def stats_snapshot(self) -> dict:
        """``GET /stats``: the full telemetry document."""
        epoch = self._epoch
        document = {
            "service": self.stats.snapshot(),
            "result_cache": epoch.results.stats().as_dict(),
            "constraint_cache": self.constraints.stats().as_dict(),
            "candidate_cache": {
                **epoch.candidates.stats().as_dict(),
                **epoch.candidates.carry_stats(),
            },
            "graph": {
                "name": epoch.graph.name,
                "vertices": epoch.graph.num_vertices,
                "edges": epoch.graph.num_edges,
                "labels": epoch.graph.num_labels,
            },
            "epoch": epoch.describe(),
            "slow_queries": self.flight.summary(),
            "config": {
                "default_algorithm": self.default_algorithm,
                **self.options.as_dict(),
            },
        }
        document["approx"] = {
            **self.approx.stats(),
            "bounds": epoch.bounds.describe(),
        }
        if self.admission is not None:
            document["admission"] = self.admission.stats()
        if self._wal is not None:
            document["wal"] = self._wal.describe()
        if self.replication is not None:
            document["replication"] = self.replication.describe()
        return document

    # ------------------------------------------------------------------
    # cache + stats persistence (ROADMAP "Cache warming and persistence")
    # ------------------------------------------------------------------

    def save_snapshot(self, path: str | Path) -> int:
        """Persist the result cache and stats ledger as JSON.

        The snapshot carries every unexpired result-cache entry of the
        *current* epoch (the document-level identity pins them to one
        graph version) whose endpoint names JSON reads back as
        themselves — an entry is loaded under the key it was saved
        under, or not at all — plus the :meth:`ServiceStats.snapshot`
        document, tagged with the graph's full identity: name, sizes, epoch id and
        content fingerprint, so :meth:`load_snapshot` can refuse a
        mismatched file even when every size coincides — and the
        fingerprint is audited against a rescan of the edges first
        (:meth:`audit_fingerprint`), so a file never carries an identity
        its graph does not have.  Written atomically (write-then-rename,
        like the index store).  Returns the file size in bytes.
        """
        epoch = self._epoch
        self.audit_fingerprint()
        document = {
            "format_version": _SNAPSHOT_VERSION,
            "graph": {
                "name": epoch.graph.name,
                "vertices": epoch.graph.num_vertices,
                "edges": epoch.graph.num_edges,
                "epoch": epoch.epoch_id,
                "fingerprint": epoch.fingerprint,
            },
            "results": [
                {
                    "key": [source, target, sorted(labels), constraint],
                    "result": asdict(result),
                }
                for (source, target, labels, constraint), result in (
                    epoch.results.export_entries()
                )
                if _reads_back(source) and _reads_back(target)
            ],
            "stats": self.stats.snapshot(),
        }
        return atomic_write_json(document, path)

    def load_snapshot(
        self,
        path: str | Path,
        *,
        epoch_fingerprints: dict[int, str] | None = None,
    ) -> dict:
        """Warm the result cache and stats from a :meth:`save_snapshot` file.

        Raises :class:`~repro.exceptions.ServiceConfigError` when the
        file was written for a different graph — a stale cache must
        never answer for the wrong data.  The identity check goes beyond
        ``(name, vertices, edges)``: the epoch id and a content
        fingerprint (label universe + order-insensitive digest of every
        edge) must match too, so a mutated-then-same-size graph is
        refused instead of silently serving the old graph's answers.

        ``epoch_fingerprints`` relaxes the refusal for WAL recovery,
        where a warm-cache file is routinely one or more epochs *behind*
        the replayed log tip: a mapping ``{epoch_id: fingerprint}`` of
        this graph's logged history (``TenantWal.fingerprints``).  A
        snapshot whose ``(epoch, fingerprint)`` matches an *ancestor*
        epoch in that history is accepted for its stats ledger, but its
        result entries — answers for an older graph version — are
        dropped, not warmed.  Anything that matches neither the current
        epoch nor a verified ancestor is still refused.

        Returns ``{"results": n, "stale_results": m}`` — entries warmed
        into the current epoch's cache vs. dropped as pre-tip.
        """
        path = Path(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ServiceConfigError(
                f"cannot read service snapshot {path}: {error}"
            ) from error
        if document.get("format_version") != _SNAPSHOT_VERSION:
            raise ServiceConfigError(
                f"unsupported snapshot format version "
                f"{document.get('format_version')!r} in {path}"
            )
        epoch = self._epoch
        graph_info = document.get("graph", {})
        ours = (
            epoch.graph.name,
            epoch.graph.num_vertices,
            epoch.graph.num_edges,
            epoch.epoch_id,
            epoch.fingerprint,
        )
        theirs = (
            graph_info.get("name"),
            graph_info.get("vertices"),
            graph_info.get("edges"),
            graph_info.get("epoch"),
            graph_info.get("fingerprint"),
        )
        if ours != theirs:
            their_epoch = graph_info.get("epoch")
            verified_ancestor = (
                epoch_fingerprints is not None
                and graph_info.get("name") == epoch.graph.name
                and isinstance(their_epoch, int)
                and their_epoch < epoch.epoch_id
                and epoch_fingerprints.get(their_epoch)
                == graph_info.get("fingerprint")
            )
            if not verified_ancestor:
                raise ServiceConfigError(
                    f"snapshot {path} was taken for graph "
                    f"(name, |V|, |E|, epoch, fingerprint) = {theirs}, "
                    f"this service hosts {ours}"
                )
            # Pre-tip snapshot of our own lineage: the counters carry
            # over, the cached answers do not.
            stale = len(document.get("results", []))
            self.stats.restore(document.get("stats", {}))
            return {"results": 0, "stale_results": stale}
        entries = []
        has_vertex = epoch.graph.has_vertex
        for item in document.get("results", []):
            source, target, labels, constraint = item["key"]
            # Only a search's answer is ever stored, and a search has
            # both endpoints; any other entry would answer a query the
            # planner decides (a file whose keys stringified names).
            if has_vertex(source) and has_vertex(target):
                key = (source, target, frozenset(labels), constraint)
                result = {
                    name: value
                    for name, value in item["result"].items()
                    if name in _RESULT_FIELDS
                }
                entries.append((key, QueryResult(**result)))
        warmed = epoch.results.import_entries(entries)
        self.stats.restore(document.get("stats", {}))
        return {"results": warmed, "stale_results": 0}
