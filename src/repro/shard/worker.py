"""Shard workers: the expand/answer half of scatter-gather serving.

A worker owns one :class:`~repro.shard.partitioner.GraphSlice` — one
frozen graph holding the owned vertices' edges under the deployment's
ids, plus its border table — and exposes the operations the
coordinator needs:

* :meth:`ShardWorker.expand` — the scatter-gather primitive: given
  frontier seeds the shard owns and a label mask, compute the *local*
  closure over the slice graph's out-rows and report (a) every owned
  vertex reached and (b) every border crossing, grouped by the shard
  owning the crossed-to vertex.  Stateless across queries — the
  coordinator ships the shard's previously expanded set back as
  ``exclude`` — so any number of queries can fan out concurrently and a
  worker can live in another process.  Every result echoes the **slice
  epoch** of the slice it was computed on, which is how a coordinator
  detects that a scatter round straddled a slice swap;
* :meth:`ShardWorker.local_query` — the co-located fast path: the
  serving kernel (:data:`~repro.service.planner.DEFAULT_ALGORITHM`) run
  by one :class:`~repro.session.LSCRSession` over the same slice graph, and
  because a slice's edges are a subset of the graph's, a *true* answer
  from the slice is a true answer globally (false means "unknown", and
  the coordinator falls back to scatter-gather).  The reply echoes the
  slice epoch exactly as ``expand`` does, and the coordinator believes
  a hit only at the epoch it expects;
* :meth:`ShardWorker.prepare` / :meth:`publish_update` /
  :meth:`abort_update` — the worker half of slice-epoch propagation:
  a coordinator pushing an update stages the slice its document
  rebuilds (all the expensive work happens here, off the serving path), then
  publishes it as one atomic reference swap.  Workers untouched by a
  batch stage an epoch bump without a slice, so the whole fleet moves
  epochs in lockstep — but only *from the slice epoch the bump names*:
  a worker serving any other epoch (it missed a publish, or restarted
  from an old file) refuses, and the coordinator ships it the slice
  instead.  **A slice epoch names content**: "echoes E" implies "holds
  the fleet's content at E", by induction over prepares.

All of it also speaks JSON (:meth:`handle_expand`, :meth:`handle_query`,
:meth:`handle_update`), which is how the existing HTTP layer hosts a
worker in a separate process (``POST /shard/<id>/{expand,query,update}``
plus the ``GET /shard/<id>`` descriptor); :class:`HttpShardWorker` is
the matching client stub with the same Python interface (``expand``,
``local_query``, ``prepare``, ``publish_update``, ``abort_update``,
``crossings_by_peer``, ``describe``, ``close``) — over pooled
keep-alive connections — which is how a sharded service reaches every
worker.  Neither ``expand`` nor ``local_query`` takes the request's
trace or deadline as a parameter: both run under the ambient request
context (:mod:`repro.context`), which the stub adds to each body and
:meth:`handle_expand` / :meth:`handle_query` arm from it.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro.context import RequestContext, activate, current_context
from repro.obs.trace import attach
from repro.core.query import LSCRQuery
from repro.exceptions import (
    BadRequestError,
    ConstraintError,
    DeadlineExceededError,
    RemoteShardError,
    ServiceConfigError,
    SliceFileError,
    SparqlError,
)
from repro.service.app import validate_spec
from repro.service.cache import CandidateCache
from repro.service.options import ServiceOptions
from repro.service.planner import DEFAULT_ALGORITHM
from repro.session import LSCRSession
from repro.shard.partitioner import GraphSlice
from repro.shard.slicefile import SLICE_WIRE_VERSION, SliceFile, slice_from_document

__all__ = [
    "DEFAULT_HTTP_TIMEOUT",
    "ExpandResult",
    "ShardWorker",
    "HttpShardWorker",
]

#: Socket timeout for remote workers when neither ``--shard-timeout``
#: nor a request deadline narrows it.
DEFAULT_HTTP_TIMEOUT = 30.0


@dataclass(frozen=True)
class ExpandResult:
    """One shard's contribution to one scatter-gather round."""

    #: Owned vertices expanded this call (seeds plus their local closure).
    reached: tuple[int, ...]
    #: Border crossings: owning shard id → external vertex ids reached.
    crossings: dict[int, tuple[int, ...]]
    #: Vertices whose adjacency was scanned (telemetry).
    expanded: int
    #: The slice epoch this expand answered for.  The coordinator
    #: compares it against its expected epoch: a mismatch means the
    #: round straddled a slice swap and must be retried.
    epoch: int = field(compare=False)
    #: When the request is traced: this expand as a serialised span
    #: dict, ready for the coordinator to stitch into the request's
    #: trace (None when the call was untraced).  Workers build the dict
    #: themselves — in another process there is no span tree to hang it
    #: on, so the span travels back by value over the wire.
    span: dict | None = field(default=None, compare=False)


@dataclass(frozen=True)
class _SliceState:
    """Everything that swaps together when a worker publishes a slice.

    Readers load ``worker._state`` once and work off the bundle, so a
    concurrent publish can never hand them the new slice with the old
    epoch (or vice versa) — the same single-atomic-reference discipline
    :class:`~repro.service.epoch.GraphEpoch` uses in the query service.
    """

    slice: GraphSlice
    #: The serving kernel over the slice graph: the co-located probe.
    session: LSCRSession
    epoch: int
    fingerprint: str
    plan_hash: str


class ShardWorker:
    """The worker serving one loaded slice (``serve --worker``).

    Takes the :class:`~repro.shard.slicefile.SliceFile` a document load
    returns (:func:`~repro.shard.slicefile.load_slice` /
    :func:`~repro.shard.slicefile.slice_from_document`): the slice and
    the epoch, fingerprint and plan hash it was cut at.

    Thread-safe: :meth:`expand` touches only per-call state plus the
    read-only slice graph, counters mutate under one lock, and slice
    swaps replace one immutable :class:`_SliceState` reference.
    """

    def __init__(
        self, loaded: SliceFile, *, options: ServiceOptions | None = None
    ) -> None:
        self.shard_id = loaded.shard_id
        #: The one knob the slice kernel takes from the owning service
        #: (or the ``serve --worker`` command line): ``cache_size=0``
        #: disables its ``V(S, G)`` cache like every other cache.
        self._cache_size = (options or ServiceOptions()).cache_size
        self._state = self._serving(loaded)
        self._lock = threading.Lock()
        self._update_lock = threading.Lock()
        self._staged: dict[str, _SliceState] = {}
        self._expand_calls = 0
        self._seeds_in = 0
        self._reached_out = 0
        self._crossings_out = 0
        self._crossings_by_peer: dict[int, int] = {}
        self._local_queries = 0
        self._local_hits = 0
        self._updates_prepared = 0
        self._updates_published = 0
        self._updates_aborted = 0

    def _serving(self, loaded: SliceFile) -> _SliceState:
        """The state serving ``loaded``: its probe searches the slice graph."""
        return _SliceState(
            slice=loaded.slice,
            session=LSCRSession(
                loaded.slice.graph,
                algorithm=DEFAULT_ALGORITHM,
                candidate_cache=CandidateCache(max_size=self._cache_size),
            ),
            epoch=loaded.epoch,
            fingerprint=loaded.fingerprint,
            plan_hash=loaded.plan_hash,
        )

    def __repr__(self) -> str:
        state = self._state
        return (
            f"ShardWorker(shard={self.shard_id}, epoch={state.epoch}, "
            f"slice={state.slice!r})"
        )

    # ------------------------------------------------------------------
    # the scatter-gather primitive
    # ------------------------------------------------------------------

    def expand(
        self,
        seeds: Iterable[int],
        mask: int,
        exclude: Iterable[int] = (),
    ) -> ExpandResult:
        """Local closure of ``seeds`` under ``mask`` within the slice.

        ``exclude`` names owned vertices already expanded for this query
        in earlier rounds (their adjacency was fully scanned then, so
        re-walking them could only rediscover known vertices).  Seeds
        this shard does not own — vertices the slice does not know
        included — are ignored defensively.  Crossings may
        include vertices the coordinator has already seen — deduplication
        against the *global* visited set is the coordinator's job, since
        only it has that set.

        The request context is the ambient one (re-armed by the
        coordinator's scatter pool, or armed from the wire by
        :meth:`handle_expand`).  Under a trace the result carries this
        call as a span dict (:attr:`ExpandResult.span`), which the
        coordinator attaches under its round span — the wire half of
        cross-process trace stitching; untraced calls (the hot path)
        skip the timing entirely.  Under a deadline the DFS checks it,
        so a worker stops early instead of computing a closure whose
        requester already timed out.
        """
        context = current_context()
        trace, deadline = context.trace, context.deadline
        started = perf_counter() if trace is not None else 0.0
        state = self._state
        graph_slice = state.slice
        shard_of = graph_slice.shard_of
        border = graph_slice.border_targets
        my_shard = graph_slice.shard_id
        size = len(shard_of)
        # Marked by global id, over every vertex, as every core kernel does.
        visited = bytearray(size)
        for vid in exclude:
            if 0 <= vid < size:
                visited[vid] = 1
        stack: list[int] = []
        reached: list[int] = []
        seed_count = 0
        for vid in seeds:
            seed_count += 1
            if not 0 <= vid < size or shard_of[vid] != my_shard or visited[vid]:
                continue
            visited[vid] = 1
            stack.append(vid)
            reached.append(vid)
        crossings: dict[int, set[int]] = {}
        expanded = 0
        out_targets = graph_slice.graph.out_targets_masked
        while stack:
            if deadline is not None:
                deadline.check(
                    "shard-expand", shard=my_shard, expanded=expanded
                )
            vid = stack.pop()
            expanded += 1
            # The border table's runtime job: one dict probe per vertex
            # decides whether any edge here can cross a shard boundary.
            # Non-border vertices (the bulk, under correlation-guided
            # placement) expand without per-edge ownership checks.
            if vid not in border:
                for target in out_targets(vid, mask):
                    if not visited[target]:
                        visited[target] = 1
                        stack.append(target)
                        reached.append(target)
                continue
            for target in out_targets(vid, mask):
                owner = shard_of[target]
                if owner != my_shard:
                    crossings.setdefault(owner, set()).add(target)
                elif not visited[target]:
                    visited[target] = 1
                    stack.append(target)
                    reached.append(target)
        crossings_out = {
            owner: tuple(sorted(targets))
            for owner, targets in crossings.items()
        }
        span_doc = None
        if trace is not None:
            span_doc = {
                "name": "expand",
                # A remote worker cannot know its offset from the trace
                # start (no shared clock); 0.0 marks "offset unknown".
                "started": 0.0,
                "seconds": perf_counter() - started,
                "attrs": {
                    "trace_id": trace.trace_id,
                    "shard": my_shard,
                    "seeds": seed_count,
                    "reached": len(reached),
                    "expanded": expanded,
                    "crossings": sum(len(t) for t in crossings_out.values()),
                },
                "children": [],
            }
        result = ExpandResult(
            reached=tuple(reached),
            crossings=crossings_out,
            expanded=expanded,
            epoch=state.epoch,
            span=span_doc,
        )
        with self._lock:
            self._expand_calls += 1
            self._seeds_in += seed_count
            self._reached_out += len(result.reached)
            for owner, targets in result.crossings.items():
                self._crossings_out += len(targets)
                self._crossings_by_peer[owner] = (
                    self._crossings_by_peer.get(owner, 0) + len(targets)
                )
        return result

    # ------------------------------------------------------------------
    # the co-located fast path
    # ------------------------------------------------------------------

    def local_query(self, query: LSCRQuery) -> tuple[bool, int]:
        """Answer ``query`` against the slice alone: ``(hit, slice epoch
        of the slice searched)``; a hit is conclusive at that epoch.

        Sound because the slice's edge set is a subset of the graph's:
        an ``L``-path and a substructure match found here exist in the
        full graph too.  ``False`` only means the *slice* lacks a
        witness and the coordinator must scatter.  Nothing is cached
        here but ``V(S, G)``: repeat-query caching is the owning
        service's job, in front of the whole execution path and
        honouring each request's ``use_cache``.
        """
        state = self._state
        graph = state.session.graph
        if not (graph.has_vertex(query.source) and graph.has_vertex(query.target)):
            return False, state.epoch
        hit = state.session.answer(query).answer
        with self._lock:
            self._local_queries += 1
            if hit:
                self._local_hits += 1
        return hit, state.epoch

    # ------------------------------------------------------------------
    # slice-epoch propagation (two-phase slice swap)
    # ------------------------------------------------------------------

    def prepare(
        self,
        txn: str,
        *,
        epoch: int,
        fingerprint: str,
        plan_hash: str | None,
        loaded: SliceFile | None = None,
        extends: int | None = None,
    ) -> dict:
        """Stage the next slice state without serving it.

        With ``loaded`` — the slice a shipped document rebuilt, which
        must have been cut at ``epoch`` and ``fingerprint`` — the staged
        state serves it, probe kernel included.  Without it this is a
        pure epoch bump over the current slice: the batch touched no
        edge this shard owns, but the fleet's epochs must still advance
        together or the coordinator's skew check would flag healthy
        workers forever.
        A bump is only sound over the content it was decided for, so it
        names the slice epoch it ``extends`` and a worker serving any
        other refuses (409) — stamping a stale slice with the fleet's
        epoch would make it pass every skew check from then on.
        """
        current = self._state
        if loaded is None:
            if current.epoch != extends:
                raise BadRequestError(
                    f"update {txn} extends slice epoch {extends}, shard "
                    f"{self.shard_id} serves {current.epoch}",
                    status=409,
                    detail={"epoch": current.epoch, "extends": extends},
                )
            staged = replace(
                current,
                epoch=int(epoch),
                fingerprint=fingerprint,
                plan_hash=current.plan_hash if plan_hash is None else plan_hash,
            )
        else:
            if loaded.shard_id != self.shard_id:
                raise BadRequestError(
                    f"update {txn} stages slice for shard "
                    f"{loaded.shard_id} on shard {self.shard_id}"
                )
            if loaded.epoch != epoch or loaded.fingerprint != fingerprint:
                raise BadRequestError(
                    f"update {txn} epoch/fingerprint disagree with its "
                    f"slice document (epoch {epoch} vs {loaded.epoch})"
                )
            staged = self._serving(loaded)
        with self._update_lock:
            self._staged[txn] = staged
        with self._lock:
            self._updates_prepared += 1
        return {
            "shard": self.shard_id,
            "txn": txn,
            "epoch": staged.epoch,
            "plan_hash": staged.plan_hash,
            "staged_slice": loaded is not None,
        }

    def publish_update(self, txn: str) -> dict:
        """Swap a staged state in (one atomic reference store); the reply
        is the worker's descriptor as of the swap."""
        with self._update_lock:
            staged = self._staged.pop(txn, None)
            if staged is None:
                raise BadRequestError(
                    f"shard {self.shard_id} has no prepared update {txn}",
                    status=409,
                )
            self._state = staged
        with self._lock:
            self._updates_published += 1
        return self.describe()

    def abort_update(self, txn: str) -> dict:
        """Drop a staged state (idempotent — unknown txns are no-ops)."""
        with self._update_lock:
            staged = self._staged.pop(txn, None)
        if staged is not None:
            with self._lock:
                self._updates_aborted += 1
        return {
            "shard": self.shard_id,
            "txn": txn,
            "epoch": self._state.epoch,
        }

    # ------------------------------------------------------------------
    # JSON API (how the HTTP layer hosts a worker in another process)
    # ------------------------------------------------------------------

    def handle_expand(self, payload: object) -> dict:
        """``POST /shard/<id>/expand``: validate and run one expand."""
        context = RequestContext.from_wire(payload, "shard-expand")
        seeds = payload.get("seeds")
        if not isinstance(seeds, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in seeds
        ):
            raise BadRequestError("'seeds' must be an array of vertex ids")
        mask = payload.get("mask")
        if not isinstance(mask, int) or isinstance(mask, bool) or mask < 0:
            raise BadRequestError("'mask' must be a non-negative integer")
        exclude = payload.get("exclude", [])
        if not isinstance(exclude, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in exclude
        ):
            raise BadRequestError("'exclude' must be an array of vertex ids")
        with activate(context):
            result = self.expand(seeds, mask, exclude)
        document = {
            "reached": list(result.reached),
            "crossings": {
                str(owner): list(targets)
                for owner, targets in result.crossings.items()
            },
            "expanded": result.expanded,
            "epoch": result.epoch,
        }
        if result.span is not None:
            document["trace"] = result.span
        return document

    def handle_query(self, payload: object) -> dict:
        """``POST /shard/<id>/query``: :meth:`local_query` over the wire,
        its body checked like a ``/query`` body."""
        context = RequestContext.from_wire(payload, "shard-query")
        spec = validate_spec(payload, where="query")
        try:
            query = self._state.session.make_query(
                spec["source"], spec["target"], spec["labels"], spec["constraint"]
            )
            with activate(context):
                answer, epoch = self.local_query(query)
        except (ConstraintError, SparqlError) as error:
            raise BadRequestError(f"invalid query: {error}") from error
        document = {"answer": answer, "slice_epoch": epoch}
        trace = context.trace
        if trace is not None:
            # The search's spans travel back by value, as an expand's do.
            trace.root.attrs.update(trace_id=trace.trace_id, shard=self.shard_id)
            document["trace"] = trace.finish().root.to_dict()
        return document

    def handle_update(self, payload: object) -> dict:
        """``POST /shard/<id>/update``: the two-phase slice-swap wire.

        ``{"phase": "prepare"|"publish"|"abort", "txn": ..., ...}``.
        Prepare additionally carries the coordinated ``epoch`` and
        ``fingerprint`` plus either the shard's slice as its canonical
        document (touched shards) or ``extends``, the slice epoch a bare
        bump is sound over.  A ``wire_version`` other than this build's
        is refused before anything is staged.
        """
        if not isinstance(payload, dict):
            raise BadRequestError("update body must be a JSON object")
        wire = payload.get("wire_version", SLICE_WIRE_VERSION)
        if wire != SLICE_WIRE_VERSION:
            raise BadRequestError(
                f"unsupported shard wire version {wire!r} "
                f"(this worker speaks {SLICE_WIRE_VERSION})",
                detail={"wire_version": SLICE_WIRE_VERSION},
            )
        phase = payload.get("phase")
        txn = payload.get("txn")
        if phase not in ("prepare", "publish", "abort"):
            raise BadRequestError(
                "'phase' must be one of 'prepare', 'publish', 'abort'"
            )
        if not isinstance(txn, str) or not txn:
            raise BadRequestError("'txn' must be a non-empty string")
        if phase == "publish":
            return self.publish_update(txn)
        if phase == "abort":
            return self.abort_update(txn)
        epoch = payload.get("epoch")
        if not isinstance(epoch, int) or isinstance(epoch, bool):
            raise BadRequestError("'epoch' must be an integer")
        fingerprint = payload.get("fingerprint")
        if not isinstance(fingerprint, str):
            raise BadRequestError("'fingerprint' must be a string")
        plan_hash = payload.get("plan_hash")
        if plan_hash is not None and not isinstance(plan_hash, str):
            raise BadRequestError("'plan_hash' must be a string")
        slice_doc = payload.get("slice")
        if slice_doc is not None and not isinstance(slice_doc, dict):
            raise BadRequestError("'slice' must be a slice document object")
        extends = payload.get("extends")
        if extends is not None and (
            not isinstance(extends, int) or isinstance(extends, bool)
        ):
            raise BadRequestError("'extends' must be an integer")
        loaded = None
        if slice_doc is not None:
            try:
                loaded = slice_from_document(
                    slice_doc, source=f"shard {self.shard_id} update {txn}"
                )
            except SliceFileError as error:
                raise BadRequestError(
                    f"slice document rejected: {error}",
                    detail={"phase": "prepare", "txn": txn},
                ) from None
        return self.prepare(
            txn,
            epoch=epoch,
            fingerprint=fingerprint,
            plan_hash=plan_hash,
            loaded=loaded,
            extends=extends,
        )

    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """JSON-ready descriptor: identity + slice sizes + counters.

        Served verbatim as ``GET /shard/<id>`` — the handshake and
        health-probe surface — and embedded in the owning service's
        ``/stats`` shards section.
        """
        state = self._state
        with self._lock:
            counters = {
                "expand_calls": self._expand_calls,
                "seeds_in": self._seeds_in,
                "reached_out": self._reached_out,
                "crossings_out": self._crossings_out,
                "crossings_by_peer": {
                    str(owner): count
                    for owner, count in sorted(self._crossings_by_peer.items())
                },
                "local_queries": self._local_queries,
                "local_hits": self._local_hits,
                "updates_prepared": self._updates_prepared,
                "updates_published": self._updates_published,
                "updates_aborted": self._updates_aborted,
            }
        return {
            **state.slice.describe(),
            "epoch": state.epoch,
            "fingerprint": state.fingerprint,
            "plan_hash": state.plan_hash,
            "wire_version": SLICE_WIRE_VERSION,
            **counters,
        }

    def crossings_by_peer(self) -> dict[int, int]:
        """Live border-crossing counts per peer shard (for rebalancing)."""
        with self._lock:
            return dict(self._crossings_by_peer)

    def close(self) -> None:
        """Drop staged slices (idempotent; the kernel holds no resources)."""
        with self._update_lock:
            self._staged.clear()


class _KeepAlivePool:
    """A tiny keep-alive connection pool for one worker base URL.

    ``http.client`` connections are not thread-safe, so the pool hands
    each caller exclusive use of one connection (LIFO — the most
    recently used connection is the least likely to have been idled out
    by the server) and takes it back afterwards.  Connections whose
    response closed the stream, or that erred mid-call, are discarded.
    """

    def __init__(self, base_url: str, timeout: float) -> None:
        parts = urllib.parse.urlsplit(base_url)
        if parts.scheme != "http":
            raise ServiceConfigError(
                f"shard worker URLs must be http://, got {base_url!r}"
            )
        if parts.hostname is None:
            raise ServiceConfigError(f"shard worker URL has no host: {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port if parts.port is not None else 80
        #: Path prefix in front of /shard/<id>/... (usually empty).
        self.prefix = parts.path.rstrip("/")
        self.timeout = timeout
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        self._closed = False
        self.opened = 0
        self.reused = 0
        self.reconnects = 0

    def acquire(self) -> tuple[http.client.HTTPConnection, bool]:
        """An exclusive connection plus whether it is being reused."""
        with self._lock:
            if self._idle:
                self.reused += 1
                return self._idle.pop(), True
            self.opened += 1
        return (
            http.client.HTTPConnection(self.host, self.port, timeout=self.timeout),
            False,
        )

    def release(self, connection: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(connection)
                return
        connection.close()

    def discard(self, connection: http.client.HTTPConnection) -> None:
        connection.close()

    def note_reconnect(self) -> None:
        with self._lock:
            self.reconnects += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "connections_opened": self.opened,
                "connection_reuses": self.reused,
                "reconnects": self.reconnects,
                "idle_connections": len(self._idle),
            }

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
            self._closed = True
        for connection in idle:
            connection.close()


class HttpShardWorker:
    """Client stub driving a remote worker over the existing HTTP layer.

    Implements the same ``expand`` / ``local_query`` / ``prepare`` /
    ``publish_update`` / ``abort_update`` / ``crossings_by_peer``
    surface as :class:`ShardWorker` (plus ``probe``, the handshake and
    health-sweep descriptor fetch), and is the one way a
    :class:`~repro.shard.service.ShardedQueryService` reaches a shard.
    The remote end is any :class:`~repro.service.http.ServiceHTTPServer`
    with shard workers attached (``python -m repro serve --worker
    SLICE_FILE``).

    Calls ride a per-worker pool of keep-alive connections instead of a
    fresh TCP handshake per expand (a measurable share of the remote
    round-trip); a stale pooled connection — the server idled it out —
    is detected on the first read and retried once on a fresh one.
    """

    #: Grace added on top of a deadline-derived socket timeout, so the
    #: remote worker's own deadline check gets to answer with a
    #: structured 504 before the socket gives up.
    DEADLINE_GRACE_SECONDS = 0.25

    def __init__(self, base_url: str, shard_id: int) -> None:
        self.base_url = base_url.rstrip("/")
        self.shard_id = shard_id
        self.timeout = DEFAULT_HTTP_TIMEOUT
        self._pool = _KeepAlivePool(self.base_url, self.timeout)

    def __repr__(self) -> str:
        return f"HttpShardWorker({self.base_url!r}, shard={self.shard_id})"

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        timeout: float | None = None,
    ) -> tuple[int, bytes]:
        """One HTTP exchange over a pooled connection.

        Returns ``(status, body)``.  A stale reused connection (closed
        server-side while idle) surfaces as a connection error on the
        first use; that exact case retries once on a fresh connection —
        other failures propagate, because the caller's retry policy and
        breaker own that decision.
        """
        body = (
            json.dumps(payload).encode("utf-8") if payload is not None else None
        )
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            connection, reused = self._pool.acquire()
            try:
                per_call = self.timeout if timeout is None else timeout
                connection.timeout = per_call
                if connection.sock is not None:
                    connection.sock.settimeout(per_call)
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                data = response.read()
                status = response.status
                if response.will_close:
                    self._pool.discard(connection)
                else:
                    self._pool.release(connection)
                return status, data
            except (
                http.client.RemoteDisconnected,
                ConnectionResetError,
                BrokenPipeError,
            ):
                self._pool.discard(connection)
                if reused and attempt == 0:
                    self._pool.note_reconnect()
                    continue
                raise
            except Exception:
                self._pool.discard(connection)
                raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _shard_path(self, endpoint: str = "") -> str:
        base = f"{self._pool.prefix}/shard/{self.shard_id}"
        return f"{base}/{endpoint}" if endpoint else base

    def _decode(
        self,
        status: int,
        data: bytes,
        endpoint: str = "",
        budget_ms: float | None = None,
    ) -> dict:
        """Decode a response, mapping remote errors onto local exceptions."""
        if 200 <= status < 300:
            try:
                return json.loads(data)
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                raise RemoteShardError(
                    self.shard_id, status, f"unparseable response body: {error}"
                ) from None
        kind = where = None
        message = data.decode("utf-8", "replace")[:200]
        try:
            error_doc = json.loads(data)["error"]
            kind = error_doc.get("type")
            message = error_doc.get("message", message)
            where = error_doc["detail"]["where"]
        except Exception:
            pass
        if kind == DeadlineExceededError.kind:
            # Surface the remote worker's structured 504 as the same
            # exception a local worker raises, so the coordinator treats
            # "remote stopped early on our deadline" as deadline expiry,
            # not as a worker failure that trips the breaker.  It keeps
            # the step the worker stopped in; ``partial`` says where.
            budget = budget_ms or 0.0
            raise DeadlineExceededError(
                where if isinstance(where, str) else f"shard-{endpoint}-remote",
                elapsed_ms=budget,
                budget_ms=budget,
                partial={"shard": self.shard_id, "remote": self.base_url},
            )
        raise RemoteShardError(self.shard_id, status, message)

    def _post(self, endpoint: str, payload: dict) -> dict:
        """One POST outside any request (the update wire: a slice swap
        must run to the end, whoever asked for it)."""
        status, data = self._request(
            "POST", self._shard_path(endpoint), payload
        )
        return self._decode(status, data, endpoint)

    def _post_in_context(self, endpoint: str, payload: dict) -> dict:
        """One POST on behalf of the current request (expand, query).

        The body gains the request context's wire keys, and under a
        deadline the socket budget derives from what it ships: never
        wait longer than the request can still use.
        """
        wire = current_context().to_wire()
        budget_ms = wire.get("deadline_ms")
        timeout = None
        if budget_ms is not None:
            timeout = min(
                self.timeout,
                max(0.0, budget_ms) / 1000.0 + self.DEADLINE_GRACE_SECONDS,
            )
        status, data = self._request(
            "POST",
            self._shard_path(endpoint),
            {**payload, **wire},
            timeout=timeout,
        )
        return self._decode(status, data, endpoint, budget_ms)

    # ------------------------------------------------------------------
    # the ShardWorker surface
    # ------------------------------------------------------------------

    def expand(
        self,
        seeds: Iterable[int],
        mask: int,
        exclude: Iterable[int] = (),
    ) -> ExpandResult:
        document = self._post_in_context(
            "expand",
            {"seeds": list(seeds), "mask": mask, "exclude": list(exclude)},
        )
        span_doc = document.get("trace")
        if span_doc is not None:
            # Stamp where the span came from; everything else in the
            # dict is the remote worker's own account of itself.
            span_doc.setdefault("attrs", {})["remote"] = self.base_url
        epoch = document.get("epoch")
        # A reply that does not say which slice it searched cannot be
        # checked for skew, so it is no answer: a worker failure, which
        # the coordinator's retry policy and breaker count.
        if not isinstance(epoch, int) or isinstance(epoch, bool):
            raise RemoteShardError(
                self.shard_id, 200, f"expand reply carries no slice epoch: {epoch!r}"
            )
        return ExpandResult(
            reached=tuple(document["reached"]),
            crossings={
                int(owner): tuple(targets)
                for owner, targets in document["crossings"].items()
            },
            expanded=int(document["expanded"]),
            epoch=epoch,
            span=span_doc,
        )

    def local_query(self, query: LSCRQuery) -> tuple[bool, int | None]:
        document = self._post_in_context(
            "query",
            {
                "source": str(query.source),
                "target": str(query.target),
                "labels": sorted(query.labels.labels),
                "constraint": query.constraint.to_sparql(),
            },
        )
        span_doc = document.get("trace")
        if span_doc is not None:  # under the coordinator's co-located span
            span_doc.setdefault("attrs", {})["remote"] = self.base_url
            attach(span_doc)
        return bool(document["answer"]), document.get("slice_epoch")

    def probe(self, timeout: float | None = None) -> dict:
        """``GET /shard/<id>``: the worker's descriptor (handshake/health)."""
        status, data = self._request(
            "GET", self._shard_path(), timeout=timeout
        )
        return self._decode(status, data)

    def crossings_by_peer(self) -> dict[int, int]:
        counts = self.probe().get("crossings_by_peer") or {}
        return {int(peer): int(count) for peer, count in counts.items()}

    def prepare(
        self,
        txn: str,
        *,
        epoch: int,
        fingerprint: str,
        plan_hash: str | None,
        document: dict | None = None,
        extends: int | None = None,
    ) -> dict:
        """Stage a slice update: ``document`` — the shard's
        :func:`~repro.shard.slicefile.slice_document` at ``epoch`` — or,
        without one, a bare bump from slice epoch ``extends``."""
        payload: dict = {
            "phase": "prepare",
            "txn": txn,
            "wire_version": SLICE_WIRE_VERSION,
            "epoch": epoch,
            "fingerprint": fingerprint,
        }
        if plan_hash is not None:
            payload["plan_hash"] = plan_hash
        if document is not None:
            payload["slice"] = document
        else:
            payload["extends"] = extends
        return self._post("update", payload)

    def publish_update(self, txn: str) -> dict:
        return self._post(
            "update",
            {"phase": "publish", "txn": txn, "wire_version": SLICE_WIRE_VERSION},
        )

    def abort_update(self, txn: str) -> dict:
        return self._post(
            "update",
            {"phase": "abort", "txn": txn, "wire_version": SLICE_WIRE_VERSION},
        )

    def describe(self) -> dict:
        return {
            "shard": self.shard_id,
            "remote": self.base_url,
            **self._pool.stats(),
        }

    def close(self) -> None:
        """Drop the pooled connections."""
        self._pool.close()
