"""Epoch-swapped serving state: everything a query binds to one graph.

The service's original immutability contract — "graph and index are
never mutated after startup" — is what makes its lock-free concurrent
answering sound.  Live updates keep that contract by never mutating the
serving state at all: :class:`GraphEpoch` bundles one frozen graph, its
(optional) index and every object derived from them (planner, candidate
cache, session pool) into a single immutable-once-published unit, and
:meth:`~repro.service.app.QueryService.apply_updates` builds a *new*
epoch on a copy and publishes it by replacing one attribute reference.

Readers never lock: a request reads ``service._epoch`` exactly once (an
atomic attribute load) and runs plan → cache → session entirely against
that object, so a swap mid-query is invisible — the query finishes on
the epoch it started on, and the next request sees the new one.  That
is the serving rule, sharded or not: **an answer is computed from one
epoch**.  On a sharded service the epoch also carries its
:attr:`~GraphEpoch.topology` — the shard plan and the slice epoch the
fleet serves it at — so the scatter-gather coordinator reads graph,
``V(S, G)`` cache, plan and expected slice epoch from the one object the
request was handed, and there is no second "current version" to drift
from it.  The result cache is shared across epochs but *namespaced*:
cached answers are keyed ``(epoch_id, canonical key)``, so an in-flight
old-epoch query completing after a swap can only ever populate old-epoch
entries, never poison the new epoch's view.

``epoch_id`` is a per-service monotonic integer starting at 0; it is
surfaced in query metadata, ``/stats``, ``/healthz`` and the snapshot
identity, which is how tests (and operators) can tell exactly which
graph version answered a request.
"""

from __future__ import annotations

import time
from threading import Lock
from typing import TYPE_CHECKING

from repro.exceptions import BadRequestError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.index.local_index import LocalIndex
from repro.service.cache import CandidateCache, ConstraintCache
from repro.service.planner import QueryPlanner
from repro.session import LSCRSession

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.approx.bounds import BoundsIndex
    from repro.shard.partitioner import ShardTopology

__all__ = ["GraphEpoch", "normalize_edge_updates", "validate_edge_updates"]

#: An edge update as carried through the service: name-level triple plus
#: the operation ("add" or "remove") to apply it with.
EdgeUpdate = tuple[str, str, str, str]

#: Operations an update batch may carry per edge.
EDGE_OPS = ("add", "remove")


class GraphEpoch:
    """One immutable serving generation: ``(graph, index, epoch_id)``
    plus the per-generation derived state (planner, candidate cache,
    lazily pooled sessions).

    Nothing here is mutated after publication except the session pool,
    which only *grows* (create-once under its own lock — the same
    pattern the service used before epochs) and the candidate cache,
    which is append-only memoisation of pure functions of the graph.
    """

    __slots__ = (
        "epoch_id",
        "graph",
        "index",
        "planner",
        "candidates",
        "constraints",
        "seed",
        "bounds",
        "topology",
        "fingerprint",
        "created_at",
        "_sessions",
        "_session_lock",
    )

    def __init__(
        self,
        epoch_id: int,
        graph: KnowledgeGraph,
        index: LocalIndex | None,
        planner: QueryPlanner,
        candidates: CandidateCache,
        constraints: ConstraintCache,
        seed: int,
        bounds: "BoundsIndex | None" = None,
    ) -> None:
        self.epoch_id = epoch_id
        self.graph = graph
        self.index = index
        self.planner = planner
        self.candidates = candidates
        self.constraints = constraints
        self.seed = seed
        #: Label-blind reachability upper bound for *this* snapshot
        #: (``repro.approx``); rebuilt whenever the graph changes so the
        #: router's definite-No stays sound across updates and replay.
        self.bounds = bounds
        #: How a sharded service's fleet serves this snapshot — ``(plan,
        #: slice_epoch)``; None on an unsharded one.  Attached by the
        #: sharded prepare seam before the epoch is stored (requests
        #: never see it change), never written after.
        self.topology: "ShardTopology | None" = None
        #: Content digest of the graph this epoch serves; part of the
        #: save/load snapshot identity.
        self.fingerprint = graph.content_fingerprint()
        #: Wall-clock publication instant — the ``repro_epoch_age_seconds``
        #: gauge says how stale the serving snapshot is.
        self.created_at = time.time()
        self._sessions: dict[str, LSCRSession] = {}
        self._session_lock = Lock()

    def __repr__(self) -> str:
        return (
            f"GraphEpoch(id={self.epoch_id}, graph={self.graph.name!r}, "
            f"|V|={self.graph.num_vertices}, |E|={self.graph.num_edges}, "
            f"index={'loaded' if self.index is not None else 'none'})"
        )

    def session(self, algorithm: str) -> LSCRSession:
        """The pooled session for ``algorithm`` (created on first use)."""
        session = self._sessions.get(algorithm)
        if session is not None:
            return session
        with self._session_lock:
            session = self._sessions.get(algorithm)
            if session is None:
                session = LSCRSession(
                    self.graph,
                    algorithm=algorithm,
                    index=self.index if algorithm == "ins" else None,
                    seed=self.seed,
                    constraint_cache=self.constraints,
                    candidate_cache=self.candidates,
                )
                self._sessions[algorithm] = session
        return session

    def describe(self) -> dict:
        """JSON-ready identity for ``/stats`` and snapshot stamping."""
        return {
            "epoch_id": self.epoch_id,
            "fingerprint": self.fingerprint,
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_edges,
            "labels": self.graph.num_labels,
            "created_at": self.created_at,
            "age_seconds": time.time() - self.created_at,
        }


def validate_edge_updates(payload: object, *, max_edges: int) -> list[EdgeUpdate]:
    """Shape-check a ``POST /edges`` JSON body into name-level updates.

    Accepts ``{"edges": [...]}`` where each item is either an object
    ``{"source": s, "label": l, "target": t}`` with an optional
    ``"op": "add" | "remove"`` (default ``"add"``), or a compact array
    ``[s, l, t]`` / ``[s, l, t, op]`` — all strings.  Raises
    :class:`~repro.exceptions.BadRequestError` with the offending
    position for anything else, so clients get field-level diagnostics
    instead of a half-applied batch.  Returns ``(source, label, target,
    op)`` 4-tuples in request order — order matters for mixed batches
    (add-then-remove of the same edge nets to absent; the reverse nets
    to present).
    """
    if not isinstance(payload, dict) or "edges" not in payload:
        raise BadRequestError(
            "update body must be a JSON object with an 'edges' array"
        )
    raw = payload["edges"]
    if not isinstance(raw, list) or not raw:
        raise BadRequestError("'edges' must be a non-empty array")
    if len(raw) > max_edges:
        raise BadRequestError(
            f"update batch of {len(raw)} edges exceeds the limit of {max_edges}"
        )
    updates: list[EdgeUpdate] = []
    for position, item in enumerate(raw):
        where = f"edges[{position}]"
        if isinstance(item, dict):
            missing = [
                field for field in ("source", "label", "target") if field not in item
            ]
            if missing:
                raise BadRequestError(
                    f"{where}: missing field(s) {', '.join(missing)}"
                )
            triple = (item["source"], item["label"], item["target"])
            op = item.get("op", "add")
        elif isinstance(item, list) and len(item) == 3:
            triple = (item[0], item[1], item[2])
            op = "add"
        elif isinstance(item, list) and len(item) == 4:
            triple = (item[0], item[1], item[2])
            op = item[3]
        else:
            raise BadRequestError(
                f"{where}: expected an object with source/label/target "
                "or a [source, label, target(, op)] array"
            )
        if not all(isinstance(part, str) and part for part in triple):
            raise BadRequestError(
                f"{where}: source, label and target must be non-empty strings"
            )
        if op not in EDGE_OPS:
            raise BadRequestError(
                f"{where}: op must be one of {', '.join(EDGE_OPS)} "
                f"(got {op!r})"
            )
        updates.append((*triple, op))
    return updates


def normalize_edge_updates(edges: object) -> list[EdgeUpdate]:
    """Coerce programmatic update batches into ``(s, l, t, op)`` 4-tuples.

    :meth:`~repro.service.app.QueryService.apply_updates` predates edge
    retraction and its callers (tests, WAL replay, the CLI) pass plain
    3-tuples; those are implicit ``"add"``.  4-tuples pass through after
    an op check.  Raises :class:`~repro.exceptions.BadRequestError` on
    anything else so misuse fails loudly rather than half-applying.
    """
    updates: list[EdgeUpdate] = []
    for position, item in enumerate(edges):  # type: ignore[arg-type]
        parts = tuple(item)
        if len(parts) == 3:
            parts = (*parts, "add")
        if len(parts) != 4 or parts[3] not in EDGE_OPS:
            raise BadRequestError(
                f"edges[{position}]: expected (source, label, target) or "
                f"(source, label, target, op) with op in {EDGE_OPS}"
            )
        updates.append(parts)  # type: ignore[arg-type]
    return updates
