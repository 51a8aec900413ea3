"""Epoch-swapped serving state: everything a query binds to one graph.

Lock-free concurrent answering is sound because nothing a query reads is
ever mutated.  :class:`GraphEpoch` bundles one frozen graph and every
object derived from it (bounds, planner, ``V(S, G)`` cache,
cached answers, session pool) into a single immutable-once-published
unit, and every change publishes a *new* epoch by replacing one
attribute reference.  A request reads ``service._epoch`` exactly once
and runs plan → cache → session against that object — **an answer is
computed from one epoch** — so a swap mid-query is invisible, and an
old-epoch query completing after a swap can only populate the old
epoch's caches.

**One derivation.**  The paper takes ``V(S, G)`` from a SPARQL engine
over a static KG; what keeps the derived structures valid across live
updates is ours, and it is all here.  An epoch is
assembled in two places only — :meth:`GraphEpoch.first` for epoch 0,
:meth:`GraphEpoch.derive` for every later one (update, renumbering,
whole-graph replacement) — by one rule per structure, each
seeing *(parent, change)*:

==================  ===========  ===============================  ===================
structure           same         a change of known edges          any other graph
                    snapshot     (``apply_updates``)              (``replace_graph``)
==================  ===========  ===============================  ===================
bounds              shared       ``BoundsIndex.derive``: adds     rebuilt
                                 closed over exactly, removals
                                 kept as a sound bound until 1 %
                                 of the edges; interval mode:
                                 rebuilt
planner             shared       rebuilt                          rebuilt
``V(S, G)`` cache   shared       ``derive()``: every entry        ``heir()``: empty,
                                 carried by its exact delta       same counters
cached answers      shared       ``heir()``: empty, same          ``heir()``: empty,
                                 counters                         same counters
==================  ===========  ===============================  ===================

The graph itself is the one structure an epoch never derives: a batch
hands it the next snapshot, already derived from the serving one
(:meth:`FrozenGraph.derive <repro.graph.csr.FrozenGraph.derive>`), and
no epoch holds a mutable graph beside it.  Only epoch 0 and a
replacement freeze a graph.

Same snapshot, same answers.  A known change moves ``V(S, G)`` only at
the vertices of matches that use a changed edge
(:meth:`~repro.constraints.substructure.SubstructureConstraint.carried_vertices`),
so the set is carried rather than re-evaluated; cached answers are not,
since a batch that both adds and removes edges can flip any of them.
The bounds are only an upper bound — their No must be definite, their
maybe need not be — so a removal leaves the parent's closure standing
and an add ORs one closure into the components that reach its source.
No epoch holds a local index: the service serves index-free, and INS
runs in ``repro query --algorithm ins`` and :mod:`repro.bench`.

``epoch_id`` is a per-service monotonic integer starting at 0, surfaced
in query metadata, ``/stats``, ``/healthz`` and the snapshot identity so
tests and operators can tell which graph version answered; it names the
epoch and keys nothing.
"""

from __future__ import annotations

import time
from threading import Lock

from repro.approx.bounds import BoundsIndex, build_bounds
from repro.exceptions import BadRequestError
from repro.graph.csr import EdgeChange, FrozenGraph, freeze_graph
from repro.graph.labeled_graph import KnowledgeGraph
from repro.obs.trace import span
from repro.service.cache import CandidateCache, ConstraintCache, ResultCache
from repro.service.options import ServiceOptions
from repro.service.planner import QueryPlanner
from repro.session import LSCRSession

__all__ = [
    "GraphEpoch",
    "normalize_edge_updates",
    "validate_edge_updates",
]

#: An edge update as carried through the service: name-level triple plus
#: the operation ("add" or "remove") to apply it with.
EdgeUpdate = tuple[str, str, str, str]

#: Operations an update batch may carry per edge.
EDGE_OPS = ("add", "remove")

class GraphEpoch:
    """One immutable serving generation: a frozen graph, its id, and
    everything derived from that graph, built by :meth:`first` and
    :meth:`derive` only.

    Nothing here is mutated after publication except the session pool,
    which only *grows* (create-once under its own lock), the caches,
    which are memoisation of pure functions of the graph.
    """

    __slots__ = (
        "epoch_id",
        "graph",
        "derivation",
        "bounds",
        "planner",
        "candidates",
        "results",
        "options",
        "fingerprint",
        "created_at",
        "_sessions",
        "_session_lock",
    )

    def __init__(
        self,
        epoch_id: int,
        graph: FrozenGraph,
        bounds: BoundsIndex,
        planner: QueryPlanner,
        candidates: CandidateCache,
        results: ResultCache,
        options: ServiceOptions,
        carried: dict[str, int] | None = None,
    ) -> None:
        self.epoch_id = epoch_id
        self.graph = graph
        #: How this epoch followed its parent — the ``candidates_carried``
        #: / ``scck_rechecks`` fields of an update summary.
        self.derivation = carried or {"candidates_carried": 0, "scck_rechecks": 0}
        #: Label-blind reachability upper bound, sound for *this*
        #: snapshot (``repro.approx``), so the router's definite-No stays
        #: sound across updates and replay.
        self.bounds = bounds
        self.planner = planner
        #: ``V(S, G)`` per canonical constraint, on this snapshot.
        self.candidates = candidates
        #: Answers computed on this snapshot, keyed by ``plan.key``.
        self.results = results
        self.options = options
        #: Content digest of the graph this epoch serves; part of the
        #: save/load snapshot identity.
        self.fingerprint = graph.content_fingerprint()
        #: Wall-clock publication instant — the ``repro_epoch_age_seconds``
        #: gauge says how stale the serving snapshot is.
        self.created_at = time.time()
        self._sessions: dict[str, LSCRSession] = {}
        self._session_lock = Lock()

    @classmethod
    def first(
        cls,
        graph: KnowledgeGraph,
        constraints: ConstraintCache,
        options: ServiceOptions,
    ) -> "GraphEpoch":
        """Epoch 0: ``graph`` frozen, everything else built new."""
        with span("freeze"):
            frozen = freeze_graph(graph)
        size = options.cache_size  # 0: V(S, G) is not memoised either
        return cls(
            0,
            frozen,
            _bounds(frozen, options),
            QueryPlanner(frozen, constraints),
            CandidateCache(max_size=size),
            ResultCache(max_size=size),
            options,
        )

    def derive(
        self,
        frozen: FrozenGraph,
        epoch_id: int,
        change: EdgeChange | None = None,
    ) -> "GraphEpoch":
        """Assemble — without storing — the epoch that serves ``frozen``
        after this one, by the module docstring's rules.

        ``frozen`` is this epoch's own snapshot (a renumbering) or any
        other snapshot: one derived from this
        epoch's by a batch whose net ``change`` — ``(added, removed)``
        id triples — is given
        (:meth:`FrozenGraph.derive <repro.graph.csr.FrozenGraph.derive>`),
        or, ``change`` None, a replacement about which nothing is known.
        """
        constraints, options = self.planner.constraints, self.options
        if frozen is self.graph:
            return GraphEpoch(
                epoch_id, frozen, self.bounds,
                self.planner, self.candidates, self.results, options,
            )
        if change is None:
            candidates, carried = self.candidates.heir(), None
        else:
            with span("candidate-carry") as carry_span:
                candidates, carried = self.candidates.derive(
                    self.graph, frozen, *change
                )
                carry_span.set(**carried)
        return GraphEpoch(
            epoch_id,
            frozen,
            _bounds(frozen, options, self.bounds, change),
            QueryPlanner(frozen, constraints),
            candidates,
            self.results.heir(),
            options,
            carried,
        )

    def __repr__(self) -> str:
        return (
            f"GraphEpoch(id={self.epoch_id}, graph={self.graph.name!r}, "
            f"|V|={self.graph.num_vertices}, |E|={self.graph.num_edges})"
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
                    seed=self.options.seed,
                    constraint_cache=self.planner.constraints,
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


def _bounds(
    graph: FrozenGraph,
    options: ServiceOptions,
    parent: BoundsIndex | None = None,
    change: EdgeChange | None = None,
) -> BoundsIndex:
    """One snapshot's label-blind upper bound: derived from the
    ``parent``'s by the ``change`` that led here, else built."""
    with span("bounds") as bounds_span:
        if parent is None or change is None:
            bounds = build_bounds(graph, seed=options.seed)
        else:
            bounds = parent.derive(graph, *change)
        bounds_span.set(
            components=bounds.component_count,
            derived=bounds.derived,
            removed_since_build=bounds.removed_since_build,
        )
    return bounds


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
