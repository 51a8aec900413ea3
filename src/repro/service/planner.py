"""Query planning: canonicalisation, trivial answers, algorithm choice.

Every request entering the service passes through :class:`QueryPlanner`
in two steps, split at the result cache:

* :meth:`QueryPlanner.key` — **canonicalise and check** without reading
  the graph.  The request is reduced to its canonical cache key: the
  endpoint names as given (vertex ``1`` and vertex ``'1'`` are two
  vertices, and two keys), the label set, and the constraint's
  canonical SPARQL re-rendering, so formatting variants of one query
  share a single :class:`~repro.service.cache.ResultCache` entry.  The
  key deliberately excludes the algorithm: all four algorithms answer
  the same Boolean question (Definition 2.4), so an answer computed by
  one is valid for all.  Every check that needs no graph runs here too —
  an empty label set, a blank or unparsable constraint, an unknown
  algorithm or ``ins``, which is not served — so each of these 400s is
  raised before the cache is consulted, on a repeat exactly as on a
  first arrival.  (A variable used as both vertex and label is refused
  by the plan, after the endpoint rule; no such key is ever stored.)
  The service answers a key its epoch's result cache holds right away;
* :meth:`QueryPlanner.plan` — **plan**, on a cache miss only:

  * **trivially answer** — degenerate queries are decided without a
    search: endpoints missing from the graph, a label set disjoint from
    the graph's label universe (no edge can ever be expanded, so only
    the trivial path ``<s>`` with ``s = t`` remains), a structurally
    unsatisfiable constraint (``V(S, G) = ∅`` implies every answer is
    false), and ``s = t`` with ``s`` satisfying ``S`` (the trivial path
    answers true — README.md, *Semantics and resolved
    under-specifications*).  Note ``s = t`` alone is *not* trivial — a
    cycle through a satisfying vertex may still exist.  A trivial
    answer is never stored, so a key the result cache holds is never a
    trivial one and the hit needs none of these graph probes;
  * **pick an algorithm** — the bidirectional ``meet`` kernel
    (:mod:`repro.core.meet`) unless the request names an evaluator,
    which then runs after validation.  ``meet`` measures cheaper than
    UIS*, and UIS* cheaper than INS, on every workload the ladder runs
    (README, "Choosing an algorithm"), so the paper's UIS and UIS* run
    when a request asks for them.  INS is not served
    (:data:`SERVED_ALGORITHMS`): its local index lost to UIS* at every
    size measured, and it runs in ``repro query --algorithm ins`` and
    :mod:`repro.bench`.  Which of its two plans ``meet`` runs depends on
    ``|V(S, G)|`` and is the evaluator's call, not made here: a plan
    takes no ``V(S, G)`` lookup.

Planners are stateless apart from the shared
:class:`~repro.service.cache.ConstraintCache`, hence safe to call from
any number of threads.  What a plan needs that depends on the constraint
alone — its canonical SPARQL, the constants the unsatisfiability rule
probes, a mixed-role variable — lives on the immutable
:class:`~repro.constraints.substructure.SubstructureConstraint` the
cache hands every request that sends the text, computed when it was
parsed; a key for a repeated constraint is string and tuple work, a plan
adds a few table probes against this epoch's graph, and neither
compiles anything.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from typing import NamedTuple

from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.core.algorithms import ALGORITHMS
from repro.core.query import LSCRQuery
from repro.exceptions import BadRequestError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.service.cache import ConstraintCache

__all__ = [
    "CanonicalKey",
    "DEFAULT_ALGORITHM",
    "KeyedQuery",
    "QueryPlan",
    "QueryPlanner",
    "SERVED_ALGORITHMS",
    "TRIVIAL",
]

#: What runs when the request names no evaluator (a key of
#: :data:`repro.core.algorithms.ALGORITHMS`).
DEFAULT_ALGORITHM = "meet"

#: The evaluators a request may name: every registered one but INS,
#: whose local index the service does not build.
SERVED_ALGORITHMS = tuple(name for name in ALGORITHMS if name != "ins")

#: ``(source, target, label set, canonical constraint SPARQL)``, the
#: endpoints as the request named them and the labels as the frozenset
#: the request's :class:`LabelConstraint` holds — order and repeats
#: dropped without a sort.
CanonicalKey = tuple[Hashable, Hashable, frozenset[str], str]

#: Pseudo-algorithm name carried by plans the planner answered itself.
TRIVIAL = "trivial"

#: The ``reason`` a plan carries when the request names no algorithm.
_DEFAULT_REASON = f"{DEFAULT_ALGORITHM} is the measured-cheapest evaluator"


class KeyedQuery(NamedTuple):
    """One request, checked and canonicalised (:meth:`QueryPlanner.key`):
    all a result-cache hit needs, and what :meth:`QueryPlanner.plan`
    starts from on a miss."""

    key: CanonicalKey
    labels: LabelConstraint
    constraint: SubstructureConstraint
    #: The evaluator an execution plan runs, and the ``reason`` it gives.
    algorithm: str
    reason: str
    #: True when the request named the algorithm.
    forced: bool


@dataclass(frozen=True)
class QueryPlan:
    """The planner's verdict for one request.

    Either a *trivial* plan (``trivial_answer`` set, ``query`` None —
    nothing to execute) or an *execution* plan (``query`` set,
    ``algorithm`` naming the session to run it on).  ``reason`` is a
    short human-readable account surfaced in responses and logs.
    """

    key: CanonicalKey
    algorithm: str
    reason: str
    query: LSCRQuery | None = None
    trivial_answer: bool | None = None
    #: True when the request *explicitly* named the algorithm: the
    #: service runs the named session directly, past the router.
    forced: bool = False

    @property
    def is_trivial(self) -> bool:
        """True when the planner already decided the answer."""
        return self.trivial_answer is not None


class QueryPlanner:
    """Normalise requests into :class:`QueryPlan`\\ s for one graph."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        constraints: ConstraintCache | None = None,
    ) -> None:
        self.graph = graph
        self.constraints = constraints if constraints is not None else ConstraintCache()

    # ------------------------------------------------------------------

    def key(
        self,
        source: Hashable,
        target: Hashable,
        labels: Iterable[str] | str | LabelConstraint,
        constraint: str | SubstructureConstraint,
        algorithm: str | None = None,
    ) -> KeyedQuery:
        """Canonicalise one request and run every check that does not
        read the graph.

        Raises :class:`~repro.exceptions.BadRequestError` for a blank
        constraint and unusable algorithm choices, and lets constraint /
        label parsing errors (``ConstraintError``, ``SparqlError``)
        propagate — callers map all of these to 4xx responses.
        """
        if algorithm is not None:
            # Before the constraint is parsed: a refused name leaves no
            # trace in any cache.
            if algorithm == "ins":
                raise BadRequestError(
                    "algorithm 'ins' is not served; run it with "
                    "`repro query --algorithm ins` or drop the override"
                )
            if algorithm not in SERVED_ALGORITHMS:
                raise BadRequestError(
                    f"unknown algorithm {algorithm!r}; choose from {SERVED_ALGORITHMS}"
                )
        if not isinstance(labels, LabelConstraint):
            # Adopts the frozenset a decoded request carries
            # (:func:`repro.service.app.validate_spec`).
            labels = LabelConstraint(labels)
        if not isinstance(constraint, SubstructureConstraint):
            # Catch the blank-text case before the SPARQL parser does:
            # clients get one stable message instead of a lexer error,
            # and nothing is cached for it.
            if not constraint or constraint.isspace():
                raise BadRequestError(
                    "'constraint' must be a non-empty SPARQL string"
                )
            constraint = self.constraints.get(constraint)
        key = (source, target, labels.labels, constraint.to_sparql())
        if algorithm is None:
            # ``tuple.__new__`` skips the NamedTuple's Python-level
            # ``__new__``: this line runs on every cached answer.
            return tuple.__new__(
                KeyedQuery,
                (key, labels, constraint, DEFAULT_ALGORITHM, _DEFAULT_REASON, False),
            )
        reason = f"requested algorithm {algorithm!r}"
        return KeyedQuery(key, labels, constraint, algorithm, reason, True)

    def plan(
        self,
        source: Hashable,
        target: Hashable,
        labels: Iterable[str] | str | LabelConstraint,
        constraint: str | SubstructureConstraint,
        algorithm: str | None = None,
        *,
        keyed: KeyedQuery | None = None,
    ) -> QueryPlan:
        """Decide how to answer one request.

        ``keyed`` is the request's :meth:`key` when the caller already
        made it (the service does, to consult its result cache first);
        otherwise it is made here, raising what :meth:`key` raises.
        The graph's rules can still refuse the constraint: a variable
        used as both vertex and label is a ``SparqlError``.
        """
        if keyed is None:
            keyed = self.key(source, target, labels, constraint, algorithm)
        constraint = keyed.constraint
        graph = self.graph
        if not graph.has_vertex(source) or not graph.has_vertex(target):
            return QueryPlan(
                key=keyed.key,
                algorithm=TRIVIAL,
                reason="source or target vertex not in the graph",
                trivial_answer=False,
            )
        if constraint.empty_on(graph):
            return QueryPlan(
                key=keyed.key,
                algorithm=TRIVIAL,
                reason="no vertex can satisfy the substructure constraint",
                trivial_answer=False,
            )
        if source == target and constraint.satisfied_by(graph, graph.vid(source)):
            return QueryPlan(
                key=keyed.key,
                algorithm=TRIVIAL,
                reason="source equals target and satisfies the constraint",
                trivial_answer=True,
            )
        if keyed.labels.mask_for(graph) == 0:
            return QueryPlan(
                key=keyed.key,
                algorithm=TRIVIAL,
                reason="no requested label occurs in the graph",
                trivial_answer=False,
            )
        return QueryPlan(
            key=keyed.key,
            algorithm=keyed.algorithm,
            reason=keyed.reason,
            query=LSCRQuery(
                source=source,
                target=target,
                labels=keyed.labels,
                constraint=constraint,
            ),
            forced=keyed.forced,
        )
