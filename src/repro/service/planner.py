"""Query planning: canonicalisation, trivial answers, algorithm choice.

Every request entering the service passes through :class:`QueryPlanner`
before any algorithm runs.  Planning does three jobs:

* **canonicalise** — reduce the request to a canonical cache key:
  stringified endpoints, the sorted label set, and the constraint's
  canonical SPARQL re-rendering, so formatting variants of one query
  share a single :class:`~repro.service.cache.ResultCache` entry.  The
  key deliberately excludes the algorithm: all four algorithms answer
  the same Boolean question (Definition 2.4), so an answer computed by
  one is valid for all;
* **trivially answer** — degenerate queries are decided without a
  search: endpoints missing from the graph, a label set disjoint from
  the graph's label universe (no edge can ever be expanded, so only the
  trivial path ``<s>`` with ``s = t`` remains), a structurally
  unsatisfiable constraint (``V(S, G) = ∅`` implies every answer is
  false), and ``s = t`` with ``s`` satisfying ``S`` (the trivial path
  answers true — README.md, *Semantics and resolved
  under-specifications*).  Note ``s = t`` alone is *not* trivial — a
  cycle through a satisfying vertex may still exist;
* **pick an algorithm** — the configured default, the bidirectional
  ``meet`` kernel (:mod:`repro.core.meet`) unless ``serve --algorithm``
  says otherwise; an explicit per-request override wins after
  validation.  A loaded index does not change the default: ``meet``
  measures cheaper than UIS*, and UIS* cheaper than INS, on every
  workload the ladder runs (README, "Choosing an algorithm"), so the
  paper's UIS, UIS* and INS run when a request or the operator asks for
  them.  Which of its two plans ``meet`` runs depends on ``|V(S, G)|``
  and is the evaluator's call, not made here: planning happens ahead of
  the result cache on every request and takes no ``V(S, G)`` lookup.

Planners are stateless apart from the shared
:class:`~repro.service.cache.ConstraintCache`, hence safe to call from
any number of threads.  What a plan needs that depends on the constraint
alone — its canonical SPARQL, the constants the unsatisfiability rule
probes, a mixed-role variable — lives on the immutable
:class:`~repro.constraints.substructure.SubstructureConstraint` the
cache hands every request that sends the text, computed when it was
parsed; a plan for a repeated constraint is string and tuple work plus
a few table probes against this epoch's graph, and compiles nothing.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.core.algorithms import ALGORITHMS
from repro.core.query import LSCRQuery
from repro.exceptions import BadRequestError, ServiceConfigError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.obs.trace import span
from repro.service.cache import ConstraintCache

__all__ = [
    "CanonicalKey",
    "DEFAULT_ALGORITHM",
    "QueryPlan",
    "QueryPlanner",
    "TRIVIAL",
]

#: What runs when neither the request nor ``serve --algorithm`` names an
#: evaluator (a key of :data:`repro.core.algorithms.ALGORITHMS`).
DEFAULT_ALGORITHM = "meet"

#: ``(source, target, sorted labels, canonical constraint SPARQL)``.
CanonicalKey = tuple[str, str, tuple[str, ...], str]

#: Pseudo-algorithm name carried by plans the planner answered itself.
TRIVIAL = "trivial"


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
    #: True when the request *explicitly* named the algorithm.  Execution
    #: layers that normally route elsewhere (the sharded coordinator)
    #: honour forced plans by running the named session directly.
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
        *,
        has_index: bool = False,
        default_algorithm: str = DEFAULT_ALGORITHM,
    ) -> None:
        if default_algorithm not in ALGORITHMS:
            raise ServiceConfigError(
                f"unknown default algorithm {default_algorithm!r}; "
                f"choose from {tuple(ALGORITHMS)}"
            )
        if default_algorithm == "ins" and not has_index:
            raise ServiceConfigError("default algorithm 'ins' requires a loaded index")
        self.graph = graph
        self.constraints = constraints if constraints is not None else ConstraintCache()
        self.has_index = has_index
        #: What runs when the request does not name an algorithm.
        self.default_algorithm = default_algorithm
        #: ... and the ``reason`` such a plan carries.
        self._default_reason = (
            f"{default_algorithm} is the measured-cheapest evaluator; "
            "request 'ins' to use the index"
            if has_index and default_algorithm == DEFAULT_ALGORITHM
            else f"configured default {default_algorithm!r}"
        )

    # ------------------------------------------------------------------

    def plan(
        self,
        source: Hashable,
        target: Hashable,
        labels: Iterable[str] | LabelConstraint,
        constraint: str | SubstructureConstraint,
        algorithm: str | None = None,
    ) -> QueryPlan:
        """Canonicalise one request and decide how to answer it.

        Raises :class:`~repro.exceptions.BadRequestError` for unusable
        algorithm choices and lets constraint/label parsing errors
        (``ConstraintError``, ``SparqlError``) propagate — callers map
        all of these to 4xx responses.
        """
        with span("plan") as handle:
            plan = self._plan(source, target, labels, constraint, algorithm)
            handle.set(
                algorithm=plan.algorithm,
                reason=plan.reason,
                trivial=plan.is_trivial,
            )
            return plan

    def _plan(
        self,
        source: Hashable,
        target: Hashable,
        labels: Iterable[str] | LabelConstraint,
        constraint: str | SubstructureConstraint,
        algorithm: str | None = None,
    ) -> QueryPlan:
        if not isinstance(labels, LabelConstraint):
            labels = LabelConstraint(labels)
        if not isinstance(constraint, SubstructureConstraint):
            # Catch the blank-text case before the SPARQL parser does:
            # clients get one stable message instead of a lexer error,
            # and nothing is cached for it.
            if not constraint.strip():
                raise BadRequestError(
                    "'constraint' must be a non-empty SPARQL string"
                )
            constraint = self.constraints.get(constraint)
        key: CanonicalKey = (
            str(source),
            str(target),
            tuple(sorted(labels.labels)),
            constraint.to_sparql(),
        )
        chosen = self._choose_algorithm(algorithm)

        graph = self.graph
        if not graph.has_vertex(source) or not graph.has_vertex(target):
            return QueryPlan(
                key=key,
                algorithm=TRIVIAL,
                reason="source or target vertex not in the graph",
                trivial_answer=False,
            )
        if constraint.empty_on(graph):
            return QueryPlan(
                key=key,
                algorithm=TRIVIAL,
                reason="no vertex can satisfy the substructure constraint",
                trivial_answer=False,
            )
        mask = labels.mask_for(graph)
        if source == target and constraint.satisfied_by(graph, graph.vid(source)):
            return QueryPlan(
                key=key,
                algorithm=TRIVIAL,
                reason="source equals target and satisfies the constraint",
                trivial_answer=True,
            )
        if mask == 0:
            return QueryPlan(
                key=key,
                algorithm=TRIVIAL,
                reason="no requested label occurs in the graph",
                trivial_answer=False,
            )
        query = LSCRQuery(
            source=source, target=target, labels=labels, constraint=constraint
        )
        return QueryPlan(
            key=key,
            algorithm=chosen,
            reason=(
                self._default_reason
                if algorithm is None
                else f"requested algorithm {chosen!r}"
            ),
            query=query,
            forced=algorithm is not None,
        )

    # ------------------------------------------------------------------

    def _choose_algorithm(self, requested: str | None) -> str:
        if requested is None:
            return self.default_algorithm
        if requested not in ALGORITHMS:
            raise BadRequestError(
                f"unknown algorithm {requested!r}; choose from {tuple(ALGORITHMS)}"
            )
        if requested == "ins" and not self.has_index:
            raise BadRequestError(
                "algorithm 'ins' requires a loaded index; "
                "start the service with an index or drop the override"
            )
        return requested
