"""High-level session facade for answering many queries on one graph.

The individual algorithm classes are deliberately low-level (one object
per algorithm, explicit index management).  :class:`LSCRSession` is the
convenience layer a downstream application would use: pick an algorithm
by name, build the local index once (for INS), reuse parsed constraints,
and expose ask / answer / explain in one place.

>>> from repro.datasets.toy import figure3_graph
>>> session = LSCRSession(figure3_graph(), algorithm="uis")
>>> session.ask("v0", "v4", ["likes", "follows"],
...             "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }")
True
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.core.algorithms import ALGORITHMS, make_algorithm
from repro.core.query import LSCRQuery
from repro.core.result import QueryResult
from repro.core.witness import WitnessPath, find_witness
from repro.exceptions import ReproError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.index.local_index import LocalIndex, build_local_index
from repro.service.cache import CandidateCache, ConstraintCache

__all__ = ["LSCRSession"]


class LSCRSession:
    """One graph + one algorithm + cached constraints, ready to query."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        algorithm: str = "ins",
        index: LocalIndex | None = None,
        seed: int | None = None,
        landmark_count: int | None = None,
        constraint_cache: ConstraintCache | None = None,
        candidate_cache: CandidateCache | None = None,
    ) -> None:
        if algorithm not in ALGORITHMS:
            raise ReproError(
                f"unknown algorithm {algorithm!r}; choose from {tuple(ALGORITHMS)}"
            )
        self.graph = graph
        self.algorithm_name = algorithm
        # Seed rule: every source of randomness in the session — landmark
        # selection for the INS index build and the candidate shuffle of
        # the evaluators that take one (UIS*/INS, the paper's "disordered
        # set") — derives from the single ``seed`` argument, with ``None``
        # meaning the deterministic default 0.  Two sessions constructed
        # with equal arguments therefore build identical indexes and
        # return identical Boolean answers.  A shuffle rng is shared
        # across queries, so the traversal-order telemetry of UIS*/INS
        # (passed_vertices and friends) is reproducible only while the
        # session answers one query at a time: when threads share it,
        # their scheduling decides which query consumes which rng draws.
        # An evaluator that declares no ``rng`` (UIS, naive, the serving
        # default "meet") gets none and shares nothing mutable between
        # queries.
        self.seed: int = 0 if seed is None else seed
        self._constraint_cache = (
            constraint_cache if constraint_cache is not None else ConstraintCache()
        )
        #: Shared V(S,G) memo (the service passes its own so every pooled
        #: session reuses one computation per constraint).
        self._candidate_cache = candidate_cache
        if algorithm == "ins" and index is None:
            index = build_local_index(graph, k=landmark_count, rng=self.seed)
        self.index: LocalIndex | None = index if algorithm == "ins" else None
        self._algorithm = make_algorithm(
            algorithm,
            graph,
            seed=self.seed,
            index=self.index,
            candidate_cache=candidate_cache,
        )

    def __repr__(self) -> str:
        return f"LSCRSession({self.graph.name!r}, algorithm={self.algorithm_name!r})"

    # ------------------------------------------------------------------

    def _as_constraint(
        self, constraint: str | SubstructureConstraint
    ) -> SubstructureConstraint:
        if isinstance(constraint, SubstructureConstraint):
            return constraint
        return self._constraint_cache.get(constraint)

    def make_query(
        self,
        source: Hashable,
        target: Hashable,
        labels: Iterable[str] | LabelConstraint,
        constraint: str | SubstructureConstraint,
    ) -> LSCRQuery:
        """Build an :class:`LSCRQuery` with constraint-text caching."""
        if not isinstance(labels, LabelConstraint):
            labels = LabelConstraint(labels)
        return LSCRQuery(
            source=source,
            target=target,
            labels=labels,
            constraint=self._as_constraint(constraint),
        )

    # ------------------------------------------------------------------

    def answer(self, query: LSCRQuery) -> QueryResult:
        """Answer a prepared query with full telemetry."""
        return self._algorithm.answer(query)

    def ask(
        self,
        source: Hashable,
        target: Hashable,
        labels: Iterable[str] | LabelConstraint,
        constraint: str | SubstructureConstraint,
    ) -> bool:
        """One-shot Boolean answer."""
        return self.answer(self.make_query(source, target, labels, constraint)).answer

    def answer_many(self, queries: Iterable[LSCRQuery]) -> list[QueryResult]:
        """Answer a batch of prepared queries, one after another, results
        in input order: ``[self.answer(query) for query in queries]``.

        The evaluators are Python, so under the interpreter lock a
        thread pool would only make the searches take turns; the
        service's batch path
        (:class:`~repro.service.executor.BatchExecutor`) has none either.
        """
        return [self.answer(query) for query in queries]

    def explain(self, query: LSCRQuery) -> WitnessPath | None:
        """A witness path for a true query (None when false)."""
        return find_witness(self.graph, query)
