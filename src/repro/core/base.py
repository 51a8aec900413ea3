"""Common driver for the LSCR algorithms.

:class:`LSCRAlgorithm` resolves the query's vertex names and label mask,
times the run, and packages the telemetry every concrete algorithm
produces into a :class:`~repro.core.result.QueryResult`, so UIS / UIS* /
INS / the naive baseline / Meet differ only in their ``_run`` method.  All
algorithms answer the same Boolean question of Definition 2.4 and are
interchangeable; the benchmark harness iterates over them by this
interface.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Sequence, Set

from repro.core.query import LSCRQuery
from repro.core.result import QueryResult
from repro.graph.labeled_graph import KnowledgeGraph

__all__ = ["LSCRAlgorithm", "satisfying_vertices"]


def satisfying_vertices(
    query: LSCRQuery, graph: KnowledgeGraph, candidate_cache: object | None
) -> tuple[Sequence[int], Set[int] | None]:
    """``V(S, G)`` in the SPARQL engine's order, and as a set to probe.

    With a :class:`~repro.service.cache.CandidateCache` both are the
    cached entry's (immutable, shared by every query that reuses the
    constraint).  Without one the engine runs and the set is None: a
    caller with one probe to make scans the list, one that probes per
    vertex builds its own.
    """
    if candidate_cache is not None:
        cached = candidate_cache.get(query.constraint, graph)
        return cached, cached.members
    return query.constraint.satisfying_vertices(graph), None


class LSCRAlgorithm(ABC):
    """Template for answering :class:`LSCRQuery` on one graph."""

    #: Short display name used in result tables ("UIS", "UIS*", "INS", "Meet", ...).
    name: str = "?"

    def __init__(self, graph: KnowledgeGraph) -> None:
        self.graph = graph

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.graph.name!r})"

    def answer(self, query: LSCRQuery) -> QueryResult:
        """Answer ``query``, returning the result with telemetry."""
        source = self.graph.vid(query.source)
        target = self.graph.vid(query.target)
        mask = query.labels.mask_for(self.graph)
        started = time.perf_counter()
        verdict, telemetry = self._run(source, target, mask, query)
        elapsed = time.perf_counter() - started
        return QueryResult(
            answer=verdict,
            algorithm=self.name,
            seconds=elapsed,
            passed_vertices=int(telemetry.get("passed_vertices", 0)),
            scck_calls=int(telemetry.get("scck_calls", 0)),
            vsg_size=int(telemetry.get("vsg_size", -1)),
            vsg_seconds=float(telemetry.get("vsg_seconds", 0.0)),
            lcs_calls=int(telemetry.get("lcs_calls", 0)),
            index_resolutions=int(telemetry.get("index_resolutions", 0)),
        )

    def decide(self, query: LSCRQuery) -> bool:
        """Boolean-only convenience wrapper around :meth:`answer`."""
        return self.answer(query).answer

    @abstractmethod
    def _run(
        self,
        source: int,
        target: int,
        mask: int,
        query: LSCRQuery,
    ) -> tuple[bool, dict[str, float]]:
        """Answer the resolved query; return ``(verdict, telemetry)``.

        Telemetry keys (all optional): ``passed_vertices``,
        ``scck_calls``, ``vsg_size``, ``vsg_seconds``, ``lcs_calls``,
        ``index_resolutions``.
        """
