"""High-level SPARQL engine facade.

This is the component the paper assumes as a substrate for UIS* and INS
(Section 4: "we could obtain V(S, G) by implementing SPARQL engines").
The engine wraps one graph, caches parsed queries, and exposes:

* :meth:`SparqlEngine.select` — solutions with vertex/label *names*;
* :meth:`SparqlEngine.select_ids` — solutions with raw ids (algorithms);
* :meth:`SparqlEngine.ask` — satisfiability, optionally with pre-bound
  variables (this is ``SCck`` when ``?x`` is bound to a candidate);
* :meth:`SparqlEngine.satisfying_vertices` — the paper's ``V(S, G)``.

The paper's engine ([20]) has recall knobs ``UNIMax``/``Max``/``Eδ``; the
experiments set them so the full exact answer set is returned, which is
exactly what this exact evaluator produces (README.md, *Semantics and
resolved under-specifications*: down-scaling).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import SparqlEvaluationError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.sparql.ast import AskQuery, SelectQuery, TriplePattern, Var
from repro.sparql.evaluator import bgp_is_satisfiable, evaluate_bgp
from repro.sparql.parser import parse_query

__all__ = ["SparqlEngine"]

_Patterns = tuple[TriplePattern, ...]


class SparqlEngine:
    """Exact SELECT/ASK evaluation over one :class:`KnowledgeGraph`."""

    def __init__(self, graph: KnowledgeGraph) -> None:
        self.graph = graph
        self._parse_cache: dict[str, SelectQuery | AskQuery] = {}

    def __repr__(self) -> str:
        return f"SparqlEngine({self.graph!r})"

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------

    def _as_query(self, query: str | SelectQuery | AskQuery) -> SelectQuery | AskQuery:
        if isinstance(query, (SelectQuery, AskQuery)):
            return query
        cached = self._parse_cache.get(query)
        if cached is None:
            cached = parse_query(query)
            self._parse_cache[query] = cached
        return cached

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def select_ids(
        self,
        query: str | SelectQuery,
        bindings: dict[str, int] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, int]]:
        """Solutions projected to the SELECT variables, as ids.

        ``DISTINCT`` is honoured after projection, as in SPARQL.
        """
        parsed = self._as_query(query)
        if not isinstance(parsed, SelectQuery):
            raise SparqlEvaluationError("select_ids needs a SELECT query")
        projection = [var.name for var in parsed.effective_projection()]
        results: list[dict[str, int]] = []
        seen: set[tuple[int, ...]] = set()
        for solution in evaluate_bgp(self.graph, parsed.patterns, bindings):
            row = {name: solution[name] for name in projection}
            if parsed.distinct:
                key = tuple(row[name] for name in projection)
                if key in seen:
                    continue
                seen.add(key)
            results.append(row)
            if limit is not None and len(results) >= limit:
                break
        return results

    def select(
        self,
        query: str | SelectQuery,
        bindings: dict[str, int] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, object]]:
        """Like :meth:`select_ids` but values converted to names.

        Variables in predicate position decode through the label table,
        all others through the vertex table.
        """
        parsed = self._as_query(query)
        if not isinstance(parsed, SelectQuery):
            raise SparqlEvaluationError("select needs a SELECT query")
        label_vars = _label_position_variables(parsed.patterns)
        rows = self.select_ids(parsed, bindings, limit)
        decoded: list[dict[str, object]] = []
        for row in rows:
            decoded.append(
                {
                    name: (
                        self.graph.label_name(value)
                        if name in label_vars
                        else self.graph.name_of(value)
                    )
                    for name, value in row.items()
                }
            )
        return decoded

    def ask(
        self,
        query: str | AskQuery | SelectQuery | _Patterns | list[TriplePattern],
        bindings: dict[str, int] | None = None,
    ) -> bool:
        """Satisfiability of a query or bare pattern list."""
        if isinstance(query, (tuple, list)):
            return bgp_is_satisfiable(self.graph, query, bindings)
        parsed = self._as_query(query)
        return bgp_is_satisfiable(self.graph, parsed.patterns, bindings)

    # ------------------------------------------------------------------
    # the paper's V(S, G)
    # ------------------------------------------------------------------

    def satisfying_vertices(
        self,
        query: str | SelectQuery,
        variable: str = "x",
    ) -> list[int]:
        """``V(S, G)``: distinct ids of ``?variable`` over all solutions.

        Results are returned as a list in first-solution order — the
        paper treats the elements of ``V(S, G)`` as *disordered*
        (Section 4), and UIS* consumes them in whatever order the engine
        produced; INS re-orders them with its priority heap.
        """
        parsed = self._as_query(query)
        if not isinstance(parsed, SelectQuery):
            raise SparqlEvaluationError("satisfying_vertices needs a SELECT query")
        names = [var.name for var in parsed.effective_projection()]
        if variable not in names:
            raise SparqlEvaluationError(
                f"?{variable} is not projected by the constraint query"
            )
        ordered: list[int] = []
        seen: set[int] = set()
        for solution in evaluate_bgp(self.graph, parsed.patterns):
            value = solution[variable]
            if value not in seen:
                seen.add(value)
                ordered.append(value)
        return ordered


def _label_position_variables(patterns: Iterable[TriplePattern]) -> set[str]:
    """Names of variables that occur in predicate position."""
    names: set[str] = set()
    for pattern in patterns:
        if isinstance(pattern.predicate, Var):
            names.add(pattern.predicate.name)
    return names
