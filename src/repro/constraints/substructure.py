"""Substructure constraints (Definition 2.2) and the ``SCck`` test.

A substructure constraint ``S = (?x, V_S, E_S, E_?)`` consists of a
designated variable ``?x``, concrete vertices ``V_S``, concrete edges
``E_S`` among them, and variable edges ``E_?`` each having at least one
variable endpoint — with ``?x`` required to occur in some element of
``E_?``.  Section 2 of the paper notes the equivalence with SPARQL basic
graph patterns (``S0`` ≡ ``SELECT ?x WHERE { ?x <friendOf> v3 . v3
<likes> ?y . }``), and Sections 4–5 exploit it: ``V(S, G)`` is obtained
from a SPARQL engine.

This module represents a constraint as a BGP plus the designated
variable and implements both uses the paper makes of it:

* :meth:`SubstructureConstraint.satisfied_by` / :class:`SubstructureChecker`
  — the per-vertex test ``SCck(v, S)`` used by UIS (Algorithm 1);
* :meth:`SubstructureConstraint.satisfying_vertices` — ``V(S, G)`` used
  by UIS* and INS;
* :meth:`SubstructureConstraint.carried_vertices` — ``V(S, G')`` from
  ``V(S, G)`` and the edges ``G → G'`` changed, which is how a serving
  epoch keeps the set across a live update (the paper's KG is static).

Semantics of ``E_?`` (README.md, *Semantics and resolved
under-specifications*): SPARQL semantics are adopted —
every pattern must match at least one edge; ``u`` satisfies ``S`` iff the
BGP with ``?x := u`` has a solution.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import ConstraintError, SparqlEvaluationError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.sparql.ast import SelectQuery, TriplePattern, Var
from repro.sparql.evaluator import (
    CompiledPattern,
    bgp_is_satisfiable,
    check_variable_roles,
    compile_patterns,
    evaluate_bgp,
)
from repro.sparql.parser import parse_select

__all__ = ["SubstructureConstraint", "SubstructureChecker"]

#: An edge as ``(source id, label id, target id)``.
EdgeIds = tuple[int, int, int]


class SubstructureConstraint:
    """A substructure constraint as a BGP with designated variable ``?x``.

    Immutable, and shared: the service's constraint cache hands every
    request that sends one text the same object.  So whatever depends on
    the patterns alone — the canonical SPARQL text, the hash, the
    constants :meth:`empty_on` probes, a mixed-role variable — is worked
    out here, once, and a request that reuses the constraint reads it.
    """

    __slots__ = (
        "patterns",
        "variable",
        "_sparql",
        "_hash",
        "_vertex_constants",
        "_label_constants",
        "_role_error",
    )

    def __init__(
        self,
        patterns: Iterable[TriplePattern],
        variable: str = "x",
    ) -> None:
        self.patterns: tuple[TriplePattern, ...] = tuple(patterns)
        self.variable = variable
        self._validate()
        self._sparql = str(self.to_select())
        self._hash = hash((self.patterns, variable))
        self._vertex_constants = tuple(dict.fromkeys(
            term
            for pattern in self.patterns
            for term in (pattern.subject, pattern.object)
            if not isinstance(term, Var)
        ))
        self._label_constants = tuple(dict.fromkeys(
            pattern.predicate
            for pattern in self.patterns
            if not isinstance(pattern.predicate, Var)
        ))
        #: The message, not the exception: raising one instance from
        #: many requests would grow its traceback without bound.
        self._role_error: str | None = None
        try:
            check_variable_roles(self.patterns)
        except SparqlEvaluationError as error:
            self._role_error = str(error)

    def _validate(self) -> None:
        if not self.patterns:
            raise ConstraintError("a substructure constraint needs at least one pattern")
        target = Var(self.variable)
        occurs = any(target in pattern.variables() for pattern in self.patterns)
        if not occurs:
            raise ConstraintError(
                f"designated variable ?{self.variable} does not occur in the pattern "
                "(Definition 2.2 requires ?x to appear in E_?)"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_sparql(cls, text: str, variable: str | None = None) -> "SubstructureConstraint":
        """Parse a ``SELECT ?x WHERE { ... }`` constraint (Table 3 style).

        When ``variable`` is omitted, the single projected variable is
        taken as the designated ``?x``.
        """
        query = parse_select(text)
        if variable is None:
            projection = query.effective_projection()
            if len(projection) != 1:
                raise ConstraintError(
                    "constraint query must project exactly one variable "
                    f"(got {len(projection)}); pass variable= to disambiguate"
                )
            variable = projection[0].name
        return cls(query.patterns, variable)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def to_select(self) -> SelectQuery:
        """The constraint as ``SELECT DISTINCT ?x WHERE { ... }``."""
        return SelectQuery(
            projection=(Var(self.variable),),
            patterns=self.patterns,
            distinct=True,
        )

    def to_sparql(self) -> str:
        """The SPARQL text of :meth:`to_select` (round-trips via parser)."""
        return self._sparql

    @property
    def size(self) -> int:
        """Pattern count — the ``|V_S| + |E_S| + |E_?|`` cost driver."""
        return len(self.patterns)

    def variables(self) -> tuple[Var, ...]:
        """All variables of the pattern (``?x`` first if present)."""
        ordered: list[Var] = []
        target = Var(self.variable)
        for pattern in self.patterns:
            for var in pattern.variables():
                if var not in ordered:
                    ordered.append(var)
        if target in ordered:
            ordered.remove(target)
            ordered.insert(0, target)
        return tuple(ordered)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SubstructureConstraint):
            return self.patterns == other.patterns and self.variable == other.variable
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SubstructureConstraint({self.to_sparql()!r})"

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def empty_on(self, graph: KnowledgeGraph) -> bool:
        """True when a constant of the pattern is absent from ``graph``,
        so ``V(S, G) = ∅`` before anything is evaluated.

        Says what ``compile_patterns(graph, self.patterns) is None``
        says, by one table probe per distinct constant, and raises the
        same :class:`~repro.exceptions.SparqlEvaluationError` for a
        variable used as vertex and label.
        """
        if self._role_error is not None:
            raise SparqlEvaluationError(self._role_error)
        return not (
            all(map(graph.has_vertex, self._vertex_constants))
            and all(map(graph.labels.__contains__, self._label_constants))
        )

    def satisfied_by(self, graph: KnowledgeGraph, vertex_id: int) -> bool:
        """``SCck(v, S)``: does ``vertex_id`` satisfy the constraint?"""
        return bgp_is_satisfiable(graph, self.patterns, {self.variable: vertex_id})

    def satisfying_vertices(self, graph: KnowledgeGraph) -> list[int]:
        """``V(S, G)``: distinct satisfying vertex ids, first-seen order."""
        ordered: list[int] = []
        seen: set[int] = set()
        for solution in evaluate_bgp(graph, self.patterns):
            value = solution[self.variable]
            if value not in seen:
                seen.add(value)
                ordered.append(value)
        return ordered

    def carried_vertices(
        self,
        vertices: Iterable[int],
        old: KnowledgeGraph,
        new: KnowledgeGraph,
        added: Iterable[EdgeIds],
        removed: Iterable[EdgeIds],
    ) -> tuple[list[int], int]:
        """``V(S, new)`` from ``vertices`` = ``V(S, old)`` and the net
        change between the two graphs, plus how many ``SCck`` re-checks
        that took.

        ``added`` are the id triples present in ``new`` only, ``removed``
        those present in ``old`` only; both graphs share their ids.  Let
        ``C`` be the ``?x`` of every match that uses a changed edge —
        removed edges matched on ``old``, added ones on ``new``.  Then
        ``V(S, new) = (V(S, old) − C) ∪ {x ∈ C : SCck(x) on new}``: a
        vertex outside ``C`` keeps every match it had and gains none.

        Exact only because a constraint is a plain BGP, whose matches are
        monotone in the edge set; the parser rejects every non-monotone
        SPARQL construct (``FILTER``, ``OPTIONAL``, ``MINUS``, ``UNION``,
        ``BIND``, ``VALUES``, ``NOT EXISTS`` —
        ``tests/sparql/test_parser.py::test_non_monotone_constructs_are_rejected``).
        A language that admits one of them needs a different rule here.
        """
        changed = self._matched_through(old, removed) | self._matched_through(
            new, added
        )
        kept = [vertex for vertex in vertices if vertex not in changed]
        kept.extend(
            vertex for vertex in sorted(changed) if self.satisfied_by(new, vertex)
        )
        return kept, len(changed)

    def _matched_through(
        self, graph: KnowledgeGraph, edges: Iterable[EdgeIds]
    ) -> set[int]:
        """``?x`` of every solution on ``graph`` that maps some pattern
        onto one of ``edges`` (each an edge of ``graph``)."""
        found: set[int] = set()
        edges = tuple(edges)
        compiled = compile_patterns(graph, self.patterns) if edges else None
        if compiled is None:
            return found
        for edge in edges:
            for pattern in compiled:
                binding = _pin(pattern, edge)
                if binding is None:
                    continue
                pinned = binding.get(self.variable)
                if pinned is not None:  # one solution decides it
                    if pinned not in found and bgp_is_satisfiable(
                        graph, self.patterns, binding
                    ):
                        found.add(pinned)
                    continue
                for solution in evaluate_bgp(graph, self.patterns, binding):
                    found.add(solution[self.variable])
        return found


def _pin(pattern: CompiledPattern, edge: EdgeIds) -> dict[str, int] | None:
    """The bindings that map ``pattern`` onto ``edge``, or None when a
    constant disagrees or a repeated variable would bind two values."""
    binding: dict[str, int] = {}
    for (kind, term), value in zip(
        (pattern.subject, pattern.predicate, pattern.object), edge
    ):
        if kind == "id":
            if term != value:
                return None
        elif binding.setdefault(term, value) != value:  # type: ignore[arg-type]
            return None
    return binding


class SubstructureChecker:
    """Compiled per-graph ``SCck``: the hot-loop form used by UIS.

    Compiles the pattern once, counts invocations (the paper's complexity
    analysis bounds ``SCck`` calls by ``|V|``), and memoises verdicts —
    UIS may ask about the same vertex again after a ``close`` upgrade.
    """

    __slots__ = ("graph", "constraint", "calls", "_unsatisfiable", "_cache")

    def __init__(self, graph: KnowledgeGraph, constraint: SubstructureConstraint) -> None:
        self.graph = graph
        self.constraint = constraint
        self.calls = 0
        self._cache: dict[int, bool] = {}
        # Compile eagerly so a structurally-empty constraint short-circuits
        # every later check.
        self._unsatisfiable = compile_patterns(graph, constraint.patterns) is None

    def __call__(self, vertex_id: int) -> bool:
        self.calls += 1
        if self._unsatisfiable:
            return False
        cached = self._cache.get(vertex_id)
        if cached is None:
            cached = bgp_is_satisfiable(
                self.graph,
                self.constraint.patterns,
                {self.constraint.variable: vertex_id},
            )
            self._cache[vertex_id] = cached
        return cached
