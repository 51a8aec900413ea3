"""Basic-graph-pattern evaluation over a :class:`KnowledgeGraph`.

The evaluator is an exact backtracking join: at every recursion step it
picks the remaining triple pattern with the *cheapest actual candidate
set* given the bindings accumulated so far (bound subject + constant
predicate → one adjacency list; constant predicate only → per-label edge
list; and so on).  Because selection is dynamic, the classic worst cases
of static join orders (cartesian explosions on star patterns) do not
arise for the constraint shapes used in the paper (Table 3, Section 6.2).

Variables range over vertices when they occur in subject/object position
and over labels when they occur in predicate position; one variable may
not do both (checked at compile time — ids of the two spaces are
unrelated ints).

Bindings map variable *names* (without ``?``) to vertex ids / label ids.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.exceptions import SparqlEvaluationError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.graph.labels import iter_mask_bits
from repro.sparql.ast import TriplePattern, Var

__all__ = [
    "CompiledPattern",
    "check_variable_roles",
    "compile_patterns",
    "evaluate_bgp",
    "bgp_is_satisfiable",
]


class CompiledPattern:
    """One triple pattern with constants resolved to graph ids.

    Each slot is either ``("id", int)`` or ``("var", name)``.  A pattern
    whose constant is absent from the graph is *unsatisfiable*, which
    makes the whole BGP empty.
    """

    __slots__ = ("subject", "predicate", "object", "unsatisfiable")

    def __init__(self, graph: KnowledgeGraph, pattern: TriplePattern) -> None:
        self.unsatisfiable = False
        self.subject = self._compile_vertex(graph, pattern.subject)
        self.predicate = self._compile_label(graph, pattern.predicate)
        self.object = self._compile_vertex(graph, pattern.object)

    def _compile_vertex(self, graph: KnowledgeGraph, term) -> tuple[str, object]:
        if isinstance(term, Var):
            return ("var", term.name)
        if graph.has_vertex(term):
            return ("id", graph.vid(term))
        self.unsatisfiable = True
        return ("id", -1)

    def _compile_label(self, graph: KnowledgeGraph, term) -> tuple[str, object]:
        if isinstance(term, Var):
            return ("var", term.name)
        if term in graph.labels:
            return ("id", graph.labels.id_of(term))
        self.unsatisfiable = True
        return ("id", -1)


def check_variable_roles(
    patterns: tuple[TriplePattern, ...] | list[TriplePattern],
) -> None:
    """Raise :class:`SparqlEvaluationError` if a variable is used in both
    vertex and predicate position (a property of the patterns alone)."""
    is_label: dict[str, bool] = {}
    for pattern in patterns:
        for term, label_slot in (
            (pattern.subject, False),
            (pattern.predicate, True),
            (pattern.object, False),
        ):
            if (
                isinstance(term, Var)
                and is_label.setdefault(term.name, label_slot) != label_slot
            ):
                raise SparqlEvaluationError(
                    f"variable ?{term.name} is used both as a vertex and as a label"
                )


def compile_patterns(
    graph: KnowledgeGraph, patterns: tuple[TriplePattern, ...] | list[TriplePattern]
) -> list[CompiledPattern] | None:
    """Compile a BGP; ``None`` means provably empty (missing constant).

    Raises :class:`SparqlEvaluationError` if a variable is used in both
    vertex and predicate position.
    """
    check_variable_roles(patterns)
    compiled = [CompiledPattern(graph, p) for p in patterns]
    if any(p.unsatisfiable for p in compiled):
        return None
    return compiled


def evaluate_bgp(
    graph: KnowledgeGraph,
    patterns: tuple[TriplePattern, ...] | list[TriplePattern],
    bindings: dict[str, int] | None = None,
    limit: int | None = None,
) -> Iterator[dict[str, int]]:
    """Yield all solution bindings of the BGP (ids), up to ``limit``.

    ``bindings`` pre-binds variables (used by ``SCck``: bind ``?x`` to a
    candidate vertex and test satisfiability).  The yielded dicts are
    fresh copies safe to retain.
    """
    compiled = compile_patterns(graph, patterns)
    if compiled is None:
        return
    state = dict(bindings) if bindings else {}
    remaining = list(compiled)
    count = 0
    for solution in _match(graph, remaining, state):
        yield dict(solution)
        count += 1
        if limit is not None and count >= limit:
            return


def bgp_is_satisfiable(
    graph: KnowledgeGraph,
    patterns: tuple[TriplePattern, ...] | list[TriplePattern],
    bindings: dict[str, int] | None = None,
) -> bool:
    """True iff the BGP has at least one solution (short-circuits)."""
    for _ in evaluate_bgp(graph, patterns, bindings, limit=1):
        return True
    return False


# ----------------------------------------------------------------------
# backtracking join
# ----------------------------------------------------------------------


def _match(
    graph: KnowledgeGraph,
    remaining: list[CompiledPattern],
    bindings: dict[str, int],
) -> Iterator[dict[str, int]]:
    if not remaining:
        yield bindings
        return
    index = _cheapest_pattern(graph, remaining, bindings)
    pattern = remaining[index]
    rest = remaining[:index] + remaining[index + 1 :]
    for new_vars in _pattern_candidates(graph, pattern, bindings):
        for name, value in new_vars:
            bindings[name] = value
        yield from _match(graph, rest, bindings)
        for name, _ in new_vars:
            del bindings[name]


def _slot_value(slot: tuple[str, object], bindings: dict[str, int]) -> int | None:
    kind, value = slot
    if kind == "id":
        return value  # type: ignore[return-value]
    return bindings.get(value)  # type: ignore[arg-type]


def _estimate_cost(
    graph: KnowledgeGraph, pattern: CompiledPattern, bindings: dict[str, int]
) -> int:
    s = _slot_value(pattern.subject, bindings)
    p = _slot_value(pattern.predicate, bindings)
    o = _slot_value(pattern.object, bindings)
    if s is not None and p is not None and o is not None:
        return 0  # existence check
    if s is not None and p is not None:
        # One count, no copy of the group: on a frozen graph a miss is
        # one bitmask AND, so provably-empty patterns cost 0 and are
        # picked first — the join backtracks immediately instead of
        # expanding siblings.
        return graph.out_label_count(s, p)
    if o is not None and p is not None:
        return graph.in_label_count(o, p)
    if s is not None and o is not None:
        return graph.out_degree(s)  # enumerate labels between two vertices
    if s is not None:
        return graph.out_degree(s)
    if o is not None:
        return graph.in_degree(o)
    if p is not None:
        return graph.label_frequency(p)
    return graph.num_edges  # fully unbound: scan everything


def _cheapest_pattern(
    graph: KnowledgeGraph,
    remaining: list[CompiledPattern],
    bindings: dict[str, int],
) -> int:
    best_index = 0
    best_cost = None
    for index, pattern in enumerate(remaining):
        cost = _estimate_cost(graph, pattern, bindings)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_index = index
            if cost == 0:
                break
    return best_index


def _pattern_candidates(
    graph: KnowledgeGraph,
    pattern: CompiledPattern,
    bindings: dict[str, int],
) -> Iterator[list[tuple[str, int]]]:
    """Yield lists of *new* variable bindings that satisfy the pattern.

    Repeated variables inside one pattern (``?x l ?x``) are handled by
    binding the first occurrence and letting the consistency check on the
    second occurrence filter candidates.
    """
    s = _slot_value(pattern.subject, bindings)
    p = _slot_value(pattern.predicate, bindings)
    o = _slot_value(pattern.object, bindings)
    s_var = pattern.subject[1] if pattern.subject[0] == "var" and s is None else None
    p_var = pattern.predicate[1] if pattern.predicate[0] == "var" and p is None else None
    o_var = pattern.object[1] if pattern.object[0] == "var" and o is None else None

    # Same unbound variable in subject and object position.
    same_so = s_var is not None and s_var == o_var

    if s is not None and p is not None and o is not None:
        if graph.has_edge(s, p, o):
            yield []
        return

    if s is not None and p is not None:  # o unbound
        # On a frozen graph this is an O(1) mask reject or a contiguous
        # CSR label-slice — the hottest shape SCck produces (?x bound).
        for t in graph.out_by_label(s, p):
            yield [(o_var, t)]  # type: ignore[list-item]
        return

    if o is not None and p is not None:  # s unbound
        for src in graph.in_by_label(o, p):
            yield [(s_var, src)]  # type: ignore[list-item]
        return

    if s is not None and o is not None:  # p unbound
        # One edge-set probe per distinct label on ``s`` instead of a
        # scan of every out-edge.
        for label_id in iter_mask_bits(graph.labels_between(s, o)):
            yield [(p_var, label_id)]  # type: ignore[list-item]
        return

    if s is not None:  # p and o unbound
        for label_id, t in graph.out_edges(s):
            if p_var is not None and o_var is not None:
                yield [(p_var, label_id), (o_var, t)]
            elif o_var is not None:
                yield [(o_var, t)]
            else:
                yield [(p_var, label_id)]  # type: ignore[list-item]
        return

    if o is not None:  # p and s unbound
        for label_id, src in graph.in_edges(o):
            if p_var is not None and s_var is not None:
                yield [(p_var, label_id), (s_var, src)]
            elif s_var is not None:
                yield [(s_var, src)]
            else:
                yield [(p_var, label_id)]  # type: ignore[list-item]
        return

    if p is not None:  # s and o unbound
        for src, t in graph.edges_with_label(p):
            if same_so:
                if src == t:
                    yield [(s_var, src)]  # type: ignore[list-item]
            elif s_var is not None and o_var is not None:
                yield [(s_var, src), (o_var, t)]
            else:  # pragma: no cover - both were bound, handled above
                yield []
        return

    # Everything unbound: scan all edges.
    for src, label_id, t in graph.edges():
        new: list[tuple[str, int]] = []
        if same_so:
            if src != t:
                continue
            new.append((s_var, src))  # type: ignore[arg-type]
        else:
            if s_var is not None:
                new.append((s_var, src))
            if o_var is not None:
                new.append((o_var, t))
        if p_var is not None:
            new.append((p_var, label_id))
        yield new
