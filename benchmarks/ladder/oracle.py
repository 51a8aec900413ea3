"""The benchmark's own LSCR oracle.

``Q = (s, t, L, S)`` is true iff some vertex ``v`` in ``V(S, G)`` has an
``L``-path from ``s`` and an ``L``-path to ``t`` (``v`` may be ``s`` or
``t``).  The oracle answers that definition directly with two plain
breadth-first closures over the dict-backed :class:`KnowledgeGraph` — no
CSR snapshot, no index, no ``close`` surjection, none of the code the
server's evaluators run — so agreement with the server is evidence, not
tautology.  ``core.uis.UIS`` was the first choice but costs 40 ms per
search-heavy query at the benchmark's size, more than the server itself;
``test_ladder.py`` checks this oracle against it.

``V(S, G)`` comes from the repo's SPARQL engine (the constraints are
arbitrary basic graph patterns); it is recomputed whenever the graph is
mutated through :meth:`Oracle.apply`.
"""

from __future__ import annotations

from repro.constraints.substructure import SubstructureConstraint
from repro.graph.labeled_graph import KnowledgeGraph


class Oracle:
    """Answers query specs on one (mutable) graph."""

    def __init__(self, graph: KnowledgeGraph, constraints: dict[str, str]) -> None:
        self.graph = graph
        self._parsed = {
            text: SubstructureConstraint.from_sparql(text)
            for text in constraints.values()
        }
        self._satisfying: dict[str, frozenset[int]] = {}

    def apply(self, edges: list[tuple[str, str, str, str]]) -> None:
        """Apply one update batch ``(source, label, target, op)`` in order."""
        for source, label, target, op in edges:
            if op == "add":
                self.graph.add_edge(source, label, target)
            else:
                self.graph.remove_edge(source, label, target)
        self._satisfying.clear()

    def satisfying(self, constraint: str) -> frozenset[int]:
        found = self._satisfying.get(constraint)
        if found is None:
            found = frozenset(self._parsed[constraint].satisfying_vertices(self.graph))
            self._satisfying[constraint] = found
        return found

    def forward_closure(self, source: int, mask: int) -> set[int]:
        """Every vertex an ``L``-path from ``source`` reaches (itself included)."""
        out_targets = self.graph.out_targets_masked
        seen = {source}
        frontier = {source}
        while frontier:
            grown: set[int] = set()
            for vertex in frontier:
                grown.update(out_targets(vertex, mask))
            grown -= seen
            seen |= grown
            frontier = grown
        return seen

    def answer(self, spec: dict, forward: set[int] | None = None) -> bool:
        """The truth of one ``{"source","target","labels","constraint"}`` spec.

        ``forward`` lets the caller reuse a closure it already computed
        for the hardness filter.
        """
        graph = self.graph
        source = graph.vid(spec["source"])
        target = graph.vid(spec["target"])
        mask = graph.label_mask(spec["labels"])
        if forward is None:
            forward = self.forward_closure(source, mask)
        if target not in forward:
            return False
        satisfying = self.satisfying(spec["constraint"])
        # Everything that reaches the target *and* is reachable from the
        # source: walk in-edges from the target, never leaving `forward`.
        if target in satisfying:
            return True
        in_targets = graph.in_targets_masked
        seen = {target}
        frontier = {target}
        while frontier:
            grown: set[int] = set()
            for vertex in frontier:
                grown.update(in_targets(vertex, mask))
            grown &= forward
            grown -= seen
            if not grown.isdisjoint(satisfying):
                return True
            seen |= grown
            frontier = grown
        return False
