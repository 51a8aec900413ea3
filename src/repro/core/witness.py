"""Witness extraction: *which* path answers a true LSCR query.

The paper's algorithms are decision procedures, but its motivating
application (criminal link analysis, Figure 1) needs the evidence: the
actual transaction chain and the middleman who satisfies the
substructure constraint.  This module adds that capability on top of the
same semantics.

The construction makes the ``close`` surjection's two informative states
explicit as a two-layer product graph:

* layer 0 — reached under ``L`` without having passed a satisfying
  vertex yet (the ``F`` state);
* layer 1 — reached having passed one (the ``T`` state);
* edges ``(u, i) → (v, i)`` for every graph edge with label in ``L``,
  plus an ε-transition ``(u, 0) → (u, 1)`` whenever ``u ∈ V(S, G)``.

``Q`` is true iff ``(t, 1)`` is reachable from ``(s, 0)``; a BFS with
parent pointers yields a *shortest* witness (fewest edges), and the ε
step pinpoints the satisfying vertex.  Cost is ``O(|V| + |E|)`` on top
of one ``V(S, G)`` evaluation.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Set
from dataclasses import dataclass

from repro.core.query import LSCRQuery
from repro.graph.labeled_graph import KnowledgeGraph

__all__ = ["WitnessPath", "find_witness", "verify_witness"]


@dataclass(frozen=True)
class WitnessPath:
    """A concrete path certifying a true LSCR query.

    ``edges`` is the path as ``(source, label, target)`` name triples
    (empty for the trivial ``s == t`` case); ``satisfying_vertex`` is a
    vertex on the path that satisfies the substructure constraint.
    """

    edges: tuple[tuple[Hashable, str, Hashable], ...]
    satisfying_vertex: Hashable

    def vertices(self) -> tuple[Hashable, ...]:
        """The vertex sequence of the path."""
        if not self.edges:
            return (self.satisfying_vertex,)
        return tuple([self.edges[0][0]] + [edge[2] for edge in self.edges])

    def __len__(self) -> int:
        return len(self.edges)


def find_witness(
    graph: KnowledgeGraph,
    query: LSCRQuery,
    satisfying: Set[int] | None = None,
) -> WitnessPath | None:
    """Return a shortest witness path for ``query``, or None if false.

    ``find_witness(g, q) is not None`` is exactly the LSCR answer, so
    this doubles as a fourth independent decision procedure (used as
    such by the property tests).  Callers that already hold ``V(S, G)``
    for this graph (the service's candidate cache) can pass it as
    ``satisfying`` to skip re-running the SPARQL evaluation.
    """
    source = graph.vid(query.source)
    target = graph.vid(query.target)
    mask = query.labels.mask_for(graph)
    if satisfying is None:
        satisfying = set(query.constraint.satisfying_vertices(graph))

    n = graph.num_vertices
    # parent[layer][v] = (previous vertex, label id, previous layer) or
    # None for unvisited; the source of layer 0 is its own root.
    parent: list[list[tuple[int, int, int] | None]] = [[None] * n, [None] * n]
    visited = [bytearray(n), bytearray(n)]

    start_layer = 1 if source in satisfying else 0
    visited[start_layer][source] = 1
    if start_layer == 1:
        visited[0][source] = 1
    queue: deque[tuple[int, int]] = deque(((source, start_layer),))

    if source == target and start_layer == 1:
        return WitnessPath(edges=(), satisfying_vertex=query.source)

    goal: tuple[int, int] | None = None
    while queue and goal is None:
        u, layer = queue.popleft()
        for label_id, w in graph.out_masked(u, mask):
            new_layer = layer
            if layer == 0 and w in satisfying:
                new_layer = 1
            if not visited[new_layer][w]:
                visited[new_layer][w] = 1
                parent[new_layer][w] = (u, label_id, layer)
                if new_layer == 1 and w == target:
                    goal = (w, new_layer)
                    break
                queue.append((w, new_layer))

    if goal is None:
        return None

    # Walk parents back to the source, collecting edges and the first
    # layer-transition vertex (the satisfying one).
    edges: list[tuple[Hashable, str, Hashable]] = []
    satisfying_vertex: Hashable | None = None
    vertex, layer = goal
    while not (vertex == source and layer == start_layer):
        step = parent[layer][vertex]
        assert step is not None, "broken parent chain"
        previous, label_id, previous_layer = step
        edges.append(
            (graph.name_of(previous), graph.label_name(label_id), graph.name_of(vertex))
        )
        if layer == 1 and previous_layer == 0:
            satisfying_vertex = graph.name_of(vertex)
        vertex, layer = previous, previous_layer
    edges.reverse()
    if satisfying_vertex is None:
        # The layer never transitioned mid-path: the source itself
        # satisfied the constraint (start_layer == 1).
        satisfying_vertex = query.source
    return WitnessPath(edges=tuple(edges), satisfying_vertex=satisfying_vertex)


def verify_witness(
    graph: KnowledgeGraph,
    query: LSCRQuery,
    witness: WitnessPath,
) -> bool:
    """Check a witness against Definition 2.4 (used by tests).

    Validates that the edges exist, form a path from ``s`` to ``t``,
    carry only labels from ``L``, and that the claimed satisfying vertex
    lies on the path and satisfies ``S``.
    """
    vertices = witness.vertices()
    if not witness.edges:
        if query.source != query.target or witness.satisfying_vertex != query.source:
            return False
    else:
        if vertices[0] != query.source or vertices[-1] != query.target:
            return False
        for source, label, target in witness.edges:
            if label not in query.labels:
                return False
            if not graph.has_edge_named(source, label, target):
                return False
    if witness.satisfying_vertex not in vertices:
        return False
    return query.constraint.satisfied_by(graph, graph.vid(witness.satisfying_vertex))
