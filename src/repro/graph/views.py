"""Derived graph views: reversal.

:func:`reverse` supports backward searches (used by workload generation
to pick targets that can actually be reached).
"""

from __future__ import annotations

from repro.graph.labeled_graph import KnowledgeGraph

__all__ = ["reverse"]


def reverse(graph: KnowledgeGraph, name: str | None = None) -> KnowledgeGraph:
    """A new graph with every edge direction flipped.

    Vertex ids *and* label ids are preserved (both tables are replayed
    in the original order before any edge is added), so label masks and
    vertex ids computed against the original graph are directly valid on
    the reversed one — backward searches rely on this.
    """
    result = KnowledgeGraph(name=name or f"{graph.name}~reversed")
    result.schema = graph.schema
    for vertex_name in graph.vertex_names():
        result.add_vertex(vertex_name)
    for label in graph.labels:
        result.labels.intern(label)
    for s, label_id, t in graph.edges():
        result.add_edge_ids(t, label_id, s)
    return result
