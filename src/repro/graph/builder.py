"""Fluent construction of knowledge graphs with a synchronised schema.

:class:`GraphBuilder` keeps the graph's edges and the RDFS schema
consistent: typing a vertex adds both the ``rdf:type`` edge *and* the
schema registration, which is what the paper's Figure 2 KG looks like
(schema statements are ordinary labeled edges that also carry special
meaning).  Generators and tests use it so they can never produce a graph
whose schema disagrees with its edges.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.graph.labeled_graph import KnowledgeGraph
from repro.graph.rdf import RDF_TYPE, RDFS_SUBCLASS_OF
from repro.graph.schema import RDFSchema

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Incremental builder producing a :class:`KnowledgeGraph` + schema.

    >>> g = (GraphBuilder("toy")
    ...      .declare_class("Person")
    ...      .typed("alice", "Person")
    ...      .edge("alice", "knows", "bob")
    ...      .build())
    >>> g.has_edge_named("alice", "rdf:type", "Person")
    True
    >>> g.schema.is_instance("alice", "Person")
    True
    """

    def __init__(self, name: str = "kg", materialise_type_edges: bool = True) -> None:
        self._graph = KnowledgeGraph(name=name)
        self._schema = RDFSchema()
        self._graph.schema = self._schema
        #: When True (default), ``rdf:type`` / ``rdfs:subClassOf``
        #: statements are also added as graph edges, as in Figure 2.
        self._materialise = materialise_type_edges

    @property
    def graph(self) -> KnowledgeGraph:
        """The graph under construction (already usable)."""
        return self._graph

    @property
    def schema(self) -> RDFSchema:
        """The schema under construction."""
        return self._schema

    # ------------------------------------------------------------------
    # vertices and plain edges
    # ------------------------------------------------------------------

    def vertex(self, name: Hashable) -> "GraphBuilder":
        """Ensure a vertex exists."""
        self._graph.add_vertex(name)
        return self

    def edge(self, source: Hashable, label: str, target: Hashable) -> "GraphBuilder":
        """Add one labeled edge (duplicates silently ignored)."""
        self._graph.add_edge(source, label, target)
        return self

    def edges(self, triples: Iterable[tuple[Hashable, str, Hashable]]) -> "GraphBuilder":
        """Add many ``(source, label, target)`` triples."""
        for source, label, target in triples:
            self._graph.add_edge(source, label, target)
        return self

    # ------------------------------------------------------------------
    # schema-aware statements
    # ------------------------------------------------------------------

    def declare_class(self, class_name: str) -> "GraphBuilder":
        """Declare an ``rdfs:Class``."""
        self._schema.add_class(class_name)
        if self._materialise:
            self._graph.add_vertex(class_name)
        return self

    def subclass(self, subclass: str, superclass: str) -> "GraphBuilder":
        """Record and (optionally) materialise ``rdfs:subClassOf``."""
        self._schema.add_subclass(subclass, superclass)
        if self._materialise:
            self._graph.add_edge(subclass, RDFS_SUBCLASS_OF, superclass)
        return self

    def typed(self, instance: Hashable, class_name: str) -> "GraphBuilder":
        """Record and (optionally) materialise ``instance rdf:type class``."""
        self._schema.add_instance(instance, class_name)
        if self._materialise:
            self._graph.add_edge(instance, RDF_TYPE, class_name)
        return self

    def domain(self, prop: str, class_name: str) -> "GraphBuilder":
        """Record ``prop rdfs:domain class_name`` in the schema."""
        self._schema.set_domain(prop, class_name)
        return self

    def range(self, prop: str, class_name: str) -> "GraphBuilder":
        """Record ``prop rdfs:range class_name`` in the schema."""
        self._schema.set_range(prop, class_name)
        return self

    # ------------------------------------------------------------------

    def build(self) -> KnowledgeGraph:
        """Return the finished graph (schema attached)."""
        return self._graph
