"""Knowledge-graph substrate: labeled multigraph, labels, schema, IO."""

from repro.graph.builder import GraphBuilder
from repro.graph.csr import CsrDirection, FrozenGraph, freeze_graph
from repro.graph.labeled_graph import Edge, KnowledgeGraph
from repro.graph.labels import LabelUniverse, iter_mask_bits, mask_is_subset
from repro.graph.rdf import (
    RDF_TYPE,
    RDFS_CLASS,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASS_OF,
)
from repro.graph.schema import RDFSchema
from repro.graph.stats import GraphStats, graph_stats, label_histogram
from repro.graph.views import reverse

__all__ = [
    "CsrDirection",
    "Edge",
    "FrozenGraph",
    "GraphBuilder",
    "GraphStats",
    "KnowledgeGraph",
    "LabelUniverse",
    "RDFSchema",
    "RDF_TYPE",
    "RDFS_CLASS",
    "RDFS_DOMAIN",
    "RDFS_RANGE",
    "RDFS_SUBCLASS_OF",
    "freeze_graph",
    "graph_stats",
    "iter_mask_bits",
    "label_histogram",
    "mask_is_subset",
    "reverse",
]
