"""Knowledge-graph substrate: labeled multigraph, labels, schema, IO."""

from repro.graph.builder import GraphBuilder
from repro.graph.csr import CsrDirection, FrozenGraph, freeze_graph
from repro.graph.labeled_graph import Edge, KnowledgeGraph
from repro.graph.labels import LabelUniverse, iter_mask_bits, mask_is_subset, popcount
from repro.graph.rdf import (
    RDF_TYPE,
    RDF_VOCABULARY,
    RDFS_CLASS,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASS_OF,
    is_rdf_vocabulary,
)
from repro.graph.schema import RDFSchema
from repro.graph.stats import GraphStats, degree_histogram, graph_stats, label_histogram
from repro.graph.views import copy_graph, induced_subgraph, reverse

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
    "RDF_VOCABULARY",
    "RDFS_CLASS",
    "RDFS_DOMAIN",
    "RDFS_RANGE",
    "RDFS_SUBCLASS_OF",
    "copy_graph",
    "freeze_graph",
    "degree_histogram",
    "graph_stats",
    "induced_subgraph",
    "is_rdf_vocabulary",
    "iter_mask_bits",
    "label_histogram",
    "mask_is_subset",
    "popcount",
    "reverse",
]
