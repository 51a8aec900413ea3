"""repro — Reachability queries with label and substructure constraints.

A complete, pure-Python reproduction of

    Xiaolong Wan, Hongzhi Wang.
    "Reachability Queries with Label and Substructure Constraints on
    Knowledge Graphs" (ICDE 2023 extended abstract; arXiv:2007.11881).

The package ships the paper's primary contribution — the UIS, UIS* and
INS query algorithms and the local index — together with every substrate
they depend on: an edge-labeled knowledge-graph store with an RDFS
schema, an exact SPARQL basic-graph-pattern evaluator, comparator indexes
([19]-style traditional landmarks, [6]-style tree index), LUBM-like and
YAGO-like dataset generators, the Section 6 workload generators, a
benchmark harness regenerating every table and figure of the evaluation,
a concurrent query service (:mod:`repro.service`) with planning,
caching and batch execution over HTTP (``python -m repro serve``).

Quickstart::

    from repro import GraphBuilder, LSCRQuery, UIS

    g = (GraphBuilder("example")
         .edge("v0", "friendOf", "v1")
         .edge("v1", "friendOf", "v3")
         .edge("v3", "likes", "v4")
         .build())
    query = LSCRQuery.create(
        "v0", "v4", ["friendOf", "likes"],
        "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }")
    print(UIS(g).answer(query).answer)
"""

from repro.constraints import LabelConstraint, SubstructureChecker, SubstructureConstraint
from repro.core import (
    INS,
    LSCRAlgorithm,
    LSCRQuery,
    MeetSearch,
    NaiveTwoProcedure,
    QueryResult,
    ResultAggregate,
    UIS,
    UISStar,
    WitnessPath,
    find_witness,
    verify_witness,
)
from repro.graph import GraphBuilder, KnowledgeGraph, RDFSchema
from repro.index import LocalIndex, build_local_index
from repro.session import LSCRSession
from repro.service.app import QueryService
from repro.service.cache import ConstraintCache, ResultCache
from repro.service.executor import BatchExecutor
from repro.service.http import create_server
from repro.service.planner import QueryPlan, QueryPlanner
from repro.service.registry import TenantRegistry
from repro.service.stats import ServiceStats

from repro._version import __version__

__all__ = [
    "BatchExecutor",
    "ConstraintCache",
    "GraphBuilder",
    "INS",
    "KnowledgeGraph",
    "LSCRAlgorithm",
    "LSCRQuery",
    "LSCRSession",
    "LabelConstraint",
    "LocalIndex",
    "MeetSearch",
    "NaiveTwoProcedure",
    "QueryPlan",
    "QueryPlanner",
    "QueryResult",
    "QueryService",
    "RDFSchema",
    "ResultAggregate",
    "ResultCache",
    "ServiceStats",
    "SubstructureChecker",
    "SubstructureConstraint",
    "TenantRegistry",
    "UIS",
    "UISStar",
    "WitnessPath",
    "__version__",
    "build_local_index",
    "create_server",
    "find_witness",
    "verify_witness",
]
