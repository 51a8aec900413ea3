"""Embedded SPARQL engine: SELECT/ASK over basic graph patterns."""

from repro.sparql.ast import AskQuery, Query, SelectQuery, Term, TriplePattern, Var
from repro.sparql.evaluator import bgp_is_satisfiable, evaluate_bgp
from repro.sparql.parser import parse_query, parse_select

__all__ = [
    "AskQuery",
    "Query",
    "SelectQuery",
    "Term",
    "TriplePattern",
    "Var",
    "bgp_is_satisfiable",
    "evaluate_bgp",
    "parse_query",
    "parse_select",
]
