"""UIS* stays inside Theorem 4.5's ``O(|V| + |E|)`` bound.

The shape that used to break it: every one of ``n`` satisfying vertices
is ``F``-reachable from ``s`` and sits on the shared stack when the
first ``T`` leg starts, and every ``T`` leg fails.  Rebuilding the stack
after each failed leg made that ``O(n²)`` (25 000 candidates: > 10 s);
dropping upgraded entries lazily makes it one pass (tens of ms).
"""

from __future__ import annotations

import time

from repro.constraints.substructure import SubstructureConstraint
from repro.core.query import LSCRQuery
from repro.core.uis_star import UISStar
from repro.graph.labeled_graph import KnowledgeGraph

MARKED = SubstructureConstraint.from_sparql("SELECT ?x WHERE { ?x <mark> flag . }")


def fan(n: int):
    """``s`` fans out to ``n`` satisfying vertices that all dead-end in
    ``pit``; ``t`` exists but nothing under ``go`` reaches it."""
    graph = KnowledgeGraph(f"fan-{n}")
    for i in range(n):
        graph.add_edge("s", "go", f"c{i}")
        graph.add_edge(f"c{i}", "mark", "flag")
        graph.add_edge(f"c{i}", "go", "pit")
    graph.add_edge("elsewhere", "go", "t")
    return graph.freeze(), LSCRQuery.create("s", "t", ["go"], MARKED)


def search_seconds(graph, query) -> float:
    """Best of three, ``V(S, G)`` evaluation excluded."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        result = UISStar(graph).answer(query)
        best = min(best, time.perf_counter() - started - result.vsg_seconds)
        assert result.answer is False
        assert result.vsg_size == graph.num_vertices - 5
        # n candidates, pit, s — every reachable vertex passed once.
        assert result.passed_vertices == result.vsg_size + 2
        # One F leg reaches them all, then one failed T leg each.
        assert result.lcs_calls == result.vsg_size + 1
    return best


def test_all_t_legs_failing_is_one_pass():
    small = search_seconds(*fan(6_250))
    large = search_seconds(*fan(25_000))
    # 13.6 s with the per-leg rebuild: that misses this budget 27x over.
    assert large < 0.5
    # Four times the graph, about four times the work (16x when quadratic).
    assert large < 8 * small
