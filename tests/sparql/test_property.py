"""Property-based agreement: evaluator vs brute-force matcher.

The real evaluator (dynamic join ordering, adjacency indexes) and the
brute-force cross-product matcher share no code; hypothesis drives both
over random graphs and random BGPs and demands identical solution sets.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graph.labeled_graph import KnowledgeGraph
from repro.sparql.ast import TriplePattern, Var
from repro.sparql.evaluator import evaluate_bgp
from repro.sparql.naive import bruteforce_bgp

VERTICES = [f"v{i}" for i in range(6)]
LABELS = ["a", "b", "c"]
VERTEX_VARS = [Var("x"), Var("y"), Var("z")]
LABEL_VARS = [Var("p"), Var("q")]


@st.composite
def graphs(draw) -> KnowledgeGraph:
    graph = KnowledgeGraph("prop")
    for vertex in VERTICES:
        graph.add_vertex(vertex)
    for label in LABELS:
        graph.labels.intern(label)
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(VERTICES),
                st.sampled_from(LABELS),
                st.sampled_from(VERTICES),
            ),
            max_size=14,
        )
    )
    for source, label, target in edges:
        graph.add_edge(source, label, target)
    return graph


@st.composite
def patterns(draw) -> list[TriplePattern]:
    count = draw(st.integers(min_value=1, max_value=3))
    result = []
    for _ in range(count):
        subject = draw(st.sampled_from(VERTICES + VERTEX_VARS))
        predicate = draw(st.sampled_from(LABELS + LABEL_VARS))
        obj = draw(st.sampled_from(VERTICES + VERTEX_VARS))
        result.append(TriplePattern(subject, predicate, obj))
    return result


def canonical(solutions) -> set[tuple]:
    return {tuple(sorted(s.items())) for s in solutions}


class TestEvaluatorAgreesWithBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(graphs(), patterns())
    def test_same_solution_sets(self, graph, bgp):
        fast = canonical(evaluate_bgp(graph, bgp))
        slow = canonical(bruteforce_bgp(graph, bgp))
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(graphs(), patterns(), st.sampled_from(VERTICES))
    def test_same_solutions_with_binding(self, graph, bgp, bound_vertex):
        assume(any(Var("x") in p.variables() for p in bgp))
        binding = {"x": graph.vid(bound_vertex)}
        fast = canonical(evaluate_bgp(graph, bgp, binding))
        slow = canonical(bruteforce_bgp(graph, bgp, binding))
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(graphs(), patterns())
    def test_no_duplicate_full_bindings(self, graph, bgp):
        all_solutions = [tuple(sorted(s.items())) for s in evaluate_bgp(graph, bgp)]
        assert len(all_solutions) == len(set(all_solutions))
