"""Property-based agreement: evaluator vs brute-force matcher.

The real evaluator (dynamic join ordering, adjacency indexes) and the
brute-force cross-product matcher share no code; hypothesis drives both
over random graphs and random BGPs and demands identical solution sets.
"""

from __future__ import annotations

from hypothesis import given, settings
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
def pattern(draw) -> TriplePattern:
    return TriplePattern(
        draw(st.sampled_from(VERTICES + VERTEX_VARS)),
        draw(st.sampled_from(LABELS + LABEL_VARS)),
        draw(st.sampled_from(VERTICES + VERTEX_VARS)),
    )


@st.composite
def patterns(draw) -> list[TriplePattern]:
    return draw(st.lists(pattern(), min_size=1, max_size=3))


@st.composite
def patterns_with_x(draw) -> list[TriplePattern]:
    """A BGP mentioning ``?x``: one pattern with ``?x`` as subject or
    object, then 0–2 free ones (nothing drawn is thrown away)."""
    other = draw(st.sampled_from(VERTICES + VERTEX_VARS))
    predicate = draw(st.sampled_from(LABELS + LABEL_VARS))
    anchored = (
        TriplePattern(Var("x"), predicate, other)
        if draw(st.booleans())
        else TriplePattern(other, predicate, Var("x"))
    )
    return [anchored, *draw(st.lists(pattern(), max_size=2))]


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
    @given(graphs(), patterns_with_x(), st.sampled_from(VERTICES))
    def test_same_solutions_with_binding(self, graph, bgp, bound_vertex):
        binding = {"x": graph.vid(bound_vertex)}
        fast = canonical(evaluate_bgp(graph, bgp, binding))
        slow = canonical(bruteforce_bgp(graph, bgp, binding))
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(graphs(), patterns())
    def test_no_duplicate_full_bindings(self, graph, bgp):
        all_solutions = [tuple(sorted(s.items())) for s in evaluate_bgp(graph, bgp)]
        assert len(all_solutions) == len(set(all_solutions))
