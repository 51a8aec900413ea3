"""``SubstructureConstraint.carried_vertices``: ``V(S, G')`` from
``V(S, G)`` and the net edge change, against from-scratch evaluation.

A serving epoch carries every cached ``V(S, G)`` across an update by
this rule instead of re-running the SPARQL engine, so it must agree with
``satisfying_vertices`` on the new graph for every BGP and every batch:
a variable predicate, a repeated variable (``?a p ?a``), a constant the
batch itself interns, an add and a remove of one edge in one batch, and
an empty ``V(S, G)`` before it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.substructure import SubstructureConstraint
from repro.graph.labeled_graph import KnowledgeGraph
from repro.sparql.ast import TriplePattern, Var

VERTICES = [f"v{i}" for i in range(5)]
LABELS = ["a", "b", "c"]
#: Absent from every starting graph; only a batch can intern them.
NEW_VERTEX, NEW_LABEL = "n0", "d"
VERTEX_VARS = [Var("x"), Var("y"), Var("z")]

vertex_terms = st.sampled_from(VERTEX_VARS + VERTICES + [NEW_VERTEX])
label_terms = st.sampled_from(LABELS + [NEW_LABEL, Var("p")])
batch_edges = st.tuples(
    st.sampled_from(VERTICES + [NEW_VERTEX]),
    st.sampled_from(LABELS + [NEW_LABEL]),
    st.sampled_from(VERTICES + [NEW_VERTEX]),
    st.sampled_from(["add", "remove"]),
)


@st.composite
def constraints(draw) -> SubstructureConstraint:
    patterns = draw(
        st.lists(
            st.builds(TriplePattern, vertex_terms, label_terms, vertex_terms),
            min_size=1,
            max_size=3,
        )
    )
    # ?x must occur (Definition 2.2); pin it into one slot of one pattern.
    where = draw(st.integers(0, len(patterns) - 1))
    pattern = patterns[where]
    if Var("x") not in pattern.variables():
        patterns[where] = (
            TriplePattern(Var("x"), pattern.predicate, pattern.object)
            if draw(st.booleans())
            else TriplePattern(pattern.subject, pattern.predicate, Var("x"))
        )
    return SubstructureConstraint(patterns)


@st.composite
def graphs(draw) -> KnowledgeGraph:
    graph = KnowledgeGraph("carry")
    for vertex in VERTICES:
        graph.add_vertex(vertex)
    for label in LABELS:
        graph.labels.intern(label)
    for edge in draw(
        st.lists(
            st.tuples(
                st.sampled_from(VERTICES),
                st.sampled_from(LABELS),
                st.sampled_from(VERTICES),
            ),
            max_size=14,
        )
    ):
        graph.add_edge(*edge)
    return graph


def apply(graph: KnowledgeGraph, batch) -> KnowledgeGraph:
    """``batch`` replayed in order on a copy: the from-scratch oracle."""
    new = graph.copy()
    for source, label, target, op in batch:
        if op == "add":
            new.add_edge(source, label, target)
        else:
            new.remove_edge(source, label, target)
    return new


def check(graph: KnowledgeGraph, constraint: SubstructureConstraint, batch):
    old = graph.freeze()
    new, _, (added, removed) = old.derive(batch)  # as apply_updates does
    before = constraint.satisfying_vertices(old)
    carried, rechecks = constraint.carried_vertices(
        before, old, new, added, removed
    )
    expected = constraint.satisfying_vertices(apply(graph, batch).freeze())
    assert sorted(carried) == sorted(expected), (constraint, batch, before)
    assert len(set(carried)) == len(carried)
    return before, rechecks


@settings(max_examples=300, deadline=None)
@given(
    graph=graphs(),
    constraint=constraints(),
    batch=st.lists(batch_edges, max_size=6),
    retract=st.lists(st.integers(0, 255), max_size=3),
)
def test_carried_equals_from_scratch(graph, constraint, batch, retract):
    """Random batches, plus removals of edges the graph really has
    (a random remove mostly misses)."""
    present = sorted(graph.edges_named())
    if present:
        batch = batch + [(*present[i % len(present)], "remove") for i in retract]
    check(graph, constraint, batch)


BASE = [("v0", "a", "v1"), ("v1", "b", "v2"), ("v2", "a", "v2"), ("v3", "c", "v0")]


@pytest.mark.parametrize(
    "sparql, batch, rechecks",
    [
        pytest.param(
            "SELECT ?x WHERE { ?x ?p ?y . ?y <b> v2 . }",
            [("v4", "c", "v1", "add"), ("v0", "a", "v1", "remove")],
            2,  # v4 joins, v0 leaves
            id="variable-predicate",
        ),
        pytest.param(
            "SELECT ?x WHERE { ?x <a> ?x . }",
            [("v0", "a", "v0", "add"), ("v1", "a", "v2", "add")],
            1,  # v1 -a-> v2 binds ?x twice, inconsistently: no pin
            id="repeated-variable",
        ),
        pytest.param(
            "SELECT ?x WHERE { ?x <d> n0 . }",
            [("v3", "d", "n0", "add")],
            1,
            id="constant-interned-by-the-batch",
        ),
        pytest.param(
            "SELECT ?x WHERE { ?x <c> ?y . }",
            [("v4", "c", "v4", "add"), ("v4", "c", "v4", "remove")],
            0,  # nets to nothing
            id="add-and-remove-of-one-edge",
        ),
        pytest.param(
            "SELECT ?x WHERE { ?x <b> v0 . }",
            [("v2", "b", "v0", "add"), ("v3", "b", "v0", "add")],
            2,
            id="empty-before",
        ),
    ],
)
def test_named_shapes(sparql, batch, rechecks):
    graph = KnowledgeGraph("carry")
    for edge in BASE:
        graph.add_edge(*edge)
    constraint = SubstructureConstraint.from_sparql(sparql)
    before, checked = check(graph, constraint, batch)
    assert checked == rechecks
    if "<d>" in sparql or "<b> v0" in sparql:
        assert before == []
