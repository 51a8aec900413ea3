"""Tests for substructure constraints and SCck."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints.substructure import SubstructureChecker, SubstructureConstraint
from repro.datasets.toy import figure3_constraint, figure3_graph
from repro.exceptions import ConstraintError, SparqlEvaluationError
from repro.sparql.ast import TriplePattern, Var
from repro.sparql.evaluator import compile_patterns, evaluate_bgp
from tests.helpers import graph_from_edges


class TestConstruction:
    def test_from_sparql_infers_variable(self):
        constraint = SubstructureConstraint.from_sparql(
            "SELECT ?x WHERE { ?x <likes> ?y . }"
        )
        assert constraint.variable == "x"

    def test_from_sparql_explicit_variable(self):
        constraint = SubstructureConstraint.from_sparql(
            "SELECT ?a ?b WHERE { ?a <likes> ?b . }", variable="b"
        )
        assert constraint.variable == "b"

    def test_from_sparql_ambiguous_projection_rejected(self):
        with pytest.raises(ConstraintError, match="exactly one"):
            SubstructureConstraint.from_sparql("SELECT ?a ?b WHERE { ?a <p> ?b . }")

    def test_variable_must_occur(self):
        with pytest.raises(ConstraintError, match="does not occur"):
            SubstructureConstraint([TriplePattern(Var("y"), "p", "v")], variable="x")

    def test_empty_patterns_rejected(self):
        with pytest.raises(ConstraintError, match="at least one"):
            SubstructureConstraint([])

    def test_equality_and_hash(self):
        a = figure3_constraint()
        b = figure3_constraint()
        assert a == b
        assert hash(a) == hash(b)

    def test_sparql_roundtrip(self):
        constraint = figure3_constraint()
        again = SubstructureConstraint.from_sparql(constraint.to_sparql())
        assert again == SubstructureConstraint(constraint.patterns, constraint.variable)

    def test_variables_designated_first(self):
        constraint = SubstructureConstraint.from_sparql(
            "SELECT ?x WHERE { ?y <p> ?x . ?y <q> ?z . }", variable="x"
        )
        assert constraint.variables()[0] == Var("x")


class TestEvaluation:
    def test_figure3_satisfying_vertices(self):
        g = figure3_graph()
        constraint = figure3_constraint()
        names = sorted(g.name_of(v) for v in constraint.satisfying_vertices(g))
        assert names == ["v1", "v2"]  # the paper's V(S0, G0)

    def test_satisfied_by_individual_vertices(self):
        g = figure3_graph()
        constraint = figure3_constraint()
        assert constraint.satisfied_by(g, g.vid("v1"))
        assert constraint.satisfied_by(g, g.vid("v2"))
        assert not constraint.satisfied_by(g, g.vid("v0"))
        assert not constraint.satisfied_by(g, g.vid("v3"))

    def test_every_pattern_must_match(self):
        # E_? semantics (README.md, "SPARQL semantics for E_?"): v3
        # with no likes-edge fails S0.
        g = graph_from_edges([("v1", "friendOf", "v3")])
        constraint = figure3_constraint()
        assert constraint.satisfying_vertices(g) == []

    def test_constraint_on_unrelated_graph_is_empty(self):
        g = graph_from_edges([("a", "other", "b")])
        assert figure3_constraint().satisfying_vertices(g) == []

    @pytest.mark.parametrize(
        "sparql, names",
        [
            # v3's two likes-edges are two solutions for one vertex.
            ("SELECT ?x WHERE { ?x <likes> ?y . }", ["v3"]),
            ("SELECT ?x WHERE { ?x <friendOf> ?y . }", ["v0", "v1", "v2"]),
        ],
    )
    def test_distinct_ids_in_first_seen_order(self, sparql, names):
        g = graph_from_edges(
            [
                ("v0", "friendOf", "v1"),
                ("v1", "friendOf", "v3"),
                ("v2", "friendOf", "v3"),
                ("v3", "likes", "v4"),
                ("v3", "likes", "v5"),
            ]
        )
        constraint = SubstructureConstraint.from_sparql(sparql)
        found = constraint.satisfying_vertices(g)
        solutions = evaluate_bgp(g, constraint.patterns)
        assert found == list(dict.fromkeys(s["x"] for s in solutions))
        assert sorted(g.name_of(v) for v in found) == names


class TestEmptyOn:
    """``empty_on`` answers from constants kept at construction what
    ``compile_patterns(...) is None`` answers by compiling."""

    #: Names and labels of Figure 3, one of each that it does not have,
    #: and variables free to turn up in either role.
    TERMS = ["v0", "v3", "ghost", Var("x"), Var("y")]
    PREDICATES = ["likes", "friendOf", "no-such-label", Var("y"), Var("p")]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(TERMS),
                st.sampled_from(PREDICATES),
                st.sampled_from(TERMS),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_agrees_with_compile_patterns(self, triples):
        patterns = [TriplePattern(*triple) for triple in triples]
        assume(any(Var("x") in pattern.variables() for pattern in patterns))
        g = figure3_graph()
        constraint = SubstructureConstraint(patterns)
        try:
            expected = compile_patterns(g, constraint.patterns) is None
        except SparqlEvaluationError as error:
            # Raised afresh on every call, not once.
            for _ in range(2):
                with pytest.raises(SparqlEvaluationError) as caught:
                    constraint.empty_on(g)
                assert str(caught.value) == str(error)
        else:
            assert constraint.empty_on(g) is expected

    def test_canonical_text_and_hash_are_fixed_at_construction(self):
        constraint = figure3_constraint()
        assert constraint.to_sparql() is constraint.to_sparql()
        assert constraint.to_sparql() == str(constraint.to_select())
        assert hash(constraint) == hash((constraint.patterns, constraint.variable))


class TestChecker:
    def test_counts_calls(self):
        g = figure3_graph()
        checker = SubstructureChecker(g, figure3_constraint())
        checker(g.vid("v1"))
        checker(g.vid("v1"))
        checker(g.vid("v0"))
        assert checker.calls == 3

    def test_memoises_verdicts(self):
        g = figure3_graph()
        checker = SubstructureChecker(g, figure3_constraint())
        assert checker(g.vid("v1")) is True
        assert checker(g.vid("v1")) is True
        assert len(checker._cache) == 1

    def test_unsatisfiable_constraint_short_circuits(self):
        g = graph_from_edges([("a", "p", "b")])
        constraint = SubstructureConstraint.from_sparql(
            "SELECT ?x WHERE { ?x <nonexistent> ?y . }"
        )
        checker = SubstructureChecker(g, constraint)
        assert checker(g.vid("a")) is False
        assert checker._unsatisfiable

    def test_checker_matches_satisfied_by(self):
        g = figure3_graph()
        constraint = figure3_constraint()
        checker = SubstructureChecker(g, constraint)
        for v in g.vertices():
            assert checker(v) == constraint.satisfied_by(g, v)
