"""Tests for the SPARQL parser."""

import pytest

from repro.exceptions import SparqlSyntaxError
from repro.sparql.ast import AskQuery, SelectQuery, TriplePattern, Var
from repro.sparql.parser import parse_query, parse_select


class TestSelect:
    def test_simple_select(self):
        query = parse_query("SELECT ?x WHERE { ?x <likes> ?y . }")
        assert isinstance(query, SelectQuery)
        assert query.projection == (Var("x"),)
        assert query.patterns == (TriplePattern(Var("x"), "likes", Var("y")),)

    def test_select_distinct(self):
        query = parse_select("SELECT DISTINCT ?x WHERE { ?x <p> ?y }")
        assert query.distinct

    def test_select_star(self):
        query = parse_select("SELECT * WHERE { ?a <p> ?b . }")
        assert query.projection == ()
        assert query.effective_projection() == (Var("a"), Var("b"))

    def test_where_optional(self):
        query = parse_select("SELECT ?x { ?x <p> ?y }")
        assert len(query.patterns) == 1

    def test_multiple_patterns(self):
        query = parse_select(
            "SELECT ?x WHERE { ?x <p> ?y . ?y <q> ?z . ?z <r> ?x . }"
        )
        assert len(query.patterns) == 3

    def test_final_dot_optional(self):
        with_dot = parse_select("SELECT ?x WHERE { ?x <p> ?y . }")
        without = parse_select("SELECT ?x WHERE { ?x <p> ?y }")
        assert with_dot.patterns == without.patterns

    def test_string_literals_as_constants(self):
        query = parse_select("SELECT ?x WHERE { ?x <ub:name> 'GraduateStudent4' . }")
        assert query.patterns[0].object == "GraduateStudent4"

    def test_full_iri_shortened_to_prefixed_name(self):
        query = parse_select(
            "SELECT ?x WHERE { ?x "
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <ub:Course> . }"
        )
        assert query.patterns[0].predicate == "rdf:type"

    def test_multi_variable_projection(self):
        query = parse_select("SELECT ?a ?b WHERE { ?a <p> ?b }")
        assert query.projection == (Var("a"), Var("b"))

    def test_table3_constraints_parse(self):
        from repro.datasets.lubm.queries import ALL_CONSTRAINTS

        for name, text in ALL_CONSTRAINTS.items():
            query = parse_select(text)
            assert query.projection == (Var("x"),), name


class TestAsk:
    def test_ask(self):
        query = parse_query("ASK WHERE { ?x <p> ?y . }")
        assert isinstance(query, AskQuery)
        assert len(query.patterns) == 1

    def test_ask_without_where(self):
        query = parse_query("ASK { ?x <p> ?y }")
        assert isinstance(query, AskQuery)


class TestErrors:
    def test_not_a_query(self):
        with pytest.raises(SparqlSyntaxError, match="SELECT or ASK"):
            parse_query("{ ?x <p> ?y }")

    def test_missing_projection(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT WHERE { ?x <p> ?y }")

    def test_empty_pattern_group(self):
        with pytest.raises(SparqlSyntaxError, match="empty graph pattern"):
            parse_query("SELECT ?x WHERE { }")

    def test_unclosed_group(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x <p> ?y")

    def test_incomplete_triple(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x <p> }")

    def test_projected_variable_not_in_pattern(self):
        with pytest.raises(SparqlSyntaxError, match="not used"):
            parse_query("SELECT ?zz WHERE { ?x <p> ?y }")

    def test_trailing_garbage(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x <p> ?y } extra")

    def test_select_must_be_select(self):
        with pytest.raises(SparqlSyntaxError, match="expected a SELECT"):
            parse_select("ASK { ?x <p> ?y }")


class TestAstRendering:
    def test_select_str_roundtrips_through_parser(self):
        text = "SELECT DISTINCT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }"
        query = parse_select(text)
        assert parse_select(str(query)) == query

    def test_pattern_str(self):
        pattern = TriplePattern(Var("x"), "p", "v")
        assert str(pattern) == "?x <p> <v> ."

    def test_var_str(self):
        assert str(Var("x")) == "?x"


#: Every SPARQL construct whose matches are not monotone in the edge set
#: (or that is not a plain BGP at all), each in a constraint that would
#: otherwise parse.
NON_MONOTONE = {
    "FILTER": "SELECT ?x WHERE { ?x <p> ?y . FILTER(?y != ?x) }",
    "OPTIONAL": "SELECT ?x WHERE { ?x <p> ?y . OPTIONAL { ?y <q> ?z } }",
    "MINUS": "SELECT ?x WHERE { ?x <p> ?y . MINUS { ?y <q> ?z } }",
    "UNION": "SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }",
    "BIND": "SELECT ?x WHERE { ?x <p> ?y . BIND(?y AS ?z) }",
    "VALUES": "SELECT ?x WHERE { ?x <p> ?y . VALUES ?y { a b } }",
    "NOT EXISTS": "SELECT ?x WHERE { ?x <p> ?y . FILTER NOT EXISTS { ?y <q> ?z } }",
}


@pytest.mark.parametrize("construct", sorted(NON_MONOTONE))
def test_non_monotone_constructs_are_rejected(construct):
    """The constraint language is BGP-only, which is what makes
    ``SubstructureConstraint.carried_vertices`` exact: a constraint's
    matches only grow with added edges and shrink with removed ones."""
    text = NON_MONOTONE[construct]
    for spelling in (text, text.replace(construct, construct.lower())):
        with pytest.raises(SparqlSyntaxError):
            parse_select(spelling)
