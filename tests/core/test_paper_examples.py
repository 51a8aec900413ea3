"""The paper's worked claims, pinned as tests for every algorithm.

These are the strongest fidelity anchors available: each case is stated
explicitly in the paper text (Sections 2–3) for the Figure 3 running
example, and all four algorithms must agree with it.
"""

import pytest

from repro.core.query import LSCRQuery
from repro.datasets.toy import figure1_financial_graph, figure3_constraint, figure3_graph
from tests.core.conftest import make_algorithm
from tests.helpers import ground_truth_cms

#: (source, target, labels, expected) — claims from the paper.
PAPER_CASES = [
    # Section 2: "given a label constraint L = {likes, follows},
    # v0 ⇝_{L,S0} v4, while v0 ↛_{L,S0} v3"
    ("v0", "v4", ["likes", "follows"], True),
    ("v0", "v3", ["likes", "follows"], False),
    # Section 3: the recall example with L = {likes, hates, friendOf}
    ("v3", "v4", ["likes", "hates", "friendOf"], True),
    # Section 2's substructure-only claims hold under the full label set.
    ("v0", "v4", ["friendOf", "likes", "advisorOf", "follows", "hates"], True),
    ("v0", "v3", ["friendOf", "likes", "advisorOf", "follows", "hates"], True),
    ("v3", "v4", ["friendOf", "likes", "advisorOf", "follows", "hates"], True),
]


class TestFigure3Claims:
    @pytest.mark.parametrize("source,target,labels,expected", PAPER_CASES)
    def test_paper_case(self, algorithm_name, source, target, labels, expected):
        graph = figure3_graph()
        algorithm = make_algorithm(algorithm_name, graph)
        query = LSCRQuery.create(source, target, labels, figure3_constraint())
        assert algorithm.decide(query) == expected

    def test_cms_v0_v3_matches_paper(self):
        # M(v0, v3) = {{friendOf}}
        graph = figure3_graph()
        cms = ground_truth_cms(graph, graph.vid("v0"))
        masks = cms[graph.vid("v3")]
        assert masks == {graph.label_mask(["friendOf"])}

    def test_cms_v0_v4_matches_paper(self):
        # M(v0, v4) = {{friendOf, likes}, {advisorOf, follows}, {likes, follows}}
        graph = figure3_graph()
        cms = ground_truth_cms(graph, graph.vid("v0"))
        masks = cms[graph.vid("v4")]
        expected = {
            graph.label_mask(["friendOf", "likes"]),
            graph.label_mask(["advisorOf", "follows"]),
            graph.label_mask(["likes", "follows"]),
        }
        assert masks == expected

    def test_v_s0_g0_is_v1_v2(self):
        graph = figure3_graph()
        satisfying = figure3_constraint().satisfying_vertices(graph)
        assert sorted(graph.name_of(v) for v in satisfying) == ["v1", "v2"]


class TestTrivialPathConvention:
    """README.md, "the trivial path s = t": Q=(s,s,L,S) is true iff s
    satisfies S or a label-feasible cycle through a satisfying vertex
    returns to s."""

    def test_satisfying_source_equals_target(self, algorithm_name):
        graph = figure3_graph()
        algorithm = make_algorithm(algorithm_name, graph)
        query = LSCRQuery.create("v2", "v2", ["likes"], figure3_constraint())
        assert algorithm.decide(query) is True  # v2 satisfies S0

    def test_non_satisfying_source_no_cycle(self, algorithm_name):
        graph = figure3_graph()
        algorithm = make_algorithm(algorithm_name, graph)
        query = LSCRQuery.create("v0", "v0", ["likes", "follows"], figure3_constraint())
        assert algorithm.decide(query) is False

    def test_cycle_through_satisfying_vertex(self, algorithm_name):
        graph = figure3_graph()
        algorithm = make_algorithm(algorithm_name, graph)
        query = LSCRQuery.create(
            "v4", "v4", ["hates", "friendOf", "likes"], figure3_constraint()
        )
        assert algorithm.decide(query) is True  # v4→v1→v3→v4 passes v1


class TestFigure1Scenario:
    """The introduction's criminal-detection query on the financial KG."""

    @pytest.fixture()
    def graph(self):
        return figure1_financial_graph()

    @pytest.fixture()
    def married_to_amy(self):
        from repro.constraints.substructure import SubstructureConstraint

        return SubstructureConstraint.from_sparql(
            "SELECT ?x WHERE { ?x <marriedTo> Amy . }"
        )

    def test_april_2019_chain_found(self, algorithm_name, graph, married_to_amy):
        algorithm = make_algorithm(algorithm_name, graph)
        query = LSCRQuery.create("C", "P", ["2019-04"], married_to_amy)
        assert algorithm.decide(query) is True

    def test_march_decoy_rejected(self, algorithm_name, graph, married_to_amy):
        # Restricting to March leaves no C→P path through Amy's spouse.
        algorithm = make_algorithm(algorithm_name, graph)
        query = LSCRQuery.create("C", "P", ["2019-03"], married_to_amy)
        assert algorithm.decide(query) is False

    def test_unmarried_path_rejected(self, algorithm_name, graph):
        from repro.constraints.substructure import SubstructureConstraint

        married_to_broker = SubstructureConstraint.from_sparql(
            "SELECT ?x WHERE { ?x <marriedTo> broker . }"
        )
        algorithm = make_algorithm(algorithm_name, graph)
        query = LSCRQuery.create("C", "P", ["2019-04"], married_to_broker)
        assert algorithm.decide(query) is False
