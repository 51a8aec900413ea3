"""Tests specific to UIS* (Algorithm 2)."""

import random

import pytest

from repro.constraints.substructure import SubstructureConstraint
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.core.uis_star import UISStar
from repro.datasets.synthetic import cycle_graph, line_graph
from repro.datasets.toy import figure3_constraint, figure3_graph
from tests.helpers import graph_from_edges


def anchor(label: str, target: str) -> SubstructureConstraint:
    return SubstructureConstraint.from_sparql(
        f"SELECT ?x WHERE {{ ?x <{label}> {target} . }}"
    )


class TestSharedFrontier:
    def test_frontier_survives_early_return(self):
        """Regression for the shared-stack bug: when LCS(B=F) finds its
        candidate mid-way through a vertex's edge list, the remaining
        edges must stay available to later invocations."""
        g = graph_from_edges(
            [
                # v1's first edge reaches candidate c1 (dead end);
                # its second edge leads to the real path via c2.
                ("v1", "l", "c1"),
                ("v1", "l", "m"),
                ("m", "l", "c2"),
                ("c2", "l", "t"),
                # both c1 and c2 satisfy the constraint
                ("c1", "mark", "flag"),
                ("c2", "mark", "flag"),
            ]
        )
        query = LSCRQuery.create("v1", "t", ["l"], anchor("mark", "flag"))
        # try every candidate order
        for seed in range(6):
            assert UISStar(g, rng=random.Random(seed)).decide(query) is True

    def test_vertices_visited_at_most_twice(self):
        # Theorem 4.5: O(|V| + |E|) via the shared close map.
        g = cycle_graph(12)
        g.add_edge("n6", "mark", "flag")
        query = LSCRQuery.create("n0", "n11", ["next"], anchor("mark", "flag"))
        result = UISStar(g).answer(query)
        assert result.answer is True
        assert result.passed_vertices <= g.num_vertices


class TestVsgHandling:
    def test_vsg_size_reported(self):
        g = figure3_graph()
        query = LSCRQuery.create("v0", "v4", ["likes", "follows"], figure3_constraint())
        result = UISStar(g).answer(query)
        assert result.vsg_size == 2  # V(S0, G0) = {v1, v2}
        assert result.vsg_seconds >= 0.0

    def test_empty_vsg_is_false(self):
        g = graph_from_edges([("a", "x", "b")])
        query = LSCRQuery.create("a", "b", ["x"], anchor("mark", "flag"))
        result = UISStar(g).answer(query)
        assert result.answer is False
        assert result.vsg_size == 0
        assert result.lcs_calls == 0

    def test_candidate_order_does_not_change_answer(self):
        g = figure3_graph()
        queries = [
            LSCRQuery.create("v0", "v4", ["likes", "follows"], figure3_constraint()),
            LSCRQuery.create("v0", "v3", ["likes", "follows"], figure3_constraint()),
            LSCRQuery.create("v3", "v4", ["likes", "hates", "friendOf"], figure3_constraint()),
        ]
        for query in queries:
            answers = {
                UISStar(g, rng=random.Random(seed)).decide(query) for seed in range(8)
            }
            assert len(answers) == 1

    def test_target_in_vsg_short_circuit(self):
        # t satisfies S: the answer collapses to plain LCR reachability.
        g = graph_from_edges([("a", "n", "b"), ("b", "mark", "flag")])
        query = LSCRQuery.create("a", "b", ["n"], anchor("mark", "flag"))
        result = UISStar(g).answer(query)
        assert result.answer is True
        assert result.lcs_calls == 1  # single LCS(s, t, F)


class TestLcsBehaviour:
    def test_second_leg_reuses_first_leg_marks(self):
        g = line_graph(8)
        g.add_edge("n4", "mark", "flag")
        query = LSCRQuery.create("n0", "n8", ["next"], anchor("mark", "flag"))
        result = UISStar(g).answer(query)
        assert result.answer is True
        # close states: n0..n4 marked F by the first leg, n4..n8 T by the
        # second; the count never exceeds |V|.
        assert result.passed_vertices <= g.num_vertices

    def test_empty_vsg_skips_search_entirely(self):
        g = line_graph(8)
        query = LSCRQuery.create("n0", "n8", ["next"], anchor("missing", "x"))
        result = UISStar(g).answer(query)
        assert result.answer is False
        assert result.passed_vertices == 1  # only close[s] = F was set

    def test_false_query_explores_reachable_space_once(self):
        # An unreachable satisfying vertex forces the F-leg to exhaust
        # the whole space s reaches under L — exactly once (Lemma 4.2).
        g = line_graph(8)
        g.add_edge("island", "mark", "flag")
        query = LSCRQuery.create("n0", "n8", ["mark"], anchor("mark", "flag"))
        result = UISStar(g).answer(query)
        assert result.answer is False
        assert result.passed_vertices == 1  # n0 has no mark-edges
        g2 = line_graph(8)
        g2.add_edge("island", "mark", "flag")
        query2 = LSCRQuery.create("n0", "n8", ["next", "mark"], anchor("mark", "flag"))
        result2 = UISStar(g2).answer(query2)
        assert result2.answer is False
        assert result2.passed_vertices == 9  # the whole line, island excluded


MARKED = anchor("mark", "flag")
#: Enough shuffles to see every order of up to three candidates.
ORDERS = range(12)


def marked(*vertices):
    return [(v, "mark", "flag") for v in vertices]


def checked(graph, query, rng=None) -> bool:
    """Answer on the dict graph and its CSR snapshot against the naive
    oracle; the shared verdict."""
    expected = NaiveTwoProcedure(graph).decide(query)
    for form in (graph, graph.freeze()):
        assert UISStar(form, rng=rng).answer(query).answer is expected
    return expected


class TestVerdicts:
    def test_trivial_path(self):
        graph = graph_from_edges([("s", "go", "a"), *marked("s")])
        assert checked(graph, LSCRQuery.create("s", "s", ["go"], MARKED))

    def test_cycle_back_to_a_source_that_does_not_satisfy(self):
        graph = graph_from_edges([("s", "go", "c"), ("c", "go", "s"), *marked("c")])
        assert checked(graph, LSCRQuery.create("s", "s", ["go"], MARKED))

    @pytest.mark.parametrize("satisfying", ["s", "t"])
    def test_an_endpoint_is_the_satisfying_vertex(self, satisfying):
        graph = graph_from_edges([("s", "go", "a"), ("a", "go", "t"), *marked(satisfying)])
        assert checked(graph, LSCRQuery.create("s", "t", ["go"], MARKED))

    def test_only_edges_inside_l_connect(self):
        # s -> t carries two labels; only "go" is inside L.
        graph = graph_from_edges([("s", "avoid", "t"), ("s", "go", "t"), *marked("t")])
        assert checked(graph, LSCRQuery.create("s", "t", ["go"], MARKED))
        assert not checked(graph, LSCRQuery.create("s", "t", ["mark"], MARKED))

    @pytest.mark.parametrize("seed", ORDERS)
    def test_true_only_after_failed_t_legs(self, seed):
        # In the order c1, c2, c3: both c1 and c2 are F once the first
        # F leg expands s (so c2 starts its T leg already F), c1's T leg
        # fails and upgrades x — an entry still on the F stack — and
        # only c3, found by a later F leg that pops x first, reaches t.
        # The shuffles cover the other orders.
        graph = graph_from_edges(
            [
                ("s", "go", "c1"), ("s", "go", "a"), ("s", "go", "x"), ("s", "go", "c2"),
                ("c1", "go", "x"), ("x", "go", "y"), ("c2", "go", "y"),
                ("a", "go", "c3"), ("c3", "go", "t"),
                *marked("c1", "c2", "c3"),
            ]
        )
        query = LSCRQuery.create("s", "t", ["go"], MARKED)
        assert checked(graph, query, random.Random(seed))

    @pytest.mark.parametrize("seed", ORDERS)
    def test_false_when_every_leg_fails(self, seed):
        graph = graph_from_edges(
            [
                ("s", "go", "c1"), ("s", "go", "c2"), ("c1", "go", "c2"),
                ("other", "go", "t"), *marked("c1", "c2"),
            ]
        )
        query = LSCRQuery.create("s", "t", ["go"], MARKED)
        assert not checked(graph, query, random.Random(seed))
