"""``UISStar.answer(q).witness`` — the path the search itself walked.

A True verdict carries a witness :func:`verify_witness` accepts; a False
one carries None.  The walked path need not be the shortest one, so the
oracle here is the verifier (and the naive evaluator for the verdict),
not ``find_witness``'s output.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.constraints.substructure import SubstructureConstraint
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.core.uis_star import UISStar
from repro.core.witness import verify_witness
from tests.core.test_agreement import agreement_cases
from tests.helpers import graph_from_edges

MARKED = SubstructureConstraint.from_sparql("SELECT ?x WHERE { ?x <mark> flag . }")
#: Enough shuffles to see every order of up to three candidates.
SEEDS = range(12)


def checked(graph, query, rng=None):
    """Answer on the dict graph and its CSR snapshot; check the witness."""
    expected = NaiveTwoProcedure(graph).decide(query)
    for form in (graph, graph.freeze()):
        result = UISStar(form, rng=rng).answer(query)
        assert result.answer is expected
        if expected:
            assert result.witness is not None
            assert verify_witness(form, query, result.witness)
        else:
            assert result.witness is None
    return result


class TestWitnessProperty:
    @settings(max_examples=150, deadline=None)
    @given(agreement_cases())
    def test_witness_verifies_iff_true(self, case):
        graph, constraint, labels, source, target, seed = case
        query = LSCRQuery.create(source, target, labels, constraint)
        checked(graph, query)                           # engine order
        checked(graph, query, random.Random(seed))      # shuffled order


def marked(*vertices):
    return [(v, "mark", "flag") for v in vertices]


class TestWalkedPaths:
    def test_trivial_path(self):
        graph = graph_from_edges([("s", "go", "a"), *marked("s")])
        witness = checked(graph, LSCRQuery.create("s", "s", ["go"], MARKED)).witness
        assert witness.edges == () and witness.satisfying_vertex == "s"

    def test_cycle_back_to_a_source_that_does_not_satisfy(self):
        graph = graph_from_edges(
            [("s", "go", "c"), ("c", "go", "s"), *marked("c")]
        )
        witness = checked(graph, LSCRQuery.create("s", "s", ["go"], MARKED)).witness
        assert witness.vertices() == ("s", "c", "s")

    def test_source_is_the_satisfying_vertex(self):
        graph = graph_from_edges([("s", "go", "a"), ("a", "go", "t"), *marked("s")])
        witness = checked(graph, LSCRQuery.create("s", "t", ["go"], MARKED)).witness
        assert witness.vertices() == ("s", "a", "t")
        assert witness.satisfying_vertex == "s"

    def test_target_is_the_satisfying_vertex(self):
        graph = graph_from_edges([("s", "go", "a"), ("a", "go", "t"), *marked("t")])
        witness = checked(graph, LSCRQuery.create("s", "t", ["go"], MARKED)).witness
        assert witness.vertices() == ("s", "a", "t")
        assert witness.satisfying_vertex == "t"

    def test_edge_label_comes_from_the_constraint(self):
        # s -> t carries two labels; only "go" is inside L.
        graph = graph_from_edges(
            [("s", "avoid", "t"), ("s", "go", "t"), *marked("t")]
        )
        witness = checked(graph, LSCRQuery.create("s", "t", ["go"], MARKED)).witness
        assert witness.edges == (("s", "go", "t"),)

    @pytest.mark.parametrize("seed", SEEDS)
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
        result = checked(
            graph, LSCRQuery.create("s", "t", ["go"], MARKED), random.Random(seed)
        )
        assert result.witness.vertices() == ("s", "a", "c3", "t")
        assert result.witness.satisfying_vertex == "c3"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_false_when_every_leg_fails(self, seed):
        graph = graph_from_edges(
            [
                ("s", "go", "c1"), ("s", "go", "c2"), ("c1", "go", "c2"),
                ("other", "go", "t"), *marked("c1", "c2"),
            ]
        )
        checked(graph, LSCRQuery.create("s", "t", ["go"], MARKED), random.Random(seed))
