"""Tests for query planning: canonical keys, trivial answers, algorithm pick."""

import pytest

from repro.datasets.toy import figure3_graph
from repro.exceptions import BadRequestError, ConstraintError
from repro.service.cache import ConstraintCache
from repro.service.planner import TRIVIAL, QueryPlanner

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
S0_REFORMATTED = "SELECT ?x WHERE {\n  ?x <friendOf> v3 .   v3 <likes> ?y . }"
LABELS = ["likes", "follows"]


@pytest.fixture()
def planner():
    return QueryPlanner(figure3_graph(), ConstraintCache())


class TestCanonicalisation:
    def test_key_shape(self, planner):
        plan = planner.plan("v0", "v4", LABELS, S0)
        source, target, labels, constraint = plan.key
        assert (source, target) == ("v0", "v4")
        assert labels == frozenset({"follows", "likes"})  # the set, unsorted
        assert constraint.startswith("SELECT")

    def test_label_order_irrelevant(self, planner):
        a = planner.plan("v0", "v4", ["likes", "follows"], S0)
        b = planner.plan("v0", "v4", ["follows", "likes"], S0)
        assert a.key == b.key

    def test_constraint_formatting_irrelevant(self, planner):
        a = planner.plan("v0", "v4", LABELS, S0)
        b = planner.plan("v0", "v4", LABELS, S0_REFORMATTED)
        assert a.key == b.key

    def test_different_queries_different_keys(self, planner):
        a = planner.plan("v0", "v4", LABELS, S0)
        b = planner.plan("v0", "v3", LABELS, S0)
        assert a.key != b.key


class TestTrivialAnswers:
    def test_unknown_vertex_is_false(self, planner):
        for source, target in (("nope", "v4"), ("v0", "nope")):
            plan = planner.plan(source, target, LABELS, S0)
            assert plan.is_trivial
            assert plan.trivial_answer is False
            assert plan.algorithm == TRIVIAL
            assert plan.query is None

    def test_absent_labels_are_false(self, planner):
        plan = planner.plan("v0", "v4", ["no-such-label"], S0)
        assert plan.trivial_answer is False
        assert "label" in plan.reason

    def test_unsatisfiable_constraint_is_false(self, planner):
        # A pattern over a label the graph lacks can match nothing, so
        # V(S, G) is empty and every query under it is false.
        plan = planner.plan(
            "v0", "v4", LABELS, "SELECT ?x WHERE { ?x <no-such-label> ?y . }"
        )
        assert plan.trivial_answer is False
        assert "constraint" in plan.reason

    def test_self_loop_satisfying_source_is_true(self, planner):
        # v2 satisfies S0 in Figure 3, so Q=(v2, v2, L, S0) answers via
        # the trivial path without any search.
        plan = planner.plan("v2", "v2", LABELS, S0)
        assert plan.trivial_answer is True

    def test_self_loop_non_satisfying_source_not_trivial(self, planner):
        # v0 does not satisfy S0: a cycle through a satisfying vertex
        # could still answer true, so the planner must not short-circuit.
        plan = planner.plan("v0", "v0", LABELS, S0)
        assert not plan.is_trivial

    def test_normal_query_not_trivial(self, planner):
        plan = planner.plan("v0", "v4", LABELS, S0)
        assert not plan.is_trivial
        assert plan.query is not None
        assert plan.trivial_answer is None


class TestAlgorithmChoice:
    def test_default(self, planner):
        plan = planner.plan("v0", "v4", LABELS, S0)
        assert plan.algorithm == "meet"
        assert plan.reason == "meet is the measured-cheapest evaluator"
        assert not plan.forced

    def test_explicit_override_wins(self, planner):
        plan = planner.plan("v0", "v4", LABELS, S0, algorithm="naive")
        assert plan.algorithm == "naive"
        assert "requested" in plan.reason

    def test_unknown_algorithm_rejected(self, planner):
        with pytest.raises(BadRequestError, match="unknown algorithm"):
            planner.plan("v0", "v4", LABELS, S0, algorithm="dijkstra")

    def test_ins_rejected_before_the_constraint_is_parsed(self):
        constraints = ConstraintCache()
        planner = QueryPlanner(figure3_graph(), constraints)
        with pytest.raises(BadRequestError, match="repro query --algorithm ins"):
            planner.plan("v0", "v4", LABELS, S0, algorithm="ins")
        assert len(constraints) == 0

    def test_bad_request_raised_even_for_trivial_query(self, planner):
        with pytest.raises(BadRequestError):
            planner.plan("nope", "v4", LABELS, S0, algorithm="dijkstra")

    def test_empty_labels_rejected(self, planner):
        with pytest.raises(ConstraintError):
            planner.plan("v0", "v4", [], S0)
