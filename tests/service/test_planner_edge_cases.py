"""Planner edge cases: short-circuit answers, and what must NOT be cached.

Each degenerate request has two contracts: the planner's verdict (a
trivial answer with the right Boolean and reason, or a clean
``BadRequestError``) *and* the cache discipline around it — trivial
answers cost nothing to recompute so they are never stored, and error
paths must leave both the result cache and the constraint cache exactly
as they found them, so a flood of garbage requests cannot evict real
entries.
"""

from __future__ import annotations

import pytest

from repro.datasets.toy import figure3_graph
from repro.exceptions import BadRequestError, SparqlError
from repro.service.app import QueryService
from repro.service.planner import TRIVIAL, QueryPlanner

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
LABELS = ["likes", "follows"]


@pytest.fixture()
def graph():
    return figure3_graph()


@pytest.fixture()
def service(graph):
    return QueryService(graph, seed=0)


@pytest.fixture()
def planner(graph):
    return QueryPlanner(graph)


class TestSourceEqualsTarget:
    def test_satisfying_source_is_trivially_true(self, service):
        # v1 has a friendOf edge to v3 and v3 likes v4, so v1 satisfies
        # S0: the trivial path <v1> answers true without a search.
        result, meta = service.query("v1", "v1", LABELS, S0)
        assert result.answer is True
        assert meta["trivial"]
        assert result.algorithm == "planner"
        assert result.passed_vertices == 0

    def test_non_satisfying_source_still_searches(self, service, planner):
        # s == t alone is NOT trivial: a cycle through a satisfying
        # vertex may exist, so the planner must emit an execution plan.
        plan = planner.plan("v0", "v0", LABELS, S0)
        assert not plan.is_trivial
        assert plan.algorithm != TRIVIAL
        result, meta = service.query("v0", "v0", LABELS, S0)
        assert not meta["trivial"]
        assert result.answer is False        # figure 3 has no such cycle

    def test_trivially_true_answer_not_cached(self, service):
        service.query("v1", "v1", LABELS, S0)
        assert len(service.results) == 0
        _, meta = service.query("v1", "v1", LABELS, S0)
        assert meta["trivial"] and not meta["cached"]


class TestAbsentLabels:
    def test_labels_outside_alphabet_trivially_false(self, service):
        result, meta = service.query("v0", "v4", ["no-such-label"], S0)
        assert result.answer is False
        assert meta["trivial"]
        assert "no requested label" in meta["reason"]
        assert len(service.results) == 0

    def test_mixed_known_unknown_labels_still_search(self, service):
        # One real label keeps the mask non-empty: not trivial.
        result, meta = service.query("v0", "v4", ["likes", "follows", "bogus"], S0)
        assert not meta["trivial"]
        assert result.answer is True

    def test_s_equals_t_beats_empty_mask(self, planner):
        # Precedence: s == t with a satisfying source answers TRUE even
        # when no requested label exists — the trivial path needs no edge.
        plan = planner.plan("v1", "v1", ["no-such-label"], S0)
        assert plan.is_trivial and plan.trivial_answer is True


class TestConstraintText:
    @pytest.mark.parametrize("text", ["", "   ", "\n\t  \n"])
    def test_empty_or_whitespace_rejected_uncached(self, service, text):
        before_results = len(service.results)
        before_constraints = len(service.constraints)
        with pytest.raises(BadRequestError, match="non-empty SPARQL"):
            service.query("v0", "v4", LABELS, text)
        assert len(service.results) == before_results
        assert len(service.constraints) == before_constraints

    def test_invalid_sparql_rejected_uncached(self, service):
        with pytest.raises(SparqlError):
            service.query("v0", "v4", LABELS, "SELECT garbage ?!")
        assert len(service.results) == 0
        assert len(service.constraints) == 0
        assert service.stats.snapshot()["queries"]["total"] == 0

    def test_unsatisfiable_constraint_trivially_false(self, service):
        unsatisfiable = "SELECT ?x WHERE { ?x <no-such-predicate> ?y . }"
        result, meta = service.query("v0", "v4", LABELS, unsatisfiable)
        assert result.answer is False
        assert meta["trivial"]
        assert "satisfy" in meta["reason"]
        # The constraint text itself *is* cached (it parsed fine); the
        # trivial result is not.
        assert len(service.results) == 0
        assert unsatisfiable in service.constraints


class TestUnknownVertices:
    @pytest.mark.parametrize(
        "source, target", [("ghost", "v4"), ("v0", "ghost"), ("ghost", "phantom")]
    )
    def test_unknown_vertices_trivially_false(self, service, source, target):
        result, meta = service.query(source, target, LABELS, S0)
        assert result.answer is False
        assert meta["trivial"]
        assert "not in the graph" in meta["reason"]
        assert len(service.results) == 0

    def test_unknown_vertex_s_equals_t(self, service):
        # Same unknown name on both ends: still false — there is no
        # vertex for the trivial path to stand on.
        result, meta = service.query("ghost", "ghost", LABELS, S0)
        assert result.answer is False
        assert meta["trivial"]


class TestErrorPathsLeaveNoTrace:
    def test_unknown_algorithm_rejected_uncached(self, service):
        with pytest.raises(BadRequestError, match="unknown algorithm"):
            service.query("v0", "v4", LABELS, S0, algorithm="dijkstra")
        assert len(service.results) == 0
        assert service.stats.snapshot()["queries"]["total"] == 0

    def test_ins_rejected_uncached(self, service):
        # The service serves index-free; INS runs in ``repro query``.
        with pytest.raises(BadRequestError, match="repro query --algorithm ins"):
            service.query("v0", "v4", LABELS, S0, algorithm="ins")
        assert len(service.results) == 0
        assert len(service.constraints) == 0
        assert service.stats.snapshot()["queries"]["total"] == 0

    def test_batch_error_poisons_nothing(self, service):
        specs = [
            {"source": "v0", "target": "v4", "labels": LABELS, "constraint": S0},
            {"source": "v0", "target": "v4", "labels": LABELS, "constraint": ""},
        ]
        with pytest.raises(BadRequestError):
            service.handle_batch({"queries": specs})
        # Validation failed before any execution: nothing cached, nothing
        # counted as answered.
        assert len(service.results) == 0
        assert service.stats.snapshot()["queries"]["total"] == 0

    def test_good_query_after_errors_unaffected(self, service):
        for _ in range(3):
            with pytest.raises(BadRequestError):
                service.query("v0", "v4", LABELS, "")
        result, meta = service.query("v0", "v4", LABELS, S0)
        assert result.answer is True
        assert not meta["cached"]
        _, meta = service.query("v0", "v4", LABELS, S0)
        assert meta["cached"]
