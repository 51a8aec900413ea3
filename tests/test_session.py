"""Tests for the LSCRSession facade."""

import random

import pytest

from repro.core.algorithms import ALGORITHMS
from repro.datasets.toy import figure3_constraint, figure3_graph
from repro.exceptions import ReproError
from repro.session import LSCRSession

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"


class TestConstruction:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_algorithm_constructs(self, algorithm):
        session = LSCRSession(figure3_graph(), algorithm=algorithm, seed=0)
        assert session.ask("v0", "v4", ["likes", "follows"], S0) is True

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ReproError, match="unknown algorithm"):
            LSCRSession(figure3_graph(), algorithm="dijkstra")

    def test_ins_builds_index_once(self):
        session = LSCRSession(figure3_graph(), algorithm="ins", seed=0)
        assert session.index is not None
        first = session.index
        session.ask("v0", "v4", ["likes", "follows"], S0)
        assert session.index is first

    def test_non_ins_has_no_index(self):
        session = LSCRSession(figure3_graph(), algorithm="uis")
        assert session.index is None


class TestSeedRule:
    """One rule: all session randomness derives from seed; None means 0."""

    def test_none_is_equivalent_to_zero(self):
        graph = figure3_graph()
        default = LSCRSession(graph, algorithm="ins")
        explicit = LSCRSession(graph, algorithm="ins", seed=0)
        assert default.seed == explicit.seed == 0
        assert (
            default.index.partition.landmarks
            == explicit.index.partition.landmarks
        )

    def test_same_seed_same_index(self):
        graph = figure3_graph()
        first = LSCRSession(graph, algorithm="ins", seed=7)
        second = LSCRSession(graph, algorithm="ins", seed=7)
        assert first.index.partition.landmarks == second.index.partition.landmarks
        assert first.index.eit == second.index.eit

    def test_equal_arguments_agree_on_answers(self):
        graph = figure3_graph()
        cases = [
            ("v0", "v4", ["likes", "follows"]),
            ("v0", "v3", ["likes", "follows"]),
            ("v3", "v4", ["likes", "hates", "friendOf"]),
        ]
        for seed in (None, 0, 3):
            a = LSCRSession(graph, algorithm="ins", seed=seed)
            b = LSCRSession(graph, algorithm="ins", seed=seed)
            for source, target, labels in cases:
                assert a.ask(source, target, labels, S0) == b.ask(
                    source, target, labels, S0
                )

    def test_a_shuffle_rng_only_where_the_evaluator_declares_one(self):
        graph = figure3_graph()
        for algorithm in ("uis*", "ins"):       # the paper's disordered V(S, G)
            session = LSCRSession(graph, algorithm=algorithm, seed=5)
            assert session._algorithm.rng.random() == random.Random(5).random()
        for algorithm in ("meet", "uis", "naive"):
            session = LSCRSession(graph, algorithm=algorithm, seed=5)
            assert not hasattr(session._algorithm, "rng")

    def test_shared_constraint_cache(self):
        from repro.service.cache import ConstraintCache

        graph = figure3_graph()
        shared = ConstraintCache()
        first = LSCRSession(graph, algorithm="uis", constraint_cache=shared)
        second = LSCRSession(graph, algorithm="uis", constraint_cache=shared)
        first.ask("v0", "v4", ["likes", "follows"], S0)
        second.ask("v0", "v3", ["likes", "follows"], S0)
        stats = shared.stats()
        assert stats.misses == 1        # parsed once across both sessions
        assert stats.hits == 1


class TestQuerying:
    @pytest.fixture()
    def session(self):
        return LSCRSession(figure3_graph(), algorithm="uis")

    def test_ask_true_false(self, session):
        assert session.ask("v0", "v4", ["likes", "follows"], S0) is True
        assert session.ask("v0", "v3", ["likes", "follows"], S0) is False

    def test_constraint_text_cached(self, session):
        session.ask("v0", "v4", ["likes", "follows"], S0)
        cached = session._constraint_cache.get(S0)
        session.ask("v0", "v3", ["likes", "follows"], S0)
        assert session._constraint_cache.get(S0) is cached

    def test_constraint_object_accepted(self, session):
        assert session.ask(
            "v0", "v4", ["likes", "follows"], figure3_constraint()
        ) is True

    def test_answer_many(self, session):
        queries = [
            session.make_query("v0", "v4", ["likes", "follows"], S0),
            session.make_query("v0", "v3", ["likes", "follows"], S0),
        ]
        results = session.answer_many(queries)
        assert [r.answer for r in results] == [True, False]

    def test_answer_many_matches_answer_loop(self, session):
        queries = [
            session.make_query(s, t, ["likes", "follows", "friendOf"], S0)
            for s, t in [("v0", "v4"), ("v0", "v3"), ("v3", "v4"), ("v1", "v4")] * 8
        ]
        expected = [session.answer(query).answer for query in queries]
        results = session.answer_many(queries)
        assert [result.answer for result in results] == expected

    def test_answer_many_empty(self, session):
        assert session.answer_many([]) == []

    def test_explain_true_query(self, session):
        query = session.make_query("v0", "v4", ["likes", "follows"], S0)
        witness = session.explain(query)
        assert witness is not None
        assert witness.satisfying_vertex == "v2"

    def test_explain_false_query(self, session):
        query = session.make_query("v0", "v3", ["likes", "follows"], S0)
        assert session.explain(query) is None

    def test_answer_telemetry(self, session):
        query = session.make_query("v0", "v4", ["likes", "follows"], S0)
        result = session.answer(query)
        assert result.algorithm == "UIS"
        assert result.passed_vertices >= 1

    def test_repr(self, session):
        assert "uis" in repr(session)
