"""Router behavior at the execute seam: tiers, caching, epochs."""

from __future__ import annotations

import pytest

from repro.approx import SHORT_CIRCUIT_ALGORITHMS
from repro.core.algorithms import ALGORITHMS
from repro.index.local_index import build_local_index
from repro.service.app import QueryService
from tests.helpers import graph_from_edges

MARK = "SELECT ?x WHERE { ?x <mark> ?y . }"


def make_graph():
    # s -> m -> t under "go" with m satisfying; u/w isolated except for
    # one edge between them, so (s, u) is label-blind unreachable and
    # (u, w) is reachable but constraint-false.
    return graph_from_edges(
        [
            ("s", "go", "m"),
            ("m", "go", "t"),
            ("m", "mark", "m"),
            ("u", "go", "w"),
        ]
    )


@pytest.fixture()
def service():
    svc = QueryService(make_graph(), seed=0)
    yield svc
    svc.close()


class TestShortCircuits:
    def test_definite_no_from_bounds(self, service):
        result, meta = service.query("t", "s", ["go"], MARK)
        assert result.answer is False
        assert result.algorithm == "bounds"
        assert meta["tier"] == "short-circuit"
        stats = service.approx.stats()
        assert stats["short_circuit_no"] == 1

    def test_definite_no_from_label_mask(self, service):
        # s has out-edges, but none labeled "mark": the O(1) degree
        # test refuses before the bounds index is even consulted.
        result, _ = service.query("s", "t", ["mark"], MARK)
        assert result.answer is False
        assert result.algorithm == "bounds"
        assert service.approx.stats()["short_circuit_no_mask"] == 1

    def test_label_mask_no_is_the_kernels_empty_frontier(self, service):
        # Every pair the O(1) tests settle, the default kernel (forced,
        # so the router stands aside) settles the same way.
        vertices, settled = ["s", "m", "t", "u"], 0
        for labels in (["go"], ["mark"], ["go", "mark"]):
            for source in vertices:
                for target in vertices:
                    routed, _ = service.query(
                        source, target, labels, MARK, use_cache=False
                    )
                    if routed.algorithm != "bounds":
                        continue
                    forced, _ = service.query(
                        source, target, labels, MARK,
                        algorithm="meet", use_cache=False,
                    )
                    assert forced.algorithm == "Meet"
                    assert forced.answer is routed.answer is False
                    settled += 1
        assert settled >= service.approx.stats()["short_circuit_no_mask"] > 0

    def test_self_loop_query_never_short_circuits_no(self, service):
        # reach(s, s) is trivially true label-blind, but the LSCR
        # answer needs a cycle through a satisfying vertex — there is
        # none here, and the router must fall through, not guess.
        result, meta = service.query("s", "s", ["go"], MARK)
        assert result.answer is False
        assert result.algorithm != "bounds"

    def test_forced_algorithm_bypasses_router(self, service):
        result, meta = service.query("t", "s", ["go"], MARK, algorithm="uis*")
        assert result.answer is False
        assert result.algorithm == "UIS*"
        assert "tier" not in meta

    def test_sound_short_circuits_are_cached(self, service):
        service.query("t", "s", ["go"], MARK)
        _, meta = service.query("t", "s", ["go"], MARK)
        assert meta["cached"] is True


class TestExactOnly:
    def test_uncertain_band_answers_exactly_and_is_cached(self, service):
        # (u, w) is label-blind reachable but constraint-false: the
        # bounds cannot settle it, so the exact evaluator does...
        result, meta = service.query("u", "w", ["go"], MARK)
        assert result.answer is False
        assert result.algorithm == "Meet"
        assert meta["tier"] == "exact"
        # ...and its answer is stored like any other.
        repeat, repeat_meta = service.query("u", "w", ["go"], MARK)
        assert repeat.answer is False
        assert repeat_meta["cached"] is True

    def test_query_takes_no_mode(self, service):
        with pytest.raises(TypeError):
            service.query("u", "w", ["go"], MARK, mode="approximate")
        with pytest.raises(TypeError):
            service.query_batch(
                [{"source": "u", "target": "w", "labels": ["go"],
                  "constraint": MARK}],
                mode="approximate",
            )

    def test_routed_is_the_sum_of_its_outcomes(self, service):
        for source, target in (("t", "s"), ("s", "t"), ("s", "t"), ("u", "w")):
            service.query(source, target, ["go"], MARK, use_cache=False)
        service.query("s", "t", ["mark"], MARK, use_cache=False)
        stats = service.approx.stats()
        assert stats["short_circuit_no"] == 2
        assert stats["exact_fallthrough"] == 3
        assert stats["routed"] == 5
        assert stats["short_circuit_rate"] == pytest.approx(2 / 5)

    def test_stats_carry_no_guess_accounting(self, service):
        service.query("u", "w", ["go"], MARK)
        assert set(service.approx.stats()) == {
            "enabled", "routed", "short_circuit_no", "short_circuit_no_mask",
            "short_circuit_no_bounds", "short_circuit_rate", "exact_fallthrough",
        }


class TestNamedAlgorithms:
    @pytest.mark.parametrize("algorithm", ["uis", "naive", "meet"])
    def test_a_named_algorithm_skips_the_router(self, algorithm):
        # A request that names an evaluator is a forced plan, and a forced
        # plan never meets the router: no tier, no short-circuit.
        # (Unnamed, the same two queries are routed and the False is
        # settled by bounds — TestShortCircuits.)
        svc = QueryService(make_graph(), seed=0)
        try:
            for source, target, expected in (("s", "t", True), ("t", "s", False)):
                result, meta = svc.query(
                    source, target, ["go"], MARK, algorithm=algorithm
                )
                assert result.answer is expected
                assert result.algorithm != "bounds"
                assert "tier" not in meta
            stats = svc.approx.stats()
        finally:
            svc.close()
        assert stats["routed"] == 0


class TestEpochs:
    def test_bounds_rebuild_on_update(self, service):
        before, _ = service.query("s", "u", ["go"], MARK, use_cache=False)
        assert before.answer is False
        assert before.algorithm == "bounds"
        service.apply_updates([("t", "go", "u")])
        assert service.epoch.bounds is not None
        after, meta = service.query("s", "u", ["go"], MARK, use_cache=False)
        # The rebuilt bounds no longer exclude the pair; the exact path
        # answers True through the new edge.
        assert after.answer is True
        assert meta["epoch"] == 1

    @pytest.mark.parametrize("cache_size", [1024, 0], ids=["cached", "uncached"])
    def test_a_repeated_true_turns_false_after_edge_removal(self, cache_size):
        svc = QueryService(make_graph(), seed=0, cache_size=cache_size)
        try:
            for _ in range(2):
                before, meta = svc.query("s", "t", ["go"], MARK)
                assert before.answer is True and meta["epoch"] == 0
            svc.apply_updates([("s", "go", "m", "remove")])
            after, meta = svc.query("s", "t", ["go"], MARK)
        finally:
            svc.close()
        assert after.answer is False
        assert meta["epoch"] == 1 and meta["cached"] is False

    @pytest.mark.parametrize("cache_size", [1024, 0], ids=["cached", "uncached"])
    def test_a_repeated_true_survives_an_unrelated_update(self, cache_size):
        svc = QueryService(make_graph(), seed=0, cache_size=cache_size)
        try:
            for _ in range(2):
                before, _ = svc.query("s", "t", ["go"], MARK)
                assert before.answer is True
            svc.apply_updates([("u", "go", "s")])
            after, meta = svc.query("s", "t", ["go"], MARK)
        finally:
            svc.close()
        # New epoch (its result cache starts empty): the exact tier
        # answers again on the updated graph.
        assert after.answer is True and after.algorithm == "Meet"
        assert meta["epoch"] == 1 and meta["tier"] == "exact"


class TestOneDefaultRoute:
    """A request names its evaluator, or takes the one routed default."""

    VERTICES = ("s", "m", "t", "u", "w")

    @pytest.fixture()
    def indexed(self):
        """``(service, the exact tier's algorithm tag)``, with an index so
        that every registered evaluator can be named."""
        graph = make_graph()
        svc = QueryService(graph, build_local_index(graph, k=2, rng=0), seed=0)
        yield svc, "Meet"
        svc.close()

    def asked(self, svc, **named):
        for source in self.VERTICES:
            for target in self.VERTICES:
                for labels in (["go"], ["go", "mark"]):
                    yield svc.query(
                        source, target, labels, MARK, use_cache=False, **named
                    )

    def test_an_unnamed_request_is_routed(self, indexed):
        svc, exact = indexed
        tiers = set()
        for result, meta in self.asked(svc):
            if meta["trivial"]:
                continue
            tiers.add(meta["tier"])
            if meta["tier"] == "exact":
                assert result.algorithm == exact
            else:
                assert meta["tier"] == "short-circuit"
                assert result.algorithm in SHORT_CIRCUIT_ALGORITHMS
        assert tiers == {"exact", "short-circuit"}

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_a_named_request_runs_that_evaluator(self, indexed, algorithm):
        svc, _ = indexed
        evaluated = 0
        for result, meta in self.asked(svc, algorithm=algorithm):
            assert "tier" not in meta
            if not meta["trivial"]:
                assert result.algorithm == ALGORITHMS[algorithm].name
                evaluated += 1
        assert evaluated > 0
        assert svc.approx.stats()["routed"] == 0
