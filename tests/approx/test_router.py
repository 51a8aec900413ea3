"""Router behavior at the execute seam: tiers, caching, epochs."""

from __future__ import annotations

import pytest

from repro.approx import SHORT_CIRCUIT_ALGORITHMS
from repro.core.algorithms import ALGORITHMS
from repro.index.local_index import build_local_index
from repro.service.app import QueryService
from repro.shard import ShardedQueryService
from tests.helpers import graph_from_edges, sharded_fleet

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

    def test_witness_answers_repeat_true_queries(self, service):
        first, _ = service.query("s", "t", ["go"], MARK, use_cache=False)
        assert first.answer is True
        assert first.algorithm == "Meet"
        second, meta = service.query("s", "t", ["go"], MARK, use_cache=False)
        assert second.answer is True
        assert second.algorithm == "witness"
        assert meta["tier"] == "short-circuit"
        assert service.approx.stats()["short_circuit_yes"] == 1

    def test_self_loop_query_never_short_circuits_no(self, service):
        # reach(s, s) is trivially true label-blind, but the LSCR
        # answer needs a cycle through a satisfying vertex — there is
        # none here, and the router must fall through, not guess.
        result, meta = service.query("s", "s", ["go"], MARK)
        assert result.answer is False
        assert result.algorithm != "bounds"

    def test_cycle_self_query_witness(self):
        graph = graph_from_edges(
            [("a", "go", "b"), ("b", "go", "a"), ("b", "mark", "b")]
        )
        svc = QueryService(graph, seed=0)
        try:
            first, _ = svc.query("a", "a", ["go"], MARK, use_cache=False)
            assert first.answer is True
            second, _ = svc.query("a", "a", ["go"], MARK, use_cache=False)
            assert second.algorithm == "witness"
        finally:
            svc.close()

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
        assert stats["short_circuit_yes"] == 1
        assert stats["exact_fallthrough"] == 2
        assert stats["routed"] == 5
        assert stats["short_circuit_rate"] == pytest.approx(3 / 5)

    def test_stats_carry_no_guess_accounting(self, service):
        service.query("u", "w", ["go"], MARK)
        assert set(service.approx.stats()) == {
            "enabled", "routed", "short_circuit_no", "short_circuit_no_mask",
            "short_circuit_no_bounds", "short_circuit_yes",
            "short_circuit_rate", "exact_fallthrough", "witness_cache",
        }


def _span(node: dict, name: str) -> dict:
    """The first span called ``name`` in a trace tree (depth first)."""
    if node["name"] == name:
        return node
    for child in node["children"]:
        try:
            return _span(child, name)
        except LookupError:
            pass
    raise LookupError(name)


@pytest.fixture()
def no_second_search(monkeypatch):
    """Make the witness-extraction search an error."""

    def refuse(*args, **kwargs):
        raise AssertionError("find_witness ran: a second search for one answer")

    monkeypatch.setattr("repro.core.witness.find_witness", refuse)


SPEC = {"source": "s", "target": "t", "labels": ["go"], "constraint": MARK}


class TestWitnessComesFromTheSearch:
    def test_exact_fallthrough_stores_the_walked_path(self, service, no_second_search):
        document = service.handle_query(SPEC, trace=True)
        assert document["answer"] is True and document["algorithm"] == "Meet"
        store = _span(document["trace"], "witness-store")
        assert store["attrs"] == {"stored": True}
        cache = service.approx.stats()["witness_cache"]
        assert (cache["size"], cache["stored_from_search"]) == (1, 1)
        assert "stored_by_extraction" not in cache
        # The stored path outlives the epoch: after a swap the repeat is
        # a definite-Yes that never reaches an evaluator.
        service.apply_updates([("u", "go", "s")])
        document = service.handle_query(SPEC, trace=True)
        assert document["algorithm"] == "witness" and document["epoch"] == 1
        assert _span(document["trace"], "route")["attrs"]["verdict"] == "yes-witness"

    def test_witness_less_producer_stores_none(self, no_second_search):
        # INS answers without a path, and nothing searches for one.
        graph = make_graph()
        svc = QueryService(graph, build_local_index(graph, k=2, rng=0), seed=0)
        try:
            plan = svc.planner.plan("s", "t", ["go"], MARK)
            result = svc.epoch.session("ins").answer(plan.query)
            assert result.answer is True and result.witness is None
            assert svc.approx.remember_witness(plan, result) is False
            cache = svc.approx.stats()["witness_cache"]
            assert (cache["size"], cache["stored_from_search"]) == (0, 0)
        finally:
            svc.close()

    @pytest.mark.parametrize("algorithm", ["uis", "naive", "meet"])
    def test_a_named_algorithm_skips_the_router(self, algorithm, no_second_search):
        # A request that names an evaluator is a forced plan, and a forced
        # plan never meets the router: no tier, no short-circuit, no
        # witness stored.  (Unnamed, the same two queries are routed and
        # the False is settled by bounds — TestShortCircuits.)
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
        cache = stats["witness_cache"]
        assert (cache["size"], cache["stored_from_search"]) == (0, 0)

    def test_uncached_service_stores_nothing(self, no_second_search):
        svc = QueryService(make_graph(), seed=0, cache_size=0)
        try:
            first, _ = svc.query("s", "t", ["go"], MARK)
            second, _ = svc.query("s", "t", ["go"], MARK)
            assert first.algorithm == second.algorithm == "Meet"
            assert svc.approx.stats()["witness_cache"]["stored_from_search"] == 0
        finally:
            svc.close()


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

    def test_witness_invalidated_by_edge_removal(self, service):
        service.query("s", "t", ["go"], MARK, use_cache=False)
        hit, _ = service.query("s", "t", ["go"], MARK, use_cache=False)
        assert hit.algorithm == "witness"
        service.apply_updates([("s", "go", "m", "remove")])
        after, _ = service.query("s", "t", ["go"], MARK, use_cache=False)
        assert after.answer is False
        assert service.approx.witnesses.stats()["invalidations"] == 1

    def test_witness_survives_unrelated_update(self, service):
        service.query("s", "t", ["go"], MARK, use_cache=False)
        service.apply_updates([("u", "go", "s")])
        hit, meta = service.query("s", "t", ["go"], MARK, use_cache=False)
        # New epoch (its result cache starts empty), same witness: the
        # path re-verified against the updated graph and kept serving.
        assert hit.algorithm == "witness"
        assert meta["epoch"] == 1


class TestSharded:
    def test_short_circuit_before_scatter(self):
        graph = make_graph()
        svc = ShardedQueryService(graph, seed=0, shards=2)
        try:
            result, meta = svc.query("t", "s", ["go"], MARK)
            assert result.answer is False
            assert result.algorithm == "bounds"
            assert meta["tier"] == "short-circuit"
            # The coordinator never saw the query: no scatter happened.
            assert svc.coordinator.stats()["queries"] == 0
            # Uncertain-band queries still scatter.
            exact, exact_meta = svc.query("s", "t", ["go"], MARK)
            assert exact.answer is True
            assert exact.algorithm == "sharded"
            assert exact_meta["tier"] == "exact"
            assert svc.coordinator.stats()["queries"] == 1
        finally:
            svc.close()

    @pytest.mark.parametrize("transport", ["in-process", "http"])
    def test_witness_provenance(self, transport, no_second_search):
        # The coordinator proves reachability across slices and walks no
        # single path: its True answers store no witness and pay no
        # second search; a repeat in the epoch is a result-cache hit.
        with sharded_fleet(make_graph(), transport, seed=0, shards=2) as svc:
            for _ in range(2):
                first, meta = svc.query("s", "t", ["go"], MARK, use_cache=False)
                assert first.answer is True and first.algorithm == "sharded"
                assert meta["tier"] == "exact"
            svc.query("s", "t", ["go"], MARK)
            repeat, meta = svc.query("s", "t", ["go"], MARK)
            assert repeat.answer is True and meta["source"] == "result-cache"
            cache = svc.approx.stats()["witness_cache"]
            assert (cache["size"], cache["stored_from_search"]) == (0, 0)
        # Unsharded, the default kernel's True stores the path it walked.
        plain = QueryService(make_graph(), seed=0)
        try:
            plain.query("s", "t", ["go"], MARK)
            cache = plain.approx.stats()["witness_cache"]
            assert (cache["size"], cache["stored_from_search"]) == (1, 1)
        finally:
            plain.close()

    def test_stats_section_present(self):
        svc = ShardedQueryService(make_graph(), seed=0, shards=2)
        try:
            document = svc.stats_snapshot()
            assert document["approx"]["enabled"] is True
            assert document["approx"]["bounds"]["mode"] == "closure"
        finally:
            svc.close()


class TestOneDefaultRoute:
    """A request names its evaluator, or takes the one routed default."""

    VERTICES = ("s", "m", "t", "u", "w")

    @pytest.fixture(params=["plain", "sharded"])
    def indexed(self, request):
        """``(service, the exact tier's algorithm tag)``, with an index so
        that every registered evaluator can be named."""
        graph = make_graph()
        index = build_local_index(graph, k=2, rng=0)
        if request.param == "plain":
            svc, exact = QueryService(graph, index, seed=0), "Meet"
        else:
            svc = ShardedQueryService(graph, index, seed=0, shards=2)
            exact = "sharded"
        yield svc, exact
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
        stats = svc.approx.stats()
        assert stats["routed"] == stats["witness_cache"]["stored_from_search"] == 0
        if svc.sharded:
            assert svc.coordinator.stats()["queries"] == 0
