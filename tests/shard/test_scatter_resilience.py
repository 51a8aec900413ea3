"""Scatter pool lifecycle races: shutdown pools degrade to serial calls."""

from __future__ import annotations

import pytest

from repro.shard import ShardedQueryService
from tests.helpers import graph_from_edges


def make_graph():
    return graph_from_edges(
        [
            ("s", "go", "m"),
            ("m", "go", "t"),
            ("m", "mark", "m"),
            ("t", "go", "u"),
            ("u", "mark", "s"),
        ],
        name="tiny",
    )


QUERY = {
    "source": "s",
    "target": "t",
    "labels": ["go"],
    "constraint": "SELECT ?x WHERE { ?x <mark> ?y . }",
}


@pytest.fixture
def service():
    # scatter_timeout forces the bounded (pool) path even for one-shard
    # rounds, so the shutdown race below is actually exercised;
    # cache_size=0 stores no witness, so no repeat is answered before
    # the coordinator (which is the object under test).
    svc = ShardedQueryService(
        make_graph(), shards=3, local_fast_path=False, scatter_timeout=5.0,
        cache_size=0,
    )
    yield svc
    svc.close()


class TestPoolShutdownRaces:
    def test_shutdown_pool_falls_back_to_serial(self, service):
        coordinator = service.coordinator
        baseline, _ = service.query(**QUERY, use_cache=False)
        assert baseline.answer is True
        # Simulate close() racing an in-flight query: the pool rejects
        # new submissions but the coordinator must still answer.
        coordinator._pool.shutdown(wait=False)
        result, _ = service.query(**QUERY, use_cache=False)
        assert result.answer is True
        assert result.degraded is None
        stats = coordinator.stats()
        assert stats["scatter_serial_fallbacks"] >= 1

    def test_answer_after_close_uses_serial_path(self, service):
        service.coordinator.close()
        assert service.coordinator._pool is None
        result, _ = service.query(**QUERY, use_cache=False)
        assert result.answer is True
        assert result.degraded is None
        # Each pool-less round is counted as a serial fallback too.
        assert service.coordinator.stats()["scatter_serial_fallbacks"] >= 1

    def test_close_is_idempotent(self, service):
        service.coordinator.close()
        service.coordinator.close()
        assert service.coordinator._pool is None

    def test_fallback_is_visible_in_service_stats(self, service):
        service.coordinator._pool.shutdown(wait=False)
        service.query(**QUERY, use_cache=False)
        document = service.stats_snapshot()
        coordinator_doc = document["shards"]["coordinator"]
        assert coordinator_doc["scatter_serial_fallbacks"] >= 1
