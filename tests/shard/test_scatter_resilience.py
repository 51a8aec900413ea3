"""Every worker call is bounded, and a closed pool never fails a query.

A hung worker call is abandoned at ``scatter_timeout`` whatever the
fleet size and whichever call hangs — an expand or the co-located
probe — and a straggler query after ``close()`` (or on a pool shut down
under it) still gets its exact answer, on a fresh pool.
"""

from __future__ import annotations

import time

import pytest

from repro.exceptions import ShardUnavailableError
from repro.resilience.faults import FaultRule, FaultyWorker
from tests.helpers import graph_from_edges, sharded_fleet


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
    # scatter_timeout sends even one-shard rounds to the pool, so the
    # shutdown races below are actually exercised; cache_size=0 stores
    # no witness, so no repeat is answered before the coordinator
    # (which is the object under test).
    with sharded_fleet(
        make_graph(), shards=3, local_fast_path=False, scatter_timeout=5.0,
        cache_size=0,
    ) as svc:
        yield svc


def exact(service) -> None:
    result, _ = service.query(**QUERY, use_cache=False)
    assert result.answer is True
    assert result.degraded is None


class TestPoolShutdownRaces:
    def test_shut_down_pool_is_replaced(self, service):
        exact(service)
        # close() racing an in-flight query: the pool the query holds
        # rejects new submissions, and the query still gets its answer.
        service.coordinator._executor._pool.shutdown(wait=False)
        exact(service)
        exact(service)

    def test_answer_after_close(self, service):
        service.coordinator.close()
        exact(service)

    def test_close_is_idempotent(self, service):
        exact(service)
        service.coordinator.close()
        service.coordinator.close()
        assert service.coordinator._executor._pool is None


def hang(service, shard: int, operation: str) -> None:
    service.workers[shard] = FaultyWorker(
        service.workers[shard],
        [FaultRule("hang", operation=operation, duration=3.0)],
        name=f"shard{shard}",
    )


class TestEveryCallIsBounded:
    @pytest.mark.parametrize("degraded_answers", [False, True])
    def test_a_one_shard_fleet_abandons_a_hung_expand(self, degraded_answers):
        with sharded_fleet(
            make_graph(), shards=1, local_fast_path=False, cache_size=0,
            scatter_timeout=0.3, degraded_answers=degraded_answers,
        ) as service:
            hang(service, 0, "expand")
            started = time.monotonic()
            if degraded_answers:
                result, _ = service.query(**QUERY, use_cache=False)
                assert result.degraded == {
                    "missing_shards": [0], "verdict": "unknown",
                }
            else:
                with pytest.raises(ShardUnavailableError) as refused:
                    service.query(**QUERY, use_cache=False)
                assert refused.value.status == 503
                assert refused.value.shard == 0
            assert time.monotonic() - started < 1.0

    def test_close_does_not_wait_for_an_abandoned_call(self):
        with sharded_fleet(
            make_graph(), shards=1, local_fast_path=False, cache_size=0,
            scatter_timeout=0.3,
        ) as service:
            hang(service, 0, "expand")
            started = time.monotonic()
            with pytest.raises(ShardUnavailableError):
                service.query(**QUERY, use_cache=False)
            service.close()
            assert time.monotonic() - started < 1.0

    def test_a_hung_probe_is_a_miss_the_scatter_answers(self):
        # s and m share shard 0 of the two-shard plan: the probe goes
        # there first, hangs, and is abandoned at the bound.
        with sharded_fleet(
            make_graph(), shards=2, cache_size=0, scatter_timeout=0.3,
        ) as service:
            graph, plan = service.graph, service.shard_plan
            assert plan.shard_of[graph.vid("s")] == plan.shard_of[graph.vid("m")] == 0
            hang(service, 0, "local_query")
            started = time.monotonic()
            result, _ = service.query(**{**QUERY, "target": "m"}, use_cache=False)
            assert time.monotonic() - started < 1.0
            assert result.answer is True and result.degraded is None
            resilience = service.coordinator.stats()["resilience"]
            assert resilience["fast_path_errors"] == 1
