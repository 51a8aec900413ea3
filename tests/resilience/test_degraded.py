"""Graceful degradation: fail-fast 503s vs. opted-in degraded answers."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from contextlib import ExitStack

import pytest

from repro.exceptions import ShardUnavailableError
from repro.resilience.faults import FaultRule, FaultyWorker
from repro.resilience.retry import RetryPolicy
from tests.helpers import graph_from_edges, running_server, sharded_fleet


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


def fast_retry():
    return RetryPolicy(max_attempts=2, base_delay=0.001, seed=1)


def make_service(**kwargs):
    kwargs.setdefault("shards", 3)
    kwargs.setdefault("local_fast_path", False)
    kwargs.setdefault("retry_policy", fast_retry())
    return sharded_fleet(make_graph(), **kwargs)


def break_workers(service, rules_factory):
    """Wrap every worker (in both lists) with a FaultyWorker."""
    faulty = []
    for index, worker in enumerate(list(service.workers)):
        wrapper = FaultyWorker(
            worker, rules_factory(index), name=f"shard{index}"
        )
        service.workers[index] = wrapper
        service.coordinator.workers[index] = wrapper
        faulty.append(wrapper)
    return faulty


class TestFailFast:
    def test_downed_shard_raises_structured_503(self):
        with make_service(degraded_answers=False) as service:
            break_workers(service, lambda i: [FaultRule("error")])
            with pytest.raises(ShardUnavailableError) as excinfo:
                service.query(**QUERY)
            error = excinfo.value
            assert error.status == 503
            assert isinstance(error.shard, int)
            assert "shard" in error.detail

    def test_http_503_names_the_shard(self):
        with ExitStack() as stack:
            service = stack.enter_context(make_service(degraded_answers=False))
            break_workers(service, lambda i: [FaultRule("error")])
            base = stack.enter_context(running_server(service))
            request = urllib.request.Request(
                f"{base}/query",
                data=json.dumps(QUERY).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 503
            document = json.loads(excinfo.value.read())
            assert document["error"]["type"] == "shard-unavailable"
            assert "shard" in document["error"]["detail"]


class TestDegradedAnswers:
    def test_total_outage_degrades_to_unknown(self):
        with make_service(degraded_answers=True) as service:
            break_workers(service, lambda i: [FaultRule("error")])
            result, meta = service.query(**QUERY)
            assert result.degraded is not None
            assert result.degraded["missing_shards"]
            if result.degraded["verdict"] == "unknown":
                # Unreachable over a partial fleet is never a claim.
                assert result.answer is False
            else:
                assert result.degraded["verdict"] == "reachable"
                assert result.answer is True
            assert meta["degraded"] == result.degraded

    def test_degraded_reachable_claims_are_sound(self):
        # The full graph answers True for QUERY; any degraded "reachable"
        # verdict must therefore agree (edge-subset monotonicity), and a
        # degraded run can never invent a True the oracle lacks.
        with make_service(degraded_answers=True) as service:
            break_workers(
                service, lambda i: [FaultRule("error", count=1)] if i == 0 else []
            )
            result, _ = service.query(**QUERY)
            if result.degraded is None:
                assert result.answer is True
            elif result.degraded["verdict"] == "reachable":
                assert result.answer is True
            else:
                assert result.answer is False

    def test_degraded_answers_are_not_cached(self):
        with make_service(degraded_answers=True) as service:
            faulty = break_workers(
                service, lambda i: [FaultRule("error", count=2)]
            )
            first, _ = service.query(**QUERY)
            assert first.degraded is not None
            # Heal the fleet: clear every remaining fault rule.
            for wrapper in faulty:
                wrapper._faults.clear()
            second, meta = service.query(**QUERY)
            assert second.degraded is None
            assert meta["source"] == "evaluated"  # not a cached degradation
            assert second.answer is True
            # The exact answer now populates the cache as usual.
            third, meta = service.query(**QUERY)
            assert meta["source"] == "result-cache"
            assert third.answer is True

    def test_degradation_is_observable_in_stats(self):
        with make_service(degraded_answers=True) as service:
            break_workers(service, lambda i: [FaultRule("error")])
            result, _ = service.query(**QUERY)
            assert result.degraded is not None
            stats = service.coordinator.stats()
            resilience = stats["resilience"]
            assert resilience["worker_failures"] >= 1
            assert resilience["retries"] >= 1
            assert resilience["degraded_answers"] >= 1
            assert resilience["degraded_mode"] is True
            assert resilience["breakers"]  # one per shard
            service_doc = service.stats_snapshot()
            assert (
                service_doc["service"]["resilience"]["degraded_answers"] >= 1
            )

    def test_healthy_fleet_is_never_degraded(self):
        with make_service(degraded_answers=True) as service:
            result, _ = service.query(**QUERY)
            assert result.degraded is None
            assert result.answer is True
