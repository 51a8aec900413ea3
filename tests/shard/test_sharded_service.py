"""ShardedQueryService as a tenant: registry, HTTP, stats, lifecycle."""

from __future__ import annotations

import json
import urllib.request
from contextlib import ExitStack

import pytest

from repro.constraints.substructure import SubstructureConstraint
from repro.exceptions import ServiceConfigError
from repro.service.registry import TenantRegistry
from repro.shard import ShardedQueryService
from tests.helpers import graph_from_edges, running_server


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


def get(base, path):
    with urllib.request.urlopen(f"{base}{path}", timeout=10) as response:
        return json.loads(response.read())


def post(base, path, payload):
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


class TestConstruction:
    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ServiceConfigError):
            ShardedQueryService(make_graph(), shards=0)

    def test_default_algorithm_reports_sharded(self):
        service = ShardedQueryService(make_graph(), shards=2)
        try:
            assert service.default_algorithm == "sharded"
            assert service.health()["shards"] == 2
        finally:
            service.close()

    def test_more_shards_than_vertices_still_answers(self):
        service = ShardedQueryService(make_graph(), shards=9)
        try:
            result, _ = service.query(**{k: QUERY[k] for k in
                                         ("source", "target", "labels", "constraint")})
            assert result.answer is True
        finally:
            service.close()


class TestTenantIntegration:
    def test_registers_and_serves_like_any_tenant(self):
        registry = TenantRegistry(default_tenant="flat")
        registry.add("flat", ShardedQueryService(make_graph(), shards=1))
        registry.add("wide", ShardedQueryService(make_graph(), shards=3))
        with ExitStack() as stack:
            stack.callback(registry.remove, "wide")
            stack.callback(registry.remove, "flat")
            base = stack.enter_context(running_server(registry))
            for tenant in ("flat", "wide"):
                document = post(base, f"/t/{tenant}/query", QUERY)
                assert document["answer"] is True
                assert document["algorithm"] == "sharded"
            # Registry-level aggregation folds sharded tenants in too.
            stats = get(base, "/stats")
            assert stats["totals"]["queries"]["total"] == 2
            assert "sharded" in stats["totals"]["algorithms"]
            health = get(base, "/healthz")
            assert health["tenants_loaded"] == 2

    def test_stats_snapshot_has_shard_section(self):
        service = ShardedQueryService(make_graph(), shards=2)
        try:
            service.query(**QUERY)
            document = service.stats_snapshot()
            shards = document["shards"]
            assert shards["plan"]["num_shards"] == 2
            assert sum(shards["plan"]["vertices_per_shard"]) == 4
            assert shards["coordinator"]["queries"] + shards[
                "coordinator"
            ]["fast_path_hits"] >= 1
            assert len(shards["workers"]) == 2
            for worker_doc in shards["workers"]:
                assert {"shard", "vertices", "edges", "expand_calls"} <= set(
                    worker_doc
                )
            # Workers are slices and a kernel, with no service counters
            # to merge: every co-located hit the coordinator counted is
            # one a worker counted.
            assert "workers_totals" not in shards
            assert shards["coordinator"]["fast_path_hits"] == sum(
                w["local_hits"] for w in shards["workers"]
            )
            assert document["config"]["shards"] == 2
            # Latency histograms surfaced alongside (satellite check).
            assert document["service"]["latency"]["query"]["count"] >= 1
        finally:
            service.close()

    def test_close_is_idempotent(self):
        service = ShardedQueryService(make_graph(), shards=2)
        service.close()
        service.close()

    def test_use_cache_false_never_served_from_worker_caches(self):
        # The co-located fast path must not answer an uncached request
        # from a worker-level answer cache (regression: workers used to
        # cache local_query answers regardless of the request's flag):
        # every uncached request runs the slice search again.
        service = ShardedQueryService(make_graph(), shards=1)
        try:
            for _ in range(3):
                result, meta = service.query(**QUERY, use_cache=False)
                assert result.answer is True and not meta["cached"]
            (worker,) = service.workers
            counters = worker.describe()
            assert (counters["local_queries"], counters["local_hits"]) == (3, 3)
        finally:
            service.close()

    @pytest.mark.parametrize("cache_size, evaluations", [(0, 3), (8, 1)])
    def test_cache_size_reaches_the_worker_vsg_cache(
        self, cache_size, evaluations, monkeypatch
    ):
        # One shard: every query is a co-located probe that settles it,
        # so each V(S, G) evaluation is the slice kernel's own.
        calls = []
        original = SubstructureConstraint.satisfying_vertices

        def counted(constraint, graph):
            calls.append(graph)
            return original(constraint, graph)

        monkeypatch.setattr(SubstructureConstraint, "satisfying_vertices", counted)
        service = ShardedQueryService(
            make_graph(), shards=1, cache_size=cache_size
        )
        try:
            for _ in range(3):
                result, _ = service.query(**QUERY, use_cache=False)
                assert result.answer is True
            assert service.coordinator.stats()["fast_path_hits"] == 3
            assert len(calls) == evaluations
        finally:
            service.close()


class TestSnapshotPersistence:
    def test_sharded_service_snapshot_roundtrip(self, tmp_path):
        path = tmp_path / "warm.json"
        first = ShardedQueryService(make_graph(), shards=2)
        try:
            result, meta = first.query(**QUERY)
            assert result.answer is True and not meta["cached"]
            first.save_snapshot(path)
        finally:
            first.close()
        second = ShardedQueryService(make_graph(), shards=2)
        try:
            warmed = second.load_snapshot(path)
            assert warmed["results"] >= 1
            result, meta = second.query(**QUERY)
            assert result.answer is True
            assert meta["cached"]  # served from the warmed cache
            # Restored traffic counters carried over.
            assert second.stats.snapshot()["queries"]["total"] >= 2
        finally:
            second.close()
