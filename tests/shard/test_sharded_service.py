"""ShardedQueryService as a tenant: registry, HTTP, stats, lifecycle."""

from __future__ import annotations

import json
import urllib.request
from contextlib import ExitStack

import pytest

from repro.constraints.substructure import SubstructureConstraint
from repro.exceptions import ServiceConfigError
from repro.obs.prometheus import parse_prometheus_text
from repro.service.options import ServiceOptions
from repro.service.registry import TenantRegistry
from repro.shard import ShardedQueryService
from repro.shard.service import _drifted, _slice_identity
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

    def test_shards_without_worker_urls_rejected(self):
        # A sharded service holds no slice of its own: every shard is a
        # worker process attached by URL.
        with pytest.raises(ServiceConfigError) as refusal:
            ShardedQueryService(make_graph(), shards=2)
        message = str(refusal.value)
        assert "'repro cut" in message and "'serve --worker" in message

    @pytest.mark.parametrize("urls", [None, ("http://a", "http://b")])
    def test_hand_built_options_need_one_worker_url_per_shard(self, urls):
        # The options= path is validated as the keywords are: the count
        # check refuses before any worker is contacted.
        options = ServiceOptions(shards=3, worker_urls=urls)
        with pytest.raises(ServiceConfigError) as refusal:
            ShardedQueryService(make_graph(), options=options)
        assert "'shards' 3 needs exactly 3 'worker_urls' values" in str(refusal.value)

    def test_default_algorithm_reports_sharded(self):
        with sharded_fleet(make_graph(), shards=2) as service:
            assert service.default_algorithm == "sharded"
            assert service.health()["shards"] == 2

    def test_more_shards_than_vertices_still_answers(self):
        with sharded_fleet(make_graph(), shards=9) as service:
            result, _ = service.query(**{k: QUERY[k] for k in
                                         ("source", "target", "labels", "constraint")})
            assert result.answer is True


class TestTenantIntegration:
    def test_registers_and_serves_like_any_tenant(self):
        registry = TenantRegistry(default_tenant="flat")
        with ExitStack() as stack:
            registry.add("flat", stack.enter_context(
                sharded_fleet(make_graph(), shards=1)))
            registry.add("wide", stack.enter_context(
                sharded_fleet(make_graph(), shards=3)))
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
        with sharded_fleet(make_graph(), shards=2) as service:
            service.query(**QUERY)
            # A worker entry reports the descriptor of the last probe.
            service._probe_workers()
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

    def test_worker_entries_have_one_shape(self):
        # Every worker is reached over the wire, and its entry is the
        # descriptor it returned at the handshake (slice sizes, traffic
        # counters, slice epoch) plus the stub's pool counters and the
        # coordinator's ledger — enough for every worker family.
        with sharded_fleet(make_graph(), shards=2) as service:
            with running_server(service) as base:
                workers = get(base, "/stats")["shards"]["workers"]
                with urllib.request.urlopen(f"{base}/metrics", timeout=10) as reply:
                    scrape = parse_prometheus_text(reply.read().decode("utf-8"))
        assert sorted(entry["shard"] for entry in workers) == [0, 1]
        for entry in workers:
            assert {"vertices", "edges", "regions", "border_vertices"} <= set(entry)
            assert {"expand_calls", "local_queries", "updates_published"} <= set(entry)
            assert {"remote", "connections_opened", "connection_reuses"} <= set(entry)
            assert entry["epoch"] == 0 and entry["health"]["epoch"] == 0
            assert entry["health"]["consecutive_failures"] == 0
        by_family: dict[str, dict[str, float]] = {}
        for (name, labels), value in scrape.items():
            by_family.setdefault(name, {})[dict(labels).get("shard")] = value
        assert by_family["repro_shard_worker_vertices"] == {
            str(entry["shard"]): entry["vertices"] for entry in workers
        }
        assert by_family["repro_shard_worker_slice_epoch"] == {"0": 0, "1": 0}
        assert set(by_family["repro_shard_worker_expand_calls_total"]) == {"0", "1"}

    def test_worker_entries_follow_a_published_update(self):
        # The publish reply is the worker's descriptor, so an entry
        # moves with the swap, with no health sweep to refresh it.
        with sharded_fleet(make_graph(), shards=2) as service:
            service.apply_updates([("u", "go", "w")])
            workers = service.stats_snapshot()["shards"]["workers"]
            served = sum(worker.served.describe()["vertices"] for worker in service.workers)
        for entry in workers:
            assert entry["epoch"] == entry["health"]["epoch"] == 1
            assert entry["updates_published"] == 1
        assert sum(entry["vertices"] for entry in workers) == served

    def test_a_resynced_worker_reports_what_it_now_serves(self):
        # A second coordinator over another graph finds every worker
        # drifted, pushes its own slices, and reports the healed workers.
        changed = make_graph()
        changed.add_edge("s", "go", "u")
        with sharded_fleet(make_graph(), shards=2) as first:
            urls = [worker.base_url for worker in first.workers]
            second = ShardedQueryService(
                changed, shards=2, worker_urls=urls, probe_interval=0
            )
            try:
                for entry in second.stats_snapshot()["shards"]["workers"]:
                    assert entry["health"]["resyncs"] == 1
                    assert entry["fingerprint"] == second.epoch.fingerprint
            finally:
                second.close()

    @pytest.mark.parametrize("field", ["epoch", "fingerprint", "plan_hash"])
    def test_one_drift_rule_names_every_slice_field(self, field):
        with sharded_fleet(make_graph(), shards=2) as service:
            identity = _slice_identity(service.epoch)
            descriptor = service.workers[0].probe()
            assert not _drifted(descriptor, identity)
            assert _drifted({**descriptor, field: "stale"}, identity)
            del descriptor[field]
            assert _drifted(descriptor, identity)

    def test_the_health_sweep_heals_a_stale_fingerprint(self):
        # Same slice epoch and plan, other content: the handshake's
        # drift rule, so the sweep re-pushes the slice.
        with sharded_fleet(make_graph(), shards=2) as service:
            served = service.workers[0].served
            served.prepare(
                "drift", epoch=service.slice_epoch, fingerprint="other",
                plan_hash=None, extends=service.slice_epoch,
            )
            served.publish_update("drift")
            service._probe_workers()
            assert served.describe()["fingerprint"] == service.epoch.fingerprint
            entries = service.stats_snapshot()["shards"]["workers"]
            assert [entry["health"].get("resyncs", 0) for entry in entries] == [1, 0]

    def test_close_is_idempotent(self):
        with sharded_fleet(make_graph(), shards=2) as service:
            service.close()
            service.close()

    def test_use_cache_false_never_served_from_worker_caches(self):
        # The co-located fast path must not answer an uncached request
        # from a worker-level answer cache (regression: workers used to
        # cache local_query answers regardless of the request's flag):
        # every uncached request runs the slice search again.
        with sharded_fleet(make_graph(), shards=1) as service:
            for _ in range(3):
                result, meta = service.query(**QUERY, use_cache=False)
                assert result.answer is True and not meta["cached"]
            (worker,) = service.workers
            counters = worker.probe()
            assert (counters["local_queries"], counters["local_hits"]) == (3, 3)

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
        with sharded_fleet(
            make_graph(), shards=1, cache_size=cache_size
        ) as service:
            for _ in range(3):
                result, _ = service.query(**QUERY, use_cache=False)
                assert result.answer is True
            assert service.coordinator.stats()["fast_path_hits"] == 3
            assert len(calls) == evaluations


class TestSnapshotPersistence:
    def test_sharded_service_snapshot_roundtrip(self, tmp_path):
        path = tmp_path / "warm.json"
        with sharded_fleet(make_graph(), shards=2) as first:
            result, meta = first.query(**QUERY)
            assert result.answer is True and not meta["cached"]
            first.save_snapshot(path)
        with sharded_fleet(make_graph(), shards=2) as second:
            warmed = second.load_snapshot(path)
            assert warmed["results"] >= 1
            result, meta = second.query(**QUERY)
            assert result.answer is True
            assert meta["cached"]  # served from the warmed cache
            # Restored traffic counters carried over.
            assert second.stats.snapshot()["queries"]["total"] >= 2
