"""TenantRegistry unit + concurrency tests, and cache contention tests.

Three layers of evidence that multi-tenancy is safe to run hot:

* registry semantics — add/remove/lookup, the default-tenant alias,
  name validation, 404/409 error statuses, lazy file registration;
* lazy warm start under contention — many threads requesting an
  unloaded tenant at once build its service exactly once;
* sustained mixed traffic — worker threads hammering two tenants while
  a churn thread registers and removes a third, with every answer
  checked against a serially computed expectation; plus a deterministic
  proof that :class:`ResultCache` eviction counters stay exact, and
  an invariant check that they stay *consistent* when many threads race
  on one cache.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.datasets.toy import figure3_graph
from repro.exceptions import (
    BadRequestError,
    ServiceConfigError,
    TenantExistsError,
    UnknownTenantError,
)
from repro.graph.io import dump_tsv
from repro.service.app import QueryService
from repro.service.cache import ConstraintCache, ResultCache
from repro.service.registry import TenantRegistry, valid_tenant_name
from tests.helpers import graph_from_edges

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
LABELS = ["likes", "follows"]


def toy_service(**kwargs):
    return QueryService(figure3_graph(), seed=0, **kwargs)


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------


class TestRegistryBasics:
    def test_add_get_remove(self):
        registry = TenantRegistry()
        service = toy_service()
        registry.add("default", service)
        assert registry.get("default") is service
        assert registry.get() is service           # default-tenant alias
        assert "default" in registry and len(registry) == 1
        registry.remove("default")
        assert len(registry) == 0
        with pytest.raises(UnknownTenantError):
            registry.get("default")

    def test_removed_service_keeps_answering_for_stragglers(self):
        # A request that resolved the service just before removal must
        # still complete — remove() closes the batch pool but the
        # service object stays fully functional.
        registry = TenantRegistry.for_service(toy_service())
        service = registry.get()
        registry.remove("default")
        assert service.query("v0", "v4", LABELS, S0)[0].answer is True
        batch = service.query_batch(
            [{"source": "v0", "target": "v4", "labels": LABELS, "constraint": S0}]
        )
        assert batch[0][0].answer is True

    def test_unknown_tenant_is_404(self):
        registry = TenantRegistry()
        with pytest.raises(UnknownTenantError) as info:
            registry.get("nope")
        assert info.value.status == 404
        assert info.value.tenant == "nope"
        with pytest.raises(UnknownTenantError):
            registry.remove("nope")

    def test_duplicate_registration_is_409(self):
        registry = TenantRegistry()
        registry.add("a", toy_service())
        with pytest.raises(TenantExistsError) as info:
            registry.add("a", toy_service())
        assert info.value.status == 409

    @pytest.mark.parametrize(
        "name", ["", "has space", "a/b", ".hidden", "..", "é", "x" * 129, 7]
    )
    def test_invalid_names_rejected(self, name):
        assert not valid_tenant_name(name)
        registry = TenantRegistry()
        with pytest.raises(BadRequestError):
            registry.add(name, toy_service())

    @pytest.mark.parametrize("name", ["a", "prod-eu_1", "v2.graph", "X" * 128])
    def test_valid_names_accepted(self, name):
        assert valid_tenant_name(name)

    def test_for_service_wraps_default(self):
        service = toy_service()
        registry = TenantRegistry.for_service(service)
        assert registry.get() is service
        assert registry.names() == ["default"]

    def test_custom_default_tenant(self):
        registry = TenantRegistry(default_tenant="primary")
        service = toy_service()
        registry.add("primary", service)
        assert registry.get() is service

    def test_describe_and_health_shapes(self):
        registry = TenantRegistry.for_service(toy_service())
        description = registry.describe()
        assert description["count"] == 1
        assert description["tenants"]["default"]["loaded"] is True
        assert description["tenants"]["default"]["vertices"] == 5
        health = registry.health()
        assert health["status"] == "ok"
        assert health["tenant_count"] == 1
        assert health["totals"]["vertices"] == 5
        # PR 1 single-graph keys survive for the loaded default tenant.
        assert health["graph"] == figure3_graph().name

    def test_stats_snapshot_aggregates(self):
        registry = TenantRegistry(default_tenant="a")
        registry.add("a", toy_service())
        registry.add("b", toy_service())
        registry.get("a").query("v0", "v4", LABELS, S0)
        registry.get("b").query("v0", "v4", LABELS, S0)
        registry.get("b").query("v0", "v3", LABELS, S0)
        document = registry.stats_snapshot()
        assert document["service"]["queries"]["total"] == 1      # default=a
        assert document["totals"]["queries"]["total"] == 3       # a + b
        assert document["tenants"]["b"]["queries"]["total"] == 2
        assert document["registry"]["tenant_count"] == 2

    def test_registry_level_errors_counted(self):
        registry = TenantRegistry.for_service(toy_service())
        registry.record_error("unknown-tenant")
        registry.record_error("unknown-tenant")
        document = registry.stats_snapshot()
        assert document["registry"]["errors"] == {"unknown-tenant": 2}


# ----------------------------------------------------------------------
# lazy warm start
# ----------------------------------------------------------------------


class TestLazyRegistration:
    @pytest.fixture()
    def graph_path(self, tmp_path):
        path = tmp_path / "g0.tsv"
        dump_tsv(figure3_graph(), path)
        return path

    def test_register_files_loads_on_first_get(self, graph_path):
        registry = TenantRegistry()
        registry.register_files("lazy", graph_path, seed=0)
        assert registry.describe()["tenants"]["lazy"]["loaded"] is False
        service = registry.get("lazy")
        assert service.query("v0", "v4", LABELS, S0)[0].answer is True
        assert registry.get("lazy") is service      # loaded exactly once
        assert registry.describe()["tenants"]["lazy"]["loaded"] is True

    def test_missing_graph_rejected_at_registration(self, tmp_path):
        registry = TenantRegistry()
        with pytest.raises(ServiceConfigError, match="graph file not found"):
            registry.register_files("lazy", tmp_path / "missing.tsv")
        assert len(registry) == 0

    def test_tenant_health_never_forces_load(self, graph_path):
        registry = TenantRegistry()
        registry.register_files("lazy", graph_path)
        health = registry.tenant_health("lazy")
        assert health["loaded"] is False
        stats = registry.tenant_stats("lazy")
        assert stats["loaded"] is False
        assert registry.describe()["tenants"]["lazy"]["loaded"] is False

    def test_concurrent_first_requests_build_once(self, graph_path, monkeypatch):
        builds = []
        real = QueryService.from_files.__func__

        def counted(cls, *args, **kwargs):
            builds.append(threading.current_thread().name)
            time.sleep(0.05)                 # widen the race window
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(QueryService, "from_files", classmethod(counted))
        registry = TenantRegistry()
        registry.register_files("lazy", graph_path, seed=0)

        barrier = threading.Barrier(8)
        services = []
        errors = []

        def hit():
            barrier.wait()
            try:
                services.append(registry.get("lazy"))
            except Exception as error:  # noqa: BLE001 — collected for assert
                errors.append(error)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(builds) == 1
        assert len(services) == 8
        assert all(service is services[0] for service in services)

    def test_lazy_build_does_not_block_other_tenants(self, graph_path, monkeypatch):
        # While one thread is stuck warm-starting "slow", a query to the
        # already-loaded "fast" tenant must complete — the build happens
        # off the registry lock.
        release = threading.Event()
        real = QueryService.from_files.__func__

        def stalled(cls, *args, **kwargs):
            assert release.wait(timeout=10)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(QueryService, "from_files", classmethod(stalled))
        registry = TenantRegistry()
        registry.add("fast", toy_service())
        registry.register_files("slow", graph_path, seed=0)

        loader = threading.Thread(target=registry.get, args=("slow",))
        loader.start()
        try:
            time.sleep(0.02)                 # let the loader grab its lock
            answer = registry.get("fast").query("v0", "v4", LABELS, S0)[0].answer
            assert answer is True            # not deadlocked behind the build
            assert registry.names() == ["fast", "slow"]
        finally:
            release.set()
            loader.join(timeout=10)
        assert registry.describe()["tenants"]["slow"]["loaded"] is True


# ----------------------------------------------------------------------
# mixed-tenant traffic under churn
# ----------------------------------------------------------------------


class TestRegistryConcurrency:
    WORKERS = 8
    OPS_PER_WORKER = 60

    def test_traffic_during_register_remove_churn(self, tmp_path):
        graph_path = tmp_path / "g0.tsv"
        dump_tsv(figure3_graph(), graph_path)

        registry = TenantRegistry(default_tenant="a")
        registry.add("a", toy_service())
        registry.add("b", toy_service(cache_size=4))

        # Expected answers, computed serially before any contention.
        cases = [("v0", "v4"), ("v0", "v3"), ("v3", "v4"), ("v1", "v4"),
                 ("v0", "v0"), ("v4", "v0")]
        expected = {
            (s, t): registry.get("a").query(s, t, LABELS, S0, use_cache=False)[0].answer
            for s, t in cases
        }

        stop_churn = threading.Event()
        failures: list[str] = []

        def churn():
            while not stop_churn.is_set():
                try:
                    registry.register_files("c", graph_path, seed=0)
                except TenantExistsError:
                    pass
                try:
                    registry.remove("c")
                except UnknownTenantError:
                    pass

        def worker(worker_id: int):
            for position in range(self.OPS_PER_WORKER):
                source, target = cases[(worker_id + position) % len(cases)]
                tenant = ("a", "b")[position % 2]
                try:
                    result, _ = registry.get(tenant).query(source, target, LABELS, S0)
                    if result.answer != expected[(source, target)]:
                        failures.append(
                            f"{tenant}:{source}->{target} gave {result.answer}"
                        )
                    if position % 10 == 0:
                        # Tenant "c" flickers in and out; both outcomes
                        # are legal, anything else is a bug.
                        try:
                            registry.get("c").query(source, target, LABELS, S0)
                        except UnknownTenantError:
                            pass
                except Exception as error:  # noqa: BLE001 — collected
                    failures.append(f"{tenant}:{source}->{target} raised {error!r}")

        churner = threading.Thread(target=churn)
        workers = [
            threading.Thread(target=worker, args=(i,)) for i in range(self.WORKERS)
        ]
        churner.start()
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
        stop_churn.set()
        churner.join(timeout=60)

        assert not failures, failures[:5]
        # Ledgers stayed coherent: tenants a+b saw every worker query.
        totals = registry.stats_snapshot()["totals"]["queries"]
        assert totals["total"] >= self.WORKERS * self.OPS_PER_WORKER
        snapshot_a = registry.get("a").results.stats()
        assert snapshot_a.hits + snapshot_a.misses >= 1
        assert snapshot_a.size <= snapshot_a.max_size


# ----------------------------------------------------------------------
# ResultCache: exact counters + contention invariants
# ----------------------------------------------------------------------


class TestResultCacheCounters:
    def test_eviction_counters_exact(self):
        cache = ResultCache(max_size=3)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        assert cache.get("a") == "A"                 # a hit does not promote
        cache.put("d", "D")                          # evicts a, the oldest
        assert cache.get("a") is None
        assert cache.get("b") == "B" and cache.get("c") == "C"
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.misses == 1
        assert stats.hits == 3
        assert stats.size == 3


class TestCacheContention:
    THREADS = 8
    OPS = 400

    def test_result_cache_counters_consistent_under_contention(self):
        cache = ResultCache(max_size=16)
        gets = [0] * self.THREADS
        errors: list[Exception] = []
        barrier = threading.Barrier(self.THREADS + 1)

        def worker(worker_id: int):
            # 8 workers x 5-key windows stepped by 3 cover k0..k23 — more
            # distinct hot keys than the 16-entry capacity, forcing
            # overflow while threads race.  The window length is coprime
            # with the put-every-3rd-op rhythm, so every key sees both
            # puts and gets.
            keys = [f"k{(worker_id * 3 + offset) % 24}" for offset in range(5)]
            barrier.wait()
            try:
                for position in range(self.OPS):
                    key = keys[position % len(keys)]
                    if position % 3 == 0:
                        cache.put(key, (worker_id, position))
                    else:
                        cache.get(key)
                        gets[worker_id] += 1
            except Exception as error:  # noqa: BLE001 — collected
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join(timeout=60)

        assert not errors
        stats = cache.stats()
        assert stats.hits + stats.misses == sum(gets)
        assert stats.size <= stats.max_size
        assert 0 <= len(cache) <= stats.max_size
        # 24 distinct keys were put into 16 slots: overflow must have
        # evicted, whatever the interleaving.
        assert stats.evictions > 0

        # Deterministic epilogue on the contended cache: sweep every key
        # once — each survivor is a hit, every other key a miss, and the
        # counters must keep adding up.
        survivors = len(cache)
        for i in range(24):
            cache.get(f"k{i}")
        final = cache.stats()
        assert final.hits == stats.hits + survivors
        assert final.misses == stats.misses + 24 - survivors
        assert len(cache) == survivors

    def test_constraint_cache_identity_under_contention(self):
        cache = ConstraintCache(max_size=64)
        texts = [
            "SELECT ?x WHERE { ?x <likes> ?y . }",
            "SELECT ?x WHERE {   ?x <likes> ?y .   }",   # same canonical form
            "SELECT ?x WHERE { ?x <friendOf> v3 . }",
        ]
        results: list[list] = [[] for _ in range(self.THREADS)]
        barrier = threading.Barrier(self.THREADS)

        def worker(worker_id: int):
            barrier.wait()
            for position in range(100):
                results[worker_id].append(cache.get(texts[position % len(texts)]))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        # Every spelling of the first constraint resolved to one object,
        # on every thread — the parse-once guarantee under contention.
        canonical = results[0][0].to_sparql()
        likes = {
            id(parsed)
            for per_thread in results
            for parsed in per_thread
            if parsed.to_sparql() == canonical
        }
        assert len(likes) == 1
        stats = cache.stats()
        lookups = self.THREADS * 100
        assert stats.hits + stats.misses == lookups
        assert stats.misses <= len(texts)            # at most one parse per text
