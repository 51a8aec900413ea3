"""HTTP observability routes: /metrics, /debug/slow, ?trace=1."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro._version import __version__
from repro.datasets.toy import figure3_graph
from repro.index.local_index import build_local_index
from repro.obs.prometheus import parse_prometheus_text
from repro.service.app import QueryService
from repro.service.registry import TenantRegistry
from tests.e2e.contract import decreased_counters
from tests.helpers import running_server

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
LABELS = ["likes", "follows"]
SPEC = {"source": "v0", "target": "v4", "labels": LABELS, "constraint": S0}


@pytest.fixture()
def service():
    graph = figure3_graph()
    return QueryService(
        graph, build_local_index(graph, k=2, rng=0), seed=0, slow_ms=0.0
    )


@pytest.fixture()
def base_url(service):
    with running_server(service) as url:
        yield url


def get_json(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get_text(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.headers, response.read().decode()


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestMetricsRoute:
    def test_metrics_is_valid_prometheus_text(self, base_url):
        post(f"{base_url}/query", SPEC)
        post(f"{base_url}/query", SPEC)
        status, headers, text = get_text(f"{base_url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        samples = parse_prometheus_text(text)   # strict: raises on bad shape
        tenant = (("tenant", "default"),)
        assert samples[("repro_build_info", (("version", __version__),))] == 1
        assert samples[("repro_queries_total", tenant)] == 2.0
        assert samples[("repro_queries_cached_total", tenant)] == 1.0
        assert samples[("repro_tenants", ())] == 1.0
        assert samples[("repro_tenants_loaded", ())] == 1.0

    def test_every_stats_counter_has_a_sample(self, base_url):
        post(f"{base_url}/query", SPEC)
        _, stats = get_json(f"{base_url}/stats")
        _, _, text = get_text(f"{base_url}/metrics")
        samples = parse_prometheus_text(text)
        names = {name for name, _ in samples}
        # Each /stats service counter group surfaces as a family.
        for family in (
            "repro_queries_total", "repro_queries_executed_total",
            "repro_queries_cached_total", "repro_queries_trivial_total",
            "repro_queries_true_answers_total", "repro_batches_total",
            "repro_batch_queries_total", "repro_update_batches_total",
            "repro_uptime_seconds", "repro_started_at_seconds",
            "repro_cache_hits_total", "repro_cache_size",
            "repro_graph_vertices", "repro_index_loaded",
            "repro_epoch_id", "repro_epoch_age_seconds",
            "repro_slow_queries_seen_total", "repro_slow_queries_kept",
            "repro_request_latency_seconds_bucket",
            "repro_request_latency_seconds_sum",
            "repro_request_latency_seconds_count",
        ):
            assert family in names, family
        # And the numbers agree with the JSON document.
        tenant = (("tenant", "default"),)
        assert samples[("repro_queries_total", tenant)] == (
            stats["service"]["queries"]["total"]
        )
        assert samples[("repro_epoch_id", tenant)] == stats["epoch"]["epoch_id"]

    def test_no_counter_steps_back_across_an_epoch_swap(self, service):
        """A ``counter`` family counts for the life of the service; the
        per-epoch caches used to take theirs along at every swap."""
        with running_server(service, allow_updates=True) as base_url:
            for target in ("v4", "v2", "v2"):  # every cache hits and misses
                post(f"{base_url}/query", {**SPEC, "target": target})
            _, _, before = get_text(f"{base_url}/metrics")
            candidate = (("cache", "candidate"), ("tenant", "default"))
            assert parse_prometheus_text(before)[
                ("repro_cache_hits_total", candidate)
            ] >= 1
            _, summary = post(
                f"{base_url}/edges", {"edges": [["v4", "likes", "v9"]]}
            )
            assert summary["epoch"] == 1
            _, _, after = get_text(f"{base_url}/metrics")
        assert decreased_counters(before, after) == []
        # The swap dropped the old epoch's cached answers, and says so.
        result = (("cache", "result"), ("tenant", "default"))
        samples = parse_prometheus_text(after)
        assert samples[("repro_cache_size", result)] == 0
        assert samples[("repro_cache_evictions_total", result)] >= 1

    def test_tenant_metrics_route(self, base_url):
        post(f"{base_url}/query", SPEC)
        status, headers, text = get_text(f"{base_url}/t/default/metrics")
        assert status == 200
        samples = parse_prometheus_text(text)
        assert samples[
            ("repro_queries_total", (("tenant", "default"),))
        ] == 1.0
        # Single-tenant view: no registry-level tenant gauges.
        assert ("repro_tenants", ()) not in samples

    def test_unknown_tenant_metrics_404(self, base_url):
        status, body = get_json(f"{base_url}/t/ghost/metrics")
        assert status == 404
        assert body["error"]["type"] == "unknown-tenant"

    def test_unloaded_tenant_contributes_nothing(self, service, tmp_path):
        from repro.graph.io import dump_tsv

        graph_path = tmp_path / "lazy.tsv"
        dump_tsv(figure3_graph(), graph_path)
        registry = TenantRegistry.for_service(service)
        registry.register_files("lazy", graph_path)
        text = registry.metrics_text()
        samples = parse_prometheus_text(text)
        assert samples[("repro_tenants", ())] == 2.0
        assert samples[("repro_tenants_loaded", ())] == 1.0
        assert ("repro_queries_total", (("tenant", "lazy"),)) not in samples
        # The scrape itself must not have warmed the tenant.
        assert samples_after_scrape_unloaded(registry)


def samples_after_scrape_unloaded(registry) -> bool:
    return registry.describe()["tenants"]["lazy"]["loaded"] is False


class TestDebugSlowRoute:
    def test_debug_slow_shapes(self, base_url):
        post(f"{base_url}/query?trace=1", SPEC)
        status, document = get_json(f"{base_url}/debug/slow")
        assert status == 200
        tenant_doc = document["tenants"]["default"]
        assert tenant_doc["loaded"] is True
        assert tenant_doc["summary"]["kept"] == 1
        entry = tenant_doc["entries"][0]
        assert entry["query"]["source"] == "v0"
        assert entry["trace"]["trace_id"] == entry["trace_id"]

        status, single = get_json(f"{base_url}/t/default/debug/slow")
        assert status == 200
        assert single["summary"] == tenant_doc["summary"]
        assert len(single["entries"]) == 1

    def test_slow_summary_in_stats(self, base_url):
        post(f"{base_url}/query", SPEC)
        _, stats = get_json(f"{base_url}/stats")
        assert stats["slow_queries"]["kept"] == 1
        assert stats["slow_queries"]["threshold_ms"] == 0.0


class TestTraceQueryString:
    def test_query_trace_echo(self, base_url):
        status, document = post(f"{base_url}/query?trace=1", SPEC)
        assert status == 200
        trace = document["trace"]
        assert trace["name"] == "query"
        child_names = [child["name"] for child in trace["children"]]
        assert "plan" in child_names and "execute" in child_names

    def test_batch_trace_echo(self, base_url):
        status, document = post(
            f"{base_url}/batch?trace=1", {"queries": [SPEC]}
        )
        assert status == 200
        assert document["trace"]["name"] == "batch"

    def test_trace_zero_means_off(self, base_url):
        _, document = post(f"{base_url}/query?trace=0", SPEC)
        assert "trace" not in document

    def test_tenant_route_accepts_trace(self, base_url):
        status, document = post(f"{base_url}/t/default/query?trace=1", SPEC)
        assert status == 200
        assert document["trace"]["name"] == "query"

    def test_health_carries_build_info(self, base_url):
        _, document = get_json(f"{base_url}/healthz")
        assert document["version"] == __version__
        assert document["uptime_seconds"] >= 0.0
        assert document["started_at"] > 0
